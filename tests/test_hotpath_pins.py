"""Per-access hot-path results pinned bit for bit, engine events included.

The golden-stats suite pins four perf scenarios, all with LRU, the
baseline writeback policy, both prefetchers on, x4 devices, one channel
and detailed warmup.  This module pins every
:class:`~repro.sim.results.RunResult` field - ``events`` included - for
the configurations around them on the core -> TLB -> L1D -> prefetcher
path: each LLC replacement policy, each writeback policy, prefetchers
off, x8 devices, BARD on two channels and without page interleaving,
functional warmup, and a three-interval sampled run (``small_8core`` at
600 + 1,500 instructions per core).  A hot-path refactor must change no
model decision and no engine event, so every field here must hold.

``phase_breakdown`` is left out: it holds host wall-clock seconds.

Regenerate ``tests/data/hotpath_pins.json`` (only for a reviewed,
intended behaviour change) with::

    PYTHONPATH=src python -m tests.test_hotpath_pins --write
"""

from __future__ import annotations

import dataclasses
import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from repro.config.presets import small_8core
from repro.sampling import SamplingConfig
from repro.sim.system import System
from repro.workloads.suites import trace_factory

PINS_PATH = Path(__file__).parent / "data" / "hotpath_pins.json"

WARMUP, SIM = 600, 1_500

#: Three 300-instruction intervals with functional warming between them.
SAMPLING = SamplingConfig(intervals=3, interval_instructions=300,
                          warm_instructions=100,
                          detailed_warm_instructions=100)


def _base(writeback=None):
    return replace(small_8core(), warmup_instructions=WARMUP,
                   sim_instructions=SIM).with_writeback(writeback)


def _no_prefetch(config):
    return replace(config, l1d=replace(config.l1d, prefetcher=None),
                   l2=replace(config.l2, prefetcher=None))


def _channels(config, channels):
    return replace(config, dram=replace(config.dram, channels=channels))


#: name -> (workload, seed, config builder)
CASES = {
    **{f"repl-{p}": ("whiskey", 7,
                     lambda p=p: _base("bard-h").with_replacement(p))
       for p in ("lru", "srrip", "ship", "drrip")},
    **{f"wb-{p or 'baseline'}": ("bc", 7, lambda p=p: _base(p))
       for p in (None, "bard-e", "bard-c", "bard-h", "eager", "vwq")},
    "no-prefetch": ("lbm", 7, lambda: _no_prefetch(_base("bard-h"))),
    "device-x8": ("omnetpp", 4099,
                  lambda: _base("bard-h").with_device("x8")),
    "bard-h-2ch": ("bc", 4099, lambda: _channels(_base("bard-h"), 2)),
    "bard-h-no-pbpl": ("bc", 7, lambda: _base("bard-h").without_pbpl()),
    "functional-warmup": ("bc", 7, lambda: _base("bard-h")
                          .with_warmup_mode("functional")),
    "sampled": ("whiskey", 7, lambda: _base("bard-h")
                .with_warmup_mode("functional").with_sampling(SAMPLING)),
}


def run_case(name: str):
    workload, seed, build = CASES[name]
    config = build()
    system = System(config, trace_factory(workload, config, seed=seed))
    return system.run(label=workload)


def pinned_fields(result) -> dict:
    """Every RunResult field as JSON-ready data, host seconds excluded."""
    fields = dataclasses.asdict(result)
    del fields["phase_breakdown"]
    # Round-trip through JSON so tuples compare as the lists they load as.
    return json.loads(json.dumps(fields))


@pytest.mark.parametrize("name", sorted(CASES))
def test_matches_pinned_results(name):
    with open(PINS_PATH) as f:
        want = json.load(f)[name]
    got = pinned_fields(run_case(name))
    mismatched = sorted(k for k in want if got.get(k) != want[k])
    assert not mismatched, f"{name}: fields drifted: {mismatched}"
    assert got == want


def _write() -> None:
    pins = {name: pinned_fields(run_case(name)) for name in sorted(CASES)}
    with open(PINS_PATH, "w") as f:
        json.dump(pins, f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit("usage: python -m tests.test_hotpath_pins --write")
    _write()
