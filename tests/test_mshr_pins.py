"""MSHR-pipeline results pinned bit for bit.

The golden-stats suite pins one MSHR-pipeline scenario.  This module pins
more: every :class:`~repro.sim.results.RunResult` field (except the
engine's event count, an implementation detail) for a spread of
workloads, MSHR file sizes and seeds on ``small_8core`` at 600 + 1,500
instructions per core, plus one multi-interval sampled run.  These
configurations are sensitive to the same-tick order in which stalled
cores resume issue: a core that resumes one event early or late shifts
``elapsed_ticks`` and the DRAM counters.

``phase_breakdown`` is left out too: it holds host wall-clock seconds.

Regenerate ``tests/data/mshr_pins.json`` (only for a reviewed, intended
behaviour change) with::

    PYTHONPATH=src python -m tests.test_mshr_pins --write
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

PINS_PATH = Path(__file__).parent / "data" / "mshr_pins.json"

WARMUP, SIM = 600, 1_500

#: name -> (workload, L1D MSHRs, seed, sampled)
CASES = {
    "lbm-m1-s7": ("lbm", 1, 7, False),
    "lbm-m2-s7": ("lbm", 2, 7, False),
    "omnetpp-m2-s7": ("omnetpp", 2, 7, False),
    "omnetpp-m4-s4099": ("omnetpp", 4, 4099, False),
    "whiskey-m1-s7": ("whiskey", 1, 7, False),
    "whiskey-m2-s4099": ("whiskey", 2, 4099, False),
    "bc-m2-s7": ("bc", 2, 7, False),
    "bc-m2-s7-sampled": ("bc", 2, 7, True),
}

#: Three 300-instruction intervals, 500 apart: every gap holds functional
#: warming (cores pause and the pipeline drains) and a discarded detailed
#: window (soft quotas, cores keep running past each window).
SAMPLING = SamplingConfig(intervals=3, interval_instructions=300,
                          warm_instructions=100,
                          detailed_warm_instructions=100)


def case_config(mshrs: int, sampled: bool):
    config = replace(small_8core(), warmup_instructions=WARMUP,
                     sim_instructions=SIM).with_mshrs(mshrs)
    if sampled:
        config = config.with_warmup_mode("functional") \
            .with_sampling(SAMPLING)
    return config


def run_case(name: str):
    workload, mshrs, seed, sampled = CASES[name]
    config = case_config(mshrs, sampled)
    system = System(config, trace_factory(workload, config, seed=seed))
    return system, system.run(label=workload)


def pinned_fields(result) -> dict:
    """Every RunResult field as JSON-ready data, minus the unpinned two."""
    fields = dataclasses.asdict(result)
    del fields["events"], fields["phase_breakdown"]
    # Round-trip through JSON so tuples compare as the lists they load as.
    return json.loads(json.dumps(fields))


@pytest.mark.parametrize("name", sorted(CASES))
def test_matches_pinned_results(name):
    with open(PINS_PATH) as f:
        want = json.load(f)[name]
    _, result = run_case(name)
    got = pinned_fields(result)
    mismatched = sorted(k for k in want if got.get(k) != want[k])
    assert not mismatched, f"{name}: fields drifted: {mismatched}"
    assert got == want


def _write() -> None:
    pins = {name: pinned_fields(run_case(name)[1]) for name in sorted(CASES)}
    with open(PINS_PATH, "w") as f:
        json.dump(pins, f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit("usage: python -m tests.test_mshr_pins --write")
    _write()
