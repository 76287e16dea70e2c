"""Warmup modes and warm-state checkpoints.

Three contracts from the warmup layer:

(a) ``warmup_mode="detailed"`` (the default) is bit-identical to the
    historical behaviour - ``tests/test_golden_stats.py`` pins that
    against the seed implementation; here we pin the default itself and
    the config surface.
(b) A run restored from a warm-state snapshot produces statistics
    identical to a fresh functional-warmup run of the same spec -
    including across LLC writeback policy variants, which is what lets
    one snapshot serve a whole comparison grid.
(c) A policy-comparison grid executed through a :class:`Session` with
    checkpointing runs its warmup exactly once.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.config.presets import small_8core
from repro.config.system import SystemConfig
from repro.errors import ConfigError, SimulationError
from repro.experiment import ExperimentSpec, Session, warm_group_key
from repro.experiment.session import simulate
from repro.experiment.spec import RunSpec
from repro.sim.system import System
from repro.sim.warmstate import warm_config_signature
from repro.workloads.suites import trace_factory

WARMUP = 2_000
SIM = 2_000


def _config(mode: str = "functional", **overrides) -> SystemConfig:
    cfg = replace(small_8core(), warmup_instructions=WARMUP,
                  sim_instructions=SIM, warmup_mode=mode)
    return replace(cfg, **overrides) if overrides else cfg


def _stats_dict(result) -> dict:
    """The counters test (b) compares bit-for-bit."""
    out = {
        "events": result.events,
        "instructions": result.instructions,
        "elapsed_ticks": result.elapsed_ticks,
        "ipc": result.ipc,
    }
    for field in ("accesses", "hits", "misses", "fills", "evictions",
                  "dirty_evictions", "writebacks", "cleanses",
                  "prefetch_accesses", "writeback_installs"):
        out[f"llc.{field}"] = getattr(result.llc, field)
    out["dram.reads"] = result.dram.reads_issued
    out["dram.writes"] = result.dram.writes_issued
    return out


# ----------------------------------------------------------------------
# (a) config surface; the detailed default stays the historical path
# ----------------------------------------------------------------------

class TestWarmupModeConfig:
    def test_default_is_detailed(self):
        assert SystemConfig().warmup_mode == "detailed"
        assert small_8core().warmup_mode == "detailed"

    def test_invalid_mode_rejected(self):
        with pytest.raises(ConfigError):
            SystemConfig(warmup_mode="magic")

    def test_with_warmup_mode(self):
        cfg = small_8core().with_warmup_mode("functional")
        assert cfg.warmup_mode == "functional"
        assert small_8core().warmup_mode == "detailed"

    def test_mode_changes_run_key(self):
        detailed = RunSpec("copy", _config("detailed"))
        functional = RunSpec("copy", _config("functional"))
        assert detailed.key() != functional.key()

    def test_detailed_and_functional_modes_agree_on_shape(self):
        """Functional warmup changes warm state, not simulation sanity."""
        det = simulate(RunSpec("copy", _config("detailed"), 7, "d"))
        fun = simulate(RunSpec("copy", _config("functional"), 7, "f"))
        assert det.instructions == fun.instructions
        assert fun.elapsed_ticks > 0
        assert fun.llc.accesses > 0


# ----------------------------------------------------------------------
# (b) snapshot restore == fresh functional run
# ----------------------------------------------------------------------

class TestWarmStateSnapshots:
    def test_restore_matches_fresh_run(self):
        cfg = _config()
        fresh = simulate(RunSpec("copy", cfg, 7, "copy"))

        donor = System(cfg, trace_factory("copy", cfg, seed=7))
        snapshot = donor.snapshot_warm_state()
        restored_system = System(cfg, trace_factory("copy", cfg, seed=7))
        restored_system.restore_warm_state(snapshot)
        restored = restored_system.run(label="copy")

        assert _stats_dict(restored) == _stats_dict(fresh)

    def test_restore_across_policies_matches_fresh_run(self):
        """One snapshot serves every writeback-policy variant."""
        base_cfg = _config()
        donor = System(base_cfg, trace_factory("copy", base_cfg, seed=7))
        snapshot = donor.snapshot_warm_state()

        for policy in ("bard-h", "eager", "vwq"):
            cfg = base_cfg.with_writeback(policy)
            fresh = simulate(RunSpec("copy", cfg, 7, policy))
            restored_system = System(
                cfg, trace_factory("copy", cfg, seed=7))
            restored_system.restore_warm_state(snapshot)
            restored = restored_system.run(label=policy)
            assert _stats_dict(restored) == _stats_dict(fresh), policy

    def test_snapshot_leaves_donor_reusable(self):
        """Snapshotting is non-destructive: the donor still runs true."""
        cfg = _config()
        donor = System(cfg, trace_factory("copy", cfg, seed=7))
        donor.snapshot_warm_state()
        result = donor.run(label="copy")
        fresh = simulate(RunSpec("copy", cfg, 7, "copy"))
        assert _stats_dict(result) == _stats_dict(fresh)

    def test_detailed_mode_cannot_snapshot(self):
        cfg = _config("detailed")
        system = System(cfg, trace_factory("copy", cfg, seed=7))
        with pytest.raises(SimulationError):
            system.snapshot_warm_state()

    def test_restore_rejects_mismatched_config(self):
        cfg = _config()
        donor = System(cfg, trace_factory("copy", cfg, seed=7))
        snapshot = donor.snapshot_warm_state()
        other = replace(cfg, warmup_instructions=WARMUP + 500)
        target = System(other, trace_factory("copy", other, seed=7))
        with pytest.raises(SimulationError):
            target.restore_warm_state(snapshot)

    def test_restore_rejects_used_system(self):
        cfg = _config()
        donor = System(cfg, trace_factory("copy", cfg, seed=7))
        snapshot = donor.snapshot_warm_state()
        used = System(cfg, trace_factory("copy", cfg, seed=7))
        used.run(label="copy")
        with pytest.raises(SimulationError):
            used.restore_warm_state(snapshot)


# ----------------------------------------------------------------------
# (c) a comparison grid warms up exactly once
# ----------------------------------------------------------------------

class TestSessionCheckpointSharing:
    def _grid(self, cfg, policies=("baseline", "bard-h")):
        return ExperimentSpec(workloads="copy", configs=cfg,
                              policies=list(policies), name="warm-grid")

    def test_two_policy_grid_warms_once(self):
        session = Session(cache=False)
        session.run(self._grid(_config()))
        assert session.stats.simulated == 2
        assert session.stats.warmups_executed == 1
        assert session.stats.checkpoint_restores == 1

    def test_checkpointed_grid_matches_unshared_grid(self):
        spec = self._grid(_config(),
                          policies=("baseline", "bard-h", "vwq"))
        shared = Session(cache=False).run(spec)
        unshared = Session(cache=False, checkpoints=False).run(spec)
        for a, b in zip(shared, unshared):
            assert a.coords == b.coords
            assert _stats_dict(a.result) == _stats_dict(b.result), a.coords

    def test_detailed_grid_does_not_share(self):
        session = Session(cache=False)
        session.run(self._grid(_config("detailed")))
        assert session.stats.warmups_executed == 2
        assert session.stats.checkpoint_restores == 0

    def test_zero_warmup_runs_never_count_warmups(self):
        session = Session(cache=False)
        session.run(self._grid(_config(warmup_instructions=0)))
        assert session.stats.warmups_executed == 0
        assert session.stats.checkpoint_restores == 0

    def test_different_workloads_do_not_share(self):
        cfg = _config()
        session = Session(cache=False)
        session.run(ExperimentSpec(workloads=["copy", "add"],
                                   configs=cfg, name="two-workloads"))
        assert session.stats.warmups_executed == 2
        assert session.stats.checkpoint_restores == 0

    def test_groups_split_to_fill_pool_workers(self):
        """A parallel session trades sharing back for parallelism."""
        cfg = _config()
        plan = self._grid(cfg, policies=("baseline", "bard-e", "bard-h",
                                         "eager")).expand()
        missing = list(plan.runs.items())

        serial = Session(cache=False)
        assert [len(g) for _, g in serial._warm_groups(missing)] == [4]

        wide = Session(cache=False, parallel=4)
        chunks = wide._warm_groups(missing)
        assert sorted(len(c) for _, c in chunks) == [1, 1, 1, 1]
        # Split chunks keep the shared warm-group key of their parent.
        assert len({gk for gk, _ in chunks}) == 1
        # Order-preserving partition of the same work items.
        assert [ks for _, chunk in chunks for ks in chunk] != []
        assert sorted(k for _, chunk in chunks for k, _ in chunk) == \
            sorted(k for k, _ in missing)

        two = Session(cache=False, parallel=2)
        assert sorted(len(c) for _, c in two._warm_groups(missing)) == \
            [2, 2]


# ----------------------------------------------------------------------
# warm grouping keys
# ----------------------------------------------------------------------

class TestWarmGroupKey:
    def test_policy_variants_share(self):
        cfg = _config()
        a = warm_group_key(RunSpec("copy", cfg))
        b = warm_group_key(RunSpec("copy", cfg.with_writeback("bard-h")))
        assert a is not None and a == b

    def test_dram_variants_share(self):
        cfg = _config()
        a = warm_group_key(RunSpec("copy", cfg))
        b = warm_group_key(RunSpec("copy", cfg.with_device("x8")))
        c = warm_group_key(RunSpec("copy", cfg.with_wq(96)))
        assert a == b == c

    def test_sim_budget_variants_share(self):
        cfg = _config()
        a = warm_group_key(RunSpec("copy", cfg))
        b = warm_group_key(
            RunSpec("copy", replace(cfg, sim_instructions=SIM * 2)))
        assert a == b

    def test_detailed_and_zero_warmup_never_share(self):
        assert warm_group_key(RunSpec("copy", _config("detailed"))) is None
        assert warm_group_key(
            RunSpec("copy", _config(warmup_instructions=0))) is None

    def test_seed_workload_and_geometry_split_groups(self):
        cfg = _config()
        base = warm_group_key(RunSpec("copy", cfg))
        assert warm_group_key(RunSpec("copy", cfg, seed=8)) != base
        assert warm_group_key(RunSpec("add", cfg)) != base
        resized = replace(cfg, llc=replace(cfg.llc, ways=8))
        assert warm_group_key(RunSpec("copy", resized)) != base

    def test_signature_ignores_writeback_and_dram(self):
        cfg = _config()
        assert warm_config_signature(cfg) == \
            warm_config_signature(cfg.with_writeback("vwq"))
        assert warm_config_signature(cfg) == \
            warm_config_signature(cfg.with_device("x8"))
        assert warm_config_signature(cfg) != \
            warm_config_signature(replace(cfg, cores=4))


# ----------------------------------------------------------------------
# Snapshots deep-copy policy state without deprecated copy support
# ----------------------------------------------------------------------

#: What a policy or prefetcher may hold for ``copy.deepcopy`` to copy it
#: on every supported Python (iterators such as ``itertools.count`` lose
#: deep-copy support in 3.14 and warn from 3.12).
_PLAIN = (bool, int, float, str, type(None))


def _plain_data(value) -> bool:
    if isinstance(value, _PLAIN):
        return True
    if isinstance(value, (list, tuple, set, frozenset)):
        return all(_plain_data(v) for v in value)
    if isinstance(value, dict):
        return all(_plain_data(k) and _plain_data(v)
                   for k, v in value.items())
    if hasattr(value, "__dict__") or hasattr(value, "__slots__"):
        fields = dict(getattr(value, "__dict__", {}))
        for name in getattr(type(value), "__slots__", ()):
            fields[name] = getattr(value, name)
        return all(_plain_data(v) for v in fields.values())
    return False


class TestSnapshotCopySupport:
    @pytest.mark.parametrize("policy", ["lru", "srrip", "ship", "drrip"])
    def test_snapshot_and_restore_raise_no_deprecation(self, policy):
        import warnings

        cfg = _config(warmup_instructions=500,
                      sim_instructions=500).with_replacement(policy)
        donor = System(cfg, trace_factory("lbm", cfg, seed=7))
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            snapshot = donor.snapshot_warm_state()
            restored = System(cfg, trace_factory("lbm", cfg, seed=7))
            restored.restore_warm_state(snapshot)
        assert restored.run(label="lbm").instructions == \
            cfg.cores * cfg.sim_instructions

    @pytest.mark.parametrize("policy", ["lru", "srrip", "ship", "drrip"])
    def test_policy_state_is_plain_data(self, policy):
        """Holds on Pythons that do not warn yet, too."""
        cfg = _config(warmup_instructions=500,
                      sim_instructions=500).with_replacement(policy)
        snapshot = System(cfg, trace_factory("lbm", cfg, seed=7)) \
            .snapshot_warm_state()
        for cache in snapshot.caches:
            assert _plain_data(cache.repl), type(cache.repl).__name__
            assert _plain_data(cache.prefetcher)
