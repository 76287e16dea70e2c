"""The benchmark's four workloads.

Every workload is closed-loop: :meth:`Workload.unit` runs one whole
experiment and returns only when it has finished, and the harness starts
the next unit after that.  All load comes from the calling thread; the
only other thread is the experiment service's single inline shard (and
its idle adaptive supervisor) in ``service_grid``.

``repro`` is imported inside :meth:`Workload.setup`, never at module
level, so the harness can time imports as part of set-up and can point
the benchmark at another source tree (the paired reference mode).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import shutil
import statistics
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Dict, List, Optional, Tuple

_clock = time.perf_counter

#: Host-side fields of a RunResult; everything else is modelled output.
_HOST_FIELDS = ("phase_breakdown", "label")


class Unavailable(Exception):
    """The source tree under test lacks an API this workload needs."""


def digest(result: Any) -> str:
    """sha256 over every modelled counter of a RunResult."""
    payload = dataclasses.asdict(result)
    for name in _HOST_FIELDS:
        payload.pop(name, None)
    text = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def full_budget_ok(result: Any, config: Any) -> bool:
    """A full-detail run retired exactly its measured instruction budget."""
    return result.instructions == config.cores * config.sim_instructions


def sampled_budget_ok(result: Any, config: Any) -> bool:
    """A sampled run measured every interval it reports, in full."""
    summary = result.sampling
    if summary is None:
        return full_budget_ok(result, config)
    return result.instructions == \
        config.cores * summary.interval_instructions * summary.intervals


@dataclass
class Unit:
    """What one closed-loop unit did."""

    #: Modelled results by leg name (run key or ``workload/policy``).
    results: Dict[str, Any]
    #: Simulated instructions covered: cores x (warmup + sim) per run.
    covered: int
    #: Host seconds the simulation part of the unit took.
    sim_wall: float
    #: Runs the unit attempted and runs that failed or failed a check.
    attempted: int
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    #: ``service_grid`` only: wall seconds of tenant A's ``submit`` and
    #: of tenant B's ``submit`` to ``result_set``.
    admit_s: Optional[float] = None
    store_hit_s: Optional[float] = None
    #: Extra facts the traced run reports (session and service counts).
    extras: Dict[str, float] = field(default_factory=dict)


def model_summary(results: Dict[str, Any],
                  baseline_leg: Optional[str] = None,
                  bard_leg: Optional[str] = None) -> Dict[str, float]:
    """The modelled outputs the benchmark reports but does not gate."""
    runs = list(results.values())
    out = {
        "model.mean_ipc": statistics.fmean(r.mean_ipc for r in runs),
        "model.write_blp": statistics.fmean(r.write_blp for r in runs),
        "model.time_writing_pct": statistics.fmean(
            r.time_writing_pct for r in runs),
        "model.bard_speedup_pct": 0.0,
    }
    if baseline_leg in results and bard_leg in results:
        out["model.bard_speedup_pct"] = \
            results[bard_leg].speedup_pct(results[baseline_leg])
    return out


class Workload:
    """Base class: one named experiment the benchmark repeats."""

    name = ""
    why = ""
    baseline_leg: Optional[str] = None
    bard_leg: Optional[str] = None

    def setup(self, seed: int, work: Path) -> SimpleNamespace:
        """Import the simulator and build what the first unit needs.

        ``work`` is a directory private to this process for any state
        the workload writes; the harness removes it at the end.
        """
        raise NotImplementedError

    def unit(self, ctx: SimpleNamespace) -> Unit:
        """Run one complete experiment (closed loop)."""
        raise NotImplementedError

    def final_check(self, ctx: SimpleNamespace, unit: Unit) -> List[str]:
        """Checks run once, after the last unit; returns problems."""
        return []


def _import_experiment() -> SimpleNamespace:
    try:
        from repro.experiment import ExperimentSpec, Session
    except ImportError as exc:
        raise Unavailable(f"no experiment layer: {exc}") from exc
    return SimpleNamespace(ExperimentSpec=ExperimentSpec, Session=Session)


def _fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


class _SystemWorkload(Workload):
    """A workload driven straight through ``System``, one run per leg."""

    trace_name = ""
    warmup = 0
    sim = 0
    policies: Tuple[Optional[str], ...] = (None,)
    mshrs: Optional[int] = None

    def setup(self, seed: int, work: Path) -> SimpleNamespace:
        from repro.config.presets import small_8core
        from repro.sim.system import System
        from repro.workloads.suites import trace_factory

        base = replace(small_8core(), warmup_instructions=self.warmup,
                       sim_instructions=self.sim)
        if self.mshrs is not None:
            if not hasattr(base, "with_mshrs"):
                raise Unavailable("no MSHR pipeline (with_mshrs)")
            base = base.with_mshrs(self.mshrs)
        configs = {(p or "baseline"): replace(base, llc_writeback=p)
                   for p in self.policies}
        ctx = SimpleNamespace(System=System, trace_factory=trace_factory,
                              base=base, configs=configs, seed=seed,
                              work=work)
        # Built here so set-up time includes construction; every unit
        # builds its own machines.
        self._build(ctx)
        return ctx

    def _build(self, ctx: SimpleNamespace) -> Dict[str, Any]:
        return {leg: ctx.System(cfg, ctx.trace_factory(
                    self.trace_name, cfg, seed=ctx.seed))
                for leg, cfg in ctx.configs.items()}

    def unit(self, ctx: SimpleNamespace) -> Unit:
        start = _clock()
        systems = self._build(ctx)
        results = {leg: system.run(label=leg)
                   for leg, system in systems.items()}
        wall = _clock() - start
        covered = sum(cfg.cores * (cfg.warmup_instructions
                                   + cfg.sim_instructions)
                      for cfg in ctx.configs.values())
        problems = [f"{leg}: retired {r.instructions} instructions, "
                    f"budget {ctx.configs[leg].sim_instructions}/core"
                    for leg, r in results.items()
                    if not full_budget_ok(r, ctx.configs[leg])]
        return Unit(results=results, covered=covered, sim_wall=wall,
                    attempted=len(results), failed=len(problems),
                    problems=problems)


class WriteDrain(_SystemWorkload):
    name = "write_drain"
    why = ("copy, 8 cores, baseline + bard-h pair with detailed warmup: the "
           "LLC writeback and write-queue drain path BARD changes")
    trace_name = "copy"
    warmup, sim = 4_000, 12_000
    policies = (None, "bard-h")
    baseline_leg, bard_leg = "baseline", "bard-h"


class MshrStall(_SystemWorkload):
    name = "mshr_stall"
    why = ("bc on a 2-entry MSHR pipeline: core issue-stall re-polls and "
           "engine dispatch, with irregular row-conflicting DRAM traffic")
    trace_name = "bc"
    warmup, sim = 700, 2_100
    mshrs = 2


class SampledGrid(Workload):
    name = "sampled_grid"
    why = ("{copy, lbm} x {baseline, bard-h} through Session.run_adaptive: "
           "functional warmup, checkpoints and interval sampling")
    workloads = ("copy", "lbm")
    policies = ("baseline", "bard-h")
    warmup, sim = 2_000, 12_000

    def setup(self, seed: int, work: Path) -> SimpleNamespace:
        exp = _import_experiment()
        try:
            from repro.adaptive import AdaptivePolicy
            from repro.config.presets import small_8core
            from repro.sampling import SamplingConfig
        except ImportError as exc:
            raise Unavailable(f"no sampling/adaptive layer: {exc}") \
                from exc
        sampling = SamplingConfig(
            intervals=2, interval_instructions=600, warm_instructions=600,
            detailed_warm_instructions=200, max_intervals=4)
        config = replace(small_8core(), warmup_instructions=self.warmup,
                         sim_instructions=self.sim) \
            .with_warmup_mode("functional").with_sampling(sampling)
        # Every cell runs exactly two rounds (a 2-interval survey, then
        # 4 intervals), so a unit does the same work on every seed and
        # sim_ips stays comparable across seeds; the planner still
        # decides each group on write BLP.
        policy = AdaptivePolicy(metric="write_blp",
                                target_relative_error=0.02,
                                start_intervals=sampling.intervals,
                                min_rounds=2, max_rounds=2,
                                escalation="stop")
        grid = exp.ExperimentSpec(workloads=self.workloads, configs=config,
                                  policies=list(self.policies), seeds=seed,
                                  name=self.name)
        exp.Session(cache=False)
        return SimpleNamespace(exp=exp, config=config, policy=policy,
                               grid=grid, seed=seed, work=work)

    def unit(self, ctx: SimpleNamespace) -> Unit:
        start = _clock()
        session = ctx.exp.Session(cache=False)
        rs = session.run_adaptive(ctx.grid, ctx.policy)
        wall = _clock() - start
        results = {f"{obs.coords['workload']}/{obs.coords['policy']}":
                   obs.result for obs in rs}
        config = ctx.config
        covered = len(results) * config.cores * (
            config.warmup_instructions + config.sim_instructions)
        problems = [f"{leg}: measured {r.instructions} instructions, not "
                    f"its sampled/full budget"
                    for leg, r in results.items()
                    if not sampled_budget_ok(r, config)]
        report = rs.adaptive
        return Unit(
            results=results, covered=covered, sim_wall=wall,
            attempted=len(results), failed=len(problems),
            problems=problems,
            extras={"experiment.warmups": session.stats.warmups_executed,
                    "experiment.restores":
                        session.stats.checkpoint_restores,
                    "adaptive.rounds": report.rounds,
                    "sampling.measured_instructions": sum(
                        r.instructions for r in results.values())})


class ServiceGrid(Workload):
    name = "service_grid"
    why = ("160 one-core tiny runs through ExperimentService (inline, one "
           "shard), then resubmitted by a second tenant and served by the "
           "store")
    workloads = ("copy", "lbm", "bc", "omnetpp", "whiskey")
    policies = ("baseline", "bard-h", "bard-e", "eager")
    seeds_per_cell = 8
    warmup, sim = 100, 300

    def setup(self, seed: int, work: Path) -> SimpleNamespace:
        exp = _import_experiment()
        try:
            from repro.service.service import ExperimentService, \
                ServiceConfig
        except ImportError as exc:
            raise Unavailable(f"no experiment service: {exc}") from exc
        from repro.config.presets import small_8core

        config = replace(small_8core(), cores=1,
                         warmup_instructions=self.warmup,
                         sim_instructions=self.sim)
        grid = exp.ExperimentSpec(
            workloads=self.workloads, configs=config,
            policies=list(self.policies),
            seeds=range(seed, seed + self.seeds_per_cell), name=self.name)
        ctx = SimpleNamespace(exp=exp, config=config, grid=grid, seed=seed,
                              work=work, ExperimentService=ExperimentService,
                              ServiceConfig=ServiceConfig,
                              # The default pending bounds (64 per tenant)
                              # are below the grid size; admission would
                              # refuse the grid with QueueFull.
                              limit=10 * len(grid.expand()))
        self._service(ctx, _fresh_dir(work / "service"))
        return ctx

    def _service(self, ctx: SimpleNamespace, root: Path) -> Any:
        """A service with its state and store directories under ``root``."""
        return ctx.ExperimentService(ctx.ServiceConfig(
            state_dir=root / "state", store_dir=root / "store",
            shards=1, use_processes=False,
            max_pending_per_tenant=ctx.limit, max_pending_total=ctx.limit))

    def unit(self, ctx: SimpleNamespace) -> Unit:
        ctx.root = _fresh_dir(ctx.work / "service")
        service = self._service(ctx, ctx.root)
        service.start()
        problems: List[str] = []
        try:
            start = _clock()
            first = service.submit(ctx.grid, tenant="tenant-a")
            admit_s = _clock() - start
            if not service.drain(timeout=150.0):
                problems.append("service did not drain within 150 s")
            rs = service.result_set(first["grid_id"])
            wall = _clock() - start

            start = _clock()
            second = service.submit(ctx.grid, tenant="tenant-b")
            rs_again = service.result_set(second["grid_id"])
            store_hit_s = _clock() - start

            status = service.status(first["grid_id"])
            quarantined = int(status.get("quarantined", 0))
            extras = self._service_facts(service, ctx, rs)
        finally:
            service.stop()
        results = {obs.spec.key(): obs.result for obs in rs}
        unique = second["admission"]["unique_runs"]
        problems += self._store_problems(second, rs_again, results)
        short = [key for key, r in results.items()
                 if not full_budget_ok(r, ctx.config)]
        if short:
            problems.append(f"{len(short)} runs missed their budget")
        if quarantined:
            problems.append(f"{quarantined} jobs quarantined")
        config = ctx.config
        covered = unique * config.cores * (config.warmup_instructions
                                           + config.sim_instructions)
        failed = min(unique, quarantined + len(short)
                     + unique - len(results))
        return Unit(results=results, covered=covered, sim_wall=wall,
                    attempted=unique, failed=failed, problems=problems,
                    admit_s=admit_s, store_hit_s=store_hit_s, extras=extras)

    def _store_problems(self, status: Dict[str, Any], rs: Any,
                        results: Dict[str, Any]) -> List[str]:
        """Checks on a resubmission the store should serve entirely."""
        admission = status["admission"]
        problems = []
        if admission["store_hits"] != admission["unique_runs"] or \
                admission["new_jobs"]:
            problems.append(f"resubmission: {admission['store_hits']} of "
                            f"{admission['unique_runs']} runs from the "
                            f"store, {admission['new_jobs']} new jobs")
        served = {obs.spec.key(): digest(obs.result) for obs in rs}
        differ = sum(1 for key, result in results.items()
                     if served.get(key) != digest(result))
        if differ:
            problems.append(f"resubmission: {differ} results differ")
        return problems

    def _service_facts(self, service: Any, ctx: SimpleNamespace,
                       rs: Any) -> Dict[str, float]:
        waits = []
        for obs in rs:
            job = service.queue.get(obs.spec.key())
            if job is not None and job.leased_at and job.enqueued_at:
                waits.append(job.leased_at - job.enqueued_at)
        files = sum(1 for p in (ctx.root / "state").rglob("*")
                    if p.is_file())
        return {"service.job_wait_p50_s":
                    statistics.median(waits) if waits else 0.0,
                "service.state_files": files}

    def final_check(self, ctx: SimpleNamespace, unit: Unit) -> List[str]:
        """The service's results equal a local Session run bit for bit."""
        rs = ctx.exp.Session(cache=False).run(ctx.grid)
        local = {obs.spec.key(): digest(obs.result) for obs in rs}
        differ = [key for key, result in unit.results.items()
                  if local.get(key) != digest(result)]
        if differ:
            return [f"{len(differ)} service results differ from a local "
                    f"Session run"]
        return []


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (WriteDrain(), MshrStall(), SampledGrid(),
                        ServiceGrid())}
