"""Benchmark for the BARD DDR5 simulator: host-side metrics per workload.

Usage (from the repository root)::

    python3 perfbench/run.py --workload write_drain --seed 7 --seconds 20
    python3 perfbench/run.py --workload mshr_stall --trace 1
    python3 perfbench/run.py --workload all --seconds 5
    python3 perfbench/run.py --ref 74a1c56 --workload write_drain

``--trace 0`` (the default) repeats the workload's closed-loop unit for
``--seconds``, sets it up again between units, and prints the
end-to-end metrics in host-normalised seconds (``calibrate.py``).  ``--trace 1`` runs one untraced and two traced units and
prints the per-layer metrics.  The last line of standard output is
always one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the exit code is non-zero when any correctness check
fails.  ``--workload all`` runs every workload on the default and the
held-out seed; ``--ref`` compares another git ref against this tree
(see ``reference.py``).  See ``README.md`` for the metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Scratch state (service directories, result caches, trace output).
WORK = ROOT / ".perfbench"

DEFAULT_SEED = 7
#: Never used while the benchmark was tuned; re-check claims on it.
HELD_OUT_SEED = 4099

#: Set-ups per timed run, taken between units; ``setup_s`` is their median.
SETUP_REPEATS = 7
#: Units a timed run completes even when ``--seconds`` is shorter.
MIN_UNITS = 3
#: Paired runs per workload in the reference mode.
PAIRS = 10

#: Exit code when the source tree lacks a workload's API.
EXIT_UNAVAILABLE = 3

_clock = time.perf_counter


def benchmark_spec() -> Dict[str, Any]:
    """``BENCHMARK.json``: the one source of each metric's unit and
    direction (printing an undeclared metric fails loudly)."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _line(correct: bool, attempted: int, failed: int,
          metrics: Dict[str, float]) -> Dict[str, Any]:
    """The result line: the contract's four keys."""
    spec = benchmark_spec()
    units = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    attempted = max(1, attempted)
    return {"correct": correct, "attempted": attempted,
            "failed": min(failed, attempted),
            "metrics": {name: {"value": value, "unit": units[name]["unit"]}
                        for name, value in metrics.items()}}


def _purge_repro() -> None:
    """Forget imported simulator modules so set-up imports them afresh."""
    for name in [m for m in sys.modules
                 if m == "repro" or m.startswith("repro.")]:
        del sys.modules[name]


def _setup(workload: Any, seed: int, work: Path) -> Tuple[Any, float]:
    """Import the simulator afresh and build what the first unit needs.

    Returns ``(ctx, host-normalised seconds)``.
    """
    from calibrate import HostSpeed

    _purge_repro()
    gc.collect()
    with HostSpeed() as speed:
        ctx = workload.setup(seed, work)
    return ctx, speed.normalise(speed.wall)


def _run_unit(workload: Any, ctx: Any, units: List[Any],
              problems: List[str]) -> Optional[Any]:
    from workloads import digest

    # Each unit starts from a collected heap, so garbage left by the
    # previous one is not charged to it.
    gc.collect()
    try:
        unit = workload.unit(ctx)
    except Exception as exc:  # a failed run is a measured outcome
        problems.append(f"unit {len(units)} raised {exc!r}")
        return None
    problems.extend(unit.problems)
    if units:
        first = units[0].results
        changed = [leg for leg, r in unit.results.items()
                   if leg not in first or digest(r) != digest(first[leg])]
        if changed:
            problems.append(f"unit {len(units)}: results of {changed} "
                            "differ from the first repeat")
            unit.failed = max(unit.failed, len(changed))
    units.append(unit)
    return unit


def timed_run(workload: Any, seed: int, seconds: float, work: Path
              ) -> Tuple[Dict[str, Any], List[str], Dict[str, Any]]:
    """End-to-end metrics with tracing off, in host-normalised seconds."""
    from calibrate import HostSpeed
    from workloads import digest, model_summary

    ctx, setup_s = _setup(workload, seed, work)
    setups = [setup_s]
    units: List[Any] = []
    problems: List[str] = []
    sim_ips: List[float] = []
    wall_ips: List[float] = []
    probe_ms: List[float] = []
    service_s: Dict[str, List[float]] = {"admit_s": [], "store_hit_s": []}
    info: Dict[str, Any] = {}
    attempted = failed = 0
    start = _clock()
    while True:
        with HostSpeed() as speed:
            unit = _run_unit(workload, ctx, units, problems)
        attempted += unit.attempted if unit else 1
        failed += unit.failed if unit else 1
        if unit is None:
            break
        sim_ips.append(unit.covered / speed.normalise(unit.sim_wall))
        wall_ips.append(unit.covered / unit.sim_wall)
        probe_ms.append(1000 * statistics.fmean(speed.samples))
        if unit.admit_s is not None:
            service_s["admit_s"].append(speed.normalise(unit.admit_s))
            service_s["store_hit_s"].append(
                speed.normalise(unit.store_hit_s))
        if _clock() - start >= seconds and len(units) >= MIN_UNITS:
            break
        if len(setups) < SETUP_REPEATS:
            # Between units, so set-ups meet the host's fast and slow
            # moments the way the units do.
            ctx, setup_s = _setup(workload, seed, work)
            setups.append(setup_s)
    # Every run sets up equally often, whatever the host's speed, so
    # peak RSS does not depend on how many units fitted.
    while len(setups) < SETUP_REPEATS:
        ctx, setup_s = _setup(workload, seed, work)
        setups.append(setup_s)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    metrics: Dict[str, float] = {"setup_s": statistics.median(setups)}
    info["units"] = len(units)
    if units:
        last = units[-1]
        final = workload.final_check(ctx, last)
        problems.extend(final)
        failed += len(final)
        metrics["sim_ips"] = statistics.median(sim_ips)
        metrics["peak_rss_mb"] = peak_rss_mb
        info["sim_ips_wall"] = statistics.median(wall_ips)
        info["probe_ms"] = statistics.median(probe_ms)
        for name, values in service_s.items():
            if values:
                # Printed, not gated: see README.md.
                info[name] = statistics.median(values)
        info.update(model_summary(last.results, workload.baseline_leg,
                                  workload.bard_leg))
        info["digest"] = {leg: digest(r)
                          for leg, r in sorted(last.results.items())[:4]}
    return _line(not problems, attempted, failed, metrics), problems, info


def traced_run(workload: Any, seed: int, work: Path
               ) -> Tuple[Dict[str, Any], List[str], Dict[str, Any]]:
    """Per-layer metrics: one untraced unit, then two traced units."""
    from layers import LayerTracer, layer_metrics, write_trace
    from workloads import digest

    ctx, _ = _setup(workload, seed, work)
    units: List[Any] = []
    problems: List[str] = []
    walls: List[float] = []
    tracers: List[LayerTracer] = []
    for traced in (False, True, True):
        tracer = LayerTracer()
        if traced:
            tracer.install()
            tracer.run_id = f"{workload.name}-{seed}-{len(tracers)}"
        start = _clock()
        try:
            # The unit is the root span of everything traced inside it.
            unit = tracer.call("bench", "unit", _run_unit, workload, ctx,
                               units, problems)
        finally:
            if traced:
                tracer.uninstall()
        walls.append(_clock() - start)
        if unit is None:
            break
        if traced:
            tracers.append(tracer)
    attempted = sum(u.attempted for u in units) or 1
    failed = sum(u.failed for u in units) + (3 - len(units))
    metrics: Dict[str, float] = {}
    info: Dict[str, Any] = {}
    if len(tracers) == 2:
        first, second = (layer_metrics(t, u, workload)
                         for t, u in zip(tracers, units[1:]))
        counts = {k: v for k, v in first.items() if not k.endswith("_s")}
        again = {k: v for k, v in second.items() if not k.endswith("_s")}
        if counts != again:
            differ = sorted(k for k in counts if counts[k] != again.get(k))
            problems.append(f"traced counts differ between two runs: "
                            f"{differ}")
            failed += 1
        metrics = first
        metrics["trace.overhead_pct"] = \
            100.0 * (statistics.fmean(walls[1:]) / walls[0] - 1.0)
        info["trace_file"] = str(write_trace(
            WORK, workload.name, seed, tracers[0], metrics,
            {leg: digest(r) for leg, r in units[1].results.items()}))
    return _line(not problems, attempted, failed, metrics), problems, info


def invoke(src: Path, workload: str, seed: int, seconds: int, trace: int = 0
           ) -> Tuple[int, Optional[Dict[str, Any]], List[str]]:
    """Run one benchmark invocation in a child process.

    Used by ``--workload all`` and ``--ref`` so each measurement gets a
    fresh interpreter (peak RSS and import time are per process).
    Returns ``(exit code, parsed last line or None, readable lines)``.
    """
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace",
           str(trace), "--src", str(src)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    lines = proc.stdout.strip().splitlines()
    parsed = None
    if lines:
        try:
            parsed = json.loads(lines[-1])
            lines.pop()
        except json.JSONDecodeError:
            parsed = None
    if proc.returncode not in (0, EXIT_UNAVAILABLE) and proc.stderr:
        sys.stderr.write(proc.stderr[-2000:])
    return proc.returncode, parsed, lines


def run_all(src: Path, seconds: int, trace: int) -> int:
    """Every workload on the default and the held-out seed."""
    from workloads import WORKLOADS

    summary: Dict[str, Any] = {}
    correct, attempted, failed = True, 0, 0
    for name in WORKLOADS:
        for seed in (DEFAULT_SEED, HELD_OUT_SEED):
            code, line, text = invoke(src, name, seed, seconds, trace)
            if line is None:
                print(f"{name} seed={seed}: exit {code}, no result")
                correct = False
                continue
            correct = correct and code == 0 and line["correct"]
            attempted += line["attempted"]
            failed += line["failed"]
            status = "ok" if code == 0 and line["correct"] else "FAILED"
            print(f"{name} seed={seed}: {status}, attempted "
                  f"{line['attempted']}, failed {line['failed']}")
            # The run's own lines, printed ungated figures included.
            print("\n".join(text[1:]))
            for metric, value in line["metrics"].items():
                summary[f"{name}.{seed}.{metric}"] = value
    print(json.dumps({"correct": correct, "attempted": max(1, attempted),
                      "failed": failed, "metrics": summary}))
    return 0 if correct else 1


def _parse(argv: Optional[List[str]]) -> argparse.Namespace:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="source tree to benchmark (default: ./src)")
    parser.add_argument("--ref", default=None,
                        help="git ref to compare against, paired runs")
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    sys.path.insert(0, str(HERE))
    args = _parse(argv)
    src = args.src.resolve()
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no simulator source tree at {src}", file=sys.stderr)
        return 2
    if args.ref:
        from reference import compare
        return compare(args.ref, args.workload, args.seed, args.seconds)
    if args.workload == "all":
        return run_all(src, args.seconds, args.trace)
    sys.path.insert(0, str(src))
    WORK.mkdir(exist_ok=True)
    from workloads import WORKLOADS, Unavailable

    workload = WORKLOADS[args.workload]
    # Private to this process, so two runs in one checkout cannot collide.
    work = WORK / f"{workload.name}-{os.getpid()}"
    try:
        if args.trace:
            line, problems, info = traced_run(workload, args.seed, work)
        else:
            line, problems, info = timed_run(workload, args.seed,
                                             args.seconds, work)
    except Unavailable as exc:
        print(f"unavailable: {workload.name}: {exc}", file=sys.stderr)
        return EXIT_UNAVAILABLE
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"workload {workload.name} seed={args.seed} "
          f"trace={args.trace}: {workload.why}")
    for key, value in info.items():
        if isinstance(value, dict):
            for sub, item in value.items():
                print(f"  {key}.{sub}: {item}")
        else:
            print(f"  {key}: {value}")
    for metric, value in line["metrics"].items():
        print(f"  {metric:34s} {value['value']:>16.6g} {value['unit']}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
