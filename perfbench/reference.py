"""Paired reference mode: another git ref against this tree, same host.

``python3 perfbench/run.py --ref <ref> [--workload W]``
extracts ``src/`` of ``<ref>`` with ``git archive`` into
``.perfbench/ref-<commit>/`` and runs the benchmark on both trees in
alternating order (reference first on even pairs, this tree first on odd
ones), one child process per run and never two at once.  Both sides use
the same benchmark code, workload, seed and run length.

For every end-to-end metric it prints each side's median and quartiles
and the share of pairs this tree won (ties count for neither side).  A
workload whose API the reference lacks - the seed commit has no MSHR
pipeline, sampling or service - is reported as unavailable, not failed.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import tarfile
from pathlib import Path
from typing import Any, Dict, List

from run import EXIT_UNAVAILABLE, PAIRS, ROOT, WORK, benchmark_spec, \
    invoke
from workloads import WORKLOADS


def extract(ref: str) -> Path:
    """``src/`` of ``ref`` unpacked under ``.perfbench``; returns its path."""
    commit = subprocess.run(
        ["git", "rev-parse", "--verify", f"{ref}^{{commit}}"], cwd=ROOT,
        capture_output=True, text=True, check=True).stdout.strip()
    target = WORK / f"ref-{commit[:12]}"
    src = target / "src"
    if (src / "repro" / "__init__.py").is_file():
        return src
    target.mkdir(parents=True, exist_ok=True)
    archive = subprocess.Popen(["git", "archive", "--format=tar", commit,
                                "src"], cwd=ROOT, stdout=subprocess.PIPE)
    try:
        with tarfile.open(fileobj=archive.stdout, mode="r|") as tar:
            tar.extractall(target, filter="data")
    finally:
        archive.stdout.close()
        if archive.wait() != 0:
            raise RuntimeError(f"git archive {commit} failed")
    return src


def _quartiles(values: List[float]) -> List[float]:
    if len(values) < 2:
        return [values[0]] * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return [q1, q2, q3]


def _compare_workload(name: str, ref_src: Path, seed: int,
                      seconds: int) -> Dict[str, Any]:
    sides: Dict[str, List[Dict[str, Any]]] = {"ref": [], "head": []}
    for i in range(PAIRS):
        order = ("ref", "head") if i % 2 == 0 else ("head", "ref")
        for side in order:
            src = ref_src if side == "ref" else ROOT / "src"
            code, line, _ = invoke(src, name, seed, seconds)
            if side == "ref" and code == EXIT_UNAVAILABLE:
                return {"status": "unavailable on the reference"}
            if line is None or code != 0 or not line["correct"]:
                return {"status": f"{side} run failed (exit {code})"}
            sides[side].append(line["metrics"])
    report: Dict[str, Any] = {"status": "ok", "pairs": PAIRS, "metrics": {}}
    for declared in benchmark_spec()["end_to_end"]:
        metric = declared["name"]
        higher = declared["better"] == "higher"
        if not all(metric in m for m in sides["ref"] + sides["head"]):
            report["metrics"][metric] = "unavailable on the reference"
            continue
        ref = [m[metric]["value"] for m in sides["ref"]]
        head = [m[metric]["value"] for m in sides["head"]]
        wins = sum(1 for r, h in zip(ref, head)
                   if (h > r if higher else h < r))
        report["metrics"][metric] = {
            "unit": sides["head"][0][metric]["unit"],
            "ref_q1_median_q3": _quartiles(ref),
            "head_q1_median_q3": _quartiles(head),
            "head_won": wins / PAIRS,
        }
    return report


def compare(ref: str, workload: str, seed: int, seconds: int) -> int:
    """Run the paired comparison; prints a table and a JSON summary."""
    WORK.mkdir(exist_ok=True)
    ref_src = extract(ref)
    names = list(WORKLOADS) if workload == "all" else [workload]
    out: Dict[str, Any] = {"ref": ref, "seed": seed, "seconds": seconds,
                           "workloads": {}}
    ok = True
    for name in names:
        report = _compare_workload(name, ref_src, seed, seconds)
        out["workloads"][name] = report
        print(f"{name}: {report['status']}")
        if report["status"].startswith("unavailable"):
            continue
        if report["status"] != "ok":
            ok = False
            continue
        for metric, row in report["metrics"].items():
            if isinstance(row, str):
                print(f"  {metric:12s} {row}")
                continue
            ref_q, head_q = row["ref_q1_median_q3"], row["head_q1_median_q3"]
            print(f"  {metric:12s} ref {ref_q[1]:.6g} [{ref_q[0]:.6g}, "
                  f"{ref_q[2]:.6g}]  head {head_q[1]:.6g} [{head_q[0]:.6g},"
                  f" {head_q[2]:.6g}] {row['unit']}  head won "
                  f"{row['head_won']:.0%} of {PAIRS} pairs")
    print(json.dumps(out))
    return 0 if ok else 1
