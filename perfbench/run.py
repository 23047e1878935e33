"""Benchmark entry point: ``python3 perfbench/run.py --workload W
--seed N --seconds S --trace 0|1``.

Runs the workload's child (:mod:`perfbench.child`) again and again,
each time in a fresh interpreter, until ``S`` seconds are used (at
least twice), then prints the medians.  With ``--trace 0`` every child
is untraced and the result carries the end-to-end metrics named in
``BENCHMARK.json``; with ``--trace 1`` untraced and traced children
alternate and the result carries the per-layer metrics of the traced
ones (plus ``trace.overhead_frac`` against the untraced ones).

The last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``; ``attempted`` and
``failed`` count the seed's operations once, however many children
repeated them.  Before it come a
``summary:`` line (the workload's own throughput and latency figures
with their sample counts) and a ``provenance:`` line.  The whole
report is also written to ``perfbench/out/``.

Exit status: 0 when every output check passed, 1 when one failed (the
result is still printed, with ``"correct": false``), 2 when a child
could not run (no result is printed).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import tracing  # noqa: E402

WORKLOADS = ("paper-figures", "million-routing", "tap-retrieval")
#: a run stops starting children this long before the 180 s limit
HARD_LIMIT_S = 165.0
MIN_CHILDREN = 2


class ChildError(RuntimeError):
    """A child crashed, timed out or wrote no result."""


def _median(values):
    return statistics.median(values) if values else 0.0


def _percentile(values, q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def run_child(workload: str, seed: int, trace: bool, size: str, out_dir: Path,
              index: int, timeout: float) -> dict:
    """Spawn one child; return its result with spawn-relative timings."""
    out = out_dir / f"child{index}.json"
    spans = out_dir / f"child{index}.spans.json"
    for stale in (out, spans):
        stale.unlink(missing_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    cmd = [sys.executable, "-m", "perfbench.child", "--workload", workload,
           "--seed", str(seed), "--size", size, "--trace", str(int(trace)),
           "--out", str(out), "--spans", str(spans)]
    t_spawn = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL)
    killer = threading.Timer(timeout, proc.kill)
    killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
    t_exit = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0 or not out.exists():
        raise ChildError(f"{workload} child exited with status {proc.returncode}")
    with open(out) as fh:
        result = json.load(fh)
    result.update(
        traced=trace,
        wall_s=t_exit - t_spawn,
        setup_s=result["t_ready"] - t_spawn,
        peak_rss_mib=usage.ru_maxrss / 1024.0,
    )
    if trace:
        with open(spans) as fh:
            dump = json.load(fh)
        result["layers"] = tracing.layer_metrics(
            dump["spans"], dump["counts"], result["import_modules"])
    return result


def run_children(workload: str, seed: int, seconds: float, trace: bool,
                 size: str, out_dir: Path) -> list[dict]:
    """Alternate untraced (and, with ``trace``, traced) children until
    ``seconds`` are used; at least one of each kind, two in all."""
    start = time.monotonic()
    children: list[dict] = []
    while True:
        traced = trace and len(children) % 2 == 1
        elapsed = time.monotonic() - start
        if children:
            same = [c["wall_s"] for c in children if c["traced"] == traced] or \
                [c["wall_s"] for c in children]
            estimate = _median(same)
            if len(children) >= MIN_CHILDREN and elapsed + estimate > seconds:
                break
            if elapsed + estimate > HARD_LIMIT_S:
                if len(children) >= MIN_CHILDREN:
                    break
                raise ChildError(f"{workload} children take {estimate:.0f} s; "
                                 f"{MIN_CHILDREN} do not fit in {HARD_LIMIT_S:.0f} s")
        children.append(run_child(workload, seed, traced, size, out_dir,
                                  len(children), HARD_LIMIT_S + 10 - elapsed))
    return children


def workload_summary(children: list[dict]) -> dict:
    """The workload's own throughput/latency figures, per untraced child
    (median across children) with their sample counts."""
    plain = [c for c in children if not c["traced"]]
    summary: dict = {}
    attempted = plain[0]["attempted"]
    summary["error_rate"] = plain[0]["failed"] / attempted if attempted else 0.0
    summary["operations"] = attempted
    for name in sorted(plain[0]["rates"]):
        summary[f"{name}_per_s"] = _median(
            [units / seconds for units, seconds in (c["rates"][name] for c in plain)])
    for kind in sorted(plain[0]["samples"]):
        per_child = [c["samples"][kind] for c in plain]
        summary[f"{kind}_samples_per_child"] = len(per_child[0])
        if len(per_child[0]) >= 100:
            summary[f"{kind}_p50_ms"] = 1e3 * _median(
                [_percentile(s, 0.5) for s in per_child])
            summary[f"{kind}_p90_ms"] = 1e3 * _median(
                [_percentile(s, 0.9) for s in per_child])
    for name, value in sorted(plain[0]["counts"].items()):
        summary[name] = value
    return summary


def end_to_end(children: list[dict]) -> dict:
    plain = [c for c in children if not c["traced"]]
    return {
        "wall_s": {"value": _median([c["wall_s"] for c in plain]), "unit": "s"},
        "setup_s": {"value": _median([c["setup_s"] for c in plain]), "unit": "s"},
        "peak_rss_mib": {"value": _median([c["peak_rss_mib"] for c in plain]),
                         "unit": "MiB"},
    }


def per_layer(children: list[dict]) -> dict:
    plain = [c for c in children if not c["traced"]]
    traced = [c for c in children if c["traced"]]
    names = list(traced[0]["layers"])
    metrics = {}
    for name in names:
        value = _median([c["layers"][name] for c in traced])
        metrics[name] = {"value": value, "unit": layer_unit(name)}
    pending = traced[0]["counts"].get("pending_replies_open", 0)
    metrics["core.pending_replies_open"] = {"value": pending, "unit": "count"}
    metrics["trace.overhead_frac"] = {
        "value": _median([c["wall_s"] for c in traced])
        / _median([c["wall_s"] for c in plain]) - 1.0,
        "unit": "ratio",
    }
    return metrics


def layer_unit(name: str) -> str:
    if name.endswith(".self_s"):
        return "s"
    if name.endswith(".us_per_packet"):
        return "us"
    if name.endswith(".thas_per_attempt"):
        return "ratio"
    return "count"


def provenance(seed: int, children: list[dict]) -> dict:
    """What was measured, where: tree, interpreter, libraries, CPUs."""
    try:
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        top = subprocess.run(["git", "rev-parse", "--show-toplevel"], cwd=ROOT,
                             env=env, capture_output=True, text=True, timeout=10)
        describe = subprocess.run(["git", "describe", "--always", "--dirty"],
                                  cwd=ROOT, env=env, capture_output=True, text=True,
                                  timeout=10)
        tree = describe.stdout.strip() if (
            top.returncode == 0 and Path(top.stdout.strip()).resolve() == ROOT
            and describe.returncode == 0) else "unknown (not a git checkout)"
    except (OSError, subprocess.SubprocessError):
        tree = "unknown (git unavailable)"
    import numpy

    plain = [c for c in children if not c["traced"]]
    traced = [c for c in children if c["traced"]]
    return {
        "tree": tree,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "seed": seed,
        "samples": {
            "end_to_end": len(plain),
            "per_layer": len(traced),
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="TAP reproduction benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny is the smoke size of the benchmark's own tests")
    args = parser.parse_args(argv)

    out_dir = ROOT / "perfbench" / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        children = run_children(args.workload, args.seed, args.seconds,
                                bool(args.trace), args.size, out_dir)
    except ChildError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    problems = sorted({p for c in children for p in c["problems"]})
    failures = sorted({f for c in children for f in c["failures"]})
    digests = {c["digest"] for c in children}
    if len(digests) != 1:
        problems.append(f"children of one seed disagree on outputs ({len(digests)} digests)")
    counts = {(c["attempted"], c["failed"]) for c in children}
    if len(counts) != 1:
        problems.append(f"children of one seed disagree on operation counts ({sorted(counts)})")
    correct = not problems
    summary = workload_summary(children)
    metrics = per_layer(children) if args.trace else end_to_end(children)
    if args.trace:
        summary["layer_shares"] = tracing.layer_shares(
            {k: v["value"] for k, v in metrics.items()})
    report = {
        "workload": args.workload,
        "summary": summary,
        "provenance": provenance(args.seed, children),
        "problems": problems,
        "failures": failures,
        "children": [{k: c[k] for k in ("traced", "wall_s", "setup_s", "peak_rss_mib",
                                        "import_s", "check_s", "digest",
                                        "attempted", "failed")}
                     for c in children],
        "metrics": metrics,
    }
    with open(out_dir / "report.json", "w") as fh:
        json.dump(report, fh, indent=1)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    for failure in failures:
        print(f"operation failed: {failure}", file=sys.stderr)
    print("summary: " + json.dumps(summary, sort_keys=True))
    print("provenance: " + json.dumps(report["provenance"], sort_keys=True))
    # Every child repeats the seed's operations exactly (checked above),
    # so the seed's operations are counted once: the counts are then a
    # function of the seed, not of how many children fit in the budget.
    attempted, failed = children[0]["attempted"], children[0]["failed"]
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
