"""The benchmark's own tests: workload smoke runs, traced == untraced
outputs, self-time arithmetic, the coverage guard, and that every
output check rejects a corrupted result."""

import copy
import json
import subprocess
import sys
import types
from contextlib import nullcontext
from pathlib import Path

import numpy as np
import pytest

from perfbench import tracing, workloads

ROOT = Path(__file__).resolve().parents[2]


class _Phase:
    def __init__(self):
        self.readied = False

    def ready(self):
        self.readied = True

    def check(self):
        return nullcontext()


@pytest.fixture(scope="module")
def tiny_results():
    out = {}
    for name, run in workloads.WORKLOADS.items():
        phase = _Phase()
        out[name] = (run(5, "tiny", phase), phase)
    return out


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_smoke(tiny_results, name):
    result, phase = tiny_results[name]
    assert phase.readied
    assert result["attempted"] > 0
    assert result["failed"] == 0
    assert result["problems"] == []


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_and_untraced_runs_agree(tmp_path, name):
    """One untraced and one traced child of one seed, via the real
    entry point: same outputs, and every layer reported explicitly."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", name,
         "--seed", "9", "--seconds", "0", "--trace", "1", "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    report = json.loads(
        (ROOT / "perfbench" / "out" / f"{name}-seed9-trace1" / "report.json").read_text())
    children = report["children"]
    assert [c["traced"] for c in children] == [False, True]
    assert children[0]["digest"] == children[1]["digest"]
    # the seed's operations are counted once, not once per child
    for key in ("attempted", "failed"):
        assert result[key] == children[0][key] == children[1][key]
    for span in tracing.SPAN_NAMES:
        assert f"{span}.calls" in result["metrics"]
        assert f"{span}.self_s" in result["metrics"]


def test_self_times_on_nested_tree():
    spans = [
        ["workload", 0.0, 10.0, -1],
        ["a", 1.0, 5.0, 0],
        ["b", 2.0, 3.0, 1],
        ["b", 3.5, 4.0, 1],
        ["c", 6.0, 9.0, 0],
        ["b", 6.5, 8.5, 4],
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 2.5, 1.0, 0.5, 1.0, 2.0])


def test_tracer_records_nesting_and_paused_checks():
    ticks = iter(range(100))
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))
    entry = tracing.Entry("pastry.route", "unused", lambda a, k, r: {"hops": r})
    inner = tracing._wrap(lambda x: x, tracer, entry)
    outer = tracing._wrap(lambda x: inner(x) + inner(x), tracer,
                          tracing.Entry("core.forward", "unused"))
    root = tracer.open(tracing.ROOT)
    assert outer(2) == 4
    with tracer.region(tracing.CHECK):
        inner(7)  # verification work: not a program span
    tracer.close(root)
    names = [s[0] for s in tracer.spans]
    assert names == ["workload", "core.forward", "pastry.route", "pastry.route", "check"]
    assert [s[3] for s in tracer.spans] == [-1, 0, 1, 1, 0]
    assert tracer.counts == {"pastry.route": {"hops": 4}}
    metrics = tracing.layer_metrics(tracer.spans, tracer.counts, import_modules=0)
    assert metrics["pastry.route.calls"] == 2
    assert metrics["pastry.route.hops"] == 4
    assert metrics["core.forward.self_s"] == 3.0  # 5 ticks minus two 1-tick children
    assert metrics["check.self_s"] == 1.0
    assert metrics["crypto.rsa_keygen.calls"] == 0  # explicit zero


def test_missing_entry_point_fails_loudly():
    with pytest.raises(tracing.CoverageError):
        tracing._resolve("repro.pastry.network:PastryNetwork.no_such_method")
    with pytest.raises(tracing.CoverageError):
        tracing._resolve("repro.no_such_module:f")


def test_imported_names_are_rebound_and_late_bindings_detected():
    def original():
        return 1

    probe = types.ModuleType("repro._perfbench_probe")
    probe.alias = original
    sys.modules[probe.__name__] = probe
    try:
        wrapped = tracing._wrap(original, tracing.Tracer(),
                                tracing.Entry("theory", "unused"))
        assert tracing._rebind(original, wrapped) == 1
        assert probe.alias is wrapped
        tracing.assert_covered([("probe", original)])
        probe.late = original  # a binding made after install
        with pytest.raises(tracing.CoverageError):
            tracing.assert_covered([("probe", original)])
    finally:
        del sys.modules[probe.__name__]


def test_refused_join_is_a_failed_operation(monkeypatch):
    """The overlay may refuse a newcomer (its join route loops); the
    workload records that as a failed operation and keeps going."""
    from repro.core.system import TapSystem
    from repro.pastry.network import RoutingError

    def refuse(self, node_id):
        raise RoutingError("join route failed; overlay too damaged")

    monkeypatch.setattr(TapSystem, "join_node", refuse)
    result = workloads.run_tap_retrieval(5, "tiny", _Phase())
    assert result["problems"] == []
    assert result["failed"] == len(result["failures"]) > 0
    assert all("join of" in f for f in result["failures"])


def test_fresh_ids_avoid_the_ring_and_each_other():
    clash = np.random.default_rng(7)
    ring_hi = clash.integers(0, workloads._U64_MAX, size=50, dtype=np.uint64)
    ring_lo = clash.integers(0, workloads._U64_MAX, size=50, dtype=np.uint64)
    # the same stream: its first draw is exactly the ring and must be redrawn
    hi, lo = workloads.fresh_id_words(np.random.default_rng(7), ring_hi, ring_lo, 50)
    fresh = set(workloads.words_to_ints(hi, lo))
    assert len(fresh) == 50
    assert not fresh & set(workloads.words_to_ints(ring_hi, ring_lo))


# ----------------------------------------------------------------------
# every output check rejects a corrupted result
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def figure_rows():
    from repro.experiments import (
        Fig2Config, Fig3Config, Fig4Config, Fig5Config, Fig6Config,
        run_fig2, run_fig3, run_fig4a, run_fig4b, run_fig5, run_fig6,
    )

    return {
        "fig2": run_fig2(Fig2Config.fast()),
        "fig3": run_fig3(Fig3Config.fast()),
        "fig4a": run_fig4a(Fig4Config.fast()),
        "fig4b": run_fig4b(Fig4Config.fast()),
        "fig5": run_fig5(Fig5Config.fast()),
        "fig6": run_fig6(Fig6Config.fast()),
    }


def _corrupt(rows, figure, field, fn, where=lambda row: True):
    bad = copy.deepcopy(rows)
    for row in bad[figure]:
        if where(row):
            row[field] = fn(row[field])
    return bad


@pytest.mark.parametrize("figure, field, fn, where", [
    ("fig2", "failed_tunnels", lambda v: v + 0.1, lambda r: r["scheme"] == "tap-k3"),
    ("fig3", "corrupted_tunnels", lambda v: v + 0.08, lambda r: True),
    ("fig4a", "corrupted_tunnels", lambda v: -v, lambda r: True),
    ("fig4b", "corrupted_tunnels", lambda v: -v, lambda r: True),
    ("fig5", "corrupted_tunnels", lambda v: v + 0.2, lambda r: r["scheme"] == "refreshed"),
    ("fig6", "transfer_time_s", lambda v: v * 10, lambda r: r["scheme"] == "overt"),
    ("fig6", "transfer_time_s", lambda v: v / 10, lambda r: r["scheme"] == "tap-basic-l5"),
])
def test_figure_check_rejects_corruption(figure_rows, figure, field, fn, where):
    assert workloads.check_figures(figure_rows) == []
    problems = workloads.check_figures(_corrupt(figure_rows, figure, field, fn, where))
    assert any(p.startswith(figure) for p in problems), problems


def test_route_checks_reject_corruption():
    root = np.array([4, 9, 2])
    assert workloads.check_routes(root, np.array([4, 9, 2]), np.ones(3, bool)).all()
    assert list(workloads.check_routes(root, np.array([4, 8, 2]), np.ones(3, bool))) == \
        [True, False, True]
    assert not workloads.check_routes(root, root, np.array([True, False, True]))[1]
    assert workloads.check_paths([[1, 2, 3]], [[1, 2, 3]]) == []
    assert workloads.check_paths([[1, 2, 3]], [[1, 5, 3]])


def test_retrieval_check_rejects_corruption():
    good = types.SimpleNamespace(success=True, content=b"file", failure_reason=None)
    assert workloads.check_retrieval(good, b"file") is None
    assert workloads.check_retrieval(
        types.SimpleNamespace(success=True, content=b"fi1e", failure_reason=None), b"file")
    # a reported failure is a failed operation, not wrong output
    assert workloads.check_retrieval(
        types.SimpleNamespace(success=False, content=None, failure_reason="x"),
        b"file") is None
