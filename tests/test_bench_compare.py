"""Unit tests for the bench_compare gate logic (no benchmarks run).

The harness itself lives outside the package in ``tools/``, so it is
loaded by path; only the pure comparison/gate functions are exercised
— ``compare`` (baseline carry-forward + loud missing-benchmark
warning), ``overhead_failures`` (same-run telemetry pairs with the
noise-floor widening) and ``batch_speedup_failures`` (per-route
normalisation).
"""

from __future__ import annotations

import importlib.util
import pathlib
import sys

import pytest

_TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / "bench_compare.py"


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location("bench_compare", _TOOL)
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault("bench_compare", module)
    spec.loader.exec_module(module)
    return module


def _stamped(results: dict, cpus: int = 4) -> dict:
    return {"cpus": cpus, "results": results}


class TestCompare:
    def test_speedup_and_gate(self, bench):
        baseline = _stamped({"a": {"median_ns": 1000.0}})
        current = _stamped({"a": {"median_ns": 500.0}})
        speedup, failures = bench.compare(baseline, current, threshold=1.15)
        assert speedup == {"a": 2.0}
        assert failures == []

    def test_regression_beyond_threshold_fails(self, bench):
        baseline = _stamped({"a": {"median_ns": 1000.0}})
        current = _stamped({"a": {"median_ns": 2000.0}})
        _, failures = bench.compare(baseline, current, threshold=1.15)
        assert len(failures) == 1
        assert "a:" in failures[0]

    def test_missing_benchmark_warns_and_carries_forward(self, bench, capsys):
        baseline = _stamped({
            "a": {"median_ns": 1000.0},
            "gone": {"median_ns": 700.0},
        })
        current = _stamped({"a": {"median_ns": 1000.0}})
        speedup, failures = bench.compare(
            baseline, current, threshold=1.15,
            previous_speedup={"gone": 1.4, "a": 9.9},
        )
        assert failures == []
        # the stale entry rides along; the measured one is refreshed
        assert speedup == {"a": 1.0, "gone": 1.4}
        err = capsys.readouterr().err
        assert "1 baseline benchmark(s) not measured" in err
        assert "gone" in err
        assert "carried forward" in err

    def test_missing_benchmark_without_history_still_warns(self, bench, capsys):
        baseline = _stamped({"gone": {"median_ns": 700.0}})
        current = _stamped({})
        speedup, _ = bench.compare(baseline, current, threshold=1.15)
        assert speedup == {}
        assert "gone" in capsys.readouterr().err

    def test_cpu_mismatch_warns(self, bench, capsys):
        baseline = _stamped({}, cpus=8)
        current = _stamped({}, cpus=1)
        bench.compare(baseline, current, threshold=1.15)
        assert "not like-for-like" in capsys.readouterr().err

    def test_new_benchmark_fails_without_allow_new(self, bench):
        baseline = _stamped({"a": {"median_ns": 1000.0}})
        current = _stamped({
            "a": {"median_ns": 1000.0},
            "brand.new_1m": {"median_ns": 5.0},
        })
        speedup, failures = bench.compare(baseline, current, threshold=1.15)
        assert len(failures) == 1
        assert "brand.new_1m" in failures[0]
        assert "--allow-new" in failures[0]
        assert "brand.new_1m" not in speedup

    def test_new_benchmark_adopted_with_allow_new(self, bench, capsys):
        baseline = _stamped({"a": {"median_ns": 1000.0}})
        current = _stamped({
            "a": {"median_ns": 1000.0},
            "brand.new_1m": {"median_ns": 5.0},
        })
        speedup, failures = bench.compare(
            baseline, current, threshold=1.15, allow_new=True,
        )
        assert failures == []
        assert speedup == {"a": 1.0, "brand.new_1m": 1.0}
        assert "adopting 1 benchmark(s)" in capsys.readouterr().err


class TestScale1mGates:
    def test_rss_within_budget_passes(self, bench):
        results = {
            "pastry.bootstrap_1m": {
                "median_ns": 1.0, "peak_rss_bytes": 500 * 1024**2,
            },
        }
        assert bench.scale_1m_failures(results) == []

    def test_rss_over_budget_fails(self, bench):
        results = {
            "compact.churn_1m": {
                "median_ns": 1.0,
                "peak_rss_bytes": bench.SCALE_1M_MAX_RSS + 1,
            },
        }
        failures = bench.scale_1m_failures(results)
        assert len(failures) == 1
        assert "compact.churn_1m" in failures[0]

    def test_missing_rss_is_skipped(self, bench):
        assert bench.scale_1m_failures(
            {"pastry.bootstrap_1m": {"median_ns": 1.0}}
        ) == []

    def test_env_knob_gates_the_group(self, bench, monkeypatch):
        monkeypatch.delenv("TAP_BENCH_SCALE_1M", raising=False)
        enabled, reason = bench.scale_1m_status()
        assert not enabled and "TAP_BENCH_SCALE_1M" in reason


class TestBytesRegressions:
    def test_within_ratio_is_quiet(self, bench):
        baseline = _stamped({"a": {"median_ns": 1.0, "bytes_per_op": 100}})
        current = _stamped({"a": {"median_ns": 1.0, "bytes_per_op": 110}})
        assert bench.bytes_regressions(baseline, current) == []

    def test_regression_warns_with_names(self, bench):
        baseline = _stamped({"a": {"median_ns": 1.0, "bytes_per_op": 100}})
        current = _stamped({"a": {"median_ns": 1.0, "bytes_per_op": 200}})
        warnings = bench.bytes_regressions(baseline, current)
        assert len(warnings) == 1 and "a:" in warnings[0]

    def test_absent_column_is_skipped(self, bench):
        baseline = _stamped({"a": {"median_ns": 1.0}})
        current = _stamped({"a": {"median_ns": 1.0, "bytes_per_op": 200}})
        assert bench.bytes_regressions(baseline, current) == []


class TestBatchSpeedupGate:
    def _results(self, bench, per_route_ratio: float) -> dict:
        fast = "compact.route_many_100k"
        slow = "compact.route_100k"
        slow_ns = 1_000_000.0
        per_slow = slow_ns / bench.ROUTE_UNITS[slow]
        fast_ns = (per_slow / per_route_ratio) * bench.ROUTE_UNITS[fast]
        return {
            fast: {"median_ns": fast_ns},
            slow: {"median_ns": slow_ns},
        }

    def test_fast_enough_passes(self, bench):
        assert bench.batch_speedup_failures(self._results(bench, 25.0)) == []

    def test_too_slow_fails(self, bench):
        failures = bench.batch_speedup_failures(self._results(bench, 10.0))
        assert len(failures) == 1
        assert "x10.0 per route" in failures[0]

    def test_missing_member_is_skipped(self, bench):
        results = self._results(bench, 10.0)
        del results["compact.route_100k"]
        assert bench.batch_speedup_failures(results) == []


class TestOverheadGate:
    @staticmethod
    def _results(**ns) -> dict:
        return {k.replace("__", "."): {"median_ns": v} for k, v in ns.items()}

    def test_fig6_pairs_are_registered_with_their_bars(self, bench):
        pairs = bench.OVERHEAD_PAIRS
        assert pairs["compact.churn_100k_telemetry"] == ("compact.churn_100k", 1.05, None)
        assert pairs["fig6.null_tracer"] == ("fig6.bare", 1.02, "fig6.bare_twin")
        assert pairs["fig6.live_tracer"] == ("fig6.bare", 1.10, "fig6.bare_twin")
        assert pairs["fig6.metrics"] == ("fig6.bare", 1.05, None)
        for inst, (bare, _bar, twin) in pairs.items():
            for name in (inst, bare, twin):
                assert name is None or name in {**bench.SCALE, **bench.OVERHEAD}

    def test_under_every_bar_passes(self, bench, capsys):
        results = self._results(
            fig6__bare=100.0, fig6__bare_twin=100.0, fig6__null_tracer=101.9,
            fig6__live_tracer=109.9, fig6__metrics=104.9,
            compact__churn_100k=100.0, compact__churn_100k_telemetry=104.9,
        )
        assert bench.overhead_failures(results) == []
        assert capsys.readouterr().out.count(" ok") == 4

    @pytest.mark.parametrize("inst, bar", [
        ("fig6.null_tracer", 1.02), ("fig6.live_tracer", 1.10),
        ("fig6.metrics", 1.05),
    ])
    def test_over_the_bar_fails(self, bench, inst, bar):
        results = self._results(fig6__bare=100.0, fig6__bare_twin=100.0)
        results[inst] = {"median_ns": 100.0 * bar + 0.1}
        failures = bench.overhead_failures(results)
        assert len(failures) == 1 and failures[0].startswith(f"{inst}:")
        results[inst] = {"median_ns": 100.0 * bar}  # the bar itself fails too
        assert len(bench.overhead_failures(results)) == 1

    def test_missing_member_is_skipped(self, bench):
        slow = self._results(fig6__bare=100.0, fig6__live_tracer=500.0,
                             fig6__null_tracer=500.0, fig6__metrics=500.0)
        # both tracer pairs lack their twin; only the metrics pair runs
        failures = bench.overhead_failures(slow)
        assert [f.split(":")[0] for f in failures] == ["fig6.metrics"]
        assert bench.overhead_failures(
            self._results(fig6__bare_twin=100.0, fig6__metrics=500.0)) == []

    def test_noise_floor_widens_the_tracer_bars(self, bench):
        # the twin disagrees by 4%: the 2% null-tracer bar becomes 6%
        # against the faster of the two bare runs
        results = self._results(fig6__bare=104.0, fig6__bare_twin=100.0,
                                fig6__null_tracer=105.9)
        assert bench.overhead_failures(results) == []
        results["fig6.null_tracer"] = {"median_ns": 106.1}
        assert len(bench.overhead_failures(results)) == 1
        # which bare run is the faster one does not matter
        results = self._results(fig6__bare=100.0, fig6__bare_twin=104.0,
                                fig6__live_tracer=113.9)
        assert bench.overhead_failures(results) == []

    def test_noise_floor_never_widens_unpaired_bars(self, bench):
        results = self._results(
            fig6__bare=100.0, fig6__bare_twin=130.0, fig6__metrics=105.1,
            compact__churn_100k=100.0, compact__churn_100k_telemetry=105.1)
        failures = bench.overhead_failures(results)
        assert sorted(f.split(":")[0] for f in failures) == [
            "compact.churn_100k_telemetry", "fig6.metrics"]

    def test_run_overhead_times_every_member(self, bench, monkeypatch):
        calls = []
        names = ("x.bare", "x.twin", "x.inst")
        monkeypatch.setattr(bench, "OVERHEAD", {
            n: lambda n=n: (lambda: calls.append(n)) for n in names})
        monkeypatch.setattr(bench, "OVERHEAD_PAIRS", {
            "x.inst": ("x.bare", 1.05, "x.twin")})
        assert set(bench.run_overhead(rounds=1)) == set(names)
        # one warm-up call, then one call per round each
        assert sorted(calls) == sorted(names * 2)
