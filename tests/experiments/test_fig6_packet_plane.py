"""Figure 6 on the compact packet plane.

The runner routes the default (``pns=False``) overlay with batched
``route_many``/``route_tunnels`` calls instead of the object engine.
Pinned here: the rows digests recorded while fig6 still routed on
``PastryNetwork`` (the move must not change one byte), the object
engine as a path-for-path oracle, the ``--audit`` bridge, the
``million()`` preset and the ``fig6.*`` run-ledger indicators.  The
``pns=True`` ablation and the event-driven emulation (latency oracle)
ride along.
"""

from __future__ import annotations

from dataclasses import replace

from repro.core.emulation import CONTROL_BITS, TapEmulation
from repro.core.system import TapSystem
from repro.experiments import Fig6Config, run_fig6
from repro.experiments.fig6_latency import (
    _compact_paths,
    _draw_transfers,
    _fig6_base_build,
    _network_paths,
    summarize_rows,
)
from repro.obs import EventTrace, MetricsRegistry, SpanTracer
from repro.pastry import PastryNetwork
from repro.perf import rows_digest
from repro.simnet.topology import Topology
from repro.simnet.transport import TransferModel, path_transfer_time
from repro.util.rng import SeedSequenceFactory

#: rows digests of the object-engine runner at seed 2004
PAPER_DIGEST = "f332a6f9de7b0115d77ff6c4c409b5450329bb72a84ec60758449edc8f1e0283"
FAST_DIGEST = "422f15954457cd4e884b3a8b6b832191c391a4e002bc8732fde62b2a8725cdd4"

TINY = Fig6Config(network_sizes=(100, 300), transfers_per_size=6, num_seeds=2)


class TestPinnedDigests:
    def test_paper_default_digest(self):
        assert rows_digest(run_fig6(Fig6Config())) == PAPER_DIGEST

    def test_fast_digest(self):
        assert rows_digest(run_fig6(Fig6Config.fast())) == FAST_DIGEST

    def test_digest_is_worker_independent(self):
        digests = {rows_digest(run_fig6(TINY, workers=w)) for w in (1, 2)}
        assert len(digests) == 1


class TestObjectEngineOracle:
    def test_routes_complete_and_agree(self):
        """Every transfer of each fast cell: the packet plane's overt,
        basic and optimised paths and per-leg splits equal the object
        engine's on a PastryNetwork built from the same ids."""
        config = Fig6Config.fast()
        per_transfer = 1 + sum(length + 1 for length in config.tunnel_lengths)
        for n_nodes in config.network_sizes:
            overlay = _fig6_base_build(config, n_nodes).restore()
            network = PastryNetwork.build(overlay.ids_list(), b_bits=config.b_bits)

            def draws():
                rng = SeedSequenceFactory(config.seed).pyrandom("fig6", 0, n_nodes)
                return _draw_transfers(config, rng, n_nodes)

            compact, hops = _compact_paths(overlay, draws(), config.tunnel_lengths)
            oracle = _network_paths(network, draws())
            assert len(compact) == config.transfers_per_size
            assert compact == oracle
            assert len(hops) == per_transfer * config.transfers_per_size

    def test_pns_keeps_the_object_engine(self):
        config = replace(TINY, pns=True, network_sizes=(100,))
        assert isinstance(_fig6_base_build(config, 100).restore(), PastryNetwork)
        rows = run_fig6(config)
        assert {r["scheme"] for r in rows} >= {"overt", "tap-basic-l5", "tap-opt-l5"}

    def test_pns_shortens_dht_routes(self):
        """Proximity neighbour selection (FreePastry's locality) makes
        everything routed through the DHT (overt, TAP_basic) at least
        10% faster; TAP_opt bypasses DHT routing via IP hints and moves
        under 15%.  10 kb messages keep the measurement latency-bound:
        a 2 Mb transfer hides propagation behind serialisation."""
        config = Fig6Config(network_sizes=(300, 1_000), transfers_per_size=15,
                            num_seeds=1, tunnel_lengths=(5,), file_bits=10_000.0)
        by = {
            (row["num_nodes"], row["scheme"], pns): row["transfer_time_s"]
            for pns in (False, True)
            for row in run_fig6(replace(config, pns=pns))
        }
        for n in config.network_sizes:
            assert by[(n, "overt", True)] < 0.9 * by[(n, "overt", False)]
            assert by[(n, "tap-basic-l5", True)] < 0.9 * by[(n, "tap-basic-l5", False)]
            opt_delta = abs(by[(n, "tap-opt-l5", True)] - by[(n, "tap-opt-l5", False)])
            assert opt_delta < 0.15 * by[(n, "tap-opt-l5", False)]


class TestAuditBridge:
    def test_audit_runs_on_materialised_overlay(self):
        metrics = MetricsRegistry()
        rows = run_fig6(TINY, metrics=metrics, audit=True)
        snap = metrics.snapshot()
        cells = TINY.num_seeds * len(TINY.network_sizes)
        assert snap["obs.audit.runs"]["value"] == cells
        assert snap.get("obs.audit.violations", {"value": 0})["value"] == 0
        assert rows_digest(rows) == rows_digest(run_fig6(TINY))


class TestRows:
    def test_row_shape(self):
        rows = run_fig6(TINY)
        schemes = {"overt"} | {
            f"tap-{mode}-l{length}"
            for mode in ("basic", "opt") for length in TINY.tunnel_lengths
        }
        assert len(rows) == len(TINY.network_sizes) * len(schemes)
        assert {(r["num_nodes"], r["scheme"]) for r in rows} == {
            (n, s) for n in TINY.network_sizes for s in schemes
        }
        for row in rows:
            assert set(row) == {"figure", "num_nodes", "scheme",
                                "transfer_time_s", "std",
                                "expected_route_hops"}
            assert row["transfer_time_s"] > 0


class TestTelemetry:
    def test_expected_instruments_present(self):
        metrics = MetricsRegistry()
        run_fig6(TINY, metrics=metrics)
        snap = metrics.snapshot()
        per_transfer = 1 + sum(length + 1 for length in TINY.tunnel_lengths)
        routes = (per_transfer * TINY.transfers_per_size
                  * TINY.num_seeds * len(TINY.network_sizes))
        assert snap["pastry.route.count"]["value"] == routes
        assert snap["pastry.route.hops"]["count"] == routes
        transfers = TINY.transfers_per_size * TINY.num_seeds * len(TINY.network_sizes)
        assert snap["fig6.transfer_time_s.overt"]["count"] == transfers
        assert snap["fig6.link_latency_s"]["max"] <= TINY.max_latency_s

    def test_arm_events_recorded(self):
        events = EventTrace()
        run_fig6(TINY, event_trace=events)
        kinds = {ev.kind for ev in events}
        assert kinds == {"fig6.transfer"}
        per_scheme = TINY.transfers_per_size * TINY.num_seeds * len(TINY.network_sizes)
        schemes = [ev.fields["scheme"] for ev in events]
        assert schemes.count("overt") == per_scheme
        assert schemes.count("tap-opt-l5") == per_scheme

    def test_rows_identical_with_telemetry_off(self):
        tracer = SpanTracer()
        rows = run_fig6(TINY, metrics=MetricsRegistry(), tracer=tracer,
                        event_trace=EventTrace())
        assert rows_digest(rows) == rows_digest(run_fig6(TINY))
        assert len(tracer) > 0

    def test_telemetry_worker_independent(self):
        snaps = []
        for workers in (1, 2):
            metrics = MetricsRegistry()
            run_fig6(TINY, metrics=metrics, workers=workers)
            snaps.append(metrics.snapshot())
        assert snaps[0] == snaps[1]


class TestMillion:
    def test_million_config_shape(self):
        config = Fig6Config.million()
        assert config.network_sizes == (100_000, 1_000_000)
        assert max(Fig6Config().network_sizes) < min(config.network_sizes)
        paper = Fig6Config()
        for field in ("tunnel_lengths", "file_bits", "min_latency_s",
                      "max_latency_s", "bandwidth_bps", "b_bits", "pns"):
            assert getattr(config, field) == getattr(paper, field)

    def test_fast_config_is_smaller(self):
        assert max(Fig6Config.fast().network_sizes) < max(Fig6Config().network_sizes)

    def test_summary_aliases_scale_1m_for_million_config(self):
        config = Fig6Config.fast()
        rows = run_fig6(config)
        plain = summarize_rows(rows, config)
        assert not any(key.startswith("scale_1m.") for key in plain)
        million = replace(config, network_sizes=(*config.network_sizes, 1_000_000))
        mirrored = summarize_rows(
            rows + [dict(r, num_nodes=1_000_000) for r in rows
                    if r["num_nodes"] == config.network_sizes[-1]],
            million,
        )
        assert {k for k in mirrored if k.startswith("scale_1m.")} == {
            k.replace("fig6.", "scale_1m.fig6_", 1) for k in plain
        }
        for key in plain:
            assert mirrored[key.replace("fig6.", "scale_1m.fig6_", 1)] == mirrored[key]


class TestSummarizeRows:
    def test_empty_rows(self):
        assert summarize_rows([], Fig6Config()) == {}

    def test_summary_keys(self):
        config = Fig6Config.fast()
        summary = summarize_rows(run_fig6(config), config)
        assert set(summary) == {"fig6.opt_speedup", "fig6.opt_bound_ratio",
                                "fig6.order_violations"}
        assert summary["fig6.order_violations"] == 0
        assert summary["fig6.opt_speedup"] > 1.3
        assert 0.0 < summary["fig6.opt_bound_ratio"] <= 1.0

    def test_order_violation_counted(self):
        config = Fig6Config.fast()
        rows = run_fig6(config)
        swapped = [
            dict(r, transfer_time_s=1e9)
            if (r["num_nodes"], r["scheme"]) == (100, "tap-opt-l3") else r
            for r in rows
        ]
        assert summarize_rows(swapped, config)["fig6.order_violations"] == 1


class TestEmulatedFigure6:
    def test_emulation_reproduces_analytic_latency(self):
        """Figure 6 as timed messages over the event-driven kernel
        (deployed anchors, layered crypto, per-message link delays):
        every latency is the analytic formula over the path taken."""
        size = 2_000_000.0
        for n_nodes in (100, 300):
            system = TapSystem.bootstrap(num_nodes=n_nodes, seed=600 + n_nodes)
            alice = system.tap_node(system.random_node_id("alice"))
            system.deploy_thas(alice, count=20)
            topology = Topology(seed=n_nodes)
            emu = TapEmulation.from_system(system, topology=topology)
            rng = system.seeds.pyrandom("fig6-emu")
            tunnels = {
                f"{mode}-l{length}": system.form_tunnel(
                    alice, length, use_hints=mode == "opt")
                for length in (3, 5) for mode in ("basic", "opt")
            }
            mean = dict.fromkeys(tunnels, 0.0)
            for _ in range(5):
                dest = rng.getrandbits(128)
                for name, tunnel in tunnels.items():
                    trace = emu.send_through_tunnel(alice, tunnel, dest, b"f",
                                                    size_bits=size)
                    emu.simulator.run()
                    assert trace.delivered, trace.failed_reason
                    analytic = path_transfer_time(
                        topology, trace.path, size + CONTROL_BITS,
                        TransferModel.STORE_AND_FORWARD,
                    )
                    assert abs(trace.latency - analytic) <= 1e-9
                    mean[name] += trace.latency / 5
            assert mean["opt-l3"] < mean["basic-l3"]
            assert mean["opt-l5"] < mean["basic-l5"]
            assert mean["opt-l3"] < mean["opt-l5"]
