"""Figure 6: file transfer latency vs network size.

Setup (paper §7.3): networks of 100…10,000 nodes; per-link latency
drawn uniformly (Internet-like), 1.5 Mb/s links; a random initiator
transfers a 2 Mb file to the node numerically closest to a random
fileid three ways:

* ``overt``      — plain Pastry routing (log_16 N overlay hops);
* ``tap-basic``  — through an l-hop tunnel, every tunnel hop located
  by full DHT routing (≈ (l+1)·log_16 N overlay hops);
* ``tap-opt``    — §5 IP hints give a direct link to every hop node
  (l+2 physical hops; falls back to DHT routing only when stale —
  never, in this churn-free scenario).

The underlying node paths come from real Pastry routing over the
built overlay; transfer times from the store-and-forward model (each
relay receives the full message before forwarding — the paper's
whole-message Java emulation) over the per-pair link latencies of
:class:`repro.simnet.topology.Topology`.  We do not expect the paper's
absolute seconds (its latency distribution is only loosely
specified); the ordering, ratios, and growth with l and N are the
reproduced shape.

Routing engine.  With the default ``pns=False`` the overlay is the
canonical one :class:`repro.perf.compact.CompactOverlay` represents
exactly, so each cell routes its transfers as batches on the packet
plane: one ``route_many`` for the overt arm and one
``route_tunnels(..., keep_legs=True)`` per tunnel length, with node
paths read back from ``BatchRouteResult.path``.  That makes
10^5–10^6-node networks sizes of the same experiment
(:meth:`Fig6Config.million`).  Proximity neighbour selection
(``pns=True``) builds routing tables the compact plane cannot
represent, so that input routes on the object engine
(:class:`repro.pastry.network.PastryNetwork`), which is also the
oracle the packet-plane paths are tested against.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.idspace import pack_ids
from repro.analysis.theory import expected_route_hops
from repro.experiments.config import Fig6Config
from repro.pastry.network import PastryNetwork, RoutingError
from repro.perf import (
    base_snapshot,
    capture_obs,
    effective_workers,
    local_obs,
    merge_obs,
    run_trials,
)
from repro.perf.compact import CompactOverlay
from repro.perf.parallel import shared_payload
from repro.simnet.topology import Topology
from repro.simnet.transport import serialization_delay, store_and_forward_time
from repro.util.ids import random_id
from repro.util.rng import SeedSequenceFactory

#: ``(span_name, leg_path)`` pairs partitioning a path's links
Legs = list[tuple[str, list[int]]]
#: one tunnel's ``(basic_path, optimised_path, basic_legs, opt_legs)``
TunnelPaths = tuple[list[int], list[int], Legs, Legs]
#: one transfer's overt path plus its tunnel paths per tunnel length
TransferPaths = tuple[list[int], list[TunnelPaths]]
#: one transfer's random inputs: initiator index into the ascending
#: alive ids, file id, and the hop keys of each tunnel length
Draw = tuple[int, int, list[list[int]]]


def _stitch(*segments: list[int]) -> list[int]:
    """Concatenate routing segments, dropping duplicated junctions."""
    path: list[int] = []
    for seg in segments:
        if path and seg and path[-1] == seg[0]:
            seg = seg[1:]
        path.extend(seg)
    return path


def _assemble(
    initiator: int,
    segments: list[list[int]],
    exit_path: list[int],
) -> TunnelPaths:
    """Paths *and* per-leg decomposition through one tunnel's hops.

    ``segments`` are the DHT routes from the initiator to each tunnel
    hop's root in turn (each ends at that root), ``exit_path`` the
    route from the last root to the destination key.  Returns
    ``(basic_path, optimised_path, basic_legs, opt_legs)``; legs are
    ``(span_name, leg_path)`` pairs whose link sets partition the
    stitched path — so per-leg transfer times sum exactly to the
    full-path transfer time under the additive store-and-forward model
    (the invariant the span export relies on).
    """
    basic = _stitch(*segments, exit_path)
    basic_legs = [("dht.route", seg) for seg in segments]
    basic_legs.append(("exit.route", exit_path))

    waypoints = [initiator, *(seg[-1] for seg in segments), exit_path[-1]]
    opt_legs: Legs = []
    for i, (a, b) in enumerate(zip(waypoints, waypoints[1:])):
        if a == b:
            continue  # co-located waypoints cost no link
        name = "exit.direct" if i == len(waypoints) - 2 else "hint.direct"
        opt_legs.append((name, [a, b]))
    optimised = _stitch(*[leg for _, leg in opt_legs]) or [initiator]
    return basic, optimised, basic_legs, opt_legs


def _tunnel_paths(
    network: PastryNetwork,
    initiator: int,
    destination_key: int,
    hop_keys: list[int],
) -> TunnelPaths:
    """:func:`_assemble` over object-engine routes through ``hop_keys``."""
    segments = []
    current = initiator
    for hop_key in hop_keys:
        seg = network.route(current, hop_key)
        if not (seg.success and seg.destination == network.closest_alive(hop_key)):
            raise RoutingError(f"tunnel leg to {hop_key:#x} missed its root")
        segments.append(seg.path)
        current = seg.destination
    exit_seg = network.route(current, destination_key)
    if not exit_seg.success:
        raise RoutingError(f"exit route to {destination_key:#x} failed")
    return _assemble(initiator, segments, exit_seg.path)


def _draw_transfers(config: Fig6Config, rng, num_alive: int) -> list[Draw]:
    """One cell's random inputs, in the draw order both engines share."""
    draws = []
    for _ in range(config.transfers_per_size):
        initiator = rng.randrange(num_alive)
        fid = random_id(rng)
        hop_keys = [
            [random_id(rng) for _ in range(length)]
            for length in config.tunnel_lengths
        ]
        draws.append((initiator, fid, hop_keys))
    return draws


def _network_paths(network: PastryNetwork, draws: list[Draw]) -> list[TransferPaths]:
    """Every transfer's paths, routed hop by hop on the object engine
    (the ``pns=True`` engine and the packet plane's test oracle)."""
    alive = network.alive_ids
    out = []
    for index, fid, hop_keys in draws:
        initiator = alive[index]
        overt = network.route(initiator, fid)
        if not overt.success:
            raise RoutingError(f"overt route to {fid:#x} failed")
        out.append((
            overt.path,
            [_tunnel_paths(network, initiator, fid, keys) for keys in hop_keys],
        ))
    return out


def _compact_paths(
    overlay: CompactOverlay,
    draws: list[Draw],
    tunnel_lengths: tuple[int, ...],
) -> tuple[list[TransferPaths], list[int]]:
    """Every transfer's paths, routed as batches on the packet plane.

    Returns the same per-transfer paths as :func:`_network_paths` on
    the materialised overlay, plus the hop count of every Pastry route
    in the object engine's call order (overt, then each tunnel's legs
    and exit route) for the ``pastry.route.*`` instruments.  Raises
    :class:`RoutingError` unless every route succeeds and every tunnel
    leg stops at its hop key's root (``replica_positions(key, 1)``).
    """
    num = len(draws)
    src = overlay.alive_positions()[[index for index, _, _ in draws]]
    fid_hi, fid_lo = pack_ids(fid for _, fid, _ in draws)
    overt = overlay.route_many(src, fid_hi, fid_lo)
    if not overt.success.all():
        raise RoutingError("overt route failed")

    tunnels = []
    for j, length in enumerate(tunnel_lengths):
        hop_hi, hop_lo = pack_ids(key for _, _, hops in draws for key in hops[j])
        res = overlay.route_tunnels(
            src, hop_hi.reshape(num, length), hop_lo.reshape(num, length),
            fid_hi, fid_lo, keep_legs=True,
        )
        if not res.success.all():
            raise RoutingError("tunnel route failed")
        if length:
            roots = overlay.replica_positions(hop_hi, hop_lo, 1)[:, 0]
            stops = np.stack([leg.dest_pos for leg in res.legs[:-1]], axis=1)
            if not np.array_equal(stops.ravel(), roots):
                raise RoutingError("tunnel leg missed its hop key's root")
        tunnels.append(res)

    out: list[TransferPaths] = []
    hops: list[int] = []
    for i in range(num):
        overt_path = overt.path(i)
        hops.append(int(overt.hops[i]))
        per_length = []
        for res in tunnels:
            legs = [leg.path(i) for leg in res.legs]
            hops.extend(int(leg.hops[i]) for leg in res.legs)
            per_length.append(_assemble(overt_path[0], legs[:-1], legs[-1]))
        out.append((overt_path, per_length))
    return out, hops


def _fig6_topology(config: Fig6Config, n_nodes: int) -> Topology:
    """The per-size latency model, shared by the base overlay build
    (PNS) and every repetition's transfer-time computation."""
    return Topology(
        seed=SeedSequenceFactory(config.seed).child("fig6-topo", n_nodes),
        min_latency_s=config.min_latency_s,
        max_latency_s=config.max_latency_s,
        bandwidth_bps=config.bandwidth_bps,
    )


def _fig6_base_token(config: Fig6Config, n_nodes: int) -> tuple:
    return (
        "fig6-base", config.seed, config.b_bits, config.pns, n_nodes,
        config.min_latency_s, config.max_latency_s, config.bandwidth_bps,
    )


def _fig6_base_build(config: Fig6Config, n_nodes: int):
    """Bootstrap the per-size base overlay and capture its snapshot.

    One overlay per ``(config, n_nodes)``: repetitions vary the
    initiators/fileids/tunnels they sample, not the substrate — so the
    N-node construction (and the PNS candidate ranking in particular)
    is paid once, and every rep restores the snapshot.  The canonical
    overlay is a :class:`CompactSnapshot` (sorted id words); only PNS
    needs the object engine's :class:`NetworkSnapshot`.
    """
    seeds = SeedSequenceFactory(config.seed)
    rng = seeds.pyrandom("fig6-base", n_nodes)
    ids = set()
    while len(ids) < n_nodes:
        ids.add(random_id(rng))
    if not config.pns:
        return CompactOverlay.from_ids(ids, b_bits=config.b_bits).snapshot()
    topology = _fig6_topology(config, n_nodes)
    network = PastryNetwork.build(
        ids, b_bits=config.b_bits, proximity=topology.latency,
    )
    return network.snapshot()


def _audit(network: PastryNetwork, metrics, n_nodes: int, rep: int) -> None:
    from repro.obs.audit import InvariantAuditor

    InvariantAuditor(network, metrics=metrics).assert_clean(
        f"fig6 build n={n_nodes} rep={rep}"
    )


def _observe_routes(metrics, hops: list[int]) -> None:
    """The ``pastry.route.*`` instruments the object engine's ``route``
    feeds, for routes taken on the packet plane."""
    metrics.counter("pastry.route.count").inc(len(hops))
    metrics.histogram("pastry.route.hops").observe_many(hops)


def _trace_transfer(tracer, scheme: str, n_nodes: int, path: list[int],
                    legs: list[tuple[str, list[int]]], latencies: list[float],
                    serial: float, t: float) -> None:
    """One transfer's ``tap.request`` trace on the simulated clock,
    queued by :func:`_fig6_leg` through :meth:`SpanTracer.defer`.

    The legs partition the path's links, so their durations sum
    exactly to the root's end-to-end time.
    """
    root = tracer.start_trace(
        "tap.request", observer="initiator",
        scheme=scheme, num_nodes=n_nodes, initiator=path[0],
    )
    cursor = 0.0
    first = 0
    for name, leg_path in legs:
        links = len(leg_path) - 1
        dt = store_and_forward_time(latencies[first:first + links], serial)
        first += links
        tracer.add_span(
            name, parent=root,
            sim_start=cursor, sim_end=cursor + dt,
            observer="hop",
            src=leg_path[0], dst=leg_path[-1],
            links=links,
        )
        cursor += dt
    root.set_sim(0.0, cursor)
    tracer.finish(root, links=len(latencies), transfer_time_s=t)


def _fig6_leg(
    config: Fig6Config,
    rep: int,
    n_nodes: int,
    metrics,
    audit: bool,
    tracer,
    event_trace,
) -> list[tuple[tuple[int, str], float]]:
    """All transfers of one (repetition, network size) cell.

    The rng streams are labelled by ``(rep, n_nodes)``, so each cell
    is a self-contained trial — the unit the parallel executor fans
    out.  Observability objects are whatever the caller hands in (the
    parent's in a serial run, worker-local ones under fan-out).

    The overlay is restored from the per-size base snapshot: taken
    from the ``run_trials(shared=...)`` payload when fanned out, else
    from the process-local :func:`base_snapshot` cache — both hold the
    same deterministic build, so rows are identical either way.  Under
    ``audit`` the :class:`InvariantAuditor` checks the object-engine
    view of that overlay (for the compact plane, its materialisation
    bridge).
    """
    seeds = SeedSequenceFactory(config.seed)
    acc: list[tuple[tuple[int, str], float]] = []

    rng = seeds.pyrandom("fig6", rep, n_nodes)
    topology = _fig6_topology(config, n_nodes)
    token = _fig6_base_token(config, n_nodes)
    payload = shared_payload()
    snap = payload.get(token) if payload else None
    if snap is None:
        snap = base_snapshot(token, lambda: _fig6_base_build(config, n_nodes))
    if config.pns:
        network = snap.restore(metrics=metrics)
        if audit:
            _audit(network, metrics, n_nodes, rep)
        transfers = _network_paths(
            network, _draw_transfers(config, rng, network.size)
        )
    else:
        overlay = snap.restore()
        if audit:
            _audit(overlay.to_network_snapshot().restore(), metrics, n_nodes, rep)
        transfers, route_hops = _compact_paths(
            overlay, _draw_transfers(config, rng, overlay.num_alive),
            config.tunnel_lengths,
        )
        if metrics is not None:
            _observe_routes(metrics, route_hops)

    serial = serialization_delay(config.file_bits, topology.bandwidth_bps)
    # per-scheme transfer times and hop counts, and every priced link,
    # folded into the metrics once per cell
    times: dict[str, list[float]] = {}
    hop_counts: dict[str, list[int]] = {}
    link_latencies: list[float] = []

    def record(
        scheme: str,
        path: list[int],
        legs: list[tuple[str, list[int]]] | None = None,
    ) -> None:
        # every link is priced once: the span legs and the link
        # histogram reuse the latencies the transfer time sums
        latencies = topology.link_latencies(path)
        t = store_and_forward_time(latencies, serial)
        acc.append(((n_nodes, scheme), t))
        if tracer:
            tracer.defer(
                _trace_transfer, scheme, n_nodes, path,
                legs or [("dht.route", path)], latencies, serial, t,
            )
        if event_trace is not None:
            event_trace.record(
                "fig6.transfer", scheme=scheme, num_nodes=n_nodes,
                transfer_time_s=t, links=len(latencies),
            )
        if metrics is not None:
            times.setdefault(scheme, []).append(t)
            hop_counts.setdefault(scheme, []).append(len(latencies))
            link_latencies.extend(latencies)

    for overt_path, tunnels in transfers:
        record("overt", overt_path)
        for length, (basic, optimised, basic_legs, opt_legs) in zip(
            config.tunnel_lengths, tunnels
        ):
            record(f"tap-basic-l{length}", basic, basic_legs)
            record(f"tap-opt-l{length}", optimised, opt_legs)

    if metrics is not None:
        for scheme, values in times.items():
            metrics.histogram(f"fig6.transfer_time_s.{scheme}").observe_many(values)
            metrics.histogram(f"fig6.underlying_hops.{scheme}").observe_many(
                hop_counts[scheme]
            )
        metrics.histogram("fig6.link_latency_s").observe_many(link_latencies)
    return acc


def _fig6_trial(
    config: Fig6Config,
    rep: int,
    n_nodes: int,
    want_metrics: bool,
    audit: bool,
    want_tracer: bool,
    want_events: bool,
):
    """Worker entry point: run one cell against local obs, ship both back."""
    metrics, tracer, event_trace = local_obs(want_metrics, want_tracer, want_events)
    acc = _fig6_leg(config, rep, n_nodes, metrics, audit, tracer, event_trace)
    return acc, capture_obs(metrics, tracer, event_trace)


def run_fig6(
    config: Fig6Config = Fig6Config(),
    metrics=None,
    audit: bool = False,
    tracer=None,
    event_trace=None,
    workers: int | None = None,
) -> list[dict]:
    """Generate the Figure-6 rows.

    ``metrics`` (a :class:`repro.obs.MetricsRegistry`) additionally
    accumulates per-link latency and per-transfer time histograms —
    the paper's latency data as a first-class artifact.  ``audit``
    runs the :class:`repro.obs.InvariantAuditor` on every overlay
    built, raising on violations.

    ``tracer`` (a :class:`repro.obs.SpanTracer`) records one trace per
    transfer per scheme on the *simulated* clock: a ``tap.request``
    root whose child legs carry their store-and-forward transfer time
    and sum exactly to the root's end-to-end duration.  ``event_trace``
    (an :class:`repro.obs.EventTrace`) records one ``fig6.transfer``
    event per trace.

    ``workers`` fans the (repetition, network size) cells out over
    processes; rows, metrics, spans, and events are identical for any
    worker count (worker-local obs are merged back in cell order).
    """
    # One base overlay per network size, built in the parent and
    # shipped to workers as the shared payload (pickled once per
    # worker); every cell restores it instead of re-building.
    bases = {
        _fig6_base_token(config, n_nodes): base_snapshot(
            _fig6_base_token(config, n_nodes),
            lambda n=n_nodes: _fig6_base_build(config, n),
        )
        for n_nodes in config.network_sizes
    }
    # Every cell instruments against cell-local obs which are merged
    # back in cell order — for workers == 1 too, so even float
    # accumulation grouping (histogram totals) is bit-identical across
    # worker counts, not just the exported rows.
    results = run_trials(
        _fig6_trial,
        [
            (config, rep, n_nodes, metrics is not None, audit,
             bool(tracer), event_trace is not None)
            for rep in range(config.num_seeds)
            for n_nodes in config.network_sizes
        ],
        effective_workers(workers, config),
        shared=bases,
    )
    partials = [items for items, _ in results]
    merge_obs(
        [payload for _, payload in results],
        metrics=metrics, tracer=tracer, event_trace=event_trace,
    )

    acc: dict[tuple[int, str], list[float]] = {}
    for partial in partials:
        for key, value in partial:
            acc.setdefault(key, []).append(value)

    rows: list[dict] = []
    for (n_nodes, scheme), values in sorted(acc.items()):
        rows.append(
            {
                "figure": "fig6",
                "num_nodes": n_nodes,
                "scheme": scheme,
                "transfer_time_s": float(np.mean(values)),
                "std": float(np.std(values)),
                "expected_route_hops": expected_route_hops(n_nodes, config.b_bits),
            }
        )
    return rows


def summarize_rows(rows: list[dict], config: Fig6Config) -> dict:
    """Headline indicators from the fig6 rows of ``config`` (for the
    run ledger and the ``fig6.*`` SLOs — keys are contract).

    * ``fig6.opt_speedup`` — the smallest basic/optimised ratio of
      mean transfer times over every (size, tunnel length): what the
      §5 IP hints buy.
    * ``fig6.opt_bound_ratio`` — the largest optimised mean transfer
      time over the link model's ceiling for its path,
      ``(l+1) · (file_bits / bandwidth + max_latency)``: a hinted
      tunnel crosses at most ``l+1`` links, so a ratio above 1 means a
      path or a link left the paper's model.
    * ``fig6.order_violations`` — (size, length) cells where the
      hinted tunnel is not faster than the basic one, plus sizes where
      a longer basic tunnel is not slower.  Both orderings hold at
      every size; ``overt < opt`` does not (from ~10^6 nodes an overt
      route relays through more nodes than an l=3 hinted tunnel has
      links), so it is left to the paper-scale figure checks.

    When ``config`` reaches 10^6 nodes every indicator is mirrored
    under ``scale_1m.fig6_*`` for the million-node SLO gate.
    """
    means = {(r["num_nodes"], r["scheme"]): r["transfer_time_s"] for r in rows}
    lengths = sorted(config.tunnel_lengths)
    if not means or not lengths:
        return {}
    link_ceiling = config.file_bits / config.bandwidth_bps + config.max_latency_s
    speedup = []
    bound = []
    violations = 0
    for n in config.network_sizes:
        for length in lengths:
            basic = means[n, f"tap-basic-l{length}"]
            opt = means[n, f"tap-opt-l{length}"]
            speedup.append(basic / opt)
            bound.append(opt / ((length + 1) * link_ceiling))
            violations += not opt < basic
        violations += sum(
            not means[n, f"tap-basic-l{a}"] < means[n, f"tap-basic-l{b}"]
            for a, b in zip(lengths, lengths[1:])
        )
    out: dict = {
        "fig6.opt_speedup": min(speedup),
        "fig6.opt_bound_ratio": max(bound),
        "fig6.order_violations": violations,
    }
    if max(config.network_sizes) >= 1_000_000:
        for key in list(out):
            out[key.replace("fig6.", "scale_1m.fig6_", 1)] = out[key]
    return out
