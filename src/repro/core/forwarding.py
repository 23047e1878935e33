"""The tunneling engine: layered forwarding with replica fail-over.

This module walks messages through tunnels exactly as the deployed
system would:

* each hop is *located* by hopid — the message is routed (real Pastry
  routing over node-local state) to the node currently numerically
  closest to the hopid;
* that node looks up the THA **in its own local storage** (it holds a
  replica iff the replication manager placed one there) and peels one
  layer of encryption with the real symmetric key;
* if the original tunnel hop node failed, routing lands on the
  promoted replica candidate, which succeeds iff re-replication kept a
  live copy — TAP's fault-tolerance claim, exercised literally;
* with the §5 optimisation, the peeled layer carries an IP hint that is
  tried first, falling back to DHT routing when stale.

Reply traversal (§4) is the same walk except termination: the last
identifier is a ``bid`` recognised by the *initiator's* pending-reply
table, not by an exit tag — intermediate hops cannot tell the
difference.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable

from repro.core.node import TapNode
from repro.core.tha import tha_value_decode
from repro.core.tunnel import Tunnel
from repro.crypto.onion import build_onion, peel_layer
from repro.crypto.symmetric import CipherError
from repro.past.replication import ReplicatedStore
from repro.past.storage import StorageError
from repro.pastry.network import PastryNetwork, RoutingError
from repro.util.serialize import SerializationError


class TunnelBroken(RuntimeError):
    """The message could not complete the tunnel (hop unreachable/lost)."""


def record_links(record: "HopRecord") -> int:
    """Physical links charged to one hop record.

    Path edges plus one for a timed-out hint probe (whose link never
    enters ``underlying_path``); a *stale* probe's link is already the
    first path edge, so it is not charged twice.
    """
    return max(0, len(record.underlying_path) - 1) + (
        1 if record.hint_timeout else 0
    )


@dataclass
class HopRecord:
    """Trace of locating and traversing one tunnel hop."""

    hop_id: int
    hop_node: int | None
    underlying_path: list[int] = field(default_factory=list)
    via_hint: bool = False
    #: the hint did not directly serve the hop (stale or dead)
    hint_failed: bool = False
    #: the hinted node was dead/unknown: the probe timed out and its
    #: link does not appear in ``underlying_path``
    hint_timeout: bool = False
    #: True when the node serving this hop is not the one that was the
    #: replica root when the tunnel was formed (fail-over happened).
    promoted: bool = False
    route_failures: int = 0


@dataclass
class ForwardTrace:
    """Complete record of one tunnel traversal."""

    records: list[HopRecord] = field(default_factory=list)
    success: bool = False
    failure_reason: str | None = None
    destination: int | None = None
    delivered_payload: bytes | None = None
    #: underlying path of the final (tail -> destination) leg
    exit_path: list[int] = field(default_factory=list)

    @property
    def overlay_hops(self) -> int:
        """Tunnel hops traversed (the paper's tunnel length l)."""
        return len(self.records)

    @property
    def underlying_hops(self) -> int:
        """Total physical-link traversals, the latency driver of Fig. 6."""
        total = sum(record_links(r) for r in self.records)
        total += max(0, len(self.exit_path) - 1)
        return total

    def full_underlying_path(self) -> list[int]:
        """Concatenated node sequence, deduplicating junction nodes."""
        path: list[int] = []
        for rec in self.records:
            seg = rec.underlying_path
            if path and seg and path[-1] == seg[0]:
                seg = seg[1:]
            path.extend(seg)
        seg = self.exit_path
        if path and seg and path[-1] == seg[0]:
            seg = seg[1:]
        path.extend(seg)
        return path


class TunnelForwarder:
    """Walks onions through tunnels over live overlay state."""

    def __init__(
        self,
        network: PastryNetwork,
        store: ReplicatedStore,
        tap_registry: dict[int, TapNode],
        ip_index: dict[str, int] | None = None,
        metrics=None,
        event_trace=None,
        tracer=None,
    ):
        self.network = network
        self.store = store
        self.tap_registry = tap_registry
        #: simulated-IP -> node id (the §5 hint resolver)
        self.ip_index = ip_index if ip_index is not None else {}
        #: optional :class:`repro.obs.MetricsRegistry`
        self.metrics = metrics
        #: optional :class:`repro.obs.EventTrace` of per-hop events
        self.event_trace = event_trace
        #: optional :class:`repro.obs.SpanTracer` of causal span trees
        self.tracer = tracer
        #: optional :class:`repro.faults.SyncFaultInjector` — consulted
        #: per message/leg/hop when installed (see
        #: :meth:`repro.core.system.TapSystem.install_faults`)
        self.faults = None

    def _observe_trace(self, kind: str, trace: ForwardTrace) -> None:
        m = self.metrics
        if m is not None:
            m.counter(f"tap.{kind}.sends").inc()
            if trace.success:
                m.counter(f"tap.{kind}.delivered").inc()
                m.histogram(f"tap.{kind}.underlying_hops").observe(
                    trace.underlying_hops
                )
                m.histogram(f"tap.{kind}.overlay_hops").observe(
                    trace.overlay_hops
                )
            else:
                m.counter(f"tap.{kind}.broken").inc()
            for rec in trace.records:
                if rec.via_hint:
                    m.counter("tap.hint.hits").inc()
                elif rec.hint_timeout:
                    m.counter("tap.hint.timeouts").inc()
                elif rec.hint_failed:
                    m.counter("tap.hint.stale").inc()
                if rec.promoted:
                    m.counter("tap.hop.promotions").inc()
        if self.event_trace is not None:
            self.event_trace.record(
                f"tap.{kind}",
                success=trace.success,
                overlay_hops=trace.overlay_hops,
                underlying_hops=trace.underlying_hops,
                failure_reason=trace.failure_reason,
                hops=[
                    {
                        "hop_node": rec.hop_node,
                        "links": max(0, len(rec.underlying_path) - 1),
                        "via_hint": rec.via_hint,
                        "hint_failed": rec.hint_failed,
                        "hint_timeout": rec.hint_timeout,
                        "promoted": rec.promoted,
                        "route_failures": rec.route_failures,
                    }
                    for rec in trace.records
                ],
            )

    # ------------------------------------------------------------------
    # hop location
    # ------------------------------------------------------------------
    def _locate_hop(
        self,
        from_node: int,
        hop_id: int,
        hint_ip: str,
        record: HopRecord,
    ) -> int:
        """Find the current tunnel hop node for ``hop_id``.

        Tries the IP hint first (§5), then Pastry routing.  Returns the
        node id that will process the hop; fills the trace record.
        """
        tr = self.tracer
        start = from_node
        if hint_ip:
            probe = tr.start_span("hint.probe", observer="hop",
                                  src=from_node, links=1) if tr else None
            hinted = self.ip_index.get(hint_ip)
            if hinted is not None and self.network.is_alive(hinted):
                if self.store.storage_of(hinted).contains(hop_id):
                    record.via_hint = True
                    record.underlying_path = [from_node, hinted]
                    if probe is not None:
                        tr.finish(probe, outcome="hit", hinted=hinted)
                    return hinted
                # Alive but no longer a replica holder: it forwards the
                # message into the DHT from where it sits.
                record.hint_failed = True
                start = hinted
                record.underlying_path = [from_node, hinted]
                if probe is not None:
                    tr.finish(probe, outcome="stale", hinted=hinted)
            else:
                # Dead or unknown: the probe times out; re-route from
                # the current hop node.
                record.hint_failed = True
                record.hint_timeout = True
                if probe is not None:
                    tr.finish(probe, outcome="timeout")
        try:
            route = self.network.route(start, hop_id)
        except RoutingError as exc:
            raise TunnelBroken(f"routing to hop {hop_id:#x} failed: {exc}") from exc
        if not route.success:
            raise TunnelBroken(f"routing to hop {hop_id:#x} did not converge")
        record.route_failures = route.failures
        if record.underlying_path and record.underlying_path[-1] == route.path[0]:
            record.underlying_path.extend(route.path[1:])
        else:
            record.underlying_path.extend(route.path)
        return route.destination

    def _peel_at(self, node_id: int, hop_id: int, blob: bytes):
        """The hop node's work: local THA lookup + one decryption."""
        tr = self.tracer
        cm = tr.span("onion.peel", observer="hop",
                     hop_node=node_id) if tr else nullcontext()
        with cm as span:
            storage = self.store.storage_of(node_id)
            try:
                stored = storage.lookup(hop_id)
            except StorageError as exc:
                if span is not None:
                    span.set(outcome="anchor_lost")
                if self.metrics is not None:
                    self.metrics.counter("tap.peel.anchor_lost").inc()
                raise TunnelBroken(
                    f"node {node_id:#x} is closest to hop {hop_id:#x} "
                    f"but holds no THA replica (anchor lost)"
                ) from exc
            anchor = tha_value_decode(hop_id, stored.value)
            try:
                return peel_layer(anchor.key, blob)
            except (CipherError, SerializationError) as exc:
                if span is not None:
                    span.set(outcome="decrypt_failed")
                if self.metrics is not None:
                    self.metrics.counter("tap.peel.decrypt_failures").inc()
                raise TunnelBroken(
                    f"layer decryption failed at {node_id:#x}"
                ) from exc

    # ------------------------------------------------------------------
    # fault injection (repro.faults)
    # ------------------------------------------------------------------
    @staticmethod
    def _check_injected(
        faults, msg_fault, src: int, hop_node: int, index: int, kind: str
    ) -> None:
        """Apply installed fault verdicts to one located hop.

        Raises :class:`TunnelBroken` for partitioned legs, in-transit
        corruption scheduled for this leg, and Byzantine behaviour of
        the serving hop node — the same observable outcome (the
        initiator times out) a deployed system would see.
        """
        why = faults.check_leg(src, hop_node)
        if why:
            raise TunnelBroken(f"fault injected: {why} {src:#x}->{hop_node:#x}")
        if msg_fault is not None and msg_fault.corrupt_at == index:
            faults.note("message.corrupt", kind=kind, leg=index)
            raise TunnelBroken(
                f"fault injected: message corrupted on leg {index}"
            )
        byz = faults.byzantine_action(hop_node)
        if byz is not None:
            raise TunnelBroken(f"byzantine hop {hop_node:#x}: {byz}")

    # ------------------------------------------------------------------
    # forward traversal
    # ------------------------------------------------------------------
    def send(
        self,
        initiator: TapNode,
        tunnel: Tunnel,
        destination_id: int,
        payload: bytes,
        deliver: Callable[[int, bytes], None] | None = None,
        parent=None,
        max_links: int | None = None,
    ) -> ForwardTrace:
        """Send ``payload`` to ``destination_id`` through ``tunnel``.

        The exit payload is handed to ``deliver(responder_node_id,
        payload)`` if given; the trace always carries it too.  Raises
        nothing: failures are reported in the trace (like a deployed
        system, the initiator only observes a timeout).

        ``parent`` optionally attaches the traversal's span tree under
        a caller-owned span (session round trip, retrieval, ...).
        ``max_links`` caps the underlying links spent on this attempt
        — the synchronous engine's per-attempt timeout budget (see
        :class:`repro.core.resilience.ResiliencePolicy`).
        """
        tr = self.tracer
        cm = tr.span(
            "tap.forward", parent=parent, observer="initiator",
            initiator=initiator.node_id, **tunnel.span_attrs(),
        ) if tr else nullcontext()
        with cm as span:
            trace = self._send_impl(
                initiator, tunnel, destination_id, payload, deliver,
                max_links=max_links,
            )
            if span is not None:
                span.set(
                    success=trace.success,
                    overlay_hops=trace.overlay_hops,
                    links=trace.underlying_hops,
                )
                if trace.failure_reason:
                    span.set(error=trace.failure_reason)
        self._observe_trace("forward", trace)
        return trace

    def _send_impl(
        self,
        initiator: TapNode,
        tunnel: Tunnel,
        destination_id: int,
        payload: bytes,
        deliver: Callable[[int, bytes], None] | None = None,
        max_links: int | None = None,
    ) -> ForwardTrace:
        blob = build_onion(tunnel.onion_layers(), destination_id, payload)
        trace = ForwardTrace()
        tr = self.tracer
        faults = self.faults
        msg_fault = (
            faults.draw_message("forward", len(tunnel.hops) + 1)
            if faults is not None else None
        )
        current = initiator.node_id
        hop_id = tunnel.hops[0].hop_id
        hint_ip = tunnel.hint_ips[0] or ""
        expected_roots = {
            h.hop_id: h.meta.get("formed_root") for h in tunnel.hops
        }
        for index in range(len(tunnel.hops) + 1):
            record = HopRecord(hop_id=hop_id, hop_node=None)
            trace.records.append(record)
            cm = tr.span(
                "tap.hop", observer="hop", hop_index=index
            ) if tr else nullcontext()
            with cm as hop_span:
                try:
                    if msg_fault is not None and msg_fault.drop_at == index:
                        faults.note("message.drop", kind="forward", leg=index)
                        raise TunnelBroken(
                            f"fault injected: message dropped on leg {index}"
                        )
                    hop_node = self._locate_hop(current, hop_id, hint_ip, record)
                    record.hop_node = hop_node
                    if faults is not None:
                        self._check_injected(
                            faults, msg_fault, current, hop_node, index, "forward"
                        )
                    formed_root = expected_roots.get(hop_id)
                    if formed_root is not None and formed_root != hop_node:
                        record.promoted = True
                    peeled = self._peel_at(hop_node, hop_id, blob)
                    if max_links is not None and trace.underlying_hops > max_links:
                        raise TunnelBroken(
                            f"attempt budget exhausted: {trace.underlying_hops} "
                            f"links > {max_links} (simulated timeout)"
                        )
                except TunnelBroken as exc:
                    trace.failure_reason = str(exc)
                    if hop_span is not None:
                        hop_span.set(error=trace.failure_reason,
                                     links=record_links(record))
                    return trace
                if hop_span is not None:
                    hop_span.set(
                        hop_node=hop_node,
                        links=record_links(record),
                        via_hint=record.via_hint,
                        promoted=record.promoted,
                    )
                if peeled.is_exit:
                    trace.destination = peeled.next_id
                    trace.delivered_payload = peeled.inner
                    try:
                        exit_route = self.network.route(hop_node, peeled.next_id)
                    except RoutingError as exc:
                        trace.failure_reason = f"exit routing failed: {exc}"
                        if hop_span is not None:
                            hop_span.set(error=trace.failure_reason)
                        return trace
                    if not exit_route.success:
                        trace.failure_reason = "exit routing did not converge"
                        if hop_span is not None:
                            hop_span.set(error=trace.failure_reason)
                        return trace
                    trace.exit_path = exit_route.path
                    if max_links is not None and trace.underlying_hops > max_links:
                        trace.failure_reason = (
                            f"attempt budget exhausted: {trace.underlying_hops} "
                            f"links > {max_links} (simulated timeout)"
                        )
                        if hop_span is not None:
                            hop_span.set(error=trace.failure_reason)
                        return trace
                    trace.success = True
                    if hop_span is not None:
                        hop_span.set(
                            is_exit=True,
                            links=record_links(record)
                            + max(0, len(exit_route.path) - 1),
                        )
                    if deliver is not None:
                        deliver(exit_route.destination, peeled.inner)
                    return trace
            current = hop_node
            hop_id = peeled.next_id
            hint_ip = peeled.ip_hint
            blob = peeled.inner
        trace.failure_reason = "onion deeper than tunnel length (malformed)"
        return trace

    # ------------------------------------------------------------------
    # reply traversal (§4)
    # ------------------------------------------------------------------
    def send_reply(
        self,
        responder_id: int,
        first_hop_id: int,
        reply_blob: bytes,
        payload: bytes,
        max_hops: int = 32,
        parent=None,
        expected_roots: dict[int, int] | None = None,
        max_links: int | None = None,
    ) -> ForwardTrace:
        """Route a reply payload back along a reply tunnel.

        The responder knows only ``first_hop_id`` (in the clear, §4)
        and the opaque ``reply_blob``.  Traversal ends when the node
        closest to the current identifier recognises it as one of its
        pending ``bid`` values — from the outside indistinguishable
        from one more hop.

        ``parent`` attaches the span tree under a caller-owned span.
        ``expected_roots`` maps hop ids to their formed-time replica
        roots (the reply tunnel's ``formed_root`` metadata, known only
        to the initiator who formed it); when given, fail-over is
        recorded as ``promoted`` exactly as on the forward path.
        """
        tr = self.tracer
        cm = tr.span(
            "tap.reply", parent=parent, observer="exit",
            responder=responder_id,
        ) if tr else nullcontext()
        with cm as span:
            trace = self._send_reply_impl(
                responder_id, first_hop_id, reply_blob, payload,
                max_hops, expected_roots, max_links,
            )
            if span is not None:
                span.set(
                    success=trace.success,
                    overlay_hops=trace.overlay_hops,
                    links=trace.underlying_hops,
                )
                if trace.failure_reason:
                    span.set(error=trace.failure_reason)
        self._observe_trace("reply", trace)
        return trace

    def _send_reply_impl(
        self,
        responder_id: int,
        first_hop_id: int,
        reply_blob: bytes,
        payload: bytes,
        max_hops: int = 32,
        expected_roots: dict[int, int] | None = None,
        max_links: int | None = None,
    ) -> ForwardTrace:
        trace = ForwardTrace()
        tr = self.tracer
        faults = self.faults
        # A reply walk traverses tunnel_length + 1 identifiers (the
        # hops plus the terminating bid); the responder cannot know the
        # length, so the drop leg is sampled over the typical walk.
        msg_fault = (
            faults.draw_message("reply", 4) if faults is not None else None
        )
        current = responder_id
        hop_id = first_hop_id
        blob = reply_blob
        hint_ip = ""
        for index in range(max_hops):
            record = HopRecord(hop_id=hop_id, hop_node=None)
            trace.records.append(record)
            cm = tr.span(
                "tap.hop", observer="hop", hop_index=index
            ) if tr else nullcontext()
            with cm as hop_span:
                try:
                    if msg_fault is not None and msg_fault.drop_at == index:
                        faults.note("message.drop", kind="reply", leg=index)
                        raise TunnelBroken(
                            f"fault injected: reply dropped on leg {index}"
                        )
                    hop_node = self._locate_hop(current, hop_id, hint_ip, record)
                    if faults is not None:
                        self._check_injected(
                            faults, msg_fault, current, hop_node, index, "reply"
                        )
                    if max_links is not None and trace.underlying_hops > max_links:
                        raise TunnelBroken(
                            f"attempt budget exhausted: {trace.underlying_hops} "
                            f"links > {max_links} (simulated timeout)"
                        )
                except TunnelBroken as exc:
                    trace.failure_reason = str(exc)
                    if hop_span is not None:
                        hop_span.set(error=trace.failure_reason,
                                     links=record_links(record))
                    return trace
                record.hop_node = hop_node
                if expected_roots is not None:
                    formed_root = expected_roots.get(hop_id)
                    if formed_root is not None and formed_root != hop_node:
                        record.promoted = True
                if hop_span is not None:
                    hop_span.set(
                        hop_node=hop_node,
                        links=record_links(record),
                        via_hint=record.via_hint,
                        promoted=record.promoted,
                    )

                tap = self.tap_registry.get(hop_node)
                if tap is not None:
                    pending = tap.match_reply(hop_id)
                    if pending is not None:
                        pending.completed = True
                        trace.success = True
                        trace.destination = hop_node
                        trace.delivered_payload = payload
                        if hop_span is not None:
                            # initiator-only knowledge; stripped from
                            # this hop-observer span on redacted export
                            hop_span.set(delivered=True, matched_bid=hop_id)
                        if pending.callback is not None:
                            pending.callback(payload)
                        return trace
                try:
                    peeled = self._peel_at(hop_node, hop_id, blob)
                except TunnelBroken as exc:
                    trace.failure_reason = str(exc)
                    if hop_span is not None:
                        hop_span.set(error=trace.failure_reason)
                    return trace
            current = hop_node
            hop_id = peeled.next_id
            hint_ip = peeled.ip_hint
            blob = peeled.inner
        trace.failure_reason = "reply exceeded max hops (fakeonion cycle?)"
        return trace


