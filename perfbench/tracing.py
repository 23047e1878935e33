"""Span recording at the public entry points of each layer.

A traced child process calls :func:`install`, which wraps every entry
point listed in :data:`ENTRY_POINTS` so each call records one span
(name, start, end, parent) plus the work counts named for that entry.
Spans stay in memory in a :class:`Tracer` and are written once, at the
end of the run, by :meth:`Tracer.dump`.  The parent process turns them
into per-layer self times with :func:`self_times` / :func:`layer_metrics`.

The program itself is not modified: methods are replaced on their
class, and module-level functions are replaced in their defining
module *and* in every ``repro.*`` module that imported the name (a
``from x import f`` binding would otherwise bypass the wrapper and the
layer would silently read 0 s).  An entry point that no longer exists
raises :class:`CoverageError` instead of being skipped.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time
from dataclasses import dataclass
from typing import Callable

#: the span covering a whole traced child; its self time is the work
#: no wrapped entry point accounts for
ROOT = "workload"
#: spans the benchmark itself records around its own phases
IMPORT = "import"
CHECK = "check"


class CoverageError(RuntimeError):
    """A listed entry point is missing, so its layer would read 0 s."""


def _first_arg(args, kwargs):
    """The first argument after ``self``, positional or keyword."""
    return args[1] if len(args) > 1 else next(iter(kwargs.values()))


def _route_hops(args, kwargs, result):
    return {"hops": result.hops}


def _batch_hops(args, kwargs, result):
    return {"packets": len(result), "hops": int(result.hops.sum())}


def _tunnel_hops(args, kwargs, result):
    return {"tunnels": len(result), "hops": int(result.hops.sum())}


def _replica_keys(args, kwargs, result):
    return {"keys": len(result)}


def _membership_nodes(args, kwargs, result):
    return {"nodes": len(_first_arg(args, kwargs))}


def _sym_bytes(args, kwargs, result):
    return {"bytes": len(_first_arg(args, kwargs))}


def _deploy_counts(args, kwargs, result):
    return {"thas": len(result.deployed), "attempts": result.attempts}


def _forward_hops(args, kwargs, result):
    return {"overlay_hops": result.overlay_hops,
            "underlying_hops": result.underlying_hops}


@dataclass(frozen=True)
class Entry:
    """One wrapped entry point: ``module:Qual.name`` or ``module:func``."""

    span: str
    target: str
    counts: Callable | None = None


#: span name -> entry points it covers.  Span names are the per-layer
#: metric prefixes (``<layer>.<entry>``); the layer is the first part.
ENTRY_POINTS: tuple[Entry, ...] = (
    Entry("pastry.build", "repro.pastry.network:PastryNetwork.build"),
    Entry("pastry.route", "repro.pastry.network:PastryNetwork.route", _route_hops),
    Entry("pastry.closest_alive", "repro.pastry.network:PastryNetwork.closest_alive"),
    Entry("pastry.membership", "repro.pastry.network:PastryNetwork.join"),
    Entry("pastry.membership", "repro.pastry.network:PastryNetwork.fail"),
    Entry("pastry.membership", "repro.pastry.network:PastryNetwork.revive"),
    Entry("snapshot.restore", "repro.perf.snapshot:NetworkSnapshot.restore"),
    Entry("idspace.replica", "repro.analysis.idspace:IdSpaceModel.replica_indices",
          _replica_keys),
    Entry("idspace.membership", "repro.analysis.idspace:IdSpaceModel.__init__"),
    Entry("idspace.membership", "repro.analysis.idspace:IdSpaceModel.add_nodes"),
    Entry("idspace.membership", "repro.analysis.idspace:IdSpaceModel.remove_nodes"),
    Entry("theory", "repro.analysis.theory:tunnel_failure_prob_current"),
    Entry("theory", "repro.analysis.theory:tunnel_failure_prob_tap"),
    Entry("theory", "repro.analysis.theory:tunnel_corruption_prob"),
    Entry("theory", "repro.analysis.theory:tha_disclosure_prob"),
    Entry("theory", "repro.analysis.theory:expected_route_hops"),
    Entry("compact.bootstrap", "repro.perf.compact:CompactOverlay.random"),
    Entry("compact.membership", "repro.perf.compact:CompactOverlay.fail_positions",
          _membership_nodes),
    Entry("compact.membership", "repro.perf.compact:CompactOverlay.revive_positions",
          _membership_nodes),
    Entry("compact.membership", "repro.perf.compact:CompactOverlay.join",
          _membership_nodes),
    Entry("compact.replica", "repro.perf.compact:CompactOverlay.replica_positions",
          _replica_keys),
    Entry("compact.scalar_route", "repro.perf.compact:CompactOverlay.route"),
    Entry("packet.route_many", "repro.perf.compact:CompactOverlay.route_many",
          _batch_hops),
    Entry("packet.route_tunnels", "repro.perf.compact:CompactOverlay.route_tunnels",
          _tunnel_hops),
    Entry("simnet.transfer", "repro.simnet.transport:path_transfer_time"),
    Entry("simnet.latency", "repro.simnet.topology:Topology.latency"),
    Entry("crypto.rsa_keygen", "repro.crypto.asymmetric:RsaKeyPair.generate"),
    Entry("crypto.rsa_op", "repro.crypto.asymmetric:RsaPublicKey.encrypt"),
    Entry("crypto.rsa_op", "repro.crypto.asymmetric:RsaPublicKey.verify"),
    Entry("crypto.rsa_op", "repro.crypto.asymmetric:RsaKeyPair.decrypt"),
    Entry("crypto.rsa_op", "repro.crypto.asymmetric:RsaKeyPair.sign"),
    Entry("crypto.sym", "repro.crypto.symmetric:SymmetricKey.seal", _sym_bytes),
    Entry("crypto.sym", "repro.crypto.symmetric:SymmetricKey.open", _sym_bytes),
    Entry("past.insert", "repro.past.replication:ReplicatedStore.insert"),
    Entry("past.fetch", "repro.past.replication:ReplicatedStore.fetch"),
    Entry("past.fetch", "repro.past.storage:Storage.lookup"),
    Entry("past.repair", "repro.past.replication:ReplicatedStore.on_fail"),
    Entry("past.repair", "repro.past.replication:ReplicatedStore.on_join"),
    Entry("past.repair", "repro.past.replication:ReplicatedStore.on_revive"),
    Entry("core.deploy", "repro.core.system:TapSystem.deploy_thas", _deploy_counts),
    Entry("core.form", "repro.core.system:TapSystem.form_tunnel"),
    Entry("core.form", "repro.core.system:TapSystem.form_reply_tunnel"),
    Entry("core.forward", "repro.core.forwarding:TunnelForwarder.send", _forward_hops),
    Entry("core.forward", "repro.core.forwarding:TunnelForwarder.send_reply",
          _forward_hops),
    Entry("core.retrieve", "repro.core.system:TapSystem.retrieve"),
)

#: every span name the parent reports, in report order
SPAN_NAMES: tuple[str, ...] = tuple(dict.fromkeys(e.span for e in ENTRY_POINTS))


class Tracer:
    """In-memory span store; one per traced process.

    ``spans`` holds ``[name, start, end, parent_index]`` rows in start
    order; ``counts`` accumulates the per-span-name work counters.
    While :attr:`paused` is set (inside :meth:`region` for checks) the
    wrappers call straight through, so verification work is charged to
    the check region as a whole rather than to program layers.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.counts: dict[str, dict[str, int]] = {}
        self._stack: list[int] = []
        self.paused = False

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append([name, self.clock(), None, parent])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = self.clock()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError("span closed out of order")

    def add_counts(self, name: str, counts: dict) -> None:
        bucket = self.counts.setdefault(name, {})
        for key, value in counts.items():
            bucket[key] = bucket.get(key, 0) + int(value)

    @contextlib.contextmanager
    def region(self, name: str):
        """One span for a benchmark phase; inside ``CHECK`` nested entry
        points are not recorded."""
        index = self.open(name)
        was_paused = self.paused
        self.paused = was_paused or name == CHECK
        try:
            yield
        finally:
            self.paused = was_paused
            self.close(index)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": self.counts}, fh)


def _wrap(func: Callable, tracer: Tracer, entry: Entry) -> Callable:
    name = entry.span
    counts = entry.counts

    @functools.wraps(func)
    def traced(*args, **kwargs):
        if tracer.paused:
            return func(*args, **kwargs)
        index = tracer.open(name)
        try:
            result = func(*args, **kwargs)
        finally:
            tracer.close(index)
        if counts is not None:
            tracer.add_counts(name, counts(args, kwargs, result))
        return result

    return traced


def _resolve(target: str):
    module_name, _, qualname = target.partition(":")
    try:
        module = importlib.import_module(module_name)
    except ImportError as exc:
        raise CoverageError(f"entry point {target}: {exc}") from exc
    owner = module
    parts = qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            raise CoverageError(f"entry point {target} no longer exists")
    attr = parts[-1]
    if attr not in vars(owner):
        raise CoverageError(f"entry point {target} no longer exists")
    return module, owner, attr


def _repro_bindings(original):
    """``(module name, module, attribute)`` of every ``repro.*`` module
    attribute that is ``original``."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
            continue
        for bound_name, value in list(vars(mod).items()):
            if value is original:
                yield mod_name, mod, bound_name


def _rebind(original, wrapped) -> int:
    """Replace every ``repro.*`` module binding of ``original``."""
    bindings = list(_repro_bindings(original))
    for _, mod, bound_name in bindings:
        setattr(mod, bound_name, wrapped)
    return len(bindings)


def install(tracer: Tracer) -> list:
    """Wrap every entry point in :data:`ENTRY_POINTS`.

    Returns the original module-level functions, for
    :func:`assert_covered`.  Raises :class:`CoverageError` when an
    entry point is missing.
    """
    originals = []
    for entry in ENTRY_POINTS:
        module, owner, attr = _resolve(entry.target)
        raw = vars(owner)[attr]
        if owner is module:
            _rebind(raw, _wrap(raw, tracer, entry))
            originals.append((entry.target, raw))
        elif isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(_wrap(raw.__func__, tracer, entry)))
        elif callable(raw):
            setattr(owner, attr, _wrap(raw, tracer, entry))
        else:
            raise CoverageError(f"entry point {entry.target} is not callable")
    return originals


def assert_covered(originals) -> None:
    """Fail if a module imported after :func:`install` bound an
    original (unwrapped) entry function — its calls went unrecorded."""
    for target, original in originals:
        for mod_name, _, bound_name in _repro_bindings(original):
            raise CoverageError(
                f"{mod_name}.{bound_name} binds {target} unwrapped "
                "(imported after the tracer was installed)"
            )


# ----------------------------------------------------------------------
# analysis (parent side)
# ----------------------------------------------------------------------
def self_times(spans) -> list[float]:
    """Per span: its duration minus the durations of its direct children.

    Spans come from one thread and nest strictly, so the children of a
    span never overlap and their durations sum to the covered part.
    """
    out = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def layer_metrics(spans, counts: dict, import_modules: int) -> dict[str, float]:
    """Fold a span dump into the flat per-layer metric map.

    Every span name in :data:`SPAN_NAMES` gets ``.self_s`` and
    ``.calls`` (explicit zeros when the workload never reached it).
    """
    own = self_times(spans)
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    for (name, *_), value in zip(spans, own):
        self_s[name] = self_s.get(name, 0.0) + value
        calls[name] = calls.get(name, 0) + 1
    metrics: dict[str, float] = {
        "import.self_s": self_s.get(IMPORT, 0.0),
        "import.modules": import_modules,
    }
    for name in SPAN_NAMES:
        metrics[f"{name}.self_s"] = self_s.get(name, 0.0)
        metrics[f"{name}.calls"] = calls.get(name, 0)
    c = counts
    metrics["pastry.route.hops"] = c.get("pastry.route", {}).get("hops", 0)
    metrics["idspace.replica.keys"] = c.get("idspace.replica", {}).get("keys", 0)
    metrics["compact.membership.nodes"] = c.get("compact.membership", {}).get("nodes", 0)
    metrics["compact.replica.keys"] = c.get("compact.replica", {}).get("keys", 0)
    many = c.get("packet.route_many", {})
    metrics["packet.route_many.packets"] = many.get("packets", 0)
    metrics["packet.route_many.hops"] = many.get("hops", 0)
    metrics["packet.route_many.us_per_packet"] = (
        1e6 * self_s.get("packet.route_many", 0.0) / many["packets"]
        if many.get("packets") else 0.0
    )
    tunnels = c.get("packet.route_tunnels", {})
    metrics["packet.route_tunnels.tunnels"] = tunnels.get("tunnels", 0)
    metrics["packet.route_tunnels.hops"] = tunnels.get("hops", 0)
    metrics["crypto.sym.bytes"] = c.get("crypto.sym", {}).get("bytes", 0)
    deploy = c.get("core.deploy", {})
    metrics["core.deploy.thas_per_attempt"] = (
        deploy["thas"] / deploy["attempts"] if deploy.get("attempts") else 0.0
    )
    forward = c.get("core.forward", {})
    metrics["core.forward.overlay_hops"] = forward.get("overlay_hops", 0)
    metrics["core.forward.underlying_hops"] = forward.get("underlying_hops", 0)
    metrics["check.self_s"] = self_s.get(CHECK, 0.0)
    metrics["unattributed.self_s"] = self_s.get(ROOT, 0.0)
    return metrics


def layer_shares(metrics: dict[str, float]) -> dict[str, float]:
    """Share of attributed self time per layer (first name component),
    over program layers only (import, check and unattributed excluded)."""
    totals: dict[str, float] = {}
    for name in SPAN_NAMES:
        layer = name.split(".", 1)[0]
        totals[layer] = totals.get(layer, 0.0) + metrics[f"{name}.self_s"]
    whole = sum(totals.values())
    return {k: (v / whole if whole else 0.0) for k, v in sorted(totals.items())}
