"""The three benchmark workloads and their output checks.

Each workload is a function ``run_<name>(seed, size, phase)`` that
imports the program lazily (so the child can time the import), builds
its inputs from ``seed`` alone, drives the public API, checks the
outputs, and returns a plain result dict:

``attempted`` / ``failed``
    operations tried and operations that did not produce a correct
    result (the workload's own definition of an operation);
``samples``
    per-operation latencies in seconds, keyed by operation kind;
``rates``
    ``{name: (units, seconds)}`` work done in a timed phase;
``digest``
    sha256 over the workload's outputs, so a traced and an untraced
    run of one seed can be compared;
``problems``
    every failed output check, as text (empty when correct);
``failures``
    operations the system itself reported as failed (a retrieval that
    returned no content, a join the overlay refused): counted in
    ``failed`` but not wrong output.

``phase`` is the child's phase recorder: ``phase.ready()`` marks the
first timed operation (the end of set-up) and ``phase.check()`` is a
context manager around verification work.

The output checks are tolerance and ordering checks on the science,
restated here rather than imported from the test suite, so that a
refactor which preserves the science (a new kernel, re-pinned link
hashing) passes and a wrong result does not.  None of them compares
exact row digests.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import replace

import numpy as np

_U64_MAX = np.iinfo(np.uint64).max

#: per-workload sizes; "full" is what the benchmark measures, "tiny"
#: is the smoke size the benchmark's own tests run
SIZES = {
    "paper-figures": {"full": {"paper_default": True},
                      "tiny": {"paper_default": False}},
    "million-routing": {
        "full": {"nodes": 1_000_000, "rounds": 3, "packets": 40_000,
                 "tunnels": 4_000, "anchors": 2_000, "scalar_sample": 12},
        "tiny": {"nodes": 3_000, "rounds": 2, "packets": 400,
                 "tunnels": 60, "anchors": 50, "scalar_sample": 6},
    },
    "tap-retrieval": {
        "full": {"nodes": 2_000, "initiators": 21, "rounds": 5, "files": 20},
        "tiny": {"nodes": 150, "initiators": 3, "rounds": 2, "files": 3},
    },
}

#: replication factor and tunnel length of the tap-retrieval loop
TAP_K = 3
TAP_LENGTH = 3
FILE_BYTES = 4096
#: churn per round, as fractions of the network size
FAIL_FRACTION = 0.01
JOIN_FRACTION = 0.005
#: packet-plane window of the million-node operating point
CHUNK_SIZE = 1024
TUNNEL_LENGTHS = (3, 5)
REPLICA_K = 3

#: fig4 monotonicity tolerance: one step may rise by at most this much
#: (a few hundred times the binomial noise of the near-zero tail)
MONOTONE_TOL = 0.005


def _digest(value) -> str:
    blob = json.dumps(value, sort_keys=True, default=repr).encode()
    return hashlib.sha256(blob).hexdigest()


def _result(attempted, failed, problems, digest, failures=(), samples=None,
            rates=None, counts=None) -> dict:
    return {
        "attempted": int(attempted),
        "failed": int(failed),
        "problems": list(problems),
        "failures": list(failures),
        "digest": digest,
        "samples": samples or {},
        "rates": rates or {},
        "counts": counts or {},
    }


def fresh_id_words(rng: np.random.Generator, ring_hi: np.ndarray,
                   ring_lo: np.ndarray, count: int) -> tuple[np.ndarray, np.ndarray]:
    """``count`` uniform 128-bit ids as (hi, lo) words, distinct and
    absent from the ring (which need not be sorted).

    Vectorised: one sort of the ring's high words and one searchsorted
    screen the whole batch; only a high-word collision (about 2^-44 per draw at 10^6
    nodes) pays an exact two-word comparison.  Collisions with the
    ring or within the batch are redrawn, so the workloads never rely
    on ``join`` rejecting duplicates.
    """
    sorted_hi = np.sort(ring_hi)
    hi_out = np.empty(0, dtype=np.uint64)
    lo_out = np.empty(0, dtype=np.uint64)
    while len(hi_out) < count:
        need = count - len(hi_out)
        hi = rng.integers(0, _U64_MAX, size=need, dtype=np.uint64)
        lo = rng.integers(0, _U64_MAX, size=need, dtype=np.uint64)
        pos = np.minimum(np.searchsorted(sorted_hi, hi), len(sorted_hi) - 1)
        clash = sorted_hi[pos] == hi
        for i in np.flatnonzero(clash):
            clash[i] = bool(((ring_hi == hi[i]) & (ring_lo == lo[i])).any())
        hi_out = np.concatenate([hi_out, hi[~clash]])
        lo_out = np.concatenate([lo_out, lo[~clash]])
        _, first = np.unique(np.stack([hi_out, lo_out], axis=1), axis=0,
                             return_index=True)
        keep = np.sort(first)
        hi_out, lo_out = hi_out[keep], lo_out[keep]
    return hi_out[:count], lo_out[:count]


def words_to_ints(hi: np.ndarray, lo: np.ndarray) -> list[int]:
    return [(h << 64) | l for h, l in zip(hi.tolist(), lo.tolist())]


def ints_to_words(values) -> tuple[np.ndarray, np.ndarray]:
    values = list(values)
    hi = np.fromiter((v >> 64 for v in values), dtype=np.uint64, count=len(values))
    lo = np.fromiter((v & _U64_MAX for v in values), dtype=np.uint64, count=len(values))
    return hi, lo


# ----------------------------------------------------------------------
# paper-figures
# ----------------------------------------------------------------------
def _monotone(values, increasing: bool, tol: float = MONOTONE_TOL) -> bool:
    steps = np.diff(np.asarray(values, dtype=float))
    return bool((steps >= -tol).all() if increasing else (steps <= tol).all())


def check_figures(rows: dict[str, list[dict]]) -> list[str]:
    """Closed-form tolerances and orderings of figures 2–6."""
    problems: list[str] = []

    fig2 = rows["fig2"]
    for row in fig2:
        if abs(row["failed_tunnels"] - row["expected"]) > 0.06:
            problems.append(f"fig2 {row['scheme']} p={row['failed_fraction']}: "
                            f"{row['failed_tunnels']:.4f} vs theory "
                            f"{row['expected']:.4f} (> 0.06)")
    by_scheme: dict[str, list[tuple[float, float]]] = {}
    for row in fig2:
        by_scheme.setdefault(row["scheme"], []).append(
            (row["failed_fraction"], row["failed_tunnels"]))
    for scheme in by_scheme:
        by_scheme[scheme].sort()
    current = by_scheme.get("current", [])
    if not _monotone([v for _, v in current], increasing=True):
        problems.append("fig2 current tunnelling not monotone in p")
    for (p, cur), (_, tap) in zip(current, by_scheme.get("tap-k3", [])):
        if not tap < cur:
            problems.append(f"fig2 p={p}: TAP k=3 {tap:.4f} not below current {cur:.4f}")
    for (p, k3), (_, k5) in zip(by_scheme.get("tap-k3", []), by_scheme.get("tap-k5", [])):
        if k5 > k3:
            problems.append(f"fig2 p={p}: k=5 {k5:.4f} above k=3 {k3:.4f}")

    fig3 = sorted(rows["fig3"], key=lambda r: r["malicious_fraction"])
    for row in fig3:
        if abs(row["corrupted_tunnels"] - row["expected"]) > 0.05:
            problems.append(f"fig3 p={row['malicious_fraction']}: "
                            f"{row['corrupted_tunnels']:.4f} vs theory "
                            f"{row['expected']:.4f} (> 0.05)")
    if not _monotone([r["corrupted_tunnels"] for r in fig3], increasing=True):
        problems.append("fig3 corruption not increasing in malicious fraction")

    fig4a = sorted(rows["fig4a"], key=lambda r: r["replication_factor"])
    values = [r["corrupted_tunnels"] for r in fig4a]
    if not _monotone(values, increasing=True) or not values[-1] > values[0]:
        problems.append(f"fig4a corruption not increasing in k: {values}")
    fig4b = sorted(rows["fig4b"], key=lambda r: r["tunnel_length"])
    values = [r["corrupted_tunnels"] for r in fig4b]
    if not _monotone(values, increasing=False) or not values[0] > values[-1]:
        problems.append(f"fig4b corruption not decreasing in l: {values}")

    fig5: dict[str, list[tuple[int, float]]] = {}
    for row in rows["fig5"]:
        fig5.setdefault(row["scheme"], []).append((row["time"], row["corrupted_tunnels"]))
    static = rows["fig5"][0]["static_expected"]
    unref = sorted(fig5.get("unrefreshed", []))
    if not unref or unref[-1][1] < unref[0][1]:
        problems.append("fig5 unrefreshed corruption shrank over time")
    for t, value in fig5.get("refreshed", []):
        if value > static + 0.05:
            problems.append(f"fig5 refreshed t={t}: {value:.4f} above static "
                            f"{static:.4f} + 0.05")

    fig6: dict[int, dict[str, float]] = {}
    for row in rows["fig6"]:
        fig6.setdefault(row["num_nodes"], {})[row["scheme"]] = row["transfer_time_s"]
    for n, s in sorted(fig6.items()):
        if not s["overt"] < s["tap-opt-l3"] < s["tap-basic-l3"]:
            problems.append(f"fig6 n={n}: not overt < opt-l3 < basic-l3 ({s})")
        if not s["tap-opt-l5"] < s["tap-basic-l5"]:
            problems.append(f"fig6 n={n}: not opt-l5 < basic-l5 ({s})")
        if not s["tap-basic-l5"] > s["tap-basic-l3"]:
            problems.append(f"fig6 n={n}: not basic-l5 > basic-l3 ({s})")
    return problems


def _figure_problems(name: str, problems: list[str]) -> bool:
    return any(p.startswith(name + " ") for p in problems)


def run_paper_figures(seed: int, size: str, phase) -> dict:
    """Figures 2–6 at their paper-default configs (``workers=1``)."""
    from repro.experiments import (
        Fig2Config, Fig3Config, Fig4Config, Fig5Config, Fig6Config,
        run_fig2, run_fig3, run_fig4a, run_fig4b, run_fig5, run_fig6,
    )

    paper = SIZES["paper-figures"][size]["paper_default"]

    def config(cls):
        return replace(cls() if paper else cls.fast(), seed=seed, workers=1)

    plan = [
        ("fig2", run_fig2, config(Fig2Config)),
        ("fig3", run_fig3, config(Fig3Config)),
        ("fig4a", run_fig4a, config(Fig4Config)),
        ("fig4b", run_fig4b, config(Fig4Config)),
        ("fig5", run_fig5, config(Fig5Config)),
        ("fig6", run_fig6, config(Fig6Config)),
    ]
    phase.ready()
    rows: dict[str, list[dict]] = {}
    samples: list[float] = []
    for name, runner, cfg in plan:
        start = time.perf_counter()
        rows[name] = runner(cfg)
        samples.append(time.perf_counter() - start)
    with phase.check():
        problems = check_figures(rows)
    failed = sum(_figure_problems(name, problems) for name in
                 ("fig2", "fig3", "fig4a", "fig4b", "fig5", "fig6"))
    return _result(len(plan), failed, problems, _digest(rows),
                   samples={"figure": samples})


# ----------------------------------------------------------------------
# million-routing
# ----------------------------------------------------------------------
def check_routes(true_root: np.ndarray, dest_pos: np.ndarray,
                 success: np.ndarray) -> np.ndarray:
    """Per packet: did it succeed and stop at its key's true root?"""
    return np.asarray(success, dtype=bool) & (np.asarray(dest_pos) == true_root)


def check_paths(batch_paths: list[list[int]], scalar_paths: list[list[int]]) -> list[str]:
    """Sampled batched paths must equal the scalar router hop for hop."""
    return [
        f"packet sample {i}: batched path {b} != scalar path {s}"
        for i, (b, s) in enumerate(zip(batch_paths, scalar_paths)) if b != s
    ]


def run_million_routing(seed: int, size: str, phase) -> dict:
    """Churn rounds plus batched routing on the compact overlay."""
    from repro.perf.compact import CompactOverlay

    p = SIZES["million-routing"][size]
    rng = np.random.default_rng([seed, 1])
    overlay = CompactOverlay.random(p["nodes"], seed=seed)
    anchor_hi = rng.integers(0, _U64_MAX, size=p["anchors"], dtype=np.uint64)
    anchor_lo = rng.integers(0, _U64_MAX, size=p["anchors"], dtype=np.uint64)
    phase.ready()

    attempted = failed = routes = 0
    route_seconds = 0.0
    problems: list[str] = []
    outputs = []
    for rnd in range(p["rounds"]):
        alive = overlay.alive_positions()
        victims = rng.choice(alive, size=int(FAIL_FRACTION * p["nodes"]), replace=False)
        overlay.fail_positions(np.sort(victims))
        joiners = fresh_id_words(rng, overlay.hi, overlay.lo,
                                 int(JOIN_FRACTION * p["nodes"]))
        overlay.join(words_to_ints(*joiners))
        replicas = overlay.replica_positions(anchor_hi, anchor_lo, REPLICA_K)

        alive = overlay.alive_positions()
        src = alive[rng.integers(0, len(alive), size=p["packets"])]
        key_hi = rng.integers(0, _U64_MAX, size=p["packets"], dtype=np.uint64)
        key_lo = rng.integers(0, _U64_MAX, size=p["packets"], dtype=np.uint64)
        start = time.perf_counter()
        batch = overlay.route_many(src, key_hi, key_lo, chunk_size=CHUNK_SIZE)
        route_seconds += time.perf_counter() - start
        routes += p["packets"]

        tunnels = []
        for length in TUNNEL_LENGTHS:
            t_src = alive[rng.integers(0, len(alive), size=p["tunnels"])]
            hop_hi = rng.integers(0, _U64_MAX, size=(p["tunnels"], length), dtype=np.uint64)
            hop_lo = rng.integers(0, _U64_MAX, size=(p["tunnels"], length), dtype=np.uint64)
            dst_hi = rng.integers(0, _U64_MAX, size=p["tunnels"], dtype=np.uint64)
            dst_lo = rng.integers(0, _U64_MAX, size=p["tunnels"], dtype=np.uint64)
            start = time.perf_counter()
            res = overlay.route_tunnels(t_src, hop_hi, hop_lo, dst_hi, dst_lo,
                                        chunk_size=CHUNK_SIZE)
            route_seconds += time.perf_counter() - start
            routes += p["tunnels"] * (length + 1)
            tunnels.append((length, dst_hi, dst_lo, res))
        sample = np.sort(rng.choice(p["packets"], size=p["scalar_sample"], replace=False))

        with phase.check():
            ok = check_routes(overlay.replica_positions(key_hi, key_lo, 1)[:, 0],
                              batch.dest_pos, batch.success)
            attempted += len(ok)
            failed += int((~ok).sum())
            if not ok.all():
                problems.append(f"round {rnd}: {int((~ok).sum())} packets missed their root")
            for length, dst_hi, dst_lo, res in tunnels:
                ok = check_routes(overlay.replica_positions(dst_hi, dst_lo, 1)[:, 0],
                                  res.dest_pos, res.success)
                attempted += len(ok)
                failed += int((~ok).sum())
                if not ok.all():
                    problems.append(f"round {rnd}: {int((~ok).sum())} l={length} "
                                    f"tunnels missed their root")
            scalar = [
                overlay.route(src_id, key).path for src_id, key in zip(
                    words_to_ints(overlay.hi[src[sample]], overlay.lo[src[sample]]),
                    words_to_ints(key_hi[sample], key_lo[sample]))
            ]
            problems += [f"round {rnd}: {msg}" for msg in
                         check_paths([batch.path(int(i)) for i in sample], scalar)]
            outputs.append({
                "alive": int(overlay.num_alive),
                "replicas": _digest(overlay.hi[replicas].tolist()),
                "dest": _digest(batch.dest_pos.tolist()),
                "hops": int(batch.hops.sum()),
                "tunnel_hops": [int(res.hops.sum()) for *_, res in tunnels],
            })
    return _result(attempted, failed, problems, _digest(outputs),
                   rates={"routes": (routes, route_seconds)})


# ----------------------------------------------------------------------
# tap-retrieval
# ----------------------------------------------------------------------
def check_retrieval(result, published: bytes) -> str | None:
    """A successful retrieval must return exactly the published bytes.

    An unsuccessful one is a failed operation, not a wrong output: the
    system reported the failure instead of returning bad bytes.
    """
    if result.success and result.content != published:
        return "retrieval returned bytes that differ from the published file"
    return None


def run_tap_retrieval(seed: int, size: str, phase) -> dict:
    """Closed loop: deploy, form, retrieve, retire; churn between rounds."""
    from repro.core.system import TapSystem
    from repro.pastry.network import RoutingError

    p = SIZES["tap-retrieval"][size]
    rng = np.random.default_rng([seed, 2])
    system = TapSystem.bootstrap(p["nodes"], seed=seed, replication_factor=TAP_K)
    alive = system.network.alive_ids
    picks = rng.choice(len(alive), size=p["initiators"], replace=False)
    initiator_ids = [alive[int(i)] for i in picks]
    files: dict[int, bytes] = {}
    for i in range(p["files"]):
        content = rng.bytes(FILE_BYTES)
        files[system.publish(content, name=f"file-{i}".encode())] = content
    fids = list(files)
    owners = [system.tap_node(nid) for nid in initiator_ids]
    phase.ready()

    protected = set(initiator_ids)
    deploys: list[float] = []
    retrievals: list[float] = []
    problems: list[str] = []
    failures: list[str] = []
    outputs = []
    joins = 0
    loop_start = time.perf_counter()
    for rnd in range(p["rounds"]):
        if rnd:
            candidates = [n for n in system.network.alive_ids if n not in protected]
            victims = rng.choice(len(candidates),
                                 size=round(FAIL_FRACTION * p["nodes"]), replace=False)
            for i in sorted(victims):
                system.fail_node(candidates[int(i)], repair=True)
            ring = ints_to_words(system.network.nodes.keys())
            for node_id in words_to_ints(*fresh_id_words(
                    rng, *ring, max(1, round(JOIN_FRACTION * p["nodes"])))):
                joins += 1
                try:
                    system.join_node(node_id)
                except RoutingError as exc:
                    # the overlay refused the newcomer; nothing was added
                    failures.append(f"round {rnd}: join of {node_id:#x} failed: {exc}")
        for owner in owners:
            start = time.perf_counter()
            report = system.deploy_thas(owner, count=2 * TAP_LENGTH)
            deploys.append(time.perf_counter() - start)
            if len(report.deployed) != 2 * TAP_LENGTH:
                problems.append(f"round {rnd}: deploy placed {len(report.deployed)} "
                                f"of {2 * TAP_LENGTH} anchors")
            forward = system.form_tunnel(owner, TAP_LENGTH)
            reply = system.form_reply_tunnel(owner, TAP_LENGTH)
            fid = fids[int(rng.integers(len(fids)))]
            start = time.perf_counter()
            result = system.retrieve(owner, fid, forward, reply)
            retrievals.append(time.perf_counter() - start)
            with phase.check():
                problem = check_retrieval(result, files[fid])
            if problem is not None:
                problems.append(f"round {rnd}: {problem}")
            if not result.success:
                failures.append(f"round {rnd}: retrieval failed: {result.failure_reason}")
            system.retire_tunnel(owner, forward)
            system.retire_tunnel(owner, reply)
            outputs.append([fid, result.success, result.total_underlying_hops])
    loop_seconds = time.perf_counter() - loop_start
    pending = sum(len(owner.pending_replies) for owner in owners)
    return _result(
        len(deploys) + len(retrievals) + joins, len(problems) + len(failures), problems,
        _digest(outputs), failures=failures,
        samples={"deploy": deploys, "retrieve": retrievals},
        rates={"retrievals": (len(retrievals), loop_seconds)},
        counts={"pending_replies_open": pending},
    )


WORKLOADS = {
    "paper-figures": run_paper_figures,
    "million-routing": run_million_routing,
    "tap-retrieval": run_tap_retrieval,
}
