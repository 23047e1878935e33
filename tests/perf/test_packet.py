"""Tests for repro.perf.packet: the route_many equivalence contract.

The load-bearing property (DESIGN.md §6f): the vectorised packet plane
must make *the same forwarding decision* as the scalar
``CompactOverlay.route`` for every packet at every hop — and therefore,
through the PR 6 contract, the same decisions as the object engine via
the materialisation bridge.  Pinned here across churned overlays,
clustered id populations that force the run-scan fallback, packets
whose source fails mid-batch, tiny rings, and the RUN_SCAN_CAP scalar
rescue; plus the batched tunnel stitching and the source-position
bounds.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.perf.packet as packet
from repro.analysis.idspace import pack_ids
from repro.perf.compact import CompactOverlay
from repro.perf.packet import route_many, route_tunnels
from repro.util.ids import ID_SPACE
from repro.util.rng import SeedSequenceFactory

SEED = 7


def _uniform_overlay(n: int, seed: int, churn: bool = True) -> CompactOverlay:
    overlay = CompactOverlay.random(n, seed=seed)
    if churn:
        rng = np.random.default_rng(seed + 1000)
        alive = np.flatnonzero(overlay.alive)
        overlay.fail_positions(
            rng.choice(alive, size=max(1, n // 10), replace=False)
        )
        fresh = []
        pyrng = SeedSequenceFactory(seed).pyrandom("packet-join")
        while len(fresh) < max(1, n // 20):
            cand = pyrng.getrandbits(128)
            if cand not in overlay:
                fresh.append(cand)
        overlay.join(fresh)
    return overlay


def _clustered_overlay(seed: int) -> CompactOverlay:
    """Half the ring crammed into one deep prefix: missing routing
    cells are common, so most packets hit the run-scan fallback."""
    rng = np.random.default_rng(seed)
    base = 0xABCDEF00 << 96
    ids = sorted(
        {base | int(x) for x in rng.integers(0, 1 << 40, size=150, dtype=np.uint64)}
        | {int(x) << 64 for x in rng.integers(0, 2**60, size=100, dtype=np.uint64)}
    )
    overlay = CompactOverlay.from_ids(ids)
    alive = np.flatnonzero(overlay.alive)
    overlay.fail_positions(rng.choice(alive, size=30, replace=False))
    return overlay


def _sample_packets(overlay: CompactOverlay, rng, count: int):
    alive = np.flatnonzero(overlay.alive)
    src = rng.choice(alive, size=count)
    key_hi = rng.integers(0, 2**64, size=count, dtype=np.uint64)
    key_lo = rng.integers(0, 2**64, size=count, dtype=np.uint64)
    return src, key_hi, key_lo


def _assert_matches_scalar(overlay, batch, src, key_hi, key_lo):
    for i in range(len(batch)):
        src_id = (int(overlay.hi[src[i]]) << 64) | int(overlay.lo[src[i]])
        key = (int(key_hi[i]) << 64) | int(key_lo[i])
        ref = overlay.route(src_id, key)
        assert batch.path(i) == ref.path, f"packet {i} path diverges"
        assert bool(batch.success[i]) == ref.success
        assert int(batch.hops[i]) == ref.hops
        assert batch.dest_ids()[i] == ref.destination


class TestRouteManyEquivalence:
    @pytest.mark.parametrize("seed", (0, 1, 2))
    def test_hop_for_hop_vs_scalar_on_churned_overlay(self, seed):
        overlay = _uniform_overlay(300, seed)
        rng = np.random.default_rng(seed + 50)
        src, key_hi, key_lo = _sample_packets(overlay, rng, 60)
        batch = route_many(overlay, src, key_hi, key_lo)
        _assert_matches_scalar(overlay, batch, src, key_hi, key_lo)

    def test_hop_for_hop_vs_object_engine_bridge(self):
        overlay = _uniform_overlay(200, SEED)
        network = overlay.to_network_snapshot().restore()
        rng = np.random.default_rng(SEED)
        src, key_hi, key_lo = _sample_packets(overlay, rng, 40)
        batch = route_many(overlay, src, key_hi, key_lo)
        for i in range(len(batch)):
            src_id = (int(overlay.hi[src[i]]) << 64) | int(overlay.lo[src[i]])
            key = (int(key_hi[i]) << 64) | int(key_lo[i])
            bridged = network.route(src_id, key)
            assert bridged.success
            assert batch.path(i) == bridged.path
            assert batch.dest_ids()[i] == bridged.destination

    def test_clustered_ids_exercise_fallback_and_agree(self, monkeypatch):
        overlay = _clustered_overlay(SEED)
        rng = np.random.default_rng(SEED + 1)
        fallback_packets = []
        original = packet._fallback_hops

        def probe(ov, ahi, alo, cpos, kh, kl, row, reach, run_scan_cap):
            fallback_packets.append(len(cpos))
            return original(ov, ahi, alo, cpos, kh, kl, row, reach,
                            run_scan_cap)

        monkeypatch.setattr(packet, "_fallback_hops", probe)
        alive = np.flatnonzero(overlay.alive)
        src = rng.choice(alive, size=60)
        # aim half the keys into the crowded prefix so empty buckets
        # (and therefore the fallback) are guaranteed
        key_hi = rng.integers(0, 2**64, size=60, dtype=np.uint64)
        key_hi[::2] |= np.uint64(0xABCDEF00 << 32)
        key_lo = rng.integers(0, 2**64, size=60, dtype=np.uint64)
        batch = route_many(overlay, src, key_hi, key_lo)
        assert sum(fallback_packets) > 0, "fallback branch never exercised"
        _assert_matches_scalar(overlay, batch, src, key_hi, key_lo)

    def test_run_scan_cap_rescue_is_identical(self):
        overlay = _clustered_overlay(SEED + 2)
        rng = np.random.default_rng(SEED + 3)
        alive = np.flatnonzero(overlay.alive)
        src = rng.choice(alive, size=40)
        key_hi = rng.integers(0, 2**64, size=40, dtype=np.uint64)
        key_hi[::2] |= np.uint64(0xABCDEF00 << 32)
        key_lo = rng.integers(0, 2**64, size=40, dtype=np.uint64)
        vectorised = route_many(overlay, src, key_hi, key_lo)
        # run_scan_cap is a parameter now — no monkeypatching needed
        rescued = route_many(overlay, src, key_hi, key_lo, run_scan_cap=2)
        for i in range(40):
            assert rescued.path(i) == vectorised.path(i)

    def test_dead_sources_fail_in_row_without_poisoning_batch(self):
        overlay = _uniform_overlay(250, SEED, churn=False)
        rng = np.random.default_rng(SEED)
        src, key_hi, key_lo = _sample_packets(overlay, rng, 20)
        overlay.fail_positions(np.unique(src[::2]))
        batch = route_many(overlay, src, key_hi, key_lo)
        dead = ~overlay.alive[src]
        assert dead.any()
        assert not batch.success[dead].any()
        assert (batch.hops[dead] == 0).all()
        assert (batch.dest_pos[dead] == src[dead]).all()
        for i in np.flatnonzero(dead):
            src_id = (int(overlay.hi[src[i]]) << 64) | int(overlay.lo[src[i]])
            assert batch.path(int(i)) == [src_id]
        live = np.flatnonzero(~dead)
        for i in live:
            i = int(i)
            src_id = (int(overlay.hi[src[i]]) << 64) | int(overlay.lo[src[i]])
            key = (int(key_hi[i]) << 64) | int(key_lo[i])
            ref = overlay.route(src_id, key)
            assert batch.path(i) == ref.path

    @pytest.mark.parametrize("n", (1, 2, 3, 17))
    def test_tiny_rings(self, n):
        overlay = CompactOverlay.bootstrap(n, seed=SEED)
        alive = np.flatnonzero(overlay.alive)
        key_hi, key_lo = pack_ids([123456789 << 60] * n)
        batch = route_many(overlay, alive, key_hi, key_lo)
        _assert_matches_scalar(overlay, batch, alive, key_hi, key_lo)

    def test_empty_batch(self):
        overlay = CompactOverlay.bootstrap(5, seed=SEED)
        batch = route_many(
            overlay,
            np.zeros(0, dtype=np.intp),
            np.zeros(0, dtype=np.uint64),
            np.zeros(0, dtype=np.uint64),
        )
        assert len(batch) == 0

    def test_length_mismatch_raises(self):
        overlay = CompactOverlay.bootstrap(5, seed=SEED)
        with pytest.raises(ValueError):
            route_many(
                overlay,
                np.zeros(2, dtype=np.intp),
                np.zeros(3, dtype=np.uint64),
                np.zeros(3, dtype=np.uint64),
            )

    def test_route_many_ids_convenience(self):
        overlay = _uniform_overlay(100, SEED, churn=False)
        ids = overlay.alive_ids()[:5]
        keys = [(i * 7919) << 100 for i in range(1, 6)]
        batch = overlay.route_many_ids(ids, keys)
        for i, (src_id, key) in enumerate(zip(ids, keys)):
            assert batch.path(i) == overlay.route(src_id, key).path

    @given(
        pool=st.lists(st.integers(0, ID_SPACE - 1), min_size=2, max_size=40,
                      unique=True),
        keys=st.lists(st.integers(0, ID_SPACE - 1), min_size=1, max_size=8),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_agrees_with_scalar(self, pool, keys):
        overlay = CompactOverlay.from_ids(sorted(pool))
        src_pos = np.array(
            [i % overlay.size for i in range(len(keys))], dtype=np.intp
        )
        key_hi, key_lo = pack_ids(keys)
        batch = route_many(overlay, src_pos, key_hi, key_lo)
        _assert_matches_scalar(overlay, batch, src_pos, key_hi, key_lo)


class TestChunkedRouting:
    """Chunked execution must be bitwise-identical to one flat batch
    for any chunk size — the 10^6 memory-bounding mode may not change
    a single row digest (DESIGN.md §6g)."""

    CHUNKS = (1, 7, 60, None)  # 60 == batch size below

    def _batch(self, seed=SEED, count=60):
        overlay = _uniform_overlay(300, seed)
        rng = np.random.default_rng(seed + 50)
        src, key_hi, key_lo = _sample_packets(overlay, rng, count)
        return overlay, src, key_hi, key_lo

    @pytest.mark.parametrize("chunk_size", CHUNKS)
    def test_route_many_digest_identical(self, chunk_size):
        overlay, src, key_hi, key_lo = self._batch()
        flat = route_many(overlay, src, key_hi, key_lo)
        chunked = route_many(overlay, src, key_hi, key_lo,
                             chunk_size=chunk_size)
        assert (chunked.dest_pos == flat.dest_pos).all()
        assert (chunked.hops == flat.hops).all()
        assert (chunked.success == flat.success).all()
        for i in range(len(flat)):
            assert chunked.path(i) == flat.path(i)

    @pytest.mark.parametrize("chunk_size", (1, 7, 20, None))
    def test_dead_sources_straddling_chunk_edge(self, chunk_size):
        overlay = _uniform_overlay(250, SEED, churn=False)
        rng = np.random.default_rng(SEED)
        src, key_hi, key_lo = _sample_packets(overlay, rng, 20)
        # kill sources 6 and 7 — with chunk_size=7 packet 6 ends one
        # chunk and packet 7 opens the next
        overlay.fail_positions(np.unique(src[6:8]))
        batch = route_many(overlay, src, key_hi, key_lo,
                           chunk_size=chunk_size)
        dead = ~overlay.alive[src]
        assert dead[6] and dead[7]
        assert not batch.success[dead].any()
        assert (batch.hops[dead] == 0).all()
        assert (batch.dest_pos[dead] == src[dead]).all()
        for i in np.flatnonzero(~dead):
            i = int(i)
            src_id = (int(overlay.hi[src[i]]) << 64) | int(overlay.lo[src[i]])
            key = (int(key_hi[i]) << 64) | int(key_lo[i])
            assert batch.path(i) == overlay.route(src_id, key).path

    @pytest.mark.parametrize("chunk_size", CHUNKS)
    def test_route_tunnels_failure_isolation_chunked(self, chunk_size):
        overlay = _uniform_overlay(200, SEED, churn=False)
        rng = np.random.default_rng(SEED)
        src, key_hi, key_lo = _sample_packets(overlay, rng, 8)
        overlay.fail_positions(np.unique(src[:2]))
        hop_hi = rng.integers(0, 2**64, size=(8, 2), dtype=np.uint64)
        hop_lo = rng.integers(0, 2**64, size=(8, 2), dtype=np.uint64)
        flat = route_tunnels(overlay, src, hop_hi, hop_lo, key_hi, key_lo)
        chunked = route_tunnels(overlay, src, hop_hi, hop_lo, key_hi, key_lo,
                                chunk_size=chunk_size)
        assert not chunked.success[:2].any()
        assert chunked.success[2:].all()
        assert (chunked.leg_hops == flat.leg_hops).all()
        assert (chunked.hops == flat.hops).all()
        assert (chunked.dest_pos == flat.dest_pos).all()

    def test_chunk_size_validation(self):
        overlay, src, key_hi, key_lo = self._batch(count=4)
        with pytest.raises(ValueError):
            route_many(overlay, src, key_hi, key_lo, chunk_size=0)
        hop_hi = np.zeros((len(src), 2), dtype=np.uint64)
        with pytest.raises(ValueError):
            route_tunnels(overlay, src, hop_hi, hop_hi, key_hi, key_lo,
                          chunk_size=-3)

    def test_scratch_reuse_across_chunks(self):
        overlay, src, key_hi, key_lo = self._batch()
        route_many(overlay, src, key_hi, key_lo, chunk_size=7)
        first = overlay.scratch_nbytes
        route_many(overlay, src, key_hi, key_lo, chunk_size=7)
        assert overlay.scratch_nbytes == first  # no regrowth round trip


class TestTunnelBatch:
    def test_stitched_hops_and_destinations_match_scalar_legs(self):
        overlay = _uniform_overlay(300, SEED)
        rng = np.random.default_rng(SEED)
        tunnels, length = 25, 3
        src, key_hi, key_lo = _sample_packets(overlay, rng, tunnels)
        hop_hi = rng.integers(0, 2**64, size=(tunnels, length), dtype=np.uint64)
        hop_lo = rng.integers(0, 2**64, size=(tunnels, length), dtype=np.uint64)
        result = route_tunnels(
            overlay, src, hop_hi, hop_lo, key_hi, key_lo, keep_legs=True
        )
        assert len(result.legs) == length + 1
        for t in range(tunnels):
            cur = (int(overlay.hi[src[t]]) << 64) | int(overlay.lo[src[t]])
            total = 0
            for j in range(length):
                key = (int(hop_hi[t, j]) << 64) | int(hop_lo[t, j])
                ref = overlay.route(cur, key)
                assert ref.success
                assert int(result.leg_hops[t, j]) == ref.hops
                total += ref.hops
                cur = ref.destination
            key = (int(key_hi[t]) << 64) | int(key_lo[t])
            ref = overlay.route(cur, key)
            total += ref.hops
            assert bool(result.success[t])
            assert int(result.hops[t]) == total
            dest = (int(overlay.hi[result.dest_pos[t]]) << 64) | int(
                overlay.lo[result.dest_pos[t]]
            )
            assert dest == ref.destination

    def test_dead_source_tunnel_fails_without_poisoning_batch(self):
        overlay = _uniform_overlay(200, SEED, churn=False)
        rng = np.random.default_rng(SEED)
        src, key_hi, key_lo = _sample_packets(overlay, rng, 6)
        overlay.fail_positions(np.unique(src[:2]))
        hop_hi = rng.integers(0, 2**64, size=(6, 2), dtype=np.uint64)
        hop_lo = rng.integers(0, 2**64, size=(6, 2), dtype=np.uint64)
        result = route_tunnels(overlay, src, hop_hi, hop_lo, key_hi, key_lo)
        assert not result.success[:2].any()
        assert result.success[2:].all()


class TestSourceBounds:
    """Source positions outside [0, size) raise instead of wrapping
    (a NumPy index of -1 would route from the last node)."""

    @pytest.mark.parametrize("bad", (-1, 40, 10**6))
    def test_route_many_rejects_out_of_range_source(self, bad):
        overlay = CompactOverlay.from_ids(range(1, 41))
        key = np.array([5], dtype=np.uint64)
        with pytest.raises(ValueError):
            route_many(overlay, np.array([3, bad]), np.zeros(2, np.uint64),
                       np.concatenate([key, key]))
        with pytest.raises(ValueError):
            overlay.route_many(np.array([bad]), np.zeros(1, np.uint64), key)

    @pytest.mark.parametrize("bad", (-1, 40))
    def test_route_tunnels_rejects_out_of_range_source(self, bad):
        overlay = CompactOverlay.from_ids(range(1, 41))
        hops = np.zeros((1, 2), dtype=np.uint64)
        key = np.array([5], dtype=np.uint64)
        with pytest.raises(ValueError):
            route_tunnels(overlay, np.array([bad]), hops, hops, key, key)
        with pytest.raises(ValueError):
            overlay.route_tunnels(np.array([bad]), hops, hops, key, key)

    def test_last_position_still_routes(self):
        overlay = CompactOverlay.from_ids(range(1, 41))
        result = overlay.route_many(np.array([39]), np.zeros(1, np.uint64),
                                    np.array([5], dtype=np.uint64))
        assert result.success.all()
        assert result.path(0)[0] == 40
