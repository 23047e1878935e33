"""Pinned test vectors: the wire formats must never drift silently.

A deployed anonymity network cannot change its cryptographic framing
without a coordinated upgrade, so these tests pin the exact bytes of
each construction against known inputs.  If any of them fails after a
refactor, the change is wire-breaking and must be intentional.
"""

import hashlib
import random

from repro.crypto.hashing import derive_hopid, hash_password, sha1_id
from repro.crypto.onion import OnionLayer, build_onion
from repro.crypto.symmetric import SymmetricKey
from repro.util.serialize import pack_fields, pack_int


class TestHashVectors:
    def test_sha1_id_vector(self):
        # SHA-1("abc" || SEP) >> 32, fixed forever by construction.
        assert sha1_id(b"abc") == 0xBA08D07FC5B180AD9FBF13E7097C7795

    def test_hopid_vector(self):
        assert derive_hopid(b"10.0.0.1", b"hkey", 7) == (
            0x011D3037B5A2378CC3CE3881F62749FB
        )

    def test_password_hash_vector(self):
        assert hash_password(b"hunter2").hex() == (
            "2592b5b5d10ef3a263326daf791f1f671c2cdc7f61911a28b5ecb989d45286c2"
        )


class TestCipherVectors:
    def test_seal_with_fixed_nonce(self):
        key = SymmetricKey(b"0123456789abcdef")
        sealed = key.seal(b"attack at dawn", nonce=b"\x00" * 8)
        assert sealed.hex() == (
            "0000000000000000"  # nonce
            + sealed[8:-32].hex()  # ciphertext (checked via roundtrip)
            + sealed[-32:].hex()
        )
        assert key.open(sealed) == b"attack at dawn"
        # the ciphertext bytes themselves are pinned:
        assert sealed[8:-32].hex() == "8d640def68147a3e7dd2c5d316ee"

    def test_layer_framing_vector(self):
        """One onion layer's plaintext framing, byte for byte."""
        frame = pack_fields(b"R", pack_int(5), b"", b"inner")
        assert frame.hex() == (
            "0000000152"  # len=1, "R"
            "0000001000000000000000000000000000000005"  # len=16, id 5
            "00000000"  # empty hint
            "00000005696e6e6572"  # len=5, "inner"
        )


class TestOnionDeterminism:
    def test_onion_stable_given_nonces(self):
        """Two onion builds from identical key states produce identical
        bytes (nonces are per-key counters)."""
        def build():
            layers = [
                OnionLayer(100 + i, SymmetricKey(bytes([i + 1]) * 16))
                for i in range(3)
            ]
            return build_onion(layers, 7, b"m")

        assert build() == build()

    def test_onion_size_formula(self):
        """Size grows by exactly overhead+framing per layer — the
        property traffic-analysis padding must account for."""
        payload = b"x" * 100
        sizes = []
        for depth in (1, 2, 3, 4):
            layers = [
                OnionLayer(i, SymmetricKey(bytes([i + 1]) * 16))
                for i in range(depth)
            ]
            sizes.append(len(build_onion(layers, 7, payload)))
        deltas = {b - a for a, b in zip(sizes, sizes[1:])}
        assert len(deltas) == 1  # constant per-layer growth
        per_layer = deltas.pop()
        # seal overhead (40) + 4 length prefixes (16) + tag (1) + id (16) + hint (0)
        assert per_layer == SymmetricKey.overhead() + 16 + 1 + 16


class TestRsaDeterminism:
    def test_keygen_vector(self):
        """Key bytes, RNG draws and a signature, pinned.

        Node and retrieval RNGs are shared with THA generation, bids
        and fake onions, so a keygen that consumes one draw more or
        less shifts every experiment row after it.
        """
        from repro.crypto.asymmetric import RsaKeyPair

        rng = random.Random(2024)
        pair = RsaKeyPair.generate(rng, bits=384)
        assert pair.public.e == 65537
        assert pair.public.n == int(
            "bd48c0144004a04930ebbe240b64dcdc70c941e43c1769ff"
            "9901f4dc9426c8fde6b70efd2e4756e06d8055a6891363f3", 16
        )
        assert hashlib.sha256(repr(rng.getstate()).encode()).hexdigest() == (
            "863023ab486b44850951c0cbb703205662eb545766ea3196ba477c8da8a1d988"
        )
        assert pair.sign(b"pin").hex() == (
            "1db83d559947c82abace7f3e7d7fe01a3420197a0d1b7aa7"
            "32e065127504d76cf8cbb141d9a004ad93db8e3122c5f403"
        )
        assert pair.decrypt(
            pair.public.encrypt(b"pin", random.Random(1))
        ) == b"pin"
