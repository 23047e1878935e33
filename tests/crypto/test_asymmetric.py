"""Tests for the RSA key pairs (bootstrap PKI, temporary K_I)."""

import math
import random

import pytest

from repro.crypto.asymmetric import (
    _E,
    _MR_ROUNDS,
    _SIEVE_BOUND,
    RsaError,
    RsaKeyPair,
    RsaPublicKey,
    _is_probable_prime,
    _random_prime,
)


@pytest.fixture(scope="module")
def keypair() -> RsaKeyPair:
    return RsaKeyPair.generate(random.Random(42), bits=512)


class TestPrimality:
    def test_small_primes(self):
        rng = random.Random(0)
        for p in (2, 3, 5, 7, 101, 7919):
            assert _is_probable_prime(p, rng)

    def test_small_composites(self):
        rng = random.Random(0)
        for c in (0, 1, 4, 9, 100, 7917, 561, 1105):  # incl. Carmichael
            assert not _is_probable_prime(c, rng)


def _oracle_is_probable_prime(n: int, rng: random.Random) -> bool:
    """The plain test, kept verbatim as the oracle for the sieved one."""
    if n < 2:
        return False
    small_primes = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
    for p in small_primes:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for _ in range(_MR_ROUNDS):
        a = rng.randrange(2, n - 1)
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = pow(x, 2, n)
            if x == n - 1:
                break
        else:
            return False
    return True


def _trial_division_prime(n: int) -> bool:
    return n >= 2 and all(n % f for f in range(2, math.isqrt(n) + 1))


#: Sieve primes, the ones a candidate's small factor is drawn from.
_MID_PRIMES = [p for p in range(48, _SIEVE_BOUND) if _trial_division_prime(p)]

#: Large primes to multiply them with (two Mersenne primes and a
#: 2^255 + 95, the least prime above 2^255).
_LARGE_PRIMES = (2**89 - 1, 2**127 - 1, 2**255 + 95)


class TestPrimalityOracle:
    """The sieved test returns the plain test's verdict and leaves the
    RNG in the same state, for every input class it treats differently."""

    @staticmethod
    def _assert_same(numbers, seed=0):
        fast_rng, oracle_rng = random.Random(seed), random.Random(seed)
        for n in numbers:
            expected = _oracle_is_probable_prime(n, oracle_rng)
            assert _is_probable_prime(n, fast_rng) == expected, n
            assert fast_rng.getstate() == oracle_rng.getstate(), n

    def test_every_n_below_20000(self):
        self._assert_same(range(20_000))

    def test_carmichael_numbers(self):
        classic = (561, 1105, 1729, 2465, 2821, 6601, 8911, 10585, 15841,
                   29341, 41041, 46657, 52633, 62745, 63973, 75361, 101101,
                   115921, 126217, 162401, 172081, 188461, 252601, 278545,
                   294409, 314821, 334153, 340561, 399001, 410041, 449065,
                   488881, 512461)
        # Chernick's (6k+1)(12k+1)(18k+1): factors inside, straddling
        # and beyond the sieve bound.
        chernick = [
            (6 * k + 1) * (12 * k + 1) * (18 * k + 1)
            for k in range(1, 3000)
            if all(_trial_division_prime(f * k + 1) for f in (6, 12, 18))
        ]
        assert len(chernick) > 30
        self._assert_same(classic + tuple(chernick))

    def test_base2_strong_pseudoprimes(self):
        spsp2 = (2047, 3277, 4033, 4681, 8321, 15841, 29341, 42799, 49141,
                 52633, 65281, 74665, 80581, 85489, 88357, 90751,
                 3825123056546413051)
        for n in spsp2:
            d, r = n - 1, 0
            while d % 2 == 0:
                d, r = d // 2, r + 1
            assert pow(2, d, n) == 1 or any(
                pow(2, d << i, n) == n - 1 for i in range(r)), n
        self._assert_same(spsp2)

    def test_sieve_prime_times_large_prime(self):
        products = [p * big for big in _LARGE_PRIMES for p in _MID_PRIMES]
        products += [p * p * _LARGE_PRIMES[0] for p in _MID_PRIMES[:40]]
        products += [p * q * _LARGE_PRIMES[1]
                     for p, q in zip(_MID_PRIMES, _MID_PRIMES[1:])]
        self._assert_same(products, seed=1)

    def test_quarter_strong_liars(self):
        """``p(2p-1)`` with ``p = 3 mod 4`` has close to the most strong
        liars a composite can have (1/4 of bases), so many rounds fall
        through the small factor to the full test.  Past p ~ 1500 the
        larger factor lies beyond the sieve bound."""
        worst = [p * (2 * p - 1) for p in _MID_PRIMES
                 if p % 4 == 3 and _trial_division_prime(2 * p - 1)]
        assert max(worst) > _SIEVE_BOUND ** 2
        self._assert_same(worst, seed=3)

    def test_random_256_bit_candidates(self):
        draw = random.Random(5)
        candidates = [draw.getrandbits(256) | (1 << 255) | 1
                      for _ in range(3_000)]
        self._assert_same(candidates, seed=2)

    def test_keygen_matches_oracle_keygen(self):
        """Whole keys: the plain test inside today's prime search."""
        def oracle_prime(bits, rng):
            while True:
                candidate = rng.getrandbits(bits)
                candidate |= (1 << (bits - 1)) | (1 << (bits - 2)) | 1
                if candidate % _E == 1:
                    continue
                if _oracle_is_probable_prime(candidate, rng):
                    return candidate

        for seed in range(20):
            fast_rng, oracle_rng = random.Random(seed), random.Random(seed)
            assert _random_prime(192, fast_rng) == oracle_prime(192, oracle_rng)
            assert fast_rng.getstate() == oracle_rng.getstate()


class TestCrtPrivateOp:
    @pytest.mark.parametrize("bits", [256, 384, 512])
    def test_crt_matches_plain_power(self, bits):
        pair = RsaKeyPair.generate(random.Random(bits), bits=bits)
        p, q, n = pair._p, pair._q, pair.public.n
        assert p * q == n
        d = pow(pair.public.e, -1, (p - 1) * (q - 1))
        draw = random.Random(3)
        for c in (0, 1, p, q, n - 1, *(draw.randrange(n) for _ in range(50))):
            assert pair._private(c) == pow(c, d, n), c


class TestKeyGeneration:
    def test_modulus_size(self, keypair):
        assert 511 <= keypair.public.n.bit_length() <= 512

    def test_deterministic_per_seed(self):
        a = RsaKeyPair.generate(random.Random(7), bits=384)
        b = RsaKeyPair.generate(random.Random(7), bits=384)
        assert a.public == b.public

    def test_too_small_rejected(self):
        with pytest.raises(RsaError):
            RsaKeyPair.generate(random.Random(0), bits=128)


class TestEncryptDecrypt:
    def test_roundtrip(self, keypair):
        rng = random.Random(1)
        for size in (0, 1, 15, 16, 100, 2000):
            msg = bytes(range(256)) * (size // 256) + bytes(range(size % 256))
            assert keypair.decrypt(keypair.public.encrypt(msg, rng)) == msg

    def test_randomized_encryption(self, keypair):
        rng = random.Random(1)
        c1 = keypair.public.encrypt(b"m", rng)
        c2 = keypair.public.encrypt(b"m", rng)
        assert c1 != c2

    def test_wrong_key_rejected(self, keypair):
        other = RsaKeyPair.generate(random.Random(9), bits=512)
        ct = keypair.public.encrypt(b"secret", random.Random(2))
        with pytest.raises(RsaError):
            other.decrypt(ct)

    def test_tampered_ciphertext_rejected(self, keypair):
        ct = bytearray(keypair.public.encrypt(b"secret", random.Random(2)))
        ct[-1] ^= 1
        with pytest.raises(RsaError):
            keypair.decrypt(bytes(ct))

    def test_short_ciphertext_rejected(self, keypair):
        with pytest.raises(RsaError):
            keypair.decrypt(b"tiny")


class TestSignVerify:
    def test_roundtrip(self, keypair):
        sig = keypair.sign(b"message")
        assert keypair.public.verify(b"message", sig)

    def test_wrong_message_rejected(self, keypair):
        sig = keypair.sign(b"message")
        assert not keypair.public.verify(b"other", sig)

    def test_tampered_signature_rejected(self, keypair):
        sig = bytearray(keypair.sign(b"message"))
        sig[0] ^= 1
        assert not keypair.public.verify(b"message", bytes(sig))

    def test_wrong_length_signature_rejected(self, keypair):
        assert not keypair.public.verify(b"message", b"\x00" * 10)


class TestPublicKeyEncoding:
    def test_to_bytes_roundtrip(self, keypair):
        blob = keypair.public.to_bytes()
        n = int.from_bytes(blob[:-4], "big")
        e = int.from_bytes(blob[-4:], "big")
        assert RsaPublicKey(n, e) == keypair.public

    def test_invalid_params_rejected(self):
        with pytest.raises(RsaError):
            RsaPublicKey(0)
        with pytest.raises(RsaError):
            RsaPublicKey(100, 1)

    def test_hashable(self, keypair):
        assert len({keypair.public, keypair.public}) == 1
