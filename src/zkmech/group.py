"""Arithmetic in the order-p subgroup of squares modulo a safe prime q = 2p+1.

All protocol algebra lives here: safe-prime generation, membership tests,
modular group operations, exponent sampling, and the deterministic
derivation of the two public generators (g, h) from a reference-string
seed.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

from .errors import (
    DerivationError,
    NonMemberError,
    ParameterError,
    PrimeSearchError,
)

# Sieve of small primes used for cheap trial division before Miller-Rabin.
def _small_primes(bound: int) -> list[int]:
    sieve = bytearray([1]) * bound
    sieve[0:2] = b"\x00\x00"
    for i in range(2, int(bound**0.5) + 1):
        if sieve[i]:
            sieve[i * i :: i] = b"\x00" * len(sieve[i * i :: i])
    return [i for i in range(bound) if sieve[i]]


_SMALL_PRIMES = _small_primes(2000)

# 2048-bit MODP group modulus from RFC 3526, section 3.  This is a safe
# prime; loading it takes a fast path that skips re-testing primality.
RFC3526_MODP_2048 = int(
    "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD1"
    "29024E088A67CC74020BBEA63B139B22514A08798E3404DD"
    "EF9519B3CD3A431B302B0A6DF25F14374FE1356D6D51C245"
    "E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED"
    "EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE45B3D"
    "C2007CB8A163BF0598DA48361C55D39A69163FA8FD24CF5F"
    "83655D23DCA3AD961C62F356208552BB9ED529077096966D"
    "670C354E4ABC9804F1746C08CA18217C32905E462E36CE3B"
    "E39E772C180E86039B2783A2EC07A28FB5C55DF06F4C52C9"
    "DE2BCBF6955817183995497CEA956AE515D2261898FA0510"
    "15728E5A8AACAA68FFFFFFFFFFFFFFFF",
    16,
)

MILLER_RABIN_ROUNDS = 64  # error probability <= 4^-64 = 2^-128


def is_probable_prime(n: int, rounds: int = MILLER_RABIN_ROUNDS) -> bool:
    """Trial division by small primes, then Miller-Rabin with `rounds` bases."""
    if n < 2:
        return False
    for sp in _SMALL_PRIMES:
        if n % sp == 0:
            return n == sp
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    # Bases drawn from a generator seeded by n itself: deterministic results
    # across runs without sacrificing the randomized error bound.
    base_rng = random.Random(n)
    for _ in range(rounds):
        a = base_rng.randrange(2, n - 1)
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class GroupParams:
    """A safe prime q = 2p+1 and the order p of its subgroup of squares."""

    q: int
    p: int
    bit_length: int

    def __post_init__(self):
        if self.q != 2 * self.p + 1:
            raise ParameterError("q must equal 2p+1")
        if self.bit_length != self.q.bit_length():
            raise ParameterError("bit_length inconsistent with q")

    # -- membership ---------------------------------------------------

    def is_member(self, x: int) -> bool:
        """True iff 1 <= x <= q-1 and x^p = 1 (mod q)."""
        return 1 <= x <= self.q - 1 and pow(x, self.p, self.q) == 1

    def require_member(self, x: int) -> int:
        if not self.is_member(x):
            raise NonMemberError(f"{x} is not in the order-{self.p} subgroup mod {self.q}")
        return x

    # -- group operations ----------------------------------------------

    def pow(self, base: int, e: int) -> int:
        """base^e mod q, with the exponent reduced mod p."""
        self.require_member(base)
        return pow(base, e % self.p, self.q)

    def mul(self, a: int, b: int) -> int:
        self.require_member(a)
        self.require_member(b)
        return a * b % self.q

    def exp_inv(self, e: int) -> int:
        """Inverse of e modulo p.  Errors when e = 0 (mod p)."""
        if e % self.p == 0:
            raise ParameterError("exponent has no inverse: e = 0 (mod p)")
        return pow(e, -1, self.p)

    # -- sampling -------------------------------------------------------

    def exp_sample(self, rng: random.Random) -> int:
        """Uniform exponent in {1, ..., p-1}.

        Zero is excluded on purpose: an exponent of 0 (mod p) would turn a
        commitment into the identity, which opens as both bits.
        """
        return rng.randrange(1, self.p)

    def elem_sample(self, rng: random.Random) -> int:
        """Uniform element of the subgroup excluding the identity."""
        # 4 = 2^2 is a square != 1 for every q >= 7, hence a generator.
        return pow(4, self.exp_sample(rng), self.q)

    # Internal fast path: skips the membership re-check.  Callers must have
    # validated the base at an object boundary first.
    def pow_unchecked(self, base: int, e: int) -> int:
        return pow(base, e % self.p, self.q)


@dataclass(frozen=True)
class RefString:
    """Public reference string: the seed and the two derived generators."""

    params: GroupParams
    seed: bytes
    g: int
    h: int

    def __post_init__(self):
        if self.g == 1 or self.h == 1 or self.g == self.h:
            raise ParameterError("generators must be distinct and != 1")


def gen_params(
    bit_length: int,
    rng: random.Random | None = None,
    start: int | None = None,
    max_iters: int | None = None,
) -> GroupParams:
    """Search for a safe prime q with exactly `bit_length` bits.

    Deterministic when `start` is given; otherwise the scan begins at a
    random point.  Subgroups of order p = 2 are skipped (the subgroup
    would have a single non-identity element, so g != h is impossible).
    """
    if bit_length < 3:
        raise ParameterError("bit_length must be at least 3")
    lo = 1 << (bit_length - 1)
    hi = 1 << bit_length
    span = hi - lo
    if start is not None:
        q = lo + (start % span)
    else:
        src = rng if rng is not None else random.SystemRandom()
        q = lo + src.randrange(span)
    q |= 1
    if max_iters is None:
        max_iters = max(4, 64 * bit_length * bit_length)
    for _ in range(max_iters):
        if q >= hi:
            q = lo | 1
        p = (q - 1) // 2
        if p >= 3 and is_probable_prime(q) and is_probable_prime(p):
            return GroupParams(q=q, p=p, bit_length=bit_length)
        q += 2
    raise PrimeSearchError(f"no {bit_length}-bit safe prime found in {max_iters} iterations")


def params_from_modulus(q: int) -> GroupParams:
    """Validate-only path: accept a known modulus without searching.

    The RFC 3526 2048-bit constant is recognized and skips the primality
    tests (its safe-prime structure is checked once in the test suite).
    """
    if q < 7 or q % 2 == 0:
        raise ParameterError("modulus must be an odd integer >= 7")
    p = (q - 1) // 2
    if q != RFC3526_MODP_2048:
        if not is_probable_prime(q):
            raise ParameterError("modulus is not prime")
        if not is_probable_prime(p):
            raise ParameterError("(q-1)/2 is not prime")
    return GroupParams(q=q, p=p, bit_length=q.bit_length())


# -- generator derivation ------------------------------------------------

_H2G_CAP = 1000


def _hash_expand(material: bytes, counter: int, nbytes: int) -> int:
    """Expand SHA-256(material, counter, block) to an nbytes big-endian int."""
    out = bytearray()
    block = 0
    while len(out) < nbytes:
        out += hashlib.sha256(
            material + counter.to_bytes(4, "big") + block.to_bytes(4, "big")
        ).digest()
        block += 1
    return int.from_bytes(out[:nbytes], "big")


def _hash_to_square(params: GroupParams, material: bytes, excluded: set[int]) -> int:
    """Hash-then-square with counter rejection, uniform over the squares.

    Maps (material, counter) to t in [2, q-1], squares it, and retries
    while the candidate is the identity or collides with `excluded`.
    """
    nbytes = (params.q.bit_length() + 128 + 7) // 8
    for counter in range(_H2G_CAP):
        t = 2 + _hash_expand(material, counter, nbytes) % (params.q - 2)
        candidate = t * t % params.q
        if candidate != 1 and candidate not in excluded:
            return candidate
    raise DerivationError("hash-to-subgroup retry cap exceeded")


def derive_generators(params: GroupParams, seed: bytes) -> RefString:
    """Derive (g, h) deterministically from the public seed.

    g and h are hash-derived squares, never the identity, never equal.
    Byte-exact across platforms (pure SHA-256 arithmetic).
    """
    if not seed:
        raise ParameterError("seed must be nonempty")
    g = _hash_to_square(params, seed + b"\x00", set())
    h = _hash_to_square(params, seed + b"\x01", {g})
    return RefString(params=params, seed=seed, g=g, h=h)


# -- parameter file I/O ----------------------------------------------------
#
# Three decimal-text lines: q=<dec>, p=<dec>, seed=<hex>.


def save_params_file(path: str, params: GroupParams, seed: bytes) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"q={params.q}\n")
        fh.write(f"p={params.p}\n")
        fh.write(f"seed={seed.hex()}\n")


def load_params_file(path: str) -> tuple[GroupParams, bytes]:
    fields: dict[str, str] = {}
    with open(path, "r", encoding="ascii") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            key, _, value = line.partition("=")
            fields[key.strip()] = value.strip()
    try:
        q = int(fields["q"])
        p = int(fields["p"])
        seed = bytes.fromhex(fields["seed"])
    except (KeyError, ValueError) as exc:
        raise ParameterError(f"malformed parameter file: {exc}") from exc
    params = params_from_modulus(q)
    if params.p != p:
        raise ParameterError("p line inconsistent with q")
    if not seed:
        raise ParameterError("seed must be nonempty")
    return params, seed
