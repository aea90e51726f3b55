"""Arithmetic in the order-p subgroup of squares modulo a safe prime q = 2p+1.

All protocol algebra lives here: safe-prime generation, the group's
operations, exponent sampling, and the deterministic derivation of the two
public generators (g, h) from a reference-string seed.  Outside this module
an element is an opaque integer, and exponents live in Z_p.  `GroupParams`
owns every fact of the representation: membership, powers, the product of
two elements (`mul`), a uniform member (`sample_member`), the range of a
wire element (`element_range`, also a function of q for a caller that holds
only the modulus), and the longest encodings of an element and of an
exponent (`element_bytes`, `exponent_bytes`).

Three kernels make the common operations cheap once q has FAST_BITS bits
or more:

- Membership.  The order-p subgroup is exactly the quadratic residues, so
  x is a member iff 1 <= x <= q-1 and the Jacobi symbol (x/q) is 1 (binary
  Jacobi, Cohen, GTM 138, Alg. 1.4.10, each step read off the low byte).
  Each value is tested once, where it enters: a wire parser, or g and h
  when a `RefString` is built.
- Fixed bases.  `pow_unchecked` raises the g or h of a `RefString` to a
  power through an 8-lane comb (Lim-Lee, CRYPTO 1994) when its table
  exists, and by plain `pow` otherwise.  Bit k of the 8 bytes of each
  64-bit word of the exponent picks one entry of that word's 256-entry
  row, so a power costs 7 squarings and 8 products per word (48 at 384
  bits, 256 at 2048).  Only a prover builds tables: its first commitment
  calls `RefString.build_tables`, since it raises g and h about once per
  cell from then on.  A verifier raises them only to check an opening below
  `sigma.BATCH_BITS` (from there on openings join its batch), and only
  reads.  The tables belong to the `GroupParams` the prover commits under,
  keyed by base, and live as long as it does: a reference string derived
  again on that object reads them, and another object with the same q
  builds its own.
- Products of powers.  `multi_pow` computes a product of powers with one
  shared chain of squarings (Straus 1964; Moller, SAC 2001), each base
  multiplying in an odd-power table entry per sliding window of its
  exponent, the windows recoded from the right on the integer.  A
  verification run's batch (`sigma.Batch`) makes one call for all its
  terms: every alpha, and every opened commitment that no proof targets,
  raised to a 128-bit weight, and every other distinct element (g, h, the
  commitments) to one full exponent, so the whole log shares one chain of
  squarings.
  On a 44-cell, 16-target bound proof bundle (2-core Xeon, Python 3.11.7)
  verification costs about 120 us per cell at 384 bits, of which the
  alpha's Jacobi symbol is 42 us, and 3.3 ms per cell at 2048 bits, where
  a Jacobi symbol is 0.3 ms.

Below FAST_BITS a single `pow` beats the first two, and the toy groups keep
it; `multi_pow` is exact in any group, and the verifier uses it from
`sigma.BATCH_BITS` up.
"""

from __future__ import annotations

import functools
import hashlib
import random
from collections.abc import Iterable
from dataclasses import dataclass, field

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

# From this many bits of q up, membership is a Jacobi symbol and g and h
# are raised through tables.  Measured with Python 3.11.7 on a 2-core Xeon,
# as are the figures below: at 28 bits `pow(x, p, q)` takes 2.0 us against
# 2.6 us for the Jacobi symbol; at 32 bits, where q no longer fits one
# 30-bit digit, 6.2 us against 3.1 us.
FAST_BITS = 32
# A fixed-base table has one 256-entry row per 64 bits of p.  Measured
# with `scripts/kernel_times.py` at 384 bits: 1,536 entries, built in
# 1.3 ms, and 46 us per power against 310 us for `pow`; at 2048 bits:
# 8,192 entries (2.5 MB), built in 0.15 s, and 4.1 ms per power against
# 32 ms.  The 6-bit windows this replaced (Brickell-Gordon-McCurley-
# Wilson, EUROCRYPT 1992) took 4,096 and 21,888 entries and 63 and 342
# products per power, and their powers took 1.2x and 1.3x as long.


# Trailing zero bits of each byte value; 8 for the zero byte.
_ZEROS = [8] + [(i & -i).bit_length() - 1 for i in range(1, 256)]


def jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a/n) for odd n > 0: 1, -1, or 0 when gcd(a, n) > 1.

    Each step reads a's low byte once: the table gives its trailing zeros,
    and the shifted byte gives a mod 8, which is the next step's n mod 8.
    Bit 1 of `flips` counts the sign changes mod 2.
    """
    a %= n
    m = n & 255  # only bits 0-2 are read: n mod 8
    flips = 0
    while a:
        low = a & 255
        if not low & 1:
            if low:
                zeros = _ZEROS[low]
                a >>= zeros
                low = low >> zeros if zeros < 6 else a & 255  # keep 3 valid bits
            else:  # 1 input in 256
                zeros = (a & -a).bit_length() - 1
                a >>= zeros
                low = a & 255
            if zeros & 1:  # (2/n) = -1 iff n = 3, 5 (mod 8): bit 1 of n ^ (n >> 1)
                flips ^= m ^ (m >> 1)
        flips ^= low & m  # quadratic reciprocity: bit 1 set iff both are 3 (mod 4)
        m = low
        a, n = n % a, a
    if n != 1:
        return 0
    return -1 if flips & 2 else 1


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


def element_range(q: int) -> tuple[int, int]:
    """The least and the greatest integer a wire element mod q may be: 1,
    the identity, and q - 1."""
    return 1, q - 1


@dataclass(frozen=True)
class GroupParams:
    """A safe prime q = 2p+1 and the order p of its subgroup of squares."""

    q: int
    p: int
    bit_length: int
    # `element_range` of q: an attribute, not a property, as it is read once per proof.
    element_range: tuple[int, int] = field(init=False, repr=False, compare=False)
    # base -> rows of its comb table, filled by `RefString.build_tables`.
    _tables: dict[int, list[list[int]]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        if self.q != 2 * self.p + 1:
            raise ParameterError("q must equal 2p+1")
        if self.bit_length != self.q.bit_length():
            raise ParameterError("bit_length inconsistent with q")
        object.__setattr__(self, "element_range", element_range(self.q))

    # -- membership ---------------------------------------------------

    def is_member(self, x: int) -> bool:
        """True iff 1 <= x <= q-1 and x^p = 1 (mod q), that is, x is a square."""
        if not 1 <= x <= self.q - 1:
            return False
        if self.bit_length < FAST_BITS:
            return pow(x, self.p, self.q) == 1
        return jacobi(x, self.q) == 1

    def require_member(self, x: int) -> int:
        if not self.is_member(x):
            raise NonMemberError(f"{x} is not in the order-{self.p} subgroup mod {self.q}")
        return x

    # -- group operations ----------------------------------------------

    def mul(self, a: int, b: int) -> int:
        """The product of two elements."""
        return a * b % self.q

    def pow(self, base: int, e: int) -> int:
        """base^e mod q, with the exponent reduced mod p."""
        self.require_member(base)
        return pow(base, e % self.p, self.q)

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

    def sample_member(self, rng: random.Random) -> int:
        """A uniform member, from one `rng.randrange(p)`: a power of 4, a
        square other than 1 and so a generator."""
        return self.pow_unchecked(4, rng.randrange(self.p))

    @property
    def element_bytes(self) -> int:
        """The longest `codec.encode_uint` of an element."""
        return 4 + (self.bit_length + 7) // 8

    @property
    def exponent_bytes(self) -> int:
        """The longest `codec.encode_uint` of an exponent, at most p."""
        return 4 + (self.p.bit_length() + 7) // 8

    # Internal fast path: skips the membership re-check, and reads a base's
    # fixed-base table if a prover built one.  Callers must have validated
    # the base at an object boundary first.
    def pow_unchecked(self, base: int, e: int) -> int:
        rows = self._tables.get(base)
        if rows is not None:
            return _table_pow(rows, e % self.p, self.q)
        return pow(base, e % self.p, self.q)

    def multi_pow(self, pairs: Iterable[tuple[int, int]]) -> int:
        """The product of base^e mod q over (base, e) pairs, e >= 0.

        Straus's interleaving: one chain of squarings serves every base,
        and each base multiplies in one odd-power table entry per sliding
        window of its exponent.  Exponents are not reduced mod p, so the
        result equals the product of `pow(base, e, q)` for any base.
        """
        q = self.q
        work = [(base, e) for base, e in pairs if e]
        if any(e < 0 for _, e in work):
            raise ParameterError("multi_pow exponents must be nonnegative")
        top = max((e.bit_length() for _, e in work), default=0)
        slots: list[list[int]] = [[] for _ in range(top)]  # bit -> factors entering there
        for base, e in work:
            w = _window(e.bit_length())
            odd = [base % q]  # base^1, base^3, ..., base^(2^w - 1)
            if w > 1:
                square = odd[0] * odd[0] % q
                for _ in range((1 << (w - 1)) - 1):
                    odd.append(odd[-1] * square % q)
            mask = (1 << w) - 1
            bit = 0  # e's bit 0 is bit `bit` of the original exponent
            while e:  # windows from the right, each read off e's low byte
                low = e & 255
                zeros = _ZEROS[low]
                if zeros > 8 - w:  # the window reaches past the low byte
                    if not low:
                        zeros = (e & -e).bit_length() - 1
                    e >>= zeros
                    bit += zeros
                    low = e & 255
                    zeros = 0
                bit += zeros
                slots[bit].append(odd[((low >> zeros) & mask) >> 1])
                e >>= zeros + w
                bit += w
        acc = 1
        squarings = 0  # owed to acc; a run of them is one `pow`
        for factors in reversed(slots):
            squarings += 1
            if factors:
                acc = pow(acc, 1 << squarings, q)
                squarings = 0
                for factor in factors:
                    acc = acc * factor % q
        return pow(acc, 1 << squarings, q)


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
        for base in (self.g, self.h):
            self.params.require_member(base)

    def build_tables(self) -> None:
        """Build g's and h's comb tables in `params` if they are missing,
        one row of 256 entries per 64 bits of p; a prover calls this before
        it raises them once per cell, and a verifier never does.  Two
        threads that race here store equal rows, so no lock is taken."""
        if self.params.bit_length >= FAST_BITS:
            for base in (self.g, self.h):
                if base not in self.params._tables:
                    self.params._tables[base] = _build_table(self.params.q, base)


# -- fixed-base tables ------------------------------------------------------------
#
# Row m of a base's table holds, for every byte u, the product of
# base^(2^(64m + 8i)) over the bits i set in u.


def _build_table(q: int, base: int) -> list[list[int]]:
    rows = []
    for _ in range(-(-((q - 1) // 2).bit_length() // 64)):
        row = [1]
        for _ in range(8):  # the entries with bit i: those below, times base^(2^(64m + 8i))
            row += [entry * base % q for entry in row]
            base = pow(base, 256, q)
        rows.append(row)  # base is now the next row's base^(2^(64(m + 1)))
    return rows


def _window(bits: int) -> int:
    """The sliding-window width for an exponent of `bits` bits in
    `multi_pow`: the w that minimizes its 2^(w-1) table entries plus about
    bits/(w+1) window products (4 at 128 bits, 5 at 384, 7 at 2048)."""
    w = 1
    while w < 8 and (1 << w) + bits / (w + 2) < (1 << (w - 1)) + bits / (w + 1):
        w += 1
    return w


@functools.cache
def _swaps(words: int) -> tuple[tuple[int, int], ...]:
    """(shift, mask) of the delta swaps of an 8x8 bit transpose, each mask
    repeated in all `words` 64-bit words, so that no bit leaves its word."""
    ones = ((1 << 64 * words) - 1) // 0xFFFFFFFFFFFFFFFF
    return ((7, 0x00AA00AA00AA00AA * ones), (14, 0x0000CCCC0000CCCC * ones), (28, 0xF0F0F0F0 * ones))


def _table_pow(rows: list[list[int]], e: int, q: int) -> int:
    """base^e mod q for 0 <= e < p.  Transposing each 64-bit word of e as
    an 8x8 bit matrix puts bit k of bytes 8m..8m+7 into byte 8m + k, the
    index into row m that step k multiplies in; steps run from k = 7 down,
    each after one squaring."""
    for shift, mask in _swaps(len(rows)):
        t = (e ^ e >> shift) & mask
        e ^= t ^ t << shift
    lanes = e.to_bytes(8 * len(rows), "little")
    acc = 1
    for k in range(7, -1, -1):
        acc = acc * acc % q
        for row, u in zip(rows, lanes[k::8]):
            acc = acc * row[u] % q
    return acc


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


def _prime_if_half_is(q: int) -> bool:
    """For odd q >= 7 whose p = (q-1)/2 is prime: True iff q is prime.

    Trial division, then one base-2 Fermat test.  q - 1 = 2p with p >
    sqrt(q) - 1, so once p is prime, 2^(q-1) = 1 (mod q) and gcd(2^2 - 1,
    q) = 1, which trial division by 3 settles, prove q prime (Pocklington).
    Without p prime it only screens: a composite q that passes it has a
    composite p, which p's own test then rejects.
    """
    for sp in _SMALL_PRIMES:
        if q % sp == 0:
            return q == sp
    return pow(2, q - 1, q) == 1


def params_from_modulus(q: int) -> GroupParams:
    """Validate-only path: accept a known modulus without searching.

    q is screened by `_prime_if_half_is`, then p by Miller-Rabin, whose
    2^-128 error bound is the whole check's: with p prime, q's test is a
    proof.  The RFC 3526 2048-bit constant is recognized and skips both
    (its safe-prime structure is checked once in the test suite).
    """
    if q < 7 or q % 2 == 0:
        raise ParameterError("modulus must be an odd integer >= 7")
    p = (q - 1) // 2
    if q != RFC3526_MODP_2048:
        if not _prime_if_half_is(q):
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
