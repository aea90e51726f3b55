import ast
import math
import os
import random
import sys
import threading
import time
from pathlib import Path

import pytest
from conftest import Q384

from zkmech import group
from zkmech.codec import Reader, encode_uint
from zkmech.commitments import commit_bit
from zkmech.errors import NonMemberError, ParameterError, PrimeSearchError, VerificationFailed
from zkmech.group import (
    GroupParams,
    RFC3526_MODP_2048,
    derive_generators,
    gen_params,
    is_probable_prime,
    load_params_file,
    params_from_modulus,
    save_params_file,
)
from zkmech.protocols import MechanismSpec, run_local, verify_transcript


def subgroup(params):
    return sorted({pow(x, 2, params.q) for x in range(1, params.q)})


class TestGenParams:
    def test_three_bits_gives_the_tiny_safe_prime(self):
        # p = 2 subgroups are skipped (g != h would be impossible), so the
        # only 3-bit safe prime is 7.
        for start in (0, 1, 5, 99):
            params = gen_params(3, start=start)
            assert (params.q, params.p) == (7, 3)

    def test_five_bits(self):
        params = gen_params(5, start=3)
        assert (params.q, params.p) == (23, 11)
        # trial division confirms 23 = 2*11 + 1, both prime
        assert all(23 % d for d in range(2, 23))
        assert all(11 % d for d in range(2, 11))

    def test_bit_length_matches(self):
        # from a seeded start and from a random one
        for bits in (3, 5, 8, 12):
            for params in (gen_params(bits, start=random.Random(7).getrandbits(bits)), gen_params(bits)):
                assert params.q.bit_length() == params.bit_length == bits
                assert is_probable_prime(params.q) and is_probable_prime(params.p)

    def test_too_small(self):
        with pytest.raises(ParameterError):
            gen_params(2)

    def test_search_budget_exhausted(self, monkeypatch):
        monkeypatch.setattr(group, "is_probable_prime", lambda n: False)
        with pytest.raises(PrimeSearchError, match="no 4-bit safe prime found in 1024 iterations"):
            gen_params(4, start=1)

    def test_rfc3526_validate_only_path(self):
        params = params_from_modulus(RFC3526_MODP_2048)
        assert params.bit_length == 2048
        assert params.q == 2 * params.p + 1

    def test_rfc3526_is_really_a_safe_prime(self):
        # an independent probabilistic primality oracle on the constant
        assert miller_rabin(RFC3526_MODP_2048) and miller_rabin((RFC3526_MODP_2048 - 1) // 2)

    def test_validate_rejects_composites(self):
        with pytest.raises(ParameterError):
            params_from_modulus(15)
        # 13 is prime but (13-1)/2 = 6 is not
        with pytest.raises(ParameterError):
            params_from_modulus(13)
        assert params_from_modulus(11).p == 5

    def test_pocklington_accepts_what_two_miller_rabin_tests_accept(self):
        """q passes a Fermat screen and p Miller-Rabin, which with p prime
        proves q prime: every odd q from 7 to 40,001 is accepted exactly
        when Miller-Rabin accepts q and p, and each failure names its half."""
        accepted = 0
        for q in range(7, 40_002, 2):
            want = is_probable_prime(q) and is_probable_prime((q - 1) // 2)
            try:
                params_from_modulus(q)
            except ParameterError as exc:
                assert not want, q
                half = "(q-1)/2" if is_probable_prime(q) else "modulus"
                assert str(exc).startswith(half), q
                continue
            assert want, q
            accepted += 1
        assert accepted == 325

    def test_inconsistent_params_rejected(self):
        # p and the bit length are worked out from q, so neither can be given
        with pytest.raises(TypeError):
            GroupParams(q=23, p=7, bit_length=5)
        with pytest.raises(TypeError):
            GroupParams(23, 11)
        assert (GroupParams(23).p, GroupParams(23).bit_length) == (11, 5)

    @pytest.mark.parametrize("modulus", [7, 23, Q384, RFC3526_MODP_2048], ids=["7", "23", "Q384", "RFC3526"])
    def test_a_group_built_from_q_is_the_validated_group(self, modulus):
        built, validated = GroupParams(modulus), params_from_modulus(modulus)
        assert built == validated and hash(built) == hash(validated)  # p and bit_length compared too
        assert (built.p, built.bit_length) == ((modulus - 1) // 2, modulus.bit_length())

    def test_a_searched_group_is_the_group_of_its_q(self):
        for bits in range(3, 13):
            for start in (0, 1, 77, 1000):
                params = gen_params(bits, start=start)
                assert params == GroupParams(params.q) == params_from_modulus(params.q)
                assert hash(params) == hash(GroupParams(params.q))


def miller_rabin(n: int) -> bool:
    """Miller-Rabin to the first 16 prime bases, written apart from
    `group.is_probable_prime`."""
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53):
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


class TestMembership:
    def test_examples_mod7(self, q7):
        assert q7.is_member(2)  # 2^3 = 8 = 1 (mod 7)
        assert not q7.is_member(3)  # 3^3 = 27 = 6 (mod 7)
        assert q7.is_member(1)
        assert not q7.is_member(0)
        assert not q7.is_member(7)

    def test_subgroup_is_squares(self, q7, q23):
        assert subgroup(q7) == [1, 2, 4]
        assert subgroup(q23) == [1, 2, 3, 4, 6, 8, 9, 12, 13, 16, 18]
        for params in (q7, q23):
            members = subgroup(params)
            assert all(params.is_member(x) for x in members)
            assert not any(
                params.is_member(x) for x in range(1, params.q) if x not in members
            )


class TestOperations:
    def test_examples(self, q7):
        assert q7.pow(2, 3) == 1
        assert q7.exp_inv(2) == 2  # 2*2 = 4 = 1 (mod 3)

    def test_exhaustive_toy_group_laws(self, q7, q23):
        for params in (q7, q23):
            members = subgroup(params)
            for a in members:
                assert params.pow(a, params.p) == 1
                for e in range(0, 2 * params.p + 2):
                    assert params.pow(a, e) == params.pow(a, e % params.p)

    def test_non_member_operand_raises(self, q7):
        with pytest.raises(NonMemberError):
            q7.pow(3, 2)

    def test_zero_exponent_inverse_raises(self, q7):
        with pytest.raises(ParameterError):
            q7.exp_inv(0)
        with pytest.raises(ParameterError):
            q7.exp_inv(3)

    def test_exp_sample_range_and_uniformity(self, q23):
        rng = random.Random(2024)
        n = 100_000
        counts = [0] * (q23.p - 1)
        for _ in range(n):
            e = q23.exp_sample(rng)
            assert 1 <= e <= q23.p - 1
            counts[e - 1] += 1
        expect = n / (q23.p - 1)
        bound = 5 * math.sqrt(n * (1 / (q23.p - 1)) * (1 - 1 / (q23.p - 1)))
        for c in counts:
            assert abs(c - expect) < bound


class TestDeriveGenerators:
    def test_deterministic(self, q23):
        a = derive_generators(q23, b"seed-bytes")
        b = derive_generators(q23, b"seed-bytes")
        assert (a.g, a.h) == (b.g, b.h)

    def test_known_value_pinned(self, q23):
        # byte-exact stability across runs and platforms
        ref = derive_generators(q23, b"test reference string")
        assert (ref.g, ref.h) == (6, 13)

    def test_toy_group_range(self, q7):
        for i in range(50):
            ref = derive_generators(q7, i.to_bytes(4, "big"))
            assert ref.g in (2, 4) and ref.h in (2, 4)
            assert ref.g != ref.h

    def test_empty_seed_rejected(self, q7):
        with pytest.raises(ParameterError):
            derive_generators(q7, b"")

    def test_uniform_over_residues(self, q23):
        # chi-square over the 10 non-identity residues, 99% critical value
        counts = {x: 0 for x in subgroup(q23) if x != 1}
        n = 1000
        for i in range(n):
            ref = derive_generators(q23, b"chi" + i.to_bytes(4, "big"))
            counts[ref.g] += 1
        expect = n / len(counts)
        stat = sum((c - expect) ** 2 / expect for c in counts.values())
        assert stat < 21.666  # df=9, 99%


class TestParamsFile:
    def test_round_trip(self, q23, tmp_path):
        path = tmp_path / "group.params"
        save_params_file(str(path), q23, b"\x01\x02")
        params, seed = load_params_file(str(path))
        assert params == q23 and seed == b"\x01\x02"

    def test_inconsistent_p_rejected(self, tmp_path):
        path = tmp_path / "group.params"
        path.write_text("q=23\np=7\nseed=00\n")
        with pytest.raises(ParameterError):
            load_params_file(str(path))

    def test_missing_field_rejected(self, tmp_path):
        path = tmp_path / "group.params"
        path.write_text("q=23\nseed=00\n")
        with pytest.raises(ParameterError):
            load_params_file(str(path))


def euler_member(params, x):
    """The reference membership test: 1 <= x <= q-1 and x^p = 1."""
    return 1 <= x <= params.q - 1 and pow(x, params.p, params.q) == 1


def members_and_negations(params, n, rng):
    """n random squares and their negations q - x, which are never squares
    because q = 3 (mod 4)."""
    squares = [pow(rng.randrange(2, params.q - 1), 2, params.q) for _ in range(n)]
    return squares + [params.q - x for x in squares]


def reference_jacobi(a, n):
    """Binary Jacobi (Cohen, GTM 138, Alg. 1.4.10) with every test made on
    the big integers themselves: the reference for `group.jacobi`."""
    a %= n
    t = 1
    while a:
        zeros = (a & -a).bit_length() - 1
        a >>= zeros
        if zeros & 1 and n & 7 in (3, 5):  # (2/n) = -1 iff n = 3, 5 (mod 8)
            t = -t
        if a & n & 3 == 3:  # quadratic reciprocity: both are 3 (mod 4)
            t = -t
        a, n = n % a, a
    return t if n == 1 else 0


class TestJacobiMembership:
    @pytest.mark.parametrize("cutover", [0, 10**6])
    def test_every_value_of_the_toy_groups(self, q7, q23, monkeypatch, cutover):
        monkeypatch.setattr(group, "FAST_BITS", cutover)
        for params in (q7, q23):
            for x in range(params.q + 1):
                assert params.is_member(x) == euler_member(params, x), (params.q, x)

    def test_symbol_against_euler_criterion(self, q23):
        for x in range(1, 23):
            want = 1 if pow(x, 11, 23) == 1 else -1
            assert group.jacobi(x, 23) == want
        assert group.jacobi(0, 23) == 0 and group.jacobi(23, 23) == 0
        assert group.jacobi(3, 9) == 0  # shares a factor with a composite modulus

    @pytest.mark.parametrize("cutover", [0, 10**6])
    def test_random_384_bit_inputs(self, q384, monkeypatch, cutover):
        rng = random.Random(384)
        xs = members_and_negations(q384, 500, rng) + [rng.randrange(q384.q + 1) for _ in range(1000)]
        want = [euler_member(q384, x) for x in xs]
        assert want.count(True) >= 500
        monkeypatch.setattr(group, "FAST_BITS", cutover)
        assert [q384.is_member(x) for x in xs] == want

    def test_random_2048_bit_inputs(self, monkeypatch):
        params = params_from_modulus(RFC3526_MODP_2048)
        rng = random.Random(2048)
        xs = members_and_negations(params, 100, rng)
        want = [euler_member(params, x) for x in xs]
        assert want == [True] * 100 + [False] * 100
        assert [params.is_member(x) for x in xs] == want
        # Forced to `pow`, the test is the reference itself; a few suffice.
        monkeypatch.setattr(group, "FAST_BITS", 10**6)
        assert [params.is_member(x) for x in xs[95:105]] == want[95:105]

    def test_cutover_picks_the_kernel(self, q23, q384):
        assert q23.bit_length < group.FAST_BITS <= q384.bit_length


class TestJacobiSymbol:
    """`group.jacobi` against `reference_jacobi`, on the inputs that reach
    its rare branches: a zero low byte, n = 1, squares and other composites."""

    def test_every_small_odd_modulus(self):
        for n in range(1, 600, 2):
            for a in range(-3 * n, 3 * n + 1):
                assert group.jacobi(a, n) == reference_jacobi(a, n), (a, n)

    @pytest.mark.parametrize("bits", [384, 2048])
    def test_powers_of_two_times_odd_and_even(self, q384, bits):
        rng = random.Random(f"jacobi {bits}")
        q = q384.q if bits == 384 else RFC3526_MODP_2048
        moduli = [q, rng.getrandbits(bits) | 1 | 1 << (bits - 1), pow(rng.getrandbits(bits // 2) | 1, 2)]
        for n in moduli:
            for k in range(41):
                for m in (1, 3, rng.getrandbits(bits - 41) | 1, rng.getrandbits(bits - 41), rng.getrandbits(bits)):
                    a = m << k
                    assert group.jacobi(a, n) == reference_jacobi(a, n), (k, m, n)
                    assert group.jacobi(-a, n) == reference_jacobi(-a, n), (k, m, n)

    def test_multiples_of_the_modulus(self, q384):
        rng = random.Random("multiples")
        for n in [1, 3, 9, 15, 23, 255, 257, q384.q, RFC3526_MODP_2048, rng.getrandbits(384) | 1]:
            for c in (-3, -1, 0, 1, 2, 5, 1 << 40):
                assert group.jacobi(c * n, n) == (1 if n == 1 else 0), (c, n)
                assert reference_jacobi(c * n, n) == group.jacobi(c * n, n)


def product_of_pows(params, pairs):
    out = 1
    for base, e in pairs:
        out = out * pow(base, e, params.q) % params.q
    return out


class TestMultiPow:
    """`multi_pow` against a product of `pow`, exponents unreduced."""

    @pytest.fixture(params=["384", "2048"])
    def params(self, request, q384):
        return q384 if request.param == "384" else params_from_modulus(RFC3526_MODP_2048)

    def test_empty_list_is_one(self, params):
        assert params.multi_pow([]) == 1
        assert params.multi_pow(iter([])) == 1

    def test_zero_exponents(self, params):
        rng = random.Random("zero exponents")
        bases = [rng.randrange(2, params.q) for _ in range(3)]
        assert params.multi_pow([(b, 0) for b in bases]) == 1
        pairs = [(bases[0], 0), (bases[1], rng.getrandbits(128)), (bases[2], 0)]
        assert params.multi_pow(pairs) == product_of_pows(params, pairs)

    def test_exponents_at_and_above_p(self, params):
        rng = random.Random("large exponents")
        p, q = params.p, params.q
        for e in (p, p + 1, 2 * p, q, q + 1, 2 * q + 5, rng.randrange(q, q << 130)):
            pairs = [(rng.randrange(2, q), e), (rng.randrange(2, q), rng.getrandbits(128))]
            assert params.multi_pow(pairs) == product_of_pows(params, pairs), e

    def test_single_pair(self, params):
        rng = random.Random("single pair")
        for e in (1, 2, 3, 255, 256, rng.getrandbits(128), rng.randrange(params.p)):
            base = rng.randrange(2, params.q)
            assert params.multi_pow([(base, e)]) == pow(base, e, params.q), e

    def test_mixed_exponent_sizes(self, params):
        rng = random.Random("mixed sizes")
        for _ in range(3 if params.bit_length > 1000 else 12):
            n = rng.randrange(1, 40)
            pairs = [
                (rng.randrange(params.q), rng.getrandbits(rng.choice((1, 7, 128, params.bit_length))))
                for _ in range(n)
            ]
            pairs.append((pairs[0][0], rng.randrange(params.p)))  # a repeated base
            assert params.multi_pow(pairs) == product_of_pows(params, pairs)

    def test_negative_exponent_raises(self, q384):
        with pytest.raises(ParameterError):
            q384.multi_pow([(4, 3), (4, -1)])


class TestMultiPowRecoding:
    """The right-to-left window recoding of `multi_pow` at its edges, against
    products of powers made without it.  Exactness does not depend on the size of q, so the
    long sweeps run in the 384-bit group."""

    def test_around_powers_of_two(self, q384):
        q = q384.q
        rng = random.Random("powers of two")
        bases = [rng.randrange(2, q) for _ in range(3)]
        inverse = pow(bases[0], -1, q)
        powers = list(bases)  # each base raised to 2**k, squared once per step
        for k in range(2 * q384.bit_length + 1):
            pairs = [(bases[0], (1 << k) - 1), (bases[1], 1 << k), (bases[2], (1 << k) + 1)]
            want = powers[0] * inverse * powers[1] * powers[2] * bases[2] % q
            assert q384.multi_pow(pairs) == want, k
            powers = [x * x % q for x in powers]

    @pytest.mark.parametrize("bits", [128, 384, 1000, 2048])
    def test_zero_runs_at_each_offset(self, q384, bits):
        rng = random.Random(f"zero runs {bits}")
        w = group._window(bits)
        for offset in range(w):
            for run in range(7, 21):
                e = rng.getrandbits(bits) | 1 << (bits - 1) | 1
                start = w * rng.randrange(1, (bits - 25) // w) + offset
                e &= ~(((1 << run) - 1) << start)
                pairs = [(rng.randrange(2, q384.q), e)]
                assert q384.multi_pow(pairs) == product_of_pows(q384, pairs), (offset, run)

    def test_each_window_width_threshold(self, q384):
        rng = random.Random("thresholds")
        thresholds = [b for b in range(2, 5000) if group._window(b) != group._window(b - 1)]
        assert [group._window(b) for b in thresholds] == list(range(2, 9))
        for t in thresholds:
            for bits in (t - 1, t, t + 1):
                for e in ((1 << bits) - 1, 1 << (bits - 1), rng.getrandbits(bits) | 1 << (bits - 1)):
                    pairs = [(rng.randrange(2, q384.q), e), (rng.randrange(2, q384.q), rng.getrandbits(128))]
                    assert q384.multi_pow(pairs) == product_of_pows(q384, pairs), bits

    @pytest.mark.parametrize("size", ["384", "2048"])
    def test_repeated_unit_and_unreduced_bases(self, q384, size):
        params = q384 if size == "384" else params_from_modulus(RFC3526_MODP_2048)
        q = params.q
        rng = random.Random(f"bases {size}")
        b = rng.randrange(2, q)
        for pairs in (
            [(b, rng.getrandbits(128)), (b, rng.randrange(params.p)), (b, 1 << 200)],
            [(1, rng.randrange(params.p)), (1, 1), (b, 5)],
            [(q + 1, rng.getrandbits(128)), (q + b, rng.randrange(params.p)), (3 * q - 1, 3), (b, 2)],
        ):
            assert params.multi_pow(pairs) == product_of_pows(params, pairs), pairs


# One run of each replayable kind, two of them with drawn coins.
REPLAY_RUNS = [
    (MechanismSpec("ex1", 8, (5,)), [6], None, None),
    (MechanismSpec("ex1multi", 8, (5,), n_buyers=3), [7, 3, 1], None, None),
    (MechanismSpec("ex2", 8, (3, 6)), [5, 5], None, None),
    (MechanismSpec("ex3", 8, (2, 5)), [7], 1, 0),
    (MechanismSpec("ex4", 4, (2,)), [3], 1, 2),
]


class TestFixedBaseTables:
    @pytest.fixture
    def fresh(self, q384):
        """A 384-bit group object of the test's own, which holds no table yet."""
        return GroupParams(q384.q)

    @pytest.fixture
    def builds(self, monkeypatch):
        """The bases `group._build_table` is called with, in order."""
        built, real = [], group._build_table

        def counted(q, base):
            built.append(base)
            return real(q, base)

        monkeypatch.setattr(group, "_build_table", counted)
        return built

    def exponents(self, params, n, rng):
        p = params.p
        return [0, 1, p - 1, p, -1, 2 * p + 3, -(p + 5)] + [rng.randrange(-p, 2 * p) for _ in range(n)]

    def check(self, ref, es):
        params = ref.params
        ref.build_tables()
        for base in (ref.g, ref.h):
            for e in es:
                assert params.pow_unchecked(base, e) == pow(base, e % params.p, params.q), e
            assert isinstance(params._tables[base], list)  # the table did the work

    def snapshot(self, params):
        return [(base, id(rows)) for base, rows in params._tables.items()]

    def test_384_bits(self, fresh):
        self.check(derive_generators(fresh, b"tables 384"), self.exponents(fresh, 200, random.Random(1)))

    def test_2048_bits(self):
        ref = derive_generators(params_from_modulus(RFC3526_MODP_2048), b"tables 2048")
        self.check(ref, self.exponents(ref.params, 8, random.Random(2)))

    @pytest.mark.parametrize("bits", [32, 33, 64, 65, 66, 384, 2048])
    def test_the_comb_against_pow(self, fresh, bits):
        """q of 32 and 33 bits (FAST_BITS), p of 63, 64 and 65 bits (one
        word against two), the benchmark's 384 bits and RFC 3526.  Row m
        holds, at each byte u, base^(2^(64m + 8i)) multiplied over u's bits
        i; every lane 0xFF * 2^(8i) and, up to 384 bits, every single bit
        is raised.  At 2048 bits only the first and last words are
        checked, to keep the references' `pow`s few."""
        params = {384: fresh, 2048: params_from_modulus(RFC3526_MODP_2048)}.get(bits)
        params = params or gen_params(bits, start=bits)
        q, p = params.q, params.p
        ref = derive_generators(params, b"comb")
        ref.build_tables()
        words = -(-p.bit_length() // 64)
        checked = range(words) if bits <= 384 else (0, words - 1)
        es = self.exponents(params, 20 if bits <= 384 else 4, random.Random(bits))
        if bits <= 384:
            es += [1 << k for k in range(p.bit_length())]
        for base in (ref.g, ref.h):
            rows = params._tables[base]
            assert isinstance(rows, list) and [len(row) for row in rows] == [256] * words
            for m in checked:
                row = rows[m]
                assert all(row[u] == row[u & (u - 1)] * row[u & -u] % q for u in range(1, 256))
                unit = pow(base, 2 ** (64 * m), q)
                for i in range(8):  # unit = base^(2^(64m + 8i))
                    assert row[1 << i] == unit, (m, i)
                    assert params.pow_unchecked(base, 0xFF << 64 * m + 8 * i) == pow(unit, 255, q)
                    unit = pow(unit, 256, q)
            for e in es:
                assert params.pow_unchecked(base, e) == pow(base, e % p, q), e

    def test_derivation_builds_no_table(self, fresh):
        derive_generators(fresh, b"tables 384")
        assert not fresh._tables
        derive_generators(fresh, b"seed a").build_tables()
        before = self.snapshot(fresh)
        for seed in (b"seed a", b"seed b"):
            derive_generators(fresh, seed)
        assert self.snapshot(fresh) == before

    def test_tables_belong_to_their_group(self, fresh, builds):
        """A reference string derived again on the same group object reads
        the tables the first one built; a second seed in that group gets
        tables of its own; another object with the same q, equal to the
        first, builds its own, for g and h and for the sampling base 4.
        The tables take no part in comparison, hashing or repr."""
        a = derive_generators(fresh, b"seed a")
        commit_bit(a, 1, 5)
        assert builds == [a.g, a.h]
        again = derive_generators(fresh, b"seed a")
        assert commit_bit(again, 0, 7) == pow(a.g, 7, fresh.q)
        again.build_tables()
        assert builds == [a.g, a.h]  # no second build
        b = derive_generators(fresh, b"seed b")
        b.build_tables()
        assert builds == [a.g, a.h, b.g, b.h] and set(fresh._tables) == {a.g, a.h, b.g, b.h}
        es = self.exponents(fresh, 5, random.Random(3))
        for ref in (b, a):
            for base in (ref.g, ref.h):
                for e in es:
                    assert fresh.pow_unchecked(base, e) == pow(base, e % fresh.p, fresh.q)
        other = GroupParams(fresh.q)
        assert (other, hash(other), repr(other)) == (fresh, hash(fresh), repr(fresh))
        twin = derive_generators(other, b"seed a")
        assert not other._tables
        twin.build_tables()
        assert builds[4:] == [a.g, a.h] and set(other._tables) == {a.g, a.h}
        rng = random.Random(4)
        for params in (fresh, fresh, other):
            params.sample_member(rng)
        assert builds[6:] == [4, 4]
        for base in (a.g, 4):
            assert other._tables[base] is not fresh._tables[base]
            assert other._tables[base] == fresh._tables[base]

    def test_the_first_commitment_builds_both_tables(self, fresh):
        ref = derive_generators(fresh, b"tables 384")
        assert commit_bit(ref, 1, 12345) == pow(ref.h, 12345, fresh.q)
        assert set(fresh._tables) == {ref.g, ref.h}
        assert all(isinstance(rows, list) for rows in fresh._tables.values())

    def test_a_one_shot_verify_builds_no_table(self, tmp_path, builds):
        from zkmech import cli

        path = str(tmp_path / "c13.transcript")
        demo = ["demo", "--example", "ex1", "--H", "65536", "--price", "40000", "--value", "1234"]
        assert cli.run(demo + ["--seed", "0a", "--out", path]) == 0
        assert len(builds) == 2  # the seller's g and h
        assert cli.run(["verify", path]) == 0  # verified, in a group of its own
        assert len(builds) == 2

    def test_a_384_bit_replay_builds_no_table(self, q384):
        ref = derive_generators(q384, b"replay 384")
        for n, (spec, values, coin, mask) in enumerate(REPLAY_RUNS):
            out, tr = run_local(
                ref, spec, values, random.Random(f"{n}/s"), random.Random(f"{n}/b"), coin, mask
            )
            fresh = GroupParams(q384.q)  # as in a fresh process
            assert verify_transcript(derive_generators(fresh, tr.seed), tr) == out, spec.kind
            assert not fresh._tables, spec.kind

    def test_a_seed_flipped_verify_leaves_the_cache_as_it_was(self, fresh):
        ref = derive_generators(fresh, b"flip 384")
        _, tr = run_local(ref, MechanismSpec("ex1", 8, (5,)), [6], random.Random(1), random.Random(2))
        before = self.snapshot(fresh)
        assert before  # the seller's tables
        tr.seed = bytes([tr.seed[0] ^ 1]) + tr.seed[1:]
        with pytest.raises(VerificationFailed):
            verify_transcript(derive_generators(fresh, tr.seed), tr)
        assert self.snapshot(fresh) == before

    def test_other_bases_and_toy_groups_skip_tables(self, q23, fresh):
        ref = derive_generators(fresh, b"tables 384")
        ref.build_tables()
        other = fresh.pow(ref.g, 12345)
        assert fresh.pow_unchecked(other, 77) == pow(other, 77, fresh.q)
        toy = derive_generators(q23, b"toy")
        assert commit_bit(toy, 1, 3) == pow(toy.h, 3, q23.q)
        rng, reference = random.Random(5), random.Random(5)
        for _ in range(50):  # a toy group samples by plain `pow`
            assert q23.sample_member(rng) == pow(4, reference.randrange(q23.p), q23.q)
        assert set(fresh._tables) == {ref.g, ref.h} and not q23._tables

    @pytest.mark.parametrize("size", ["384", "2048"])
    def test_sample_member_draws_what_pow_draws(self, fresh, builds, size):
        """Draw for draw, `sample_member` returns `pow(4, rng.randrange(p),
        q)` and leaves the generator where that draw leaves it: over 200
        seeds, and at u = 0, 1 and p - 1.  The first draw builds 4's table,
        and every draw after it reads the table."""
        params = fresh if size == "384" else params_from_modulus(RFC3526_MODP_2048)
        q, p = params.q, params.p

        class Scripted:
            def randrange(self, n):
                assert n == p
                return u

        for u in (0, 1, p - 1):
            assert params.sample_member(Scripted()) == pow(4, u, q), u
        for seed in range(200):
            rng, reference = random.Random(seed), random.Random(seed)
            assert params.sample_member(rng) == pow(4, reference.randrange(p), q), seed
            assert rng.getstate() == reference.getstate()
        assert builds == [4] and params._tables[4] == group._build_table(q, 4)

    def test_threads_sharing_the_cache(self):
        """More threads than cores, with a short switch interval, derive
        reference strings in one shared group for a bounded time, commit
        under them (racing to build their tables), raise their generators
        (reading tables) and sample members (racing to build 4's table, then
        reading it).  Every power must equal `pow`, no thread may fail, a
        commitment's or a sample's table must be stored once it returns, and
        each stored table must be the one a single build makes: racing
        builds store equal rows."""
        params = gen_params(64, start=64)
        seeds = [bytes([i]) for i in range(256)]
        workers = (os.cpu_count() or 1) + 2
        errors, done = [], []

        def work(k, deadline):
            try:
                rng = random.Random(k)
                i = 0
                while time.monotonic() < deadline:
                    ref = derive_generators(params, seeds[i % len(seeds)])
                    r = rng.randrange(1, params.p)
                    assert commit_bit(ref, i & 1, r) == pow((ref.g, ref.h)[i & 1], r, params.q)
                    assert {ref.g, ref.h} <= params._tables.keys()  # no store is lost
                    for base in (ref.g, ref.h):
                        e = rng.randrange(params.p)
                        assert params.pow_unchecked(base, e) == pow(base, e, params.q)
                    state = rng.getstate()
                    x = params.sample_member(rng)
                    assert 4 in params._tables  # no store is lost
                    rng.setstate(state)
                    assert x == pow(4, rng.randrange(params.p), params.q)
                    i += 1
                done.append((k, i))
            except Exception as exc:  # reported below, with the thread's number
                errors.append((k, exc))

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            deadline = time.monotonic() + 1.5
            threads = [threading.Thread(target=work, args=(k, deadline)) for k in range(workers)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert errors == [] and sorted(k for k, _ in done) == list(range(workers))
        reached = seeds[: max(i for _, i in done)]
        refs = [derive_generators(params, seed) for seed in reached]
        assert set(params._tables) == {base for ref in refs for base in (ref.g, ref.h)} | {4}
        for base, rows in params._tables.items():
            assert rows == group._build_table(params.q, base)


# -- the group's boundary: elements are opaque outside group.py --------------------

# A read of the group's representation is a `.q`, a `% q` or a `q_bits`.  The
# reads allowed outside group.py, (module, function, read).
ALLOWED_READS = {
    ("analysis", "_subgroup_elements", ".q"),  # enumerates the toy groups' squares
    ("cli", "_cmd_gen_params", ".q"),  # prints the q= line
}

# Handling an element as an int is writing it with `encode_uint(s)`, reading
# it with `Reader.uint(s)`, or comparing it with 1, the identity; the group's
# `encode_elements`, `read_elements` and `identity` do these.  The sites
# allowed outside group.py, (module, function, form): first those of ints
# that are no elements, then mpc's codec, which writes and reads elements as
# ints: its encoders and `decode_response` are called with no group.
ALLOWED_INT_HANDLING = {
    ("analysis", "FiniteMechanism.__post_init__", "== 1"),  # a probability sum
    ("analysis", "GrovesInstance.__post_init__", "== 1"),  # a weight sum
    ("analysis", "EquivocatorStrategy._opening", "== 1"),  # a bit
    ("cli", "_values_from_args", "== 1"),  # values per report
    ("cli", "_cmd_buyer", "== 1"),  # values per report
    ("commitments", "encode_opening", "encode_uint(s)"),  # an exponent
    ("commitments", "read_opening", "Reader.uint(s)"),  # an exponent
    ("mpc", "mpc_buyer_conclude", "== 1"),  # a bit
    ("protocols", "MechanismSpec.__post_init__", "== 1"),  # a buyer count
    ("protocols", "_report_payload", "encode_uint(s)"),  # reported values
    ("protocols", "_parse_report.read", "Reader.uint(s)"),  # reported values
    ("protocols", "_sum_body", "encode_uint(s)"),  # the announced total
    ("protocols", "_check.read_sum", "Reader.uint(s)"),  # the announced total
    ("protocols", "encode_outcome", "encode_uint(s)"),  # the payment
    ("protocols", "_ex3_rule", "== 1"),  # the coin's result
    ("sigma", "Batch.add_opening", "encode_uint(s)"),  # the opening's exponent
    ("sigma", "_encode_response", "encode_uint(s)"),  # the challenge, betas and gammas
    ("sigma", "read_proof", "Reader.uint(s)"),  # the challenge, betas and gammas
    ("mpc", "encode_indicator", "encode_uint(s)"),
    ("mpc", "decode_indicator", "Reader.uint(s)"),
    ("mpc", "encode_response", "encode_uint(s)"),
    ("mpc", "decode_response", "Reader.uint(s)"),
}


def scan(source: str, found) -> list[tuple[str, str]]:
    """(function, form) of each node of `source` that `found(node)` names
    a form of, None for none; the function's name is dotted when nested."""
    reads = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            where = f"{where}.{node.name}" if where else node.name
        form = found(node)
        if form is not None:
            reads.append((where, form))
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(source), "")
    return reads


def representation_read(node) -> str | None:
    if isinstance(node, ast.Attribute) and node.attr == "q":
        return ".q"
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod):
        if isinstance(node.right, ast.Name) and node.right.id == "q":
            return "% q"
    if getattr(node, "id", getattr(node, "arg", None)) == "q_bits":
        return "q_bits"
    return None


def int_handling(node) -> str | None:
    if isinstance(node, ast.Call):
        func = node.func
        if getattr(func, "id", getattr(func, "attr", None)) in ("encode_uint", "encode_uints"):
            return "encode_uint(s)"
        if isinstance(func, ast.Attribute) and func.attr in ("uint", "uints"):
            return "Reader.uint(s)"
    if isinstance(node, ast.Compare) and any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
        operands = (node.left, *node.comparators)
        if any(type(x) is ast.Constant and type(x.value) is int and x.value == 1 for x in operands):
            return "== 1"
    return None


def assert_only_allowed(found, allowed) -> None:
    """The forms `found` names in every module but group.py are exactly the
    `allowed` (module, function, form) sites."""
    seen, leaks = set(), []
    for path in sorted(Path(group.__file__).parent.glob("*.py")):
        if path.name == "group.py":
            continue
        for where, form in scan(path.read_text(encoding="utf-8"), found):
            key = (path.stem, where, form)
            if key in allowed:
                seen.add(key)
            else:
                leaks.append(key)
    assert leaks == []
    assert seen == allowed


class TestGroupBoundary:
    def test_the_scan_finds_each_form_of_read(self):
        source = (
            "def f(params, q, q_bits, r):\n"
            "    def g(r):\n"
            "        return read_int_commitment(r, params.q)\n"
            "    if x == 1 or 1 != y:\n"
            "        return encode_uint(x) + codec.encode_uints([x]) + bytes(r.uint())\n"
            "    return params.q * 2 % q + sum(r.uints(2, 1, 3, 'x'))\n"
        )
        assert sorted(scan(source, representation_read)) == sorted(
            [("f", "q_bits"), ("f.g", ".q"), ("f", ".q"), ("f", "% q")]
        )
        assert sorted(scan(source, int_handling)) == sorted(
            [("f", "== 1"), ("f", "encode_uint(s)"), ("f", "Reader.uint(s)")] * 2
        )

    def test_no_module_but_group_py_reads_the_representation(self):
        """Products, ranges, sizes and members of the group come from
        `GroupParams`; each allowed read is still there."""
        assert_only_allowed(representation_read, ALLOWED_READS)

    def test_no_module_but_group_py_handles_elements_as_ints(self):
        """The identity and the element format come from `GroupParams`:
        no module but group.py writes, reads or compares with 1 an element
        as an int, outside mpc's codec, and each allowed site is still there."""
        assert_only_allowed(int_handling, ALLOWED_INT_HANDLING)

    @pytest.mark.parametrize("modulus", [23, Q384, RFC3526_MODP_2048])
    def test_the_encoded_sizes_are_the_longest_encodings(self, modulus):
        params = params_from_modulus(modulus)
        top = params.encode_elements([modulus - 1])
        assert params.encode_element(modulus - 1) == top
        assert params.element_bytes == len(top) == len(encode_uint(modulus - 1))
        assert params.read_elements(Reader(top), 1, "x") == [modulus - 1]
        assert params.exponent_bytes == len(encode_uint(params.p))
