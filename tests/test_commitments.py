from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import Q384
from zkmech.codec import Reader, describe_uint, encode_u8, encode_uints
from zkmech.commitments import (
    BitCommitment,
    BitOpening,
    IntCommitment,
    binding_break_to_dlog,
    bits_value,
    commit_bit,
    commit_int,
    int_bits,
    read_commitment,
    read_int_commitment,
    reveal_int,
    verify_opening,
)
from zkmech.errors import CodecError, ParameterError, VerificationFailed
from zkmech.group import RefString, params_from_modulus


@pytest.fixture(scope="module")
def toy7():
    # fixed generators so the worked examples stay literal: g=2, h=4
    return RefString(params=params_from_modulus(7), seed=b"t", g=2, h=4)


@pytest.fixture(scope="module")
def toy23():
    # h = g^2, handy for binding tests
    return RefString(params=params_from_modulus(23), seed=b"t", g=2, h=4)


class TestCommitBit:
    def test_worked_examples(self, toy7):
        assert commit_bit(toy7, 0, 2).value == 4  # 2^2 mod 7
        assert commit_bit(toy7, 1, 2).value == 2  # 4^2 = 16 mod 7
        assert commit_bit(toy7, 0, 1).value == toy7.g

    def test_exponent_range_enforced(self, toy7):
        with pytest.raises(ParameterError):
            commit_bit(toy7, 0, 0)
        with pytest.raises(ParameterError):
            commit_bit(toy7, 0, toy7.params.p)
        with pytest.raises(ParameterError):
            commit_bit(toy7, 2, 1)

    def test_perfect_hiding_is_a_bijection(self, toy7, toy23):
        # for each bit the commitment sweeps the non-identity subgroup
        # exactly once, so the two distributions coincide exactly
        for ref in (toy7, toy23):
            p = ref.params.p
            per_bit = []
            for bit in (0, 1):
                values = [commit_bit(ref, bit, r).value for r in range(1, p)]
                assert len(set(values)) == p - 1
                assert 1 not in values
                per_bit.append(Counter(values))
            assert per_bit[0] == per_bit[1]


class TestOpenings:
    def test_verify_examples(self, toy7):
        com = BitCommitment(4)
        assert verify_opening(toy7, com, BitOpening(bit=0, r=2))
        assert not verify_opening(toy7, com, BitOpening(bit=1, r=2))

    def test_round_trip_exhaustive(self, toy7):
        for bit in (0, 1):
            for r in range(1, toy7.params.p):
                com = commit_bit(toy7, bit, r)
                assert verify_opening(toy7, com, BitOpening(bit=bit, r=r))

    def test_out_of_range_opening_rejected(self, toy7):
        com = commit_bit(toy7, 0, 1)
        assert not verify_opening(toy7, com, BitOpening(bit=0, r=0))
        assert not verify_opening(toy7, com, BitOpening(bit=3, r=1))


class TestIntCommitments:
    def test_bit_order_msb_first(self, toy23, rng):
        com, ops = commit_int(toy23, 5, 3, rng)
        assert [op.bit for op in ops] == [1, 0, 1]
        com0, ops0 = commit_int(toy23, 0, 3, rng)
        assert [op.bit for op in ops0] == [0, 0, 0]

    def test_round_trip_exhaustive_small_widths(self, toy23, rng):
        for width in range(5):
            for value in range(1 << width):
                com, ops = commit_int(toy23, value, width, rng)
                assert reveal_int(toy23, com, ops) == value

    def test_out_of_range_value(self, toy23, rng):
        with pytest.raises(ParameterError):
            commit_int(toy23, 8, 3, rng)

    def test_corrupted_opening_names_first_bad_index(self, toy23, rng):
        com, ops = commit_int(toy23, 5, 3, rng)
        bad = list(ops)
        bad[1] = BitOpening(bit=bad[1].bit, r=bad[1].r % (toy23.params.p - 1) + 1)
        if verify_opening(toy23, com.bits[1], bad[1]):  # pragma: no cover
            pytest.skip("accidental collision")
        with pytest.raises(VerificationFailed) as err:
            reveal_int(toy23, com, bad)
        assert err.value.index == 2  # 1-based bit positions

    def test_zero_width(self, toy23, rng):
        com, ops = commit_int(toy23, 0, 0, rng)
        assert reveal_int(toy23, com, ops) == 0

    def test_bits_helpers(self):
        assert int_bits(5, 3) == [1, 0, 1]
        assert bits_value([1, 1, 0]) == 6


class TestBindingReduction:
    def test_worked_example_q23(self, toy23):
        # g=2, h=4=g^2: g^4 = 16 = h^2, so (4, 2) is a double opening
        ell = binding_break_to_dlog(toy23, r_zero=4, r_one=2)
        assert ell == 4 * pow(2, -1, 11) % 11 == 2
        assert toy23.params.pow(toy23.g, ell) == toy23.h

    def test_not_a_double_opening(self, toy23):
        with pytest.raises(ParameterError):
            binding_break_to_dlog(toy23, r_zero=1, r_one=1)

    @settings(max_examples=60, deadline=None)
    @given(rho=st.integers(min_value=2, max_value=10), r_one=st.integers(min_value=1, max_value=10))
    def test_trapdoor_property(self, rho, r_one):
        # plant h = g^rho; then g^(rho*r_one) = h^r_one is a double opening
        # and the reduction recovers rho exactly
        params = params_from_modulus(23)
        g = 2
        h = params.pow(g, rho)
        if h == g:
            return
        ref = RefString(params=params, seed=b"t", g=g, h=h)
        r_zero = rho * r_one % params.p
        ell = binding_break_to_dlog(ref, r_zero=r_zero, r_one=r_one)
        assert ell == rho % params.p
        assert params.pow(g, ell) == h


def read_int_commitment_per_bit(r: Reader, q: int) -> IntCommitment:
    """The reference for `read_int_commitment`: one `Reader.uint` per bit
    commitment, each in [2, q - 1]."""
    width = r.u8()
    bits = []
    for _ in range(width):
        value = r.uint()
        if not 2 <= value <= q - 1:
            raise CodecError(f"commitment {describe_uint(value)} out of range", offset=r.off)
        bits.append(BitCommitment(value))
    return IntCommitment(width=width, bits=tuple(bits))


@pytest.mark.parametrize("q", [23, Q384])
def test_a_commitment_run_reads_as_one_commitment_at_a_time(q):
    """Read as one run, through the group or from the modulus, an integer
    commitment keeps the value, the error text and the offset of reading
    its bit commitments one at a time."""
    params = params_from_modulus(q)

    def read(reader, buf):
        r = Reader(buf)
        try:
            return reader(r, q), r.off
        except CodecError as exc:
            return str(exc), exc.offset

    def read_in_group(r, _q):
        return read_commitment(r, params)

    for bad in (None, 0, 1, 2, q - 1, q, q + 5, 1 << 9000):
        for at in range(3):
            values = [3, q - 2, 5]
            if bad is not None:
                values[at] = bad
            buf = encode_u8(3) + encode_uints(values)
            for cut in (len(buf), len(buf) - 1):
                want = read(read_int_commitment_per_bit, buf[:cut])
                assert read(read_int_commitment, buf[:cut]) == want, (bad, at, cut)
                assert read(read_in_group, buf[:cut]) == want, (bad, at, cut)
    for reader in (read_int_commitment, read_in_group):
        text, _ = read(reader, encode_u8(1) + encode_uints([q]))
        assert text.startswith(f"commitment {q} out of range")
