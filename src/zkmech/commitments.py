"""Bit commitments in the subgroup: commit to 0 as g^r, to 1 as h^r.

Integers are committed bitwise, most significant bit first (index 1 is the
high bit throughout the package).  A double opening of any single
commitment yields the discrete log of h base g, which is the binding
reduction.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .codec import Reader, encode_u8, encode_uint
from .errors import CodecError, ParameterError, VerificationFailed
from .group import GroupParams, RefString
from .sigma import Batch


@dataclass(frozen=True)
class BitCommitment:
    value: int  # the group element C


@dataclass(frozen=True)
class BitOpening:
    bit: int
    r: int  # exponent in {1, ..., p-1}


@dataclass(frozen=True)
class IntCommitment:
    """Per-bit commitments to a width-bit integer, MSB first."""

    width: int
    bits: tuple[BitCommitment, ...]

    def __post_init__(self):
        if len(self.bits) != self.width:
            raise ParameterError("bit count must equal width")


def commit_bit(ref: RefString, bit: int, r: int) -> BitCommitment:
    if bit not in (0, 1):
        raise ParameterError(f"bit must be 0 or 1, got {bit}")
    if not 1 <= r <= ref.params.p - 1:
        raise ParameterError(f"exponent out of range: {r}")
    ref.build_tables()  # whoever commits is a prover
    base = ref.g if bit == 0 else ref.h
    return BitCommitment(ref.params.pow_unchecked(base, r))


def verify_opening(ref: RefString, com: BitCommitment, op: BitOpening) -> bool:
    if op.bit not in (0, 1) or not 1 <= op.r <= ref.params.p - 1:
        return False
    base = ref.g if op.bit == 0 else ref.h
    return ref.params.pow_unchecked(base, op.r) == com.value


def int_bits(value: int, width: int) -> list[int]:
    """MSB-first binary expansion."""
    if not 0 <= value < (1 << width):
        raise ParameterError(f"value {value} out of range for width {width}")
    return [(value >> (width - 1 - i)) & 1 for i in range(width)]


def bits_value(bits: list[int]) -> int:
    out = 0
    for b in bits:
        out = (out << 1) | b
    return out


def commit_int(
    ref: RefString, value: int, width: int, rng: random.Random
) -> tuple[IntCommitment, list[BitOpening]]:
    """Commit to each bit independently; openings returned in bit order."""
    bits = int_bits(value, width)
    openings = [BitOpening(bit=b, r=ref.params.exp_sample(rng)) for b in bits]
    coms = tuple(commit_bit(ref, op.bit, op.r) for op in openings)
    return IntCommitment(width=width, bits=coms), openings


# The phase and detail of a reveal's false opening, named at its index.
OPENING_FAILURE = ("reveal", "opening does not match commitment")


def reveal_int(
    ref: RefString, com: IntCommitment, ops: list[BitOpening], batch: Batch | None = None
) -> int:
    """Recover the committed value.

    Each opening's bit and exponent are checked here, and its equation
    C = B^r joins `batch` under the group its caller began, now or later
    (see `sigma.Batch`); a false one fails with that group's failure of its
    1-based index.  Without a batch, one of its own is settled before this
    returns, so the error names the first false index (`OPENING_FAILURE`).
    The commitments must be subgroup members, as the wire parsers ensure.
    """
    if len(ops) != com.width:
        raise VerificationFailed("reveal", f"expected {com.width} openings, got {len(ops)}")
    own = batch is None
    if own:
        batch = Batch(ref.params)
        batch.begin(*OPENING_FAILURE)
    p = ref.params.p
    for i, (bit_com, op) in enumerate(zip(com.bits, ops), start=1):
        if op.bit not in (0, 1) or not 1 <= op.r <= p - 1:
            batch.reject(i)
        batch.add_opening(bit_com.value, ref.g if op.bit == 0 else ref.h, op.bit, op.r, i)
    if own:
        batch.check()
    return bits_value([op.bit for op in ops])


def binding_break_to_dlog(ref: RefString, r_zero: int, r_one: int) -> int:
    """Turn a double opening (g^r_zero = h^r_one) into log_g(h).

    Returns l = r_zero * r_one^-1 mod p and asserts g^l = h.
    """
    params = ref.params
    if params.pow(ref.g, r_zero) != params.pow(ref.h, r_one):
        raise ParameterError("inputs are not a double opening of one commitment")
    ell = r_zero * params.exp_inv(r_one) % params.p
    if params.pow(ref.g, ell) != ref.h:
        raise ParameterError("extracted exponent failed the g^l = h check")
    return ell


# -- wire encodings ----------------------------------------------------------


def encode_int_commitment(params: GroupParams, com: IntCommitment) -> bytes:
    return encode_u8(com.width) + params.encode_elements(b.value for b in com.bits)


def read_commitment(r: Reader, params: GroupParams) -> IntCommitment:
    """An `encode_int_commitment`: its width, then its bit commitments,
    elements other than the identity, which commits to no bit."""
    width = r.u8()
    values = params.read_elements(r, width, "commitment", identity=False, named=True)
    return IntCommitment(width=width, bits=tuple(BitCommitment(v) for v in values))


def read_int_commitment(r: Reader, q: int) -> IntCommitment:
    """`read_commitment` in the group mod q, for a caller that holds only
    the modulus."""
    return read_commitment(r, GroupParams(q, (q - 1) // 2, q.bit_length()))


def encode_opening(op: BitOpening) -> bytes:
    return encode_u8(op.bit) + encode_uint(op.r)


def read_opening(r: Reader, p: int) -> BitOpening:
    bit = r.u8()
    if bit not in (0, 1):
        raise CodecError(f"bad bit {bit}", offset=r.off)
    exp = r.uint()
    if not 1 <= exp <= p - 1:
        raise CodecError("opening exponent out of range", offset=r.off)
    return BitOpening(bit=bit, r=exp)
