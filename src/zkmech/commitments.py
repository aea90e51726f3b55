"""Bit commitments in the subgroup: commit to 0 as g^r, to 1 as h^r.

A bit commitment is its group element, which only the group reads or
writes.  Integers are committed bitwise, most significant bit first (index
1 is the high bit throughout the package): an integer commitment is the
tuple of its bits' elements, and its width is `len` of it.  A reveal
checks its openings in the verification run's `sigma.Batch`, which the
caller holds.  A double opening of any single commitment yields the
discrete log of h base g, which is the binding reduction.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .codec import Reader, encode_u8, encode_uint
from .errors import CodecError, ParameterError, VerificationFailed
from .group import GroupParams, RefString
from .sigma import Batch


@dataclass(frozen=True)
class BitOpening:
    bit: int
    r: int  # exponent in {1, ..., p-1}


# An integer's bit commitments, MSB first, one element per bit of its width.
IntCommitment = tuple[int, ...]


def commit_bit(ref: RefString, bit: int, r: int) -> int:
    """The element g^r for bit 0, h^r for bit 1."""
    if bit not in (0, 1):
        raise ParameterError(f"bit must be 0 or 1, got {bit}")
    if not 1 <= r <= ref.params.p - 1:
        raise ParameterError(f"exponent out of range: {r}")
    ref.build_tables()  # whoever commits is a prover
    base = ref.g if bit == 0 else ref.h
    return ref.params.pow_unchecked(base, r)


def verify_opening(ref: RefString, com: int, op: BitOpening) -> bool:
    if op.bit not in (0, 1) or not 1 <= op.r <= ref.params.p - 1:
        return False
    base = ref.g if op.bit == 0 else ref.h
    return ref.params.pow_unchecked(base, op.r) == com


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
    return coms, openings


# The phase and detail of a reveal's false opening, named at its index.
OPENING_FAILURE = ("reveal", "opening does not match commitment")


def reveal_int(ref: RefString, com: IntCommitment, ops: list[BitOpening], batch: Batch) -> int:
    """Recover the committed value.

    Each opening's bit and exponent are checked here, and its equation
    C = B^r joins `batch` under the group its caller began, now or later
    (see `sigma.Batch`); a false one fails with that group's failure of its
    1-based index (`protocols` begins a reveal's group with
    `OPENING_FAILURE`).  The commitments must be subgroup members, as the
    wire parsers ensure.
    """
    if len(ops) != len(com):
        raise VerificationFailed("reveal", f"expected {len(com)} openings, got {len(ops)}")
    p = ref.params.p
    for i, (bit_com, op) in enumerate(zip(com, ops), start=1):
        if op.bit not in (0, 1) or not 1 <= op.r <= p - 1:
            batch.reject(i)
        batch.add_opening(bit_com, ref.g if op.bit == 0 else ref.h, op.bit, op.r, i)
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
    return encode_u8(len(com)) + params.encode_elements(com)


def read_commitment(r: Reader, params: GroupParams) -> IntCommitment:
    """An `encode_int_commitment`: its width, then its bit commitments,
    elements other than the identity, which commits to no bit."""
    width = r.u8()
    return tuple(params.read_elements(r, width, "commitment", identity=False, named=True))


def read_int_commitment(r: Reader, q: int) -> IntCommitment:
    """`read_commitment` in the group mod q, for a caller that holds only
    the modulus."""
    return read_commitment(r, GroupParams(q))


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
