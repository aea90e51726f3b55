"""Zero-knowledge relations over committed integers.

Each relation compiles to one or more matrix statements for the sigma
engine: inequalities against public bounds, inequalities between two
committed values, complement pairs for coin flips, one pair per plan at
its position in the coin message, and one ripple chain of full-adder
gates, each a truth table, that serves both the addition circuit with
committed carries and the strict comparison circuit with committed
borrows.  The prover reads the chain off the integer sum of its inputs.

Every gadget is written once, as a plan built from public data only: a
tuple of (label, position, rows) entries, one per proof.  A row is a tuple
of cells (bit, (k, i)): the cell's base is g when `bit` is 0 and h when it
is 1, and its target is bit i of the k-th commitment the gadget covers,
the element `coms[k][i - 1]`, since a commitment is the tuple of its bits'
elements (`commitments`).  A complement pair is the tuple (C, C'), which
`coin_select` indexes by the mask bit, as `coin_openings` indexes its
openings.
The prover knows every cell of some row, the one whose bit commitments all
open to the cells' bits; its witness is the first such row.  One builder
turns an entry into a statement, one prover proves a whole plan and one
verifier checks one, all its proofs in one `ni_verify_all` call whose cell
equations are one unit of the run's `sigma.Batch`, and the bundle reader
takes its shapes from the same (cached) plan.  The statement bytes each
proof's context carries are joined from the encodings of g, h and the
covered commitments, each element encoded once per bundle by the group's
`encode_element`.  The prover holds the opening of every covered bit, so
it hands `ni_prove` the openings of the simulated rows' targets and raises
only g and h.

Bit positions are 1-based with position 1 the most significant bit,
matching the package-wide integer convention.  The plan is the only
statement of each relation: provers refuse (raise `RefuseToProve`) only
through the plan's witness search, at the first proof none of whose rows
the openings satisfy, so honest code paths can never emit an unsound
message.
"""

from __future__ import annotations

import random
from collections.abc import Sequence
from functools import cache, lru_cache
from itertools import product

from .codec import Reader, encode_u8, encode_u16
from .commitments import (
    BitOpening,
    IntCommitment,
    bits_value,
    commit_bit,
    commit_int,
    int_bits,
)
from .errors import CodecError, ParameterError, RefuseToProve
from .group import RefString
from .sigma import (
    Batch,
    CdsStatement,
    CdsWitness,
    NiProof,
    encode_sized_proof,
    encode_statement,
    ni_prove,
    ni_verify_all,
    read_sized_proof,
    sized_proof_bytes,
)

# Per-proof context labels: gadget kind + 1-based position.
_LBL_GE = 0x10
_LBL_LE = 0x11
_LBL_LE_COMMITTED = 0x12
_LBL_GATE = 0x13
_LBL_COMPLEMENT = 0x14

ProofBundle = list[tuple[int, NiProof]]
Cell = tuple[int, tuple[int, int]]
Rows = tuple[tuple[Cell, ...], ...]
Plan = tuple[tuple[int, int, Rows], ...]  # (label, position, rows) per proof

# Plans are immutable and cached, so the bundle reader, the verifier and the
# prover of one bundle share one build.  The slots bound the memory of the
# plans keyed by a bound or a total: at width 16 a bound plan holds at most
# 72 cells and a sum plan 247.
_plan_cache = lru_cache(maxsize=64)


def _ctx(
    prefix: bytes, stmt: CdsStatement, encoded: dict[int, bytes], label: int, position: int
) -> bytes:
    return prefix + encode_statement(stmt, encoded) + encode_u8(label) + encode_u16(position)


def element_encodings(ref: RefString, coms: Sequence[IntCommitment]) -> dict[int, bytes]:
    """The encoding of g, h and every covered commitment, each distinct
    element once: what `encode_statement` needs for any statement of a plan
    over `coms`."""
    values = {ref.g, ref.h}
    values.update([com for com_bits in coms for com in com_bits])
    return {v: ref.params.encode_element(v) for v in values}


# -- one statement builder, one prover, one verifier ---------------------------


def plan_statement(ref: RefString, coms: Sequence[IntCommitment], rows: Rows) -> CdsStatement:
    """The statement of one plan entry over the covered commitments' bits."""
    bases = (ref.g, ref.h)
    # List comprehensions: generators here cost a few percent of a q=23 run.
    cells = [tuple([(bases[bit], coms[k][i - 1]) for bit, (k, i) in row]) for row in rows]
    return CdsStatement(params=ref.params, rows=tuple(cells))


def plan_shapes(plan: Plan) -> list[tuple[int, ...]]:
    """The statement shape of each proof of `plan`."""
    return [tuple(len(row) for row in rows) for _, _, rows in plan]


def plan_witness(rows: Rows, ops: Sequence[Sequence[BitOpening]]) -> CdsWitness | None:
    """The first row whose cells' openings carry the cells' bits, with those
    openings' exponents; None if no row is satisfied.  `ops` opens the
    covered commitments bit for bit."""
    for n, cells in enumerate(rows):
        if all(ops[k][i - 1].bit == bit for bit, (k, i) in cells):
            return CdsWitness(row=n, exps=tuple(ops[k][i - 1].r for _, (k, i) in cells))
    return None


def _prove_plan(
    ref: RefString,
    plan: Plan,
    coms: Sequence[IntCommitment],
    ops: Sequence[Sequence[BitOpening]],
    ctx_prefix: bytes,
    rng: random.Random,
) -> ProofBundle:
    """Prove every entry of `plan`; refuses at the first one without a witness."""
    bases = (ref.g, ref.h)
    hint = {  # every covered bit's commitment, opened as (g or h, r)
        com: (bases[op.bit], op.r)
        for com_bits, com_ops in zip(coms, ops)
        for com, op in zip(com_bits, com_ops)
    }
    encoded = element_encodings(ref, coms)
    bundle: ProofBundle = []
    for label, position, rows in plan:
        wit = plan_witness(rows, ops)
        if wit is None:
            raise RefuseToProve(f"no witness at position {position}")
        stmt = plan_statement(ref, coms, rows)
        ctx = _ctx(ctx_prefix, stmt, encoded, label, position)
        bundle.append((position, ni_prove(stmt, wit, ctx, rng, hint)))
    return bundle


def _verify_plan(
    ref: RefString,
    plan: Plan,
    coms: Sequence[IntCommitment],
    bundle: ProofBundle,
    ctx_prefix: bytes,
    batch: Batch | None = None,
) -> bool:
    """The bundle carries the plan's positions in order, and its proofs
    verify against their entries' statements and contexts, as one unit of
    `batch` (see `ni_verify_all`)."""
    if [pos for pos, _ in bundle] != [pos for _, pos, _ in plan]:
        return False
    encoded = element_encodings(ref, coms)
    items = []
    for (label, position, rows), (_, proof) in zip(plan, bundle):
        stmt = plan_statement(ref, coms, rows)
        items.append((stmt, proof, _ctx(ctx_prefix, stmt, encoded, label, position)))
    return ni_verify_all(items, batch)


# -- inequalities against a public bound --------------------------------------
#
# s >= w iff for every 1-position i of w the prover knows the log base h of
# one of {C_j | j = i or (j < i and w_j = 0)}; s <= w is the base-g dual
# over the 0-positions of w.


@_plan_cache
def bound_plan(w: int, width: int, *, greater: bool) -> Plan:
    """The ge (`greater`) or le proofs of one committed value against w."""
    label, bit = (_LBL_GE, 1) if greater else (_LBL_LE, 0)
    w_bits = int_bits(w, width)  # a ParameterError out of range
    return tuple(
        (
            label,
            i,
            tuple(((bit, (0, j)),) for j in range(1, i + 1) if j == i or w_bits[j - 1] != bit),
        )
        for i in range(1, width + 1)
        if w_bits[i - 1] == bit
    )


def prove_ge_public(ref, com, openings, w, ctx_prefix, rng) -> ProofBundle:
    """Prove the committed value is >= the public bound w."""
    plan = bound_plan(w, len(com), greater=True)
    return _prove_plan(ref, plan, (com,), (openings,), ctx_prefix, rng)


def verify_ge_public(ref, com, w, bundle, ctx_prefix, batch=None) -> bool:
    if not 0 <= w < (1 << len(com)):
        return False
    plan = bound_plan(w, len(com), greater=True)
    return _verify_plan(ref, plan, (com,), bundle, ctx_prefix, batch)


def prove_le_public(ref, com, openings, w, ctx_prefix, rng) -> ProofBundle:
    """Prove the committed value is <= the public bound w."""
    plan = bound_plan(w, len(com), greater=False)
    return _prove_plan(ref, plan, (com,), (openings,), ctx_prefix, rng)


def verify_le_public(ref, com, w, bundle, ctx_prefix, batch=None) -> bool:
    if not 0 <= w < (1 << len(com)):
        return False
    plan = bound_plan(w, len(com), greater=False)
    return _verify_plan(ref, plan, (com,), bundle, ctx_prefix, batch)


# -- committed <= committed ----------------------------------------------------
#
# a <= b iff for every i one of: a_i = 0, b_i = 1, or some j < i has
# a_j = 0 and b_j = 1.  Row widths vary: the first two options are single
# cells, each j-option is a two-cell AND row.


@_plan_cache
def le_committed_plan(width: int) -> Plan:
    """Proofs over (a, b), one per bit position."""
    return tuple(
        (
            _LBL_LE_COMMITTED,
            i,
            (((0, (0, i)),), ((1, (1, i)),))
            + tuple(((0, (0, j)), (1, (1, j))) for j in range(1, i)),
        )
        for i in range(1, width + 1)
    )


def prove_le_committed(ref, com_a, ops_a, com_b, ops_b, ctx_prefix, rng) -> ProofBundle:
    """Prove committed a <= committed b, one matrix proof per bit position."""
    if len(com_a) != len(com_b):
        raise ParameterError("widths must match")
    plan = le_committed_plan(len(com_a))
    return _prove_plan(ref, plan, (com_a, com_b), (ops_a, ops_b), ctx_prefix, rng)


def verify_le_committed(ref, com_a, com_b, bundle, ctx_prefix, batch=None) -> bool:
    if len(com_a) != len(com_b):
        return False
    plan = le_committed_plan(len(com_a))
    return _verify_plan(ref, plan, (com_a, com_b), bundle, ctx_prefix, batch)


# -- gate chains: addition with committed carries, comparison with borrows ------
#
# Both circuits are ripple chains of full adders over (x, y, chain), where
# chain holds the carries or borrows: chain_i is the one out of position i,
# and the one into the least significant position is fixed at zero.
# Position 0 certifies the chain's top bit with a one-cell statement;
# position i gates (x_i, y_i, chain_i, chain_{i+1}), without chain_{i+1} at
# the LSB.
#
# The sum's gate is the adder over (a, b) with the announced sum bit; the
# (width+1)-bit total's top bit is the carry out of position 1.  z < s is
# decided by the borrow chain of z - s, whose borrows are the carries of
# (NOT z) + s, so its gate is the adder over (NOT z, s) with no sum bit:
# only the final borrow (the verdict) is announced, and difference bits are
# never committed or revealed.


@cache
def _full_adder(invert: int, sum_bit: int | None, lsb: bool) -> tuple[tuple[int, ...], ...]:
    """The truth table of a full adder over (x XOR invert, y, in): its
    allowed (x, y, out, in) assignments in sorted order, those whose sum
    bit is `sum_bit` when one is given.  At the LSB, `in` is 0 and left out."""
    rows = []
    for x, y, cin in product((0, 1), (0, 1), (0,) if lsb else (0, 1)):
        total = (x ^ invert) + y + cin
        if sum_bit is None or total % 2 == sum_bit:
            rows.append((x, y, total // 2) if lsb else (x, y, total // 2, cin))
    return tuple(sorted(rows))


def _chain_plan(top_bit: int, tables: list[tuple[tuple[int, ...], ...]]) -> Plan:
    plan = [(_LBL_GATE, 0, (((top_bit, (2, 1)),),))]
    for i, table in enumerate(tables, start=1):
        refs = ((0, i), (1, i), (2, i), (2, i + 1))
        plan.append((_LBL_GATE, i, tuple(tuple(zip(row, refs)) for row in table)))
    return tuple(plan)


@_plan_cache
def sum_plan(total: int, width: int) -> Plan:
    """Gate proofs of the announced (width+1)-bit total over (s1, s2, carries).
    Every total gives the same statement shapes."""
    total_bits = int_bits(total, width + 1)
    tables = [_full_adder(0, b, i == width) for i, b in enumerate(total_bits[1:], start=1)]
    return _chain_plan(total_bits[0], tables)


@_plan_cache
def lt_plan(verdict: int, width: int) -> Plan:
    """Gate proofs of the verdict bit of z < s over (z, s, borrows).  Either
    verdict gives the same statement shapes."""
    return _chain_plan(verdict, [_full_adder(1, None, i == width) for i in range(1, width + 1)])


def _prove_chain(ref, invert, com_x, ops_x, com_y, ops_y, ctx_prefix, rng):
    """Commit the chain of (x XOR invert) + y and prove its plan over (x, y,
    chain): `sum_plan` of the total, or with `invert` set, `lt_plan` of the
    total's top bit.  Returns that announced value, the chain commitments
    and the proofs; the chain openings never leave this function."""
    if len(com_x) != len(com_y):
        raise ParameterError("widths must match")
    width = len(com_x)
    x = bits_value([op.bit ^ invert for op in ops_x])
    y = bits_value([op.bit for op in ops_y])
    total = x + y
    # Bit k of x ^ y ^ total is the carry into bit k (from the LSB), so the
    # shifted value holds the carry out of every position.
    chain_com, chain_ops = commit_int(ref, (total ^ x ^ y) >> 1, width, rng)
    coms, ops = (com_x, com_y, chain_com), (ops_x, ops_y, chain_ops)
    announced, plan = (total >> width, lt_plan) if invert else (total, sum_plan)
    bundle = _prove_plan(ref, plan(announced, width), coms, ops, ctx_prefix, rng)
    return announced, chain_com, bundle


def _verify_chain(ref, plan, com_x, com_y, chain_com, bundle, ctx_prefix, batch) -> bool:
    if not len(com_x) == len(com_y) == len(chain_com):
        return False
    return _verify_plan(ref, plan, (com_x, com_y, chain_com), bundle, ctx_prefix, batch)


def prove_sum(
    ref: RefString,
    com1: IntCommitment,
    ops1: list[BitOpening],
    com2: IntCommitment,
    ops2: list[BitOpening],
    ctx_prefix: bytes,
    rng: random.Random,
) -> tuple[int, IntCommitment, ProofBundle]:
    """Announce s1+s2 publicly and prove it against the hidden summands.

    Returns the announced (width+1)-bit total, the carry commitments, and
    the gate proofs.
    """
    return _prove_chain(ref, 0, com1, ops1, com2, ops2, ctx_prefix, rng)


def verify_sum(
    ref: RefString,
    com1: IntCommitment,
    com2: IntCommitment,
    total: int,
    carry_com: IntCommitment,
    bundle: ProofBundle,
    ctx_prefix: bytes,
    batch: Batch | None = None,
) -> bool:
    """Recompute the allowed gate tables from the announced total and check
    every per-position proof."""
    if not 0 <= total < (1 << (len(com1) + 1)):
        return False
    plan = sum_plan(total, len(com1))
    return _verify_chain(ref, plan, com1, com2, carry_com, bundle, ctx_prefix, batch)


def prove_lt_committed(
    ref: RefString,
    com_z: IntCommitment,
    ops_z: list[BitOpening],
    com_s: IntCommitment,
    ops_s: list[BitOpening],
    ctx_prefix: bytes,
    rng: random.Random,
) -> tuple[int, IntCommitment, ProofBundle]:
    """Announce and prove the verdict bit of z < s.

    Returns (verdict, borrow commitments, proofs); verdict is 1 iff z < s.
    """
    return _prove_chain(ref, 1, com_z, ops_z, com_s, ops_s, ctx_prefix, rng)


def verify_lt_committed(
    ref: RefString,
    com_z: IntCommitment,
    com_s: IntCommitment,
    verdict: int,
    borrow_com: IntCommitment,
    bundle: ProofBundle,
    ctx_prefix: bytes,
    batch: Batch | None = None,
) -> bool:
    if verdict not in (0, 1):
        return False
    plan = lt_plan(verdict, len(com_z))
    return _verify_chain(ref, plan, com_z, com_s, borrow_com, bundle, ctx_prefix, batch)


# -- complement pairs and coin selection -------------------------------------------


# Commitments (C, C') to a hidden bit and to its complement.
ComplementPair = tuple[int, int]


def complement_commit(
    ref: RefString, bit: int, rng: random.Random
) -> tuple[ComplementPair, tuple[BitOpening, BitOpening]]:
    op = BitOpening(bit=bit, r=ref.params.exp_sample(rng))
    com = commit_bit(ref, op.bit, op.r)
    # Resample until the two elements differ: equal elements would be a
    # commitment opening to both bits, defeating the complement certificate.
    while True:
        opp = BitOpening(bit=1 - bit, r=ref.params.exp_sample(rng))
        com_p = commit_bit(ref, opp.bit, opp.r)
        if com_p != com:
            break
    return (com, com_p), (op, opp)


@_plan_cache
def complement_plan(position: int) -> Plan:
    """Over (R, R'): log base g of one element is known, and log base h of
    one element is known.  The pair at `position` of a coin message proves
    these at 2 * `position` and 2 * `position` + 1."""
    return tuple(
        (_LBL_COMPLEMENT, 2 * position + bit, (((bit, (0, 1)),), ((bit, (1, 1)),)))
        for bit in (0, 1)
    )


def prove_complement(
    ref: RefString,
    pair: ComplementPair,
    openings: tuple[BitOpening, BitOpening],
    ctx_prefix: bytes,
    rng: random.Random,
    position: int,
) -> list[NiProof]:
    """Two disjunction proofs, base g and base h, for the pair at `position`.
    Under dlog hardness this certifies a complement pair without revealing
    which element commits which bit."""
    coms, ops = tuple((com,) for com in pair), tuple((op,) for op in openings)
    bundle = _prove_plan(ref, complement_plan(position), coms, ops, ctx_prefix, rng)
    return [proof for _, proof in bundle]


def verify_complement(
    ref: RefString,
    pair: ComplementPair,
    proofs: Sequence[NiProof],
    ctx_prefix: bytes,
    position: int,
    batch: Batch | None = None,
) -> bool:
    """The pair's two proofs, made at `position`: one unit of `batch`."""
    if len(proofs) != 2 or pair[0] == pair[1]:
        return False
    plan = complement_plan(position)
    bundle = [(pos, proof) for (_, pos, _), proof in zip(plan, proofs)]
    coms = tuple((com,) for com in pair)
    return _verify_plan(ref, plan, coms, bundle, ctx_prefix, batch)


def coin_select(pairs: list[ComplementPair], mask: list[int]) -> IntCommitment:
    """Deterministic selection: bit i's commitment is the original when
    y_i = 0 and the complement when y_i = 1, so the result commits x XOR y."""
    if len(pairs) != len(mask) or any(b not in (0, 1) for b in mask):
        raise ParameterError("mask must supply one bit per pair")
    return tuple(pair[y] for pair, y in zip(pairs, mask))


def coin_openings(
    pair_openings: list[tuple[BitOpening, BitOpening]], mask: list[int]
) -> list[BitOpening]:
    """The holder's openings for the selected (masked) commitments."""
    return [ops[y] for ops, y in zip(pair_openings, mask)]


# -- bundle wire encoding ----------------------------------------------------------


def encode_bundle(bundle: ProofBundle) -> bytes:
    out = [encode_u16(len(bundle))]
    for pos, proof in bundle:
        out.append(encode_u16(pos) + encode_sized_proof(proof))
    return b"".join(out)


def bundle_bytes(shapes: list[tuple[int, ...]], e: int) -> int:
    """The longest `encode_bundle` of proofs of these shapes, with integers
    of up to `e` encoded bytes."""
    return 2 + sum(2 + sized_proof_bytes(shape, e) for shape in shapes)


def read_bundle(r: Reader, params, shapes: list[tuple[int, ...]]) -> ProofBundle:
    """Strict decode against the expected per-entry statement shapes."""
    count = r.u16()
    if count != len(shapes):
        raise CodecError(f"bundle count {count} != expected {len(shapes)}", offset=r.off)
    return [(r.u16(), read_sized_proof(r, params, shape)) for shape in shapes]
