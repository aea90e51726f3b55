"""Sigma protocols over a statement matrix, plus the Fiat-Shamir transform.

One engine covers every proof form the package needs: a statement is a
matrix of (base, target) pairs with possibly different row widths, and the
prover shows she knows the discrete logs of *every* cell in *some* row,
without revealing which.  Plain knowledge-of-dlog is the 1x1 instance,
AND-composition over several bases is 1xm, disjunction over alternatives
is kx1, and the general matrix covers gate proofs.

Row widths may differ because each row is simulated and verified
independently; soundness and witness indistinguishability are per-row
arguments and do not care about the other rows' widths.

Verification.  `cds_verify` is the reference: it checks each cell's
equation base^gamma = alpha * target^beta_i on its own, two powers per
cell.  `ni_verify_all`, which every proof bundle goes through, checks a
list of proofs.  Once p has BATCH_BITS bits or more it tests all their
cells as one small-exponent batch (Bellare-Garay-Rabin): one hashed
128-bit weight per cell and one `GroupParams.multi_pow` over the alphas
and the distinct bases and targets, checked against 1, after a
Jacobi-symbol membership test of every alpha.  A weight only matters mod
p, so in a toy group a false cell would pass the batch about one time in
p (one in 11 at q = 23); there every cell is checked on its own, as
`cds_verify` does.

Proving.  Every row but the real one is simulated: it draws a beta_i and
its gammas and sets alpha = base^gamma * target^(-beta_i) (Cramer-Damgard-
Schoenmakers), a variable-base power per cell.  A prover that made the
targets itself can pass their openings as a hint: target -> (B, r) with
target = B^r and B a fixed base (g or h), covering every simulated cell's
target.  Then alpha = base^(gamma - beta_i * r) when B is the cell's base,
one table power, and base^gamma * B^(-beta_i * r) otherwise, two.  That is
the same group element, so the proof's bytes, and the rng draws behind
them, do not change; only how a simulated alpha is computed does.

Bytes.  A proof keeps the bytes `read_proof` read it from or `ni_prove`
encoded it into: `ni_verify_all` hashes them for the challenge and the
batch weights, and `encode_sized_proof` sends them, so no proof is encoded
twice or re-encoded after decoding.  `read_proof` reads each field's
integers as one `Reader.uints` run.  `encode_statement` joins element
encodings its caller made once, however many cells share an element.
"""

from __future__ import annotations

import hashlib
import random
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from functools import lru_cache

from .codec import Reader, encode_u16, encode_uint
from .errors import (
    CodecError,
    ExtractionError,
    ParameterError,
    ShapeMismatch,
    StateConsumed,
)
from .group import GroupParams

# From this many bits of p up, `ni_verify_all` checks the cell equations of
# its proofs as one batch with WEIGHT_BITS-bit weights.
BATCH_BITS = 256
WEIGHT_BITS = 128
_BATCH_TAG = b"zkmech/batch-weights"


@dataclass(frozen=True)
class CdsStatement:
    """Rows of (base, target) pairs; the prover knows one full row.

    Callers must pass subgroup members: membership is not checked here.
    Every element from the wire is checked once where it enters (the
    commitment, carry, borrow and coin parsers, and the mpc indicator and
    response checks), and g and h when their `RefString` is built; every
    base and target is one of those or a power of one.
    """

    params: GroupParams
    rows: tuple[tuple[tuple[int, int], ...], ...]

    def __post_init__(self):
        if not self.rows:
            raise ParameterError("statement needs at least one row")
        for row in self.rows:
            if not row:
                raise ParameterError("statement rows must be nonempty")
            for base, target in row:
                if base == 1 or target == 1:
                    raise ParameterError("bases and targets must differ from the identity")

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(map(len, self.rows))


@dataclass(frozen=True)
class CdsWitness:
    row: int
    exps: tuple[int, ...]


@dataclass(frozen=True)
class SigmaFirst:
    alphas: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class SigmaResponse:
    betas: tuple[int, ...]  # one per row, summing to the challenge mod p
    gammas: tuple[tuple[int, ...], ...]


@dataclass
class ProverState:
    """Single-use prover state; consumed by `cds_respond`.

    Reusing a nonce across two challenges leaks the witness, so the state
    refuses to respond twice.
    """

    stmt: CdsStatement
    wit: CdsWitness
    nonces: tuple[int, ...]
    sims: dict[int, tuple[int, tuple[int, ...]]] = field(default_factory=dict)
    used: bool = False


@dataclass(frozen=True)
class NiProof:
    """A Fiat-Shamir (non-interactive) proof bound to a byte context.

    `_wire` holds the proof's bytes, its first message and the rest, as
    `read_proof` read them or `ni_prove` encoded them, so a proof is never
    encoded twice.  It is not an init field: `dataclasses.replace` makes a
    proof without it, which is encoded from its fields when needed.
    """

    first: SigmaFirst
    challenge: int
    response: SigmaResponse
    context_digest: bytes
    _wire: tuple[bytes, bytes] | None = field(default=None, init=False, repr=False, compare=False)


def check_witness(stmt: CdsStatement, wit: CdsWitness) -> bool:
    if not 0 <= wit.row < len(stmt.rows):
        return False
    row = stmt.rows[wit.row]
    if len(wit.exps) != len(row):
        return False
    return all(
        stmt.params.pow_unchecked(base, r) == target
        for (base, target), r in zip(row, wit.exps)
    )


# A target's opening (B, r), target = B^r; a prover's hint maps targets to them.
Opening = tuple[int, int]
Openings = Mapping[int, Opening]


def _sim_alpha(
    params: GroupParams,
    base: int,
    target: int,
    beta_i: int,
    gamma: int,
    opening: Opening | None = None,
) -> int:
    """alpha = base^gamma / target^beta_i, so the cell equation holds.

    With the target's opening (B, r), target^beta_i is B^(r * beta_i): a
    power of the cell's own base folds into one power, base^(gamma - beta_i
    * r), and any other B is raised on its own.  The element is the same;
    only B being a fixed base (with a table) makes it cheaper.  Without an
    opening the target is its own: (target, 1).
    """
    t_base, r = opening or (target, 1)
    if t_base == base:
        return params.pow_unchecked(base, gamma - beta_i * r)
    return params.pow_unchecked(base, gamma) * params.pow_unchecked(t_base, -beta_i * r) % params.q


def _build_first(
    stmt: CdsStatement,
    wit: CdsWitness,
    nonces: tuple[int, ...],
    sims: dict[int, tuple[int, tuple[int, ...]]],
    openings: Openings | None = None,
) -> SigmaFirst:
    # A simulated cell's opening: None without a hint, a KeyError if the hint lacks it.
    opening = {}.get if openings is None else openings.__getitem__
    alphas = []
    for i, row in enumerate(stmt.rows):
        if i == wit.row:
            alphas.append(
                tuple(stmt.params.pow_unchecked(base, s) for (base, _), s in zip(row, nonces))
            )
        else:
            beta_i, gammas = sims[i]
            try:
                alphas.append(
                    tuple(
                        _sim_alpha(stmt.params, base, target, beta_i, g, opening(target))
                        for (base, target), g in zip(row, gammas)
                    )
                )
            except KeyError:
                raise ParameterError(f"the openings lack a target of row {i}") from None
    return SigmaFirst(alphas=tuple(alphas))


def _build_response(
    stmt: CdsStatement,
    wit: CdsWitness,
    nonces: tuple[int, ...],
    sims: dict[int, tuple[int, tuple[int, ...]]],
    beta: int,
) -> SigmaResponse:
    p = stmt.params.p
    beta_real = (beta - sum(b for b, _ in sims.values())) % p
    betas = []
    gammas = []
    for i, _ in enumerate(stmt.rows):
        if i == wit.row:
            betas.append(beta_real)
            gammas.append(tuple((s + beta_real * r) % p for s, r in zip(nonces, wit.exps)))
        else:
            beta_i, sim_gammas = sims[i]
            betas.append(beta_i)
            gammas.append(sim_gammas)
    return SigmaResponse(betas=tuple(betas), gammas=tuple(gammas))


def cds_prove_first(
    stmt: CdsStatement,
    wit: CdsWitness,
    rng: random.Random,
    openings: Openings | None = None,
) -> tuple[SigmaFirst, ProverState]:
    """Real-row alphas use fresh nonces; every other row is simulated.

    `openings`, if given, maps the target of every simulated cell to its
    opening (see `_sim_alpha`), so those alphas need only powers of the
    openings' bases.  The alphas, and the nonces, betas and gammas drawn
    from `rng` in the same order, are those of a run without it.  A hint
    lacking a simulated cell's target raises `ParameterError`; the openings
    themselves are trusted, and a wrong one makes a proof that does not
    verify.
    """
    if not check_witness(stmt, wit):
        raise ParameterError("witness does not satisfy its statement row")
    p = stmt.params.p
    nonces = tuple(rng.randrange(1, p + 1) for _ in stmt.rows[wit.row])
    sims = {
        i: (rng.randrange(p), tuple(rng.randrange(p) for _ in row))
        for i, row in enumerate(stmt.rows)
        if i != wit.row
    }
    first = _build_first(stmt, wit, nonces, sims, openings)
    return first, ProverState(stmt=stmt, wit=wit, nonces=nonces, sims=sims)


def cds_respond(state: ProverState, beta: int) -> SigmaResponse:
    if state.used:
        raise StateConsumed("prover state already consumed")
    if not 1 <= beta <= state.stmt.params.p:
        raise ParameterError(f"challenge out of range: {beta}")
    state.used = True
    return _build_response(state.stmt, state.wit, state.nonces, state.sims, beta)


def _well_formed(stmt: CdsStatement, first: SigmaFirst, beta: int, resp: SigmaResponse) -> bool:
    """The checks that come before the cell equations: shape (raises
    ShapeMismatch), challenge range (raises ParameterError), the range of
    every alpha, beta and gamma, and the betas summing to the challenge."""
    params = stmt.params
    shape = stmt.shape
    if (
        tuple(map(len, first.alphas)) != shape
        or tuple(map(len, resp.gammas)) != shape
        or len(resp.betas) != len(shape)
    ):
        raise ShapeMismatch("proof components do not match statement shape")
    if not 1 <= beta <= params.p:
        raise ParameterError(f"challenge out of range: {beta}")
    p, q = params.p, params.q
    # Rows are nonempty, as the statement's are, so min and max per row
    # scan them in C.
    if min(resp.betas) < 0 or max(resp.betas) >= p:
        return False
    if min(map(min, resp.gammas)) < 0 or max(map(max, resp.gammas)) >= p:
        return False
    if min(map(min, first.alphas)) < 1 or max(map(max, first.alphas)) >= q:
        return False
    return sum(resp.betas) % p == beta % p


def cds_verify(stmt: CdsStatement, first: SigmaFirst, beta: int, resp: SigmaResponse) -> bool:
    """The reference verifier: every cell's equation base^gamma = alpha *
    target^beta_i, one cell at a time."""
    if not _well_formed(stmt, first, beta, resp):
        return False
    params, q = stmt.params, stmt.params.q
    for row, alpha_row, beta_i, gamma_row in zip(stmt.rows, first.alphas, resp.betas, resp.gammas):
        for (base, target), alpha, gamma in zip(row, alpha_row, gamma_row):
            if params.pow_unchecked(base, gamma) != alpha * params.pow_unchecked(target, beta_i) % q:
                return False
    return True


def cds_extract(
    stmt: CdsStatement,
    first: SigmaFirst,
    transcript1: tuple[int, SigmaResponse],
    transcript2: tuple[int, SigmaResponse],
) -> CdsWitness:
    """Special soundness: two accepting transcripts with one first message
    and distinct challenges yield a witness for some row.

    The exponent is (gamma - gamma') / (beta_i - beta_i') mod p, the sign
    for which base^r = target actually holds; the result is asserted.
    """
    beta1, resp1 = transcript1
    beta2, resp2 = transcript2
    p = stmt.params.p
    if beta1 % p == beta2 % p:
        raise ExtractionError("challenges must be distinct")
    if not cds_verify(stmt, first, beta1, resp1) or not cds_verify(stmt, first, beta2, resp2):
        raise ExtractionError("both transcripts must verify")
    for i, _ in enumerate(stmt.rows):
        if resp1.betas[i] != resp2.betas[i]:
            inv = stmt.params.exp_inv(resp1.betas[i] - resp2.betas[i])
            exps = tuple(
                (g1 - g2) * inv % p for g1, g2 in zip(resp1.gammas[i], resp2.gammas[i])
            )
            wit = CdsWitness(row=i, exps=exps)
            if not check_witness(stmt, wit):
                raise ExtractionError("extracted exponents failed the row check")
            return wit
    raise ExtractionError("no row with differing per-row challenges")


def cds_simulate(
    stmt: CdsStatement, beta: int, rng: random.Random
) -> tuple[SigmaFirst, SigmaResponse]:
    """Honest-verifier simulator: accepting transcripts without any witness.

    For a uniformly drawn challenge the joint output distribution equals an
    honest run's exactly.
    """
    params = stmt.params
    if not 1 <= beta <= params.p:
        raise ParameterError(f"challenge out of range: {beta}")
    p = params.p
    k = len(stmt.rows)
    betas = [rng.randrange(p) for _ in range(k - 1)]
    betas.append((beta - sum(betas)) % p)
    gammas = tuple(tuple(rng.randrange(p) for _ in row) for row in stmt.rows)
    alphas = tuple(
        tuple(
            _sim_alpha(params, base, target, beta_i, gamma)
            for (base, target), gamma in zip(row, gamma_row)
        )
        for row, beta_i, gamma_row in zip(stmt.rows, betas, gammas)
    )
    return SigmaFirst(alphas=alphas), SigmaResponse(betas=tuple(betas), gammas=gammas)


# -- Fiat-Shamir --------------------------------------------------------------


def fiat_shamir_challenge(params: GroupParams, context: bytes) -> int:
    """Hash the context to a challenge in {1, ..., p}.

    Interprets 2*bit_length(p) hash bits as an integer, reduces mod p, and
    maps 0 to p; the double-width read keeps the bias below 2^-bit_length(p).
    The counter only advances on an all-zero hash read, which never happens
    in practice.  Block k of counter c is sha256(context || c || k), each a
    copy of one pass over the context.
    """
    nbits = 2 * params.p.bit_length()
    nbytes = (nbits + 7) // 8
    absorbed = hashlib.sha256(context)
    for counter in range(1000):
        out = bytearray()
        for block in range(-(-nbytes // 32)):
            h = absorbed.copy()
            h.update(counter.to_bytes(4, "big") + block.to_bytes(4, "big"))
            out += h.digest()
        t = int.from_bytes(out[:nbytes], "big") >> (8 * nbytes - nbits)
        if t == 0:
            continue
        c = t % params.p
        return params.p if c == 0 else c
    raise ParameterError("challenge derivation failed")  # pragma: no cover


def ni_prove(
    stmt: CdsStatement,
    wit: CdsWitness,
    context: bytes,
    rng: random.Random,
    openings: Openings | None = None,
) -> NiProof:
    """`openings`: the simulated cells' targets opened, as for
    `cds_prove_first`; the proof is the same with or without them."""
    first, state = cds_prove_first(stmt, wit, rng, openings)
    first_bytes = encode_first(first)
    challenge = fiat_shamir_challenge(stmt.params, context + first_bytes)
    response = cds_respond(state, challenge)
    proof = NiProof(
        first=first,
        challenge=challenge,
        response=response,
        context_digest=hashlib.sha256(context).digest(),
    )
    object.__setattr__(proof, "_wire", (first_bytes, _encode_response(proof)))
    return proof


def ni_verify(stmt: CdsStatement, proof: NiProof, context: bytes) -> bool:
    """One proof, through `ni_verify_all`."""
    return ni_verify_all([(stmt, proof, context)])


def ni_verify_all(items: Sequence[tuple[CdsStatement, NiProof, bytes]]) -> bool:
    """True iff every (statement, proof, context) verifies; the statements
    must share one group.

    Each proof's challenge is recomputed from its context, so a context
    mismatch is just a verification failure, never an oracle.  Then, in
    order, each proof's shape, ranges and challenge sum are checked.  In a
    group whose p has BATCH_BITS bits or more, the cell equations of all
    the proofs are checked at once (`_batch_holds`); below it, one cell at
    a time through `cds_verify`.  The challenge and the batch weights hash
    each proof's own bytes (`NiProof._wire`), not a fresh encoding.
    """
    if not items:
        return True
    params = items[0][0].params
    batch = params.p.bit_length() >= BATCH_BITS
    encoded = []  # each proof's bytes, which the batch weights are drawn from
    for stmt, proof, context in items:
        if stmt.params != params:
            raise ParameterError("a batch of proofs must share one group")
        if hashlib.sha256(context).digest() != proof.context_digest:
            return False
        first, rest = _wire_bytes(proof)
        if fiat_shamir_challenge(params, context + first) != proof.challenge:
            return False
        check = _well_formed if batch else cds_verify
        try:
            if not check(stmt, proof.first, proof.challenge, proof.response):
                return False
        except (ShapeMismatch, ParameterError):
            return False
        if batch:
            encoded += (first, rest)
    return not batch or _batch_holds(params, items, b"".join(encoded))


def _batch_weights(proof_bytes: bytes, count: int) -> list[int]:
    """`count` WEIGHT_BITS-bit weights, SHA-256 in counter mode over a
    digest of the domain tag and every proof's bytes."""
    seed = hashlib.sha256(_BATCH_TAG + proof_bytes).digest()
    size = WEIGHT_BITS // 8
    stream = b"".join(
        hashlib.sha256(seed + block.to_bytes(4, "big")).digest()
        for block in range(-(-count * size // 32))
    )
    return [int.from_bytes(stream[k : k + size], "big") for k in range(0, count * size, size)]


def _batch_holds(params: GroupParams, items, proof_bytes: bytes) -> bool:
    """Every cell equation base^gamma = alpha * target^beta_i of every
    proof, as one small-exponent test (Bellare-Garay-Rabin, EUROCRYPT 1998):
    with a weight w per cell, one `multi_pow` over every alpha, base and
    target checks

        prod of alpha^w * prod over elements x of x^(e_x mod p) == 1,

    where e_x sums w * beta_i over the cells whose target is x, less w * gamma
    over the cells whose base is x (an element can be both).  A false cell
    slips through with probability about 2^-WEIGHT_BITS, since the weights
    come from a hash of the proofs, which carry each context digest and so
    bind the statements.  The test is only sound in the order-p group, so
    every alpha is checked for membership first: alpha and q - alpha differ
    by the factor -1, which an even weight hides.  Bases and targets are
    members by the statement's contract, so their exponents are reduced
    mod p, the negative ones with them.
    """
    p = params.p
    alphas = [a for _, proof, _ in items for row in proof.first.alphas for a in row]
    if not all(params.is_member(a) for a in alphas):
        return False
    weights = _batch_weights(proof_bytes, len(alphas))
    exps: dict[int, int] = {}  # element -> sum of w * beta_i - sum of w * gamma
    n = 0
    for stmt, proof, _ in items:
        resp = proof.response
        for row, beta_i, gamma_row in zip(stmt.rows, resp.betas, resp.gammas):
            for (base, target), gamma in zip(row, gamma_row):
                w = weights[n]
                n += 1
                exps[base] = exps.get(base, 0) - w * gamma
                exps[target] = exps.get(target, 0) + w * beta_i
    pairs = list(zip(alphas, weights))
    pairs += [(x, e % p) for x, e in exps.items()]
    return params.multi_pow(pairs) == 1


# -- wire encodings ------------------------------------------------------------


@lru_cache(maxsize=256)  # plans have few shapes; a hit costs a tuple hash
def encode_shape(shape: tuple[int, ...]) -> bytes:
    return encode_u16(len(shape)) + b"".join(encode_u16(w) for w in shape)


def encode_statement(stmt: CdsStatement, encoded: Mapping[int, bytes]) -> bytes:
    """The shape, then each cell's base and target; `encoded` maps every
    element of the statement to its `encode_uint`, so a caller encodes each
    element once, however many cells share it."""
    cells = [encoded[x] for row in stmt.rows for cell in row for x in cell]
    return encode_shape(stmt.shape) + b"".join(cells)


def encode_first(first: SigmaFirst) -> bytes:
    shape = tuple(map(len, first.alphas))
    return encode_shape(shape) + b"".join(
        encode_uint(a) for row in first.alphas for a in row
    )


def _wire_bytes(proof: NiProof) -> tuple[bytes, bytes]:
    """The proof's first message and the rest of its body: the bytes it was
    read from or made with, else encoded from its fields."""
    return proof._wire or (encode_first(proof.first), _encode_response(proof))


def encode_proof(proof: NiProof) -> bytes:
    return b"".join(_wire_bytes(proof))


def encode_sized_proof(proof: NiProof) -> bytes:
    """A proof behind its 4-byte length, as bundles and coin messages carry it."""
    first, rest = _wire_bytes(proof)
    return (len(first) + len(rest)).to_bytes(4, "big") + first + rest


def sized_proof_bytes(shape: tuple[int, ...], e: int) -> int:
    """The longest `encode_sized_proof` of this shape, with integers of up
    to `e` encoded bytes: length, shape, alphas, challenge, betas, gammas,
    digest."""
    rows, cells = len(shape), sum(shape)
    return 4 + 2 + 2 * rows + (2 * cells + 1 + rows) * e + 32


def _encode_response(proof: NiProof) -> bytes:
    """The bytes of `proof` after its first message."""
    out = [encode_uint(proof.challenge)]
    out.extend(encode_uint(b) for b in proof.response.betas)
    out.extend(encode_uint(g) for row in proof.response.gammas for g in row)
    out.append(proof.context_digest)
    return b"".join(out)


def _rows(flat: list[int], widths: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    rows, n = [], 0
    for w in widths:
        rows.append(tuple(flat[n : n + w]))
        n += w
    return tuple(rows)


def read_proof(r: Reader, params: GroupParams, shape: tuple[int, ...]) -> NiProof:
    """Strict decode against an expected statement shape.  Each field's
    integers are one `Reader.uints` run, so an integer out of range is named
    at its own end; the proof keeps the bytes it was read from."""
    begin = r.off
    if r.take(2 + 2 * len(shape)) != encode_shape(shape):
        raise CodecError("proof shape differs from statement", offset=begin)
    q, p = params.q, params.p
    cells = sum(shape)
    alphas = r.uints(cells, 1, q - 1, "alpha")
    mid = r.off
    (challenge,) = r.uints(1, 1, p, "challenge")
    betas = tuple(r.uints(len(shape), 0, p - 1, "per-row challenge"))
    gammas = r.uints(cells, 0, p - 1, "gamma")
    digest = r.take(32)
    proof = NiProof(
        first=SigmaFirst(alphas=_rows(alphas, shape)),
        challenge=challenge,
        response=SigmaResponse(betas=betas, gammas=_rows(gammas, shape)),
        context_digest=digest,
    )
    object.__setattr__(proof, "_wire", (r.buf[begin:mid], r.buf[mid : r.off]))
    return proof


def read_sized_proof(r: Reader, params: GroupParams, shape: tuple[int, ...]) -> NiProof:
    """Strict decode of an `encode_sized_proof`, in place."""
    span = r.span()
    proof = read_proof(span, params, shape)
    span.finish()
    return proof
