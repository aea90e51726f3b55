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
cell.  `ni_verify_all`, which every proof bundle goes through, checks
proofs' contexts, challenges, shapes, ranges and challenge sums as they
come, then hands their cell equations to the run's `Batch`, which takes
every opening of a reveal too and alone decides when a term is checked.
A weight only matters mod p, so a false cell would pass a batched check
about one time in p (one in 11 at q = 23): below BATCH_BITS bits of p each
term is checked exactly as it comes.  From there up the batch tests each
alpha's membership (a Jacobi symbol) as its proof comes, and defers the
terms to one small-exponent check (Bellare-Garay-Rabin): a hashed 128-bit
weight per term and one `GroupParams.multi_pow` over the alphas and the
distinct bases, targets and commitments, against the identity, one chain
of squarings for a whole log.  Either way a false term fails at the
message, and with the error, that checking each message in full as it
comes would give.

Proving.  Every row but the real one is simulated: it draws a beta_i and
its gammas and sets alpha = base^gamma * target^(-beta_i) (Cramer-Damgard-
Schoenmakers), a variable-base power per cell.  A prover that made the
targets itself can pass their openings as a hint: target -> (B, r) with
target = B^r and B a fixed base (g or h), covering every simulated cell's
target.  Then alpha = base^(gamma - beta_i * r) when B is the cell's base,
one table power, and base^gamma * B^(-beta_i * r) otherwise, two.  That is
the same group element, so the proof's bytes, and the rng draws behind
them, do not change; only how a simulated alpha is computed does.  The
real row is checked against the hint too: a cell whose target it opens as
(base, exponent) holds without a power, so a hinted prover raises only
its nonces and its simulated cells.  Without a hint each real cell's base
is raised to its exponent once, to refuse a witness that does not hold.

Bytes.  A first message is the tuple of its rows of alphas, one per
statement row.  A proof keeps the bytes `read_proof` read it from or
`ni_prove` encoded it into: `ni_verify_all` hashes them for the challenge
and the batch weights, and `encode_sized_proof` sends them, so no proof is
encoded twice or re-encoded after decoding.  `read_proof` reads each field
as one run, the alphas by `GroupParams.read_elements`, which alone reads
and writes elements.  `encode_statement` joins element encodings its caller
made once, however many cells share an element.
"""

from __future__ import annotations

import hashlib
import random
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from functools import lru_cache

from .codec import Reader, encode_u8, encode_u16, encode_uint, encode_uints
from .errors import (
    CodecError,
    ExtractionError,
    ParameterError,
    ShapeMismatch,
    StateConsumed,
    VerificationFailed,
)
from .group import GroupParams

# From this many bits of p up, a `Batch` defers its terms to one check with
# WEIGHT_BITS-bit weights.
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
        identity = self.params.identity
        for row in self.rows:
            if not row:
                raise ParameterError("statement rows must be nonempty")
            for base, target in row:
                if base == identity or target == identity:
                    raise ParameterError("bases and targets must differ from the identity")

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(map(len, self.rows))


@dataclass(frozen=True)
class CdsWitness:
    row: int
    exps: tuple[int, ...]


# A first message: its alphas, one row per statement row.
SigmaFirst = tuple[tuple[int, ...], ...]


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
    sims: dict[int, tuple[int, tuple[int, ...]]]
    used: bool = field(default=False, init=False)


@dataclass(frozen=True)
class NiProof:
    """A Fiat-Shamir (non-interactive) proof bound to a byte context.

    `_wire` holds the proof's bytes, its first message and the rest, as
    `read_proof` read them or `ni_prove` encoded them, so a proof is never
    encoded twice.  It is not an init field: `dataclasses.replace` makes a
    proof without it, which can be neither encoded nor verified.
    """

    first: SigmaFirst
    challenge: int
    response: SigmaResponse
    context_digest: bytes
    _wire: tuple[bytes, bytes] | None = field(default=None, init=False, repr=False, compare=False)


# A target's opening (B, r), target = B^r; a prover's hint maps targets to them.
Opening = tuple[int, int]
Openings = Mapping[int, Opening]


def check_witness(stmt: CdsStatement, wit: CdsWitness, openings: Openings | None = None) -> bool:
    """Whether base^r = target for every cell of the witness's row.  A cell
    whose target `openings` opens as (base, r) holds without a power; any
    other is raised, as every cell is without openings."""
    if not 0 <= wit.row < len(stmt.rows):
        return False
    row = stmt.rows[wit.row]
    if len(wit.exps) != len(row):
        return False
    opened = (openings or {}).get
    return all(
        opened(target) == (base, r) or stmt.params.pow_unchecked(base, r) == target
        for (base, target), r in zip(row, wit.exps)
    )


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
    return params.mul(params.pow_unchecked(base, gamma), params.pow_unchecked(t_base, -beta_i * r))


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
    return tuple(alphas)


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
    openings' bases.  The witness is checked against it too: a real cell
    whose target it opens as (base, exponent) needs no power, and only a
    cell it opens otherwise is raised.  The alphas, and the nonces, betas
    and gammas drawn from `rng` in the same order, are those of a run
    without it.  A witness that does not satisfy its row, or a hint lacking
    a simulated cell's target, raises `ParameterError`; the openings
    themselves are trusted, and a wrong one makes a proof that does not
    verify.
    """
    if not check_witness(stmt, wit, openings):
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
        tuple(map(len, first)) != shape
        or tuple(map(len, resp.gammas)) != shape
        or len(resp.betas) != len(shape)
    ):
        raise ShapeMismatch("proof components do not match statement shape")
    if not 1 <= beta <= params.p:
        raise ParameterError(f"challenge out of range: {beta}")
    p = params.p
    # Rows are nonempty, as the statement's are, so min and max per row
    # scan them in C.
    if min(resp.betas) < 0 or max(resp.betas) >= p:
        return False
    if min(map(min, resp.gammas)) < 0 or max(map(max, resp.gammas)) >= p:
        return False
    if not params.in_range(first):
        return False
    return sum(resp.betas) % p == beta % p


def cds_verify(stmt: CdsStatement, first: SigmaFirst, beta: int, resp: SigmaResponse) -> bool:
    """The reference verifier: every cell's equation base^gamma = alpha *
    target^beta_i, one cell at a time."""
    return _well_formed(stmt, first, beta, resp) and _cells_hold(stmt, first, resp)


def _cells_hold(stmt: CdsStatement, first: SigmaFirst, resp: SigmaResponse) -> bool:
    """`cds_verify`'s cell loop, for a well-formed proof."""
    params = stmt.params
    for row, alpha_row, beta_i, gamma_row in zip(stmt.rows, first, resp.betas, resp.gammas):
        for (base, target), alpha, gamma in zip(row, alpha_row, gamma_row):
            if params.pow_unchecked(base, gamma) != params.mul(alpha, params.pow_unchecked(target, beta_i)):
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
    return alphas, SigmaResponse(betas=tuple(betas), gammas=gammas)


# -- Fiat-Shamir --------------------------------------------------------------


def fiat_shamir_challenge(params: GroupParams, context: bytes) -> int:
    """Hash the context to a challenge in {1, ..., p}.

    Interprets 2*bit_length(p) hash bits as an integer, reduces mod p, and
    maps 0 to p; the double-width read keeps the bias below 2^-bit_length(p).
    The counter only advances on an all-zero hash read, which never happens
    in practice.  Block k of counter c is sha256(context || c || k), each a
    copy of one pass over the context.
    """
    return _challenge(params, hashlib.sha256(context))


def _challenge(params: GroupParams, absorbed) -> int:
    """`fiat_shamir_challenge` of the context hashed into `absorbed`."""
    nbits = 2 * params.p.bit_length()
    nbytes = (nbits + 7) // 8
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
    first_bytes = encode_first(stmt.params, first)
    absorbed = hashlib.sha256(context)  # one pass: the digest, then the challenge
    context_digest = absorbed.copy().digest()
    absorbed.update(first_bytes)
    challenge = _challenge(stmt.params, absorbed)
    proof = NiProof(
        first=first,
        challenge=challenge,
        response=cds_respond(state, challenge),
        context_digest=context_digest,
    )
    object.__setattr__(proof, "_wire", (first_bytes, _encode_response(proof)))
    return proof


def ni_verify(stmt: CdsStatement, proof: NiProof, context: bytes) -> bool:
    """One proof, through `ni_verify_all`."""
    return ni_verify_all([(stmt, proof, context)])


def ni_verify_all(
    items: Sequence[tuple[CdsStatement, NiProof, bytes]], batch: Batch | None = None
) -> bool:
    """True iff every (statement, proof, context) verifies; the statements
    must share one group, `batch`'s if one is given.

    Each proof's challenge is recomputed from its context, so a context
    mismatch is just a verification failure, never an oracle.  Then, in
    order, each proof's shape, ranges and challenge sum are checked; then
    their cell equations join `batch` as one unit, checked now or later
    (see `Batch`), or a batch of their own, settled before this returns.
    The challenge hashes each proof's own bytes (`NiProof._wire`).
    """
    if not items:
        return True
    own = batch is None
    if own:
        batch = Batch(items[0][0].params)
    params = batch.params
    for stmt, proof, context in items:
        if stmt.params != params:
            raise ParameterError("a batch of proofs must share one group")
        absorbed = hashlib.sha256(context)
        if absorbed.copy().digest() != proof.context_digest:
            return False
        absorbed.update(proof._wire[0])
        if _challenge(params, absorbed) != proof.challenge:
            return False
        try:
            if not _well_formed(stmt, proof.first, proof.challenge, proof.response):
                return False
        except (ShapeMismatch, ParameterError):
            return False
    return batch.add_proofs(items) and (not own or batch.holds())


# A term owed to a batch, one unit of the search for a failure: (index its
# failure names, its bytes behind their length, weights it takes, and a
# list of the (statement, proof, context) items of a proof bundle or the
# tuple (value, base, r) of an opening value = base^r).
_Unit = tuple[int | None, bytes, int, object]


class Batch:
    """The cell equations and openings one verification run owes; it alone
    decides when each is checked (see the module docstring).

    `ni_verify_all` adds a proof bundle's cell equations as one unit and
    `commitments.reveal_int` each opening, in groups, one per message or
    coin pair, that `begin` starts with the failure it names.  Below
    BATCH_BITS a unit is checked as it is added and a false one fails at
    once, as the proofs' other checks do.  From BATCH_BITS up it is
    pending: `check` tests every pending unit at once (`_batch_holds`) and,
    only if that fails, searches for the first false unit: the groups
    before the newest merged, then unit by unit the part that fails (an
    opening by itself, with one power).  A failure found later in the run
    calls `check` first, so a pending false unit is named before it.
    """

    def __init__(self, params: GroupParams):
        self.params = params
        self.deferred = params.p.bit_length() >= BATCH_BITS
        self._failure: tuple[str, str] | None = None  # (phase, detail) of the current group
        self._index: int | None = None  # the index it names
        self._groups: list[tuple[tuple[str, str], list[_Unit]]] = []
        self._fresh = True  # the next unit starts a group

    def begin(self, phase: str, detail: str, index: int | None = None) -> None:
        """The next terms start a group.  A false unit of it fails as
        VerificationFailed(phase, detail) at `index`, or, for an opening,
        at the index it was added with."""
        self._failure = (phase, detail)
        self._index = index
        self._fresh = True

    def add_proofs(self, items) -> bool:
        """The cell equations of proofs whose other checks passed, as one
        unit: below BATCH_BITS checked now, cell by cell, from BATCH_BITS up
        pending once its alphas are members.  False if a check made now
        fails, which the caller fails like the proofs' other checks."""
        if not self.deferred:
            return all(_cells_hold(stmt, proof.first, proof.response) for stmt, proof, _ in items)
        # The batch is only sound in the order-p group: alpha and q - alpha
        # differ by the factor -1, which an even weight hides.
        alphas = [a for _, proof, _ in items for row in proof.first for a in row]
        if not all(self.params.is_member(a) for a in alphas):
            return False
        data = b"".join(part for _, proof, _ in items for part in proof._wire)
        self._defer(self._index, data, len(alphas), list(items))
        return True

    def add_opening(self, value: int, base: int, bit: int, r: int, index: int | None) -> None:
        """value = base^r, where `bit` names base: below BATCH_BITS checked
        now, a false one failing the group at `index`; from BATCH_BITS up
        pending, as the term value^w * base^(-w * r), weighted by the
        commitment's and the opening's encodings."""
        if self.deferred:
            data = self.params.encode_element(value) + encode_u8(bit) + encode_uint(r)
            self._defer(index, data, 1, (value, base, r))
        elif self.params.pow_unchecked(base, r) != value:
            self.reject(index)

    def _defer(self, index: int | None, data: bytes, count: int, terms) -> None:
        if self._fresh:
            self._groups.append((self._failure, []))
            self._fresh = False
        self._groups[-1][1].append((index, len(data).to_bytes(4, "big") + data, count, terms))

    def _take(self) -> list[tuple[tuple[str, str], list[_Unit]]]:
        groups, self._groups, self._fresh = self._groups, [], True
        return groups

    def holds(self) -> bool:
        """Whether every pending term holds, in one check; clears them."""
        units = [unit for _, group in self._take() for unit in group]
        return not units or _batch_holds(self.params, units)

    def check(self) -> None:
        """Check every pending term at once; raise the first false one's
        failure.  Clears them."""
        if self._groups:
            groups = self._take()
            if not _batch_holds(self.params, [u for _, group in groups for u in group]):
                raise self._first_false(groups)

    def reject(self, index: int | None = None) -> None:
        """Fail the current group at `index`, or at the index `begin` gave
        it, after any pending failure."""
        self.check()
        raise VerificationFailed(*self._failure, self._index if index is None else index)

    def _first_false(self, groups) -> Exception:
        """The failure of the first false unit of `groups`, which were
        checked together and failed."""
        *head, (failure, newest) = groups
        if head and not _batch_holds(self.params, [u for _, group in head for u in group]):
            return self._unit_by_unit(head)
        return self._unit_by_unit([(failure, newest)])

    def _unit_by_unit(self, groups) -> Exception:
        """The failure of the first false unit of `groups`, which hold one."""
        units = [(failure, unit) for failure, group in groups for unit in group]
        for failure, unit in units[:-1]:
            if isinstance(unit[3], tuple):
                value, base, r = unit[3]
                holds = self.params.pow_unchecked(base, r) == value
            else:
                holds = _batch_holds(self.params, [unit])
            if not holds:
                return VerificationFailed(*failure, unit[0])
        failure, unit = units[-1]
        return VerificationFailed(*failure, unit[0])


def _batch_weights(seed: bytes, count: int) -> list[int]:
    """`count` WEIGHT_BITS-bit weights, SHA-256 in counter mode over `seed`."""
    size = WEIGHT_BITS // 8
    stream = b"".join(
        hashlib.sha256(seed + block.to_bytes(4, "big")).digest()
        for block in range(-(-count * size // 32))
    )
    return [int.from_bytes(stream[k : k + size], "big") for k in range(0, count * size, size)]


def _batch_holds(params: GroupParams, units: Sequence[_Unit]) -> bool:
    """Every term of `units` as one small-exponent test: with a weight w per
    cell and per opening, one `multi_pow` checks

        prod of alpha^w * prod over elements x of x^(e_x mod p) = identity.

    A cell base^gamma = alpha * target^beta_i adds w * beta_i to its
    target's exponent and takes w * gamma from its base's; an opening
    value = B^r adds w to its value's and takes w * r from B's.  An element
    can be all of these, and a full exponent on g, h or a commitment is
    paid once however many terms share it.  A false term slips through with
    probability about 2^-WEIGHT_BITS, since the weights come from a hash of
    every unit's bytes: the proofs carry their context digests, which bind
    the statements, and an opening carries its commitment and its bit,
    which names B.  The test is only sound in the order-p group: every
    alpha was checked for membership as its proof came in, and bases,
    targets and committed values are members by contract, so their
    exponents are reduced mod p, the negative ones with them.
    """
    p = params.p
    seed = hashlib.sha256(_BATCH_TAG + b"".join(data for _, data, _, _ in units)).digest()
    weights = iter(_batch_weights(seed, sum(count for _, _, count, _ in units)))
    pairs = []  # (alpha, w) per cell
    exps: dict[int, int] = {}  # element -> its exponent, unreduced
    for _, _, _, terms in units:
        if isinstance(terms, tuple):  # an opening
            value, base, r = terms
            w = next(weights)
            exps[value] = exps.get(value, 0) + w
            exps[base] = exps.get(base, 0) - w * r
            continue
        for stmt, proof, _ in terms:
            resp = proof.response
            for row, alpha_row, beta_i, gamma_row in zip(
                stmt.rows, proof.first, resp.betas, resp.gammas
            ):
                for (base, target), alpha, gamma in zip(row, alpha_row, gamma_row):
                    w = next(weights)
                    pairs.append((alpha, w))
                    exps[base] = exps.get(base, 0) - w * gamma
                    exps[target] = exps.get(target, 0) + w * beta_i
    pairs += [(x, e % p) for x, e in exps.items()]
    return params.multi_pow(pairs) == params.identity


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


def encode_first(params: GroupParams, first: SigmaFirst) -> bytes:
    shape = tuple(map(len, first))
    return encode_shape(shape) + params.encode_elements(a for row in first for a in row)


def encode_proof(proof: NiProof) -> bytes:
    return b"".join(proof._wire)


def encode_sized_proof(proof: NiProof) -> bytes:
    """A proof behind its 4-byte length, as bundles and coin messages carry it."""
    first, rest = proof._wire
    return (len(first) + len(rest)).to_bytes(4, "big") + first + rest


def sized_proof_bytes(shape: tuple[int, ...], e: int) -> int:
    """The longest `encode_sized_proof` of this shape, with integers of up
    to `e` encoded bytes: length, shape, alphas, challenge, betas, gammas,
    digest."""
    rows, cells = len(shape), sum(shape)
    return 4 + 2 + 2 * rows + (2 * cells + 1 + rows) * e + 32


def _encode_response(proof: NiProof) -> bytes:
    """The bytes of `proof` after its first message."""
    resp = proof.response
    ints = [proof.challenge, *resp.betas, *(g for row in resp.gammas for g in row)]
    return encode_uints(ints) + proof.context_digest


def _rows(flat: list[int], widths: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    rows, n = [], 0
    for w in widths:
        rows.append(tuple(flat[n : n + w]))
        n += w
    return tuple(rows)


def read_proof(r: Reader, params: GroupParams, shape: tuple[int, ...]) -> NiProof:
    """Strict decode against an expected statement shape.  Each field is
    one run, the alphas `params.read_elements` and each other field's
    integers one `Reader.uints`, so a value out of range is named at its
    own end; the proof keeps the bytes it was read from."""
    begin = r.off
    if r.take(2 + 2 * len(shape)) != encode_shape(shape):
        raise CodecError("proof shape differs from statement", offset=begin)
    p = params.p
    cells = sum(shape)
    alphas = params.read_elements(r, cells, "alpha")
    mid = r.off
    (challenge,) = r.uints(1, 1, p, "challenge")
    betas = tuple(r.uints(len(shape), 0, p - 1, "per-row challenge"))
    gammas = r.uints(cells, 0, p - 1, "gamma")
    digest = r.take(32)
    proof = NiProof(
        first=_rows(alphas, shape),
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
