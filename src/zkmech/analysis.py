"""Executable checks of the framework's meta-claims at desk scale.

Brute-force incentive checking over finite mechanisms (exact rational
arithmetic), the two-part-pricing incentive lemma, truncated two-sided
geometric noise and its privacy ratio report, weighted-welfare transfer
inversion, exact real-versus-simulated transcript distribution
comparison for the hiding claim, and a rewinding extraction driver that
turns inconsistent seller strategies into discrete logarithms.

The hiding check covers ex1, ex1multi and ex2, whose runs are
commitments, reveals and bound proofs.  It reads the kind off the
mechanism, takes the evidence of each run from the case rules
(`owed_evidence`) and builds the real and the simulated world with one
loop, refusing a world of more than HIDING_BUDGET transcripts.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Callable

from .commitments import (
    BitOpening,
    IntCommitment,
    binding_break_to_dlog,
    commit_bit,
    commit_int,
    int_bits,
    verify_opening,
)
from .errors import (
    DegenerateValuation,
    EnumerationBudget,
    ParameterError,
    ShapeMismatch,
)
from .gadgets import Plan, bound_plan, plan_shapes, plan_statement, plan_witness
from .group import GroupParams, RefString
from .protocols import MechanismSpec, owed_evidence, width_of
from .sigma import (
    CdsStatement,
    CdsWitness,
    SigmaFirst,
    SigmaResponse,
    _build_first,
    _build_response,
    cds_extract,
    cds_prove_first,
    cds_verify,
)

# -- brute-force incentive checking -------------------------------------------


@dataclass(frozen=True)
class FiniteMechanism:
    """A finite direct-revelation mechanism with exact rational lotteries."""

    types: tuple
    outcomes: tuple
    table: dict
    utility: Callable

    def __post_init__(self):
        for t in self.types:
            dist = self.table[t]
            if sum(dist.values()) != 1:
                raise ParameterError(f"distribution for type {t!r} does not sum to 1")
            for x in dist:
                if x not in self.outcomes:
                    raise ParameterError(f"unknown outcome {x!r}")


def expected_utility(m: FiniteMechanism, true_type, report) -> Fraction:
    return sum(
        (Fraction(prob) * Fraction(m.utility(true_type, x)) for x, prob in m.table[report].items()),
        Fraction(0),
    )


def check_dsic_ir(m: FiniteMechanism) -> list[tuple]:
    """Empty iff the mechanism is exactly IR and strategyproof.

    IR is checked in expectation over the mechanism's own randomness.
    Each violation is ("IR", t, None) or ("DSIC", t, profitable_report).
    """
    violations = []
    for t in m.types:
        truthful = expected_utility(m, t, t)
        if truthful < 0:
            violations.append(("IR", t, None))
        for other in m.types:
            if other == t:
                continue
            if expected_utility(m, t, other) > truthful:
                violations.append(("DSIC", t, other))
    return violations


def two_part_mechanism(s1: int, s2: int, bound: int) -> FiniteMechanism:
    """The two-part pricing family as a finite mechanism.

    Values are a statement about the whole value line, so reports range
    over the half-integer grid {0, 1/2, ..., 2H - 1/2}: the coarsest
    exact grid on which every v/2-threshold is expressible and the
    classic profitable deviation to twice the base price always has a
    value strictly inside its window.  Integer-only reports would make
    adjacent price pairs vacuously incentive compatible.
    """
    types = tuple(Fraction(k, 2) for k in range(4 * bound))
    outcomes = ((0, 0), (0, s1), (1, s1), (1, s1 + s2))
    table = {}
    for v in types:
        half = v / 2
        if half < s1:
            table[v] = {(0, 0): Fraction(1)}
        elif half < s2:
            table[v] = {(1, s1): Fraction(1, 2), (0, s1): Fraction(1, 2)}
        else:
            table[v] = {(1, s1 + s2): Fraction(1)}
    return FiniteMechanism(
        types=types,
        outcomes=outcomes,
        table=table,
        utility=lambda v, x: Fraction(x[0] * v - x[1]),
    )


def ex3_ic_lemma_check(bound: int) -> bool:
    """True iff, over all price pairs, incentive violations vanish exactly
    when the base price is at most the top-up price."""
    if not 1 <= bound <= 32:
        raise ParameterError(f"lemma scan is intended for 1 <= H <= 32, got H={bound}")
    for s1 in range(bound):
        for s2 in range(bound):
            clean = not check_dsic_ir(two_part_mechanism(s1, s2, bound))
            if clean != (s1 <= s2):
                return False
    return True


# -- truncated two-sided geometric noise ----------------------------------------


@dataclass
class TruncatedGeometric:
    """Two-sided geometric noise, renormalized over a finite window.

    Pre-truncation mass at z is ((1-alpha)/(1+alpha)) * alpha^|z|; the
    window must be supplied explicitly.
    """

    alpha: float
    lo: int
    hi: int

    def __post_init__(self):
        if not 0 < self.alpha < 1:
            raise ParameterError("alpha = 1 - epsilon must lie strictly between 0 and 1")
        if self.lo > self.hi:
            raise ParameterError("degenerate window")
        self.support = list(range(self.lo, self.hi + 1))
        weights = [self.alpha ** abs(z) for z in self.support]
        total = math.fsum(weights)
        self._pmf = [w / total for w in weights]
        self._cum = []
        acc = 0.0
        for p in self._pmf:
            acc += p
            self._cum.append(acc)
        self._cum[-1] = 1.0

    def pmf(self, z: int) -> float:
        if not self.lo <= z <= self.hi:
            return 0.0
        return self._pmf[z - self.lo]

    def sample(self, rng: random.Random) -> int:
        return self.support[bisect_right(self._cum, rng.random())]


@dataclass
class NoiseReport:
    """The bins of a truncated noise window, and how closely its sampler
    tracks the pmf.

    A price shifted by `ell` changes each realized payment's probability
    by exactly the factor (1-epsilon)^ell in the interior bins, where both
    shifted distributions put geometric mass; the gap and boundary bins,
    where one of them has no geometric mass, are counted.
    """

    epsilon: float
    ell: int
    lo: int
    hi: int
    n_samples: int
    empirical_max_z: float

    # Payment y under base price 0 has mass pmf(y); under price ell it has
    # mass pmf(y - ell).  Normalizers cancel, so where both are geometric
    # (y >= ell) the log ratio is exactly ell * log(1 - epsilon): those bins
    # are counted, as are the gap bins 0 < y < ell between the two peaks.
    @property
    def interior_bins(self) -> int:
        return max(0, self.hi + 1 - max(self.lo + self.ell, self.ell))

    @property
    def gap_bins(self) -> int:
        return max(0, min(self.hi + 1, self.ell) - max(self.lo + self.ell, 1))

    @property
    def boundary_bins(self) -> int:
        return 2 * self.ell

    def lines(self) -> list[str]:
        return [
            "truncated geometric noise report",
            f"alpha={1.0 - self.epsilon}",
            f"epsilon={self.epsilon}",
            f"ell={self.ell}",
            f"window={self.lo}..{self.hi}",
            f"interior_bins={self.interior_bins}",
            f"gap_bins={self.gap_bins}",
            f"boundary_bins={self.boundary_bins}",
            f"n_samples={self.n_samples}",
            f"empirical_max_abs_z={self.empirical_max_z:.3f}",
        ]

    def render(self) -> str:
        return "\n".join(self.lines()) + "\n"


def noise_ratio_report(
    epsilon: float,
    ell: int,
    n_samples: int,
    bounds: tuple[int, int],
    rng: random.Random,
) -> NoiseReport:
    if ell < 1:
        raise ParameterError("shift ell must be positive")
    lo, hi = bounds
    dist = TruncatedGeometric(1.0 - epsilon, lo, hi)
    counts = [0] * len(dist.support)
    for _ in range(n_samples):
        counts[dist.sample(rng) - lo] += 1
    max_z = 0.0
    if n_samples:
        for idx, p in enumerate(dist._pmf):
            sd = math.sqrt(n_samples * p * (1 - p))
            if sd > 0:
                max_z = max(max_z, abs(counts[idx] - n_samples * p) / sd)
    return NoiseReport(
        epsilon=epsilon,
        ell=ell,
        lo=lo,
        hi=hi,
        n_samples=n_samples,
        empirical_max_z=max_z,
    )


# -- weighted-welfare transfers and their inversion ------------------------------


@dataclass(frozen=True)
class GrovesInstance:
    """Players with rational valuations over unpriced outcomes, plus the
    designer's hidden positive weights summing to one."""

    n: int
    outcomes: tuple
    weights: tuple
    valuations: tuple  # valuations[i][y_index] >= 0

    def __post_init__(self):
        if len(self.weights) != self.n or len(self.valuations) != self.n:
            raise ParameterError("weights/valuations must have one entry per player")
        if sum(self.weights) != 1:
            raise ParameterError("weights must sum to exactly 1")
        for w in self.weights:
            if not 0 < w < 1:
                raise ParameterError("weights must lie strictly between 0 and 1")
        for row in self.valuations:
            if len(row) != len(self.outcomes):
                raise ParameterError("valuation rows must cover every outcome")
            if any(v < 0 for v in row):
                raise ParameterError("valuations must be nonnegative")


def groves_outcome(inst: GrovesInstance) -> tuple[int, tuple]:
    """Maximize weighted welfare (ties to the first outcome); transfer of
    player i is -(1/w_i) * sum_{j != i} w_j t_j(y)."""
    best = max(
        range(len(inst.outcomes)),
        key=lambda y: (sum(w * t[y] for w, t in zip(inst.weights, inst.valuations)), -y),
    )
    transfers = []
    for i in range(inst.n):
        others = sum(inst.weights[j] * inst.valuations[j][best] for j in range(inst.n) if j != i)
        transfers.append(-others / inst.weights[i])
    return best, tuple(transfers)


def random_groves_instance(n: int, n_outcomes: int, rng: random.Random) -> GrovesInstance:
    """A random rational instance with at least one positive valuation."""
    if n < 2 or n_outcomes < 1:
        raise ParameterError(f"need n >= 2 players and an outcome, got {n} and {n_outcomes}")
    raw = [rng.randrange(1, 100) for _ in range(n)]
    total = sum(raw)
    weights = tuple(Fraction(a, total) for a in raw)
    while True:
        valuations = tuple(
            tuple(Fraction(rng.randrange(0, 24), rng.randrange(1, 7)) for _ in range(n_outcomes))
            for _ in range(n)
        )
        if any(v > 0 for row in valuations for v in row):
            return GrovesInstance(
                n=n,
                outcomes=tuple(range(n_outcomes)),
                weights=weights,
                valuations=valuations,
            )


def groves_extract_weights(valuations: tuple, outcome: tuple[int, tuple]) -> tuple:
    """Invert the transfers back to the hidden weights, exactly.

    Requires a non-degenerate profile: with all-zero valuations the
    transfers carry no information about the weights.
    """
    y, transfers = outcome
    denoms = [s - t[y] for s, t in zip(transfers, valuations)]
    if any(d == 0 for d in denoms):
        raise DegenerateValuation("transfers coincide with valuations; weights unrecoverable")
    inverses = [Fraction(1) / Fraction(d) for d in denoms]
    total = sum(inverses)
    return tuple(inv / total for inv in inverses)


# -- exact hiding check: real vs trapdoor-simulated transcripts -------------------


def _subgroup_elements(params: GroupParams) -> list[int]:
    return sorted({pow(x, 2, params.q) for x in range(1, params.q)})


def _proof_tuples(stmt: CdsStatement, wit: CdsWitness):
    """Every interactive transcript an honest prover can produce: all
    nonce vectors, all simulated rows, all challenges."""
    p = stmt.params.p
    rows = stmt.rows
    other_rows = [i for i in range(len(rows)) if i != wit.row]
    nonce_space = product(range(1, p + 1), repeat=len(rows[wit.row]))
    # Lists, not iterators: every nonce vector walks the whole space again.
    sim_spaces = [list(product(range(p), repeat=1 + len(rows[i]))) for i in other_rows]
    for nonces in nonce_space:
        for sim_combo in product(*sim_spaces):
            sims = {
                i: (combo[0], tuple(combo[1:])) for i, combo in zip(other_rows, sim_combo)
            }
            first = _build_first(stmt, wit, nonces, sims)
            for beta in range(1, p + 1):
                resp = _build_response(stmt, wit, nonces, sims, beta)
                yield (
                    tuple(a for row in first for a in row),
                    beta,
                    resp.betas,
                    tuple(g for row in resp.gammas for g in row),
                )


def _plan_proofs(
    ref: RefString, plan: Plan, com: IntCommitment, ops: Sequence[BitOpening]
) -> dict[int, tuple[CdsStatement, CdsWitness]]:
    """(statement, witness) of each proof of `plan` over one committed value,
    as the live prover makes them, keyed by position."""
    return {
        i: (plan_statement(ref, (com,), rows), plan_witness(rows, (ops,)))
        for _, i, rows in plan
    }


def _hiding_worlds(ref_pairs_real, ref_pairs_sim, params, spec, reports) -> tuple[Counter, Counter]:
    """The real and the simulated transcript multisets of one run.

    Both are read off the evidence the case rule owes: each reveal opens a
    sold item, each ge/le entry is a bound plan over one item's commitment.
    The worlds differ in two inputs only.  The real world commits to the
    true prices and opens every bit as drawn.  The simulated world plants
    h = g^rho, commits to the sold item's true price and to each hidden item
    at its proven bound, and opens a bit-0 cell of h^r as rho*r.
    """
    width = width_of(spec.bound)
    p = params.p
    evidence = owed_evidence(spec, list(reports))
    plans = [
        None if ev.form == "reveal"
        else bound_plan(ev.low if ev.form == "ge" else ev.high, width, greater=ev.form == "ge")
        for ev in evidence
    ]
    claimed = [0] * len(spec.prices)
    for ev in evidence:
        claimed[ev.item] = {"reveal": spec.prices[ev.item], "ge": ev.low, "le": ev.high}[ev.form]

    n_exps = width * len(spec.prices)
    size = len(ref_pairs_real) * (p - 1) ** n_exps
    for plan in plans:
        # a proof's challenge, its witness row's nonces, and each other
        # row's simulated challenge and responses: p^(rows + cells)
        for shape in plan_shapes(plan or []):
            size *= p ** (len(shape) + sum(shape))
    if size > HIDING_BUDGET:
        raise EnumerationBudget(f"enumeration of {size} transcripts exceeds budget {HIDING_BUDGET}")

    def world(prices, refs) -> Counter:
        counter = Counter()
        bits = [b for s in prices for b in int_bits(s, width)]
        for g, h, trap in refs:
            ref = RefString(params=params, seed=b"e", g=g, h=h)
            for exps in product(range(1, p), repeat=n_exps):
                # bit 0 commits as g^(trap*r): g^r for real, h^r when simulated
                flat = [BitOpening(b, r if b else trap * r % p) for b, r in zip(bits, exps)]
                ops = [flat[k : k + width] for k in range(0, n_exps, width)]
                coms = [[commit_bit(ref, op.bit, op.r) for op in item] for item in ops]
                parts = []
                for ev, plan in zip(evidence, plans):
                    if plan is None:
                        opened = (x for op in ops[ev.item] for x in (op.bit, op.r))
                        parts.append([("reveal", ev.item, *opened)])
                    else:
                        proofs = _plan_proofs(ref, plan, coms[ev.item], ops[ev.item])
                        parts += [list(_proof_tuples(*proof)) for proof in proofs.values()]
                head = (g, h, *(c for item in coms for c in item), *reports)
                counter.update(head + sum(combo, ()) for combo in product(*parts))
        return counter

    real = world(spec.prices, [(g, h, 1) for g, h in ref_pairs_real])
    sim = world(claimed, [(g, params.pow_unchecked(g, rho), rho) for g, rho in ref_pairs_sim])
    return real, sim


# The kinds whose whole run is commitments, reveals and bound proofs: ex3
# also certifies s1 <= s2 at commit time, and ex3 and ex4 flip coins.
_HIDING_KINDS = ("ex1", "ex1multi", "ex2")
# The most transcripts one world of `transcript_distribution_equality` may
# enumerate.
HIDING_BUDGET = 2_000_000


def transcript_distribution_equality(params: GroupParams, spec: MechanismSpec, reports: list[int]) -> bool:
    """Exact multiset comparison of real and trapdoor-simulated runs of
    `spec`, at most HIDING_BUDGET transcripts each.

    The real world enumerates all generator pairs, commitment randomness,
    prover nonces, and challenges; the simulated world plants h = g^rho,
    commits equivocally, and picks a consistent mechanism only after the
    outcome is known.  Equality is exact or the claim fails.  Covers the
    kinds whose whole run is commitments, reveals and bound proofs.
    """
    if spec.kind not in _HIDING_KINDS:
        raise ParameterError(f"distribution comparison not implemented for {spec.kind!r}")
    members = _subgroup_elements(params)
    nonid = [x for x in members if x != params.identity]
    ref_pairs_real = [(g, h) for g in nonid for h in nonid if g != h]
    ref_pairs_sim = [(g, rho) for g in nonid for rho in range(2, params.p)]
    real, sim = _hiding_worlds(ref_pairs_real, ref_pairs_sim, params, spec, reports)
    return real == sim


# Configurations exercised by the acceptance suite: one revealing run, two
# hidden-price runs, and a mixed two-item run.
SHIPPED_HIDING_CONFIGS = (
    (7, MechanismSpec("ex1", 2, (1,)), [0]),
    (7, MechanismSpec("ex1", 2, (1,)), [1]),
    (7, MechanismSpec("ex2", 2, (1, 1)), [0, 0]),
    (7, MechanismSpec("ex2", 2, (0, 1)), [1, 0]),
)


# -- rewinding extraction driver ---------------------------------------------------


@dataclass
class RevealAction:
    """The adversary opens its committed price bits."""

    openings: list[BitOpening]


@dataclass
class ClaimAction:
    """The adversary claims `price >= bound` and offers interactive provers."""

    bound: int
    prover_for: Callable[[int], "ReplayableProver"]


class ReplayableProver:
    """A prover that answers any number of challenges for one first message.

    Honest single-use prover state forbids this; test adversaries (and the
    extraction driver that rewinds them) need it.
    """

    def __init__(self, stmt: CdsStatement, wit: CdsWitness, rng: random.Random):
        self._first, self._state = cds_prove_first(stmt, wit, rng)

    def first(self) -> SigmaFirst:
        return self._first

    def respond(self, beta: int) -> SigmaResponse:
        s = self._state
        return _build_response(s.stmt, s.wit, s.nonces, s.sims, beta)


def commitment_attack_driver(adversary, ref: RefString, bound: int) -> int | None:
    """Replays a seller strategy against every type report, rechallenging
    each claimed proof over the whole challenge space.

    Any double opening -- direct, or implied by an extracted claim witness
    conflicting with a reveal -- yields log_g(h).  Consistent strategies
    produce nothing, as they must.
    """
    width = width_of(bound)
    params = ref.params
    com = adversary.commit(ref)
    for bit in com:
        params.require_member(bit)
    zero_open: dict[int, int] = {}
    one_open: dict[int, int] = {}

    def note(index: int, op: BitOpening):
        if not verify_opening(ref, com[index - 1], op):
            return
        (zero_open if op.bit == 0 else one_open)[index] = op.r

    for v in range(bound):
        action = adversary.evaluate(ref, v)
        if isinstance(action, RevealAction):
            for index, op in enumerate(action.openings, start=1):
                note(index, op)
        elif isinstance(action, ClaimAction):
            for _, i, rows in bound_plan(action.bound, width, greater=True):
                stmt = plan_statement(ref, (com,), rows)
                prover = action.prover_for(i)
                first = prover.first()
                accepting = []
                for beta in range(1, params.p + 1):
                    resp = prover.respond(beta)
                    try:
                        ok = cds_verify(stmt, first, beta, resp)
                    except (ShapeMismatch, ParameterError):
                        ok = False
                    if ok:
                        accepting.append((beta, resp))
                    if len(accepting) == 2:
                        break
                if len(accepting) == 2:
                    wit = cds_extract(stmt, first, accepting[0], accepting[1])
                    ((_, (_, index)),) = rows[wit.row]
                    note(index, BitOpening(bit=1, r=wit.exps[0]))
        else:
            raise ParameterError(f"unknown adversary action {action!r}")
    for index in zero_open:
        if index in one_open:
            return binding_break_to_dlog(ref, zero_open[index], one_open[index])
    return None


# Built-in adversaries for the driver ------------------------------------------


def _ge_claim(ref: RefString, com, w: int, openings: list[BitOpening], rng) -> ClaimAction:
    """Claim price >= w with the live prover's statements and witness rows."""
    proofs = _plan_proofs(ref, bound_plan(w, len(com), greater=True), com, openings)
    return ClaimAction(bound=w, prover_for=lambda i: ReplayableProver(*proofs[i], rng))


class HonestSellerStrategy:
    """Plays the honest hidden-price strategy: consistent, so nothing extracts."""

    def __init__(self, price: int, bound: int, rng: random.Random):
        self.price = price
        self.bound = bound
        self.rng = rng
        self.openings: list[BitOpening] | None = None

    def commit(self, ref: RefString):
        com, ops = commit_int(ref, self.price, width_of(self.bound), self.rng)
        self.openings = ops
        self.com = com
        return com

    def evaluate(self, ref: RefString, v: int):
        if self.price <= v:
            return RevealAction(openings=list(self.openings))
        return _ge_claim(ref, self.com, v + 1, self.openings, self.rng)


class EquivocatorStrategy:
    """Knows rho with h = g^rho, so every commitment opens both ways.

    `reveal_plan` maps reports to the price revealed for them; reports
    below `claim_below` are answered with a (trapdoor-powered) claim that
    the price exceeds them.
    """

    def __init__(self, rho: int, bound: int, rng: random.Random, reveal_plan, claim_below: int = 0):
        self.rho = rho
        self.bound = bound
        self.rng = rng
        self.reveal_plan = reveal_plan
        self.claim_below = claim_below
        self.exps: list[int] | None = None

    def commit(self, ref: RefString):
        width = width_of(self.bound)
        params = ref.params
        if params.pow(ref.g, self.rho) != ref.h:
            raise ParameterError("planted trapdoor inconsistent with the reference string")
        self.exps = [params.exp_sample(self.rng) for _ in range(width)]
        self.com = tuple(commit_bit(ref, 1, r) for r in self.exps)
        return self.com

    def _opening(self, index: int, bit: int, params) -> BitOpening:
        r = self.exps[index - 1]
        return BitOpening(bit=bit, r=r if bit == 1 else self.rho * r % params.p)

    def evaluate(self, ref: RefString, v: int):
        width = width_of(self.bound)
        if v < self.claim_below:
            # log base h of every commitment is known, so every bit claims 1
            ops = [BitOpening(bit=1, r=r) for r in self.exps]
            return _ge_claim(ref, self.com, v + 1, ops, self.rng)
        price = self.reveal_plan(v)
        bits = int_bits(price, width)
        return RevealAction(
            openings=[self._opening(i, b, ref.params) for i, b in enumerate(bits, start=1)]
        )
