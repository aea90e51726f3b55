"""Seeded zkmech sessions with per-role timing and independent known answers.

A session is one closed-loop run of a protocol through the package's public
API: the seller and buyer roles exchange messages in one process, a third
party re-verifies the transcript from its text, and seeded single-bit
mutants of that text must be rejected.  Every verdict is checked against an
oracle written here from the mechanism definitions, not against the
package's own case helpers.
"""

from __future__ import annotations

import hashlib
import random
import statistics
import time
from dataclasses import dataclass, field

from zkmech import codec, commitments, group, mpc, protocols
from zkmech.errors import CodecError, VerificationFailed
from zkmech.protocols import MechanismSpec, Outcome

clock = time.perf_counter

# A 384-bit safe prime q = 2p+1, the first found by
# gen_params(384, start=int.from_bytes(sha256(b"zkmech perfbench 384"), "big")).
# A 2048-bit session costs up to a minute of pure-Python `pow`, too long for
# runs that must each hold tens of sessions, so the two workloads the design
# places in the RFC 3526 group run here: exponentiation still dominates (a
# full `pow` costs 2.6x a 128-bit one and 5x a Jacobi symbol).
BENCH_Q384 = int(
    "800000000000000000000000000000003de0f8454efdc61b6bdd877025aaf1a7"
    "43f3324fe4739628062c71cd6648215f",
    16,
)
TOY_Q23 = 23
MPC_BOUND = 8  # the one-hot statement is H x H, so mpc runs at a smaller H
CRS_SEED = b"zkmech perfbench reference string"


@dataclass(frozen=True)
class Workload:
    """One traffic mix.  Every round runs each (kind, case) of `cases` once,
    so each run holds the same mix whatever the seed draws.  Where the cases
    differ widely in cost, an odd number of them (and of replayable ones)
    puts each median inside one case rather than on the edge between two."""

    name: str
    modulus: int
    bound: int
    cases: tuple[str, ...]
    tail_pct: int  # fixed, so runs compare; min_rounds keeps >= 10 samples beyond it
    min_rounds: int
    interpreter_bound: bool = False  # per-call overhead, not modexp, dominates


WORKLOADS = {
    w.name: w
    for w in (
        # Only the branches that carry a lower- or upper-bound proof: the
        # reveal-only ones cost a tenth as much, and beside them the medians
        # landed on the edge between cheap and costly sessions.  toy-q23 runs
        # every branch.
        Workload(
            "wide-h65536",
            BENCH_Q384,
            1 << 16,
            ("ex1/none", "ex1multi/above", "ex1multi/below", "ex2/none", "ex2/trade"),
            tail_pct=75,
            min_rounds=8,
        ),
        Workload(
            "gates-h16",
            BENCH_Q384,
            16,
            ("ex3/nothing", "ex3/lottery", "ex3/full", "ex4/none", "ex4/coin", "mpc/trade", "mpc/none"),
            tail_pct=75,
            min_rounds=8,
        ),
        # mpc is left out: at p = 11 an unwilling buyer's junk entry matches
        # the seller's slot with probability 1/11, so its trade rule is inexact.
        Workload(
            "toy-q23",
            TOY_Q23,
            8,
            (
                "ex1/trade",
                "ex1/none",
                "ex1multi/above",
                "ex1multi/between",
                "ex1multi/below",
                "ex2/none",
                "ex2/trade",
                "ex2/trade-bare",
                "ex3/nothing",
                "ex3/lottery",
                "ex3/full",
                "ex4/none",
                "ex4/coin",
            ),
            tail_pct=99,
            min_rounds=100,
            interpreter_bound=True,
        ),
    )
}


# -- machine speed --------------------------------------------------------------------
#
# This box's speed drifts by 20-50% over tens of seconds (other tenants share
# the cores), more than any bound a run could hold.  So a run samples a fixed
# kernel that touches no zkmech code between sessions, and reports every
# session time scaled by reference / (median time of the kernel samples taken
# around that session): seconds at the speed the box had when the references
# were measured.  The speed is estimated per session, not per run, because it
# drifts within a run too, and slow spells would otherwise fill the tails.
# A change to zkmech moves the session times and not the kernel, so it shows
# in full.  Modexp-bound and interpreter-bound work slow down by different
# amounts, so a workload calibrates on the part of the kernel that matches
# its own profile (Workload.interpreter_bound).

REFERENCE_POW_S = 0.0035  # median times of the two kernel parts on the
REFERENCE_INTERP_S = 0.0036  # 2-core box this was built on, Python 3.11.7
_KERNEL_BASES = [random.Random(i).randrange(BENCH_Q384) for i in range(8)]


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b


def kernel_seconds() -> tuple[float, float]:
    """Wall times of the two kernel parts: 384-bit modexps, then object,
    dict, bytes and hashing work in the interpreter."""
    t0 = clock()
    for x in _KERNEL_BASES:
        pow(x, BENCH_Q384 - 2, BENCH_Q384)
    t1 = clock()
    table, acc, buf = {}, 0, b""
    for i in range(1500):
        pair = _Pair(i, i * 7)
        table[(i & 127, pair.a)] = pair
        acc += (pair.a * 31 + pair.b) % 1000003
        buf = (buf + i.to_bytes(4, "big"))[-256:]
        if i % 8 == 0:
            acc += hashlib.sha256(buf).digest()[0]
        acc += sum(x for x in (i, i + 1, i + 2) if x & 1)
    return t1 - t0, clock() - t1


def speed_factor(workload: Workload, samples: list[tuple[float, float]]) -> float:
    """reference / median of the kernel samples, for the kernel part the
    workload matches."""
    if workload.interpreter_bound:
        return (REFERENCE_POW_S + REFERENCE_INTERP_S) / statistics.median(a + b for a, b in samples)
    return REFERENCE_POW_S / statistics.median(a for a, _ in samples)


def setup_factor(samples: list[tuple[float, float]]) -> float:
    """reference / median of the interpreter part of the kernel samples:
    set-up starts a process, imports and runs bytecode, and does few
    modexps."""
    return REFERENCE_INTERP_S / statistics.median(b for _, b in samples)


def load_ref(modulus: int) -> group.RefString:
    return group.derive_generators(group.params_from_modulus(modulus), CRS_SEED)


# -- oracle -------------------------------------------------------------------------


@dataclass(frozen=True)
class Inputs:
    """Everything a session's outcome depends on, drawn from the seed."""

    kind: str
    bound: int
    prices: tuple[int, ...]
    values: tuple[int, ...]
    coin: int | None = None  # the seller's hidden coin x (ex3, ex4)
    mask: int | None = None  # the buyer's mask y (ex3, ex4)


def _ex2_choice(s, v) -> int | None:
    """The affordable item of larger gain, ties to item 0; None if neither is."""
    gains = [v[i] - s[i] if v[i] >= s[i] else None for i in (0, 1)]
    if gains[0] is None and gains[1] is None:
        return None
    return 0 if gains[1] is None or (gains[0] is not None and gains[0] >= gains[1]) else 1


def case_of(inp: Inputs) -> str:
    """Which branch of the mechanism the inputs reach."""
    k, s, v = inp.kind, inp.prices, inp.values
    if k in ("ex1", "ex4"):
        if s[0] <= v[0]:
            return "trade" if k == "ex1" else "coin"
        return "none"
    if k == "ex1multi":
        top, second = sorted(v)[-1], sorted(v)[-2]
        return "above" if s[0] > top else "between" if s[0] > second else "below"
    if k == "ex2":
        item = _ex2_choice(s, v)
        if item is None:
            return "none"
        # The other item needs a lower-bound proof only if some price >= 1 of
        # it could have tempted the buyer away from the chosen one.
        return "trade" if s[item] - v[item] + v[1 - item] >= 1 else "trade-bare"
    if k == "ex3":
        # The base price s1 alone buys nothing when it exceeds half the value.
        if 2 * s[0] > v[0]:
            return "nothing"
        return "lottery" if 2 * s[1] > v[0] else "full"
    return "trade" if v[0] >= s[0] else "none"  # mpc


def expected_outcome(inp: Inputs) -> Outcome:
    """The outcome the mechanism defines for these inputs."""
    case = case_of(inp)
    s, v = inp.prices, inp.values
    if case in ("none", "above", "nothing"):
        return Outcome(trade=False, payment=0)
    if inp.kind in ("ex1", "mpc"):
        return Outcome(trade=True, item=0, payment=s[0])
    if inp.kind == "ex1multi":
        winner = min(range(len(v)), key=lambda i: (-v[i], i))
        second = sorted(v)[-2]
        return Outcome(trade=True, item=winner, payment=max(s[0], second))
    if inp.kind == "ex2":
        item = _ex2_choice(s, v)
        return Outcome(trade=True, item=item, payment=s[item])
    if inp.kind == "ex3":
        if case == "full":
            return Outcome(trade=True, item=0, payment=s[0] + s[1])
        z = inp.coin ^ inp.mask
        return Outcome(trade=z == 1, item=0 if z else None, payment=s[0], lottery=(inp.mask, z))
    # ex4, coin case: pay H exactly when the fair coin x XOR y falls below s.
    width = inp.bound.bit_length() - 1
    verdict = int(inp.coin ^ inp.mask < s[0])
    mask_bits = tuple((inp.mask >> (width - 1 - i)) & 1 for i in range(width))
    return Outcome(trade=True, item=0, payment=inp.bound * verdict, lottery=(*mask_bits, verdict))


def _random_inputs(kind: str, bound: int, rng: random.Random) -> Inputs:
    draw = lambda: rng.randrange(bound)  # noqa: E731
    if kind == "ex1multi":
        return Inputs(kind, bound, (draw(),), tuple(draw() for _ in range(rng.randint(2, 4))))
    if kind == "ex2":
        return Inputs(kind, bound, (draw(), draw()), (draw(), draw()))
    if kind == "ex3":
        return Inputs(kind, bound, tuple(sorted((draw(), draw()))), (draw(),),
                      coin=rng.getrandbits(1), mask=rng.getrandbits(1))
    if kind == "ex4":
        return Inputs(kind, bound, (draw(),), (draw(),), coin=draw(), mask=draw())
    return Inputs(kind, bound, (draw(),), (draw(),))


def draw_inputs(workload: Workload, label: str, rng: random.Random) -> Inputs:
    """Rejection-sample uniform inputs until they reach the wanted case."""
    kind, case = label.split("/")
    bound = MPC_BOUND if kind == "mpc" else workload.bound
    while True:
        inp = _random_inputs(kind, bound, rng)
        if case_of(inp) == case:
            return inp


# -- one session ----------------------------------------------------------------------


@dataclass(slots=True)
class SessionResult:
    label: str
    session_s: float = 0.0
    prove_s: float = 0.0
    buyer_s: float = 0.0
    verify_s: float | None = None
    rejects: list[tuple[int, float]] = field(default_factory=list)  # (mutated frame, seconds)
    wall: float = 0.0  # the whole run_session call, set by the caller
    frame_bytes: dict[int, int] = field(default_factory=dict)
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    honest_mutants: dict[str, int] = field(default_factory=dict)  # accepted mutants, by honest reading
    fingerprint: tuple = ()  # transcript text and verdicts, for traced/untraced comparison

    @property
    def wire_bytes(self) -> int:
        return sum(self.frame_bytes.values())

    def scale(self, speed: float) -> None:
        """Convert times to seconds at the reference machine speed."""
        self.wall *= speed
        self.session_s *= speed
        self.prove_s *= speed
        self.buyer_s *= speed
        if self.verify_s is not None:
            self.verify_s *= speed
        self.rejects = [(frame, t * speed) for frame, t in self.rejects]


class _Roles:
    """Adds each call's wall time to the role that made it."""

    def __init__(self):
        self.seller = 0.0
        self.buyer = 0.0

    def seller_call(self, fn, *args):
        t = clock()
        try:
            return fn(*args)
        finally:
            self.seller += clock() - t

    def buyer_call(self, fn, *args):
        t = clock()
        try:
            return fn(*args)
        finally:
            self.buyer += clock() - t


def _exchange(ref, inp: Inputs, srng, brng, roles: _Roles):
    """The seller/buyer message loop of `run_local`, one role call at a time."""
    spec = MechanismSpec(inp.kind, inp.bound, inp.prices, n_buyers=len(inp.values) if inp.kind == "ex1multi" else 1)
    seller = roles.seller_call(protocols.SellerSession, ref, spec, srng, inp.coin)
    buyer = roles.buyer_call(protocols.BuyerSession, ref, inp.kind, inp.bound, list(inp.values), brng, inp.mask)
    ordered = roles.seller_call(seller.begin)
    reports = roles.buyer_call(buyer.receive_commit, ordered)
    ordered = ordered + reports
    evidence = roles.seller_call(seller.receive_reports, reports)
    ordered += evidence
    if seller.awaiting_mask:
        mask = roles.buyer_call(buyer.receive_evidence, evidence)
        closing = roles.seller_call(seller.receive_mask, mask)
        ordered += [mask] + closing
        outcome = roles.buyer_call(buyer.receive_final, closing)
    else:
        outcome = roles.buyer_call(buyer.receive_final, evidence)
    if seller.outcome != outcome:
        raise VerificationFailed("outcome", "seller and buyer disagree")
    return outcome, codec.Transcript(kind=inp.kind, bound=inp.bound, seed=ref.seed, messages=ordered)


def _mpc_exchange(ref, inp: Inputs, srng, brng, roles: _Roles):
    """The two-party pricing run with every message encoded and decoded."""
    ic, secrets = roles.seller_call(mpc.mpc_seller_commit, ref, inp.prices[0], inp.bound, srng)
    m1 = codec.Message(codec.TAG_MPC_COMMIT, mpc.encode_indicator(ic))
    ic_seen = roles.buyer_call(mpc.decode_indicator, ref, m1.payload)
    resp, _ = roles.buyer_call(mpc.mpc_buyer_respond, ref, ic_seen, inp.values[0], brng)
    m2 = codec.Message(codec.TAG_MPC_RESPONSE, mpc.encode_response(resp))
    outcome, opening = roles.seller_call(mpc.mpc_seller_finalize, ref, secrets, mpc.decode_response(m2.payload))
    slot = inp.prices[0] if outcome.trade else None
    m3 = codec.Message(codec.TAG_MPC_FINAL, mpc.encode_final(outcome.trade, slot, opening))
    traded, slot_seen, opening_seen = mpc.decode_final(m3.payload, ref.params.p)
    seen = roles.buyer_call(mpc.mpc_buyer_conclude, ref, ic_seen, traded, slot_seen, opening_seen)
    if seen != (inp.prices[0] if traded else None):
        raise VerificationFailed("mpc-final", f"buyer saw price {seen}")
    return outcome, codec.Transcript(kind="mpc", bound=inp.bound, seed=ref.seed, messages=[m1, m2, m3])


GOLDEN_32 = 0x9E3779B9  # 2^32 / golden ratio


def mutate(text: str, turn: int) -> tuple[str, int]:
    """Flip one bit of frame `turn` modulo the frame count, the seed frame
    included, at the point of the frame that the golden-ratio sequence gives
    for this sweep through the frames.

    `turn` starts at a seeded offset per case and steps by one per mutant,
    so frame and bit are uniform across seeds, while within a run every
    frame is hit about equally often and the bits flipped in one frame are
    spread evenly along it.  Reject times then mix early and late failures
    in the same proportions in every run."""
    lines = text.splitlines()
    sweep, frame = divmod(turn, len(lines) - 1)
    idx = 1 + frame
    blob = bytearray.fromhex(lines[idx])
    bit = (sweep * GOLDEN_32 % (1 << 32)) * (len(blob) * 8) >> 32
    blob[bit // 8] ^= 1 << (bit % 8)
    lines[idx] = blob.hex()
    return "\n".join(lines) + "\n", idx - 1


def third_party_verify(params: group.GroupParams, text: str) -> Outcome:
    """The calls `zkmech verify` makes on a transcript file's text."""
    transcript = codec.transcript_loads(text)
    ref = group.derive_generators(params, transcript.seed)
    return protocols.verify_transcript(ref, transcript)


def _reports(transcript: codec.Transcript) -> tuple[int, ...]:
    """The buyers' reported values, in order, as the report frames carry them."""
    values: list[int] = []
    for msg in transcript.messages:
        if msg.tag == codec.TAG_TYPE_REPORT:
            r = codec.Reader(msg.payload)
            r.u16()  # the first bidder index in this frame
            values.extend(r.uint() for _ in range(r.u8()))
    return tuple(values)


def uncovered_items(inp: Inputs) -> set[int]:
    """Items whose price commitment no message after it opens or proves a
    statement on, by the mechanism's definition: in these cases the seller
    sends no proof (every proof hashes the whole commitment frame into its
    challenge) and opens only the traded item."""
    case = case_of(inp)
    if inp.kind == "ex2" and case == "trade-bare":
        return {1 - _ex2_choice(inp.prices, inp.values)}
    if inp.kind == "ex1multi" and case == "below" and sorted(inp.values)[-2] == inp.bound - 1:
        return {0}  # s <= H-1 holds for every price, so its proof is empty
    return set()


def _commitments(msg: codec.Message, q: int) -> list:
    r = codec.Reader(msg.payload)
    return [commitments.read_int_commitment(r, q) for _ in range(r.u8())]


def honest_reading(ref, inp: Inputs, states: dict, bad: str, verdict: Outcome) -> str | None:
    """Which frame an accepted mutant `bad` changed, when the mutant is the
    transcript of an honest run; None when it is not, which makes its
    acceptance a false accept.

    A flipped bit can land where honest runs differ, and then the verifier
    must accept: in the seed, in a buyer's report, or in the commitment to a
    price that no later message opens or proves a statement on.  So the
    honest exchange is run again with the mutant's seed and reports and the
    seller's and buyer's random streams of the original run.  The mutant
    must equal that run's transcript except in the commitments of
    `uncovered_items`, and its verdict must be the oracle's for the
    mutant's reports.  Those commitments are exempt because Pedersen
    commitments are perfectly hiding: every group element commits to every
    value under some randomness, so a seller who drew that randomness sends
    the mutant.
    """
    mutant = codec.transcript_loads(bad)
    other = Inputs(inp.kind, inp.bound, inp.prices, _reports(mutant), inp.coin, inp.mask)
    try:
        ref2 = ref if mutant.seed == ref.seed else group.derive_generators(ref.params, mutant.seed)
        srng, brng = random.Random(), random.Random()
        srng.setstate(states["seller"])
        brng.setstate(states["buyer"])
        _, again = _exchange(ref2, other, srng, brng, _Roles())
    except Exception:  # these reports or this seed admit no honest run
        return None
    if len(again.messages) != len(mutant.messages) or verdict != expected_outcome(other):
        return None
    free = uncovered_items(other)
    for a, b in zip(again.messages, mutant.messages):
        if a == b:
            continue
        if not a.tag == b.tag == codec.TAG_COMMIT:
            return None
        ours, theirs = _commitments(a, ref.params.q), _commitments(b, ref.params.q)
        if len(ours) != len(theirs) or any(x != y and i not in free for i, (x, y) in enumerate(zip(ours, theirs))):
            return None
    if mutant.seed != ref.seed:
        return "seed"
    return "report" if other.values != inp.values else "commitment"


def role_rngs(seed, index: int) -> dict[str, random.Random]:
    def rng(role: str) -> random.Random:
        material = f"zkmech-perfbench/{seed}/{index}/{role}".encode()
        return random.Random(int.from_bytes(hashlib.sha256(material).digest(), "big"))

    return {role: rng(role) for role in ("inputs", "seller", "buyer")}


# Mutants per transcript, on consecutive frames.  With one, the reject time
# of a run hung on which frames its few mutants hit and spread by 20% from
# seed to seed; with three at uniform random bits, by 12%.
MUTANTS = 3


def run_session(workload: Workload, ref, seed: int, index: int, label: str) -> SessionResult:
    """Session `index` of a run: inputs for case `label` drawn from the seed.

    The mutated frames start at a seeded offset per case and step on by
    MUTANTS each round (see `mutate`)."""
    rngs = role_rngs(seed, index)
    inp = draw_inputs(workload, label, rngs["inputs"])
    first_turn = int.from_bytes(hashlib.sha256(f"{seed}/{label}".encode()).digest()[:4], "big")
    turn = MUTANTS * (first_turn + index // len(workload.cases))
    return play(ref, inp, rngs, turn)


def play(ref, inp: Inputs, rngs: dict[str, random.Random], turn: int, mutants: int = MUTANTS) -> SessionResult:
    """One honest exchange, its third-party verification and `mutants` mutants.

    Counts 2 + mutants operations (one for mpc, whose log is not
    replayable), each failed when it raises, disagrees with the oracle, or
    accepts a mutant that no honest run sends (see `honest_reading`).
    """
    res = SessionResult(label=f"{inp.kind}/{case_of(inp)}")
    want = expected_outcome(inp)
    roles = _Roles()
    exchange = _mpc_exchange if inp.kind == "mpc" else _exchange
    states = {role: rngs[role].getstate() for role in ("seller", "buyer")}
    res.attempted = 1
    t = clock()
    try:
        outcome, transcript = exchange(ref, inp, rngs["seller"], rngs["buyer"], roles)
    except Exception as exc:  # any raise on an honest run is a failed operation
        res.failures.append(f"{res.label} honest run raised {exc!r} on {inp}")
        return res
    res.session_s = clock() - t
    res.prove_s, res.buyer_s = roles.seller, roles.buyer
    for msg in transcript.messages:
        res.frame_bytes[msg.tag] = res.frame_bytes.get(msg.tag, 0) + 5 + len(msg.payload)
    if outcome != want:
        res.failures.append(f"{res.label} outcome {outcome} != oracle {want} on {inp}")
    text = codec.transcript_dumps(transcript)
    res.fingerprint = (text, outcome)
    if inp.kind == "mpc":
        return res

    res.attempted = 2 + mutants
    t = clock()
    try:
        replayed = third_party_verify(ref.params, text)
    except Exception as exc:
        replayed = exc
    res.verify_s = clock() - t
    if replayed != want:
        res.failures.append(f"{res.label} third-party verify gave {replayed!r}, oracle {want} on {inp}")

    res.fingerprint += (repr(replayed),)
    for k in range(mutants):
        bad, frame = mutate(text, turn + k)
        t = clock()
        try:
            verdict = third_party_verify(ref.params, bad)
        except (VerificationFailed, CodecError) as exc:
            verdict = type(exc).__name__
        except Exception as exc:
            verdict = repr(exc)
            res.failures.append(f"{res.label} mutant raised {exc!r}, not a clean reject, on {inp}")
        res.rejects.append((frame, clock() - t))
        if isinstance(verdict, Outcome):
            reading = honest_reading(ref, inp, states, bad, verdict)
            if reading is None:
                res.failures.append(f"{res.label} mutant of frame {frame} accepted as {verdict} on {inp}")
            else:
                res.honest_mutants[reading] = res.honest_mutants.get(reading, 0) + 1
        res.fingerprint += (bad, str(verdict))
    return res
