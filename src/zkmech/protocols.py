"""Seller/buyer session machines for the five auction protocols.

Each protocol runs as an ordered message exchange: commitments (plus an
incentive certificate where needed), type reports, evidence (reveals,
proofs, coin messages), and a final announced outcome.

Each kind is one row of the kind table, `KINDS`: how many prices it
commits, how many values a report carries, whether a certificate of
s1 <= s2 comes with the commitment, its coin draw, the message count of
its longest case, its cases, its selection function and its case rule.
The rule holds the rest: case -> evidence (reveals, lower- and
upper-bound proofs, an announced sum, a coin flip, a comparison) ->
outcome.  The seller picks its case with the selection function and
proves that case's evidence.  The verifier reads the claimed case from the
first evidence message, whose tag and lead byte name it, and checks
exactly that evidence; it never calls a selection function.

One verifier, a generator fed one message at a time, checks a run.  The
buyer feeds it each message once, as it is sent or received, and aborts
on the first bad one; `verify_transcript` feeds the same verifier a whole
log, so any third party holding the group parameters and the transcript
re-verifies a run and recomputes its outcome.  The cell equations and
openings of a run go to one batch (`sigma.Batch`), checked as they come
in a toy group, else by the buyer before each of its sends and at the
end, by a third party at the end of the log.  Each session's log, the
Fiat-Shamir prefix its proofs bind, is also the transcript it writes.

Supported kinds:

- ``ex1``       one buyer, one item at a hidden price
- ``ex1multi``  second-price auction with a hidden reserve
- ``ex2``       two items, unit-demand buyer, two hidden prices
- ``ex3``       two-part pricing with a zero-knowledge incentive
                certificate and a public half-probability lottery; a full
                sale carries an upper-bound proof s2 <= floor(v/2) and the
                announced total s1 + s2
- ``ex4``       hidden price charged in expectation: pay H with
                probability s/H via a verifiable coin flip
"""

from __future__ import annotations

import random
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from itertools import chain
from typing import NamedTuple

from .codec import (
    Message,
    Reader,
    TAG_COIN_MASK,
    TAG_COIN_PAIR,
    TAG_COMMIT,
    TAG_COMMIT_PROOF,
    TAG_EVAL_PROOF,
    TAG_OUTCOME,
    TAG_REVEAL,
    TAG_TYPE_REPORT,
    TAG_VERDICT,
    Transcript,
    describe_uint,
    encode_u8,
    encode_u16,
    encode_uint,
    seed_frame,
)
from .commitments import (
    OPENING_FAILURE,
    BitOpening,
    IntCommitment,
    commit_int,
    encode_int_commitment,
    encode_opening,
    int_bits,
    read_commitment,
    read_opening,
    reveal_int,
)
from .errors import (
    CodecError,
    ICViolation,
    NonMemberError,
    ParameterError,
    RefuseToProve,
    VerificationFailed,
)
from .gadgets import (
    ComplementPair,
    ProofBundle,
    bound_plan,
    bundle_bytes,
    coin_openings,
    coin_select,
    complement_commit,
    encode_bundle,
    le_committed_plan,
    lt_plan,
    plan_shapes,
    prove_complement,
    prove_ge_public,
    prove_le_committed,
    prove_le_public,
    prove_lt_committed,
    prove_sum,
    read_bundle,
    sum_plan,
    verify_complement,
    verify_ge_public,
    verify_le_committed,
    verify_le_public,
    verify_lt_committed,
    verify_sum,
)
from .group import GroupParams, RefString
from .sigma import Batch, encode_sized_proof, read_sized_proof, sized_proof_bytes


def width_of(bound: int) -> int:
    """Bit width of prices in {0, ..., H-1}; H must be a power of two."""
    if bound < 2 or bound & (bound - 1):
        raise ParameterError(f"H must be a power of two >= 2, got {bound}")
    return bound.bit_length() - 1


@dataclass(frozen=True)
class MechanismSpec:
    """A mechanism family member: kind, price bound H, and hidden prices."""

    kind: str
    bound: int
    prices: tuple[int, ...]
    n_buyers: int = 1

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ParameterError(f"unknown kind {self.kind!r}")
        kind = KINDS[self.kind]
        width_of(self.bound)
        if len(self.prices) != kind.prices:
            raise ParameterError(f"{self.kind} takes {kind.prices} price(s)")
        for s in self.prices:
            if not 0 <= s < self.bound:
                raise ParameterError(f"price {s} outside {{0,...,{self.bound - 1}}}")
        if not kind.per_report:
            if self.n_buyers < 2:
                raise ParameterError(f"{self.kind} needs at least two buyers")
        elif self.n_buyers != 1:
            raise ParameterError(f"{self.kind} is a single-buyer protocol")
        if kind.certified and self.prices[0] > self.prices[1]:
            raise ICViolation(
                f"two-part pricing is incentive compatible only when "
                f"s1 <= s2; got {self.prices}"
            )


@dataclass(frozen=True)
class Outcome:
    """What a protocol run produced.

    `item` is the sold item's index, or the winning buyer's index for the
    multi-buyer auction; `lottery` records the public coin draw where one
    took place.
    """

    trade: bool
    item: int | None = None
    payment: int = 0
    lottery: tuple[int, ...] | None = None


# -- payload builders and strict parsers --------------------------------------


def _fail(phase: str, detail: str, index: int | None = None):
    raise VerificationFailed(phase, detail, index=index)


def _decode(payload: bytes, phase: str, what: str, read, start: int = 0):
    """`read` applied to the payload from `start` on; malformed bytes fail `phase`."""
    try:
        r = Reader(payload, start)
        out = read(r)
        r.finish()
    except CodecError as exc:
        _fail(phase, f"malformed {what}: {exc}")
    return out


def _require_members(ref: RefString, com: IntCommitment, phase: str, what: str) -> None:
    for i, element in enumerate(com, start=1):
        if not ref.params.is_member(element):
            _fail(phase, f"{what} outside the subgroup", index=i)


def _commit_payload(params: GroupParams, coms: list[IntCommitment]) -> bytes:
    return encode_u8(len(coms)) + b"".join(encode_int_commitment(params, c) for c in coms)


def _parse_commit(
    ref: RefString, payload: bytes, phase: str, count: int, width: int
) -> list[IntCommitment]:
    def read(r):
        if r.u8() != count:
            _fail(phase, "unexpected commitment count")
        return [read_commitment(r, ref.params) for _ in range(count)]

    coms = _decode(payload, phase, "commitment message", read)
    for com in coms:
        if len(com) != width:
            _fail(phase, f"commitment width {len(com)} != {width}")
        _require_members(ref, com, phase, "commitment")
    return coms


def _report_payload(index: int, values: list[int]) -> bytes:
    return encode_u16(index) + encode_u8(len(values)) + b"".join(encode_uint(v) for v in values)


def _parse_report(
    payload: bytes, phase: str, bound: int, index: int, count: int
) -> list[int]:
    def read(r):
        got_index = r.u16()
        return got_index, [r.uint() for _ in range(r.u8())]

    got_index, values = _decode(payload, phase, "report", read)
    if got_index != index:
        _fail(phase, f"report index {got_index}, expected {index}")
    if len(values) != count:
        _fail(phase, f"report carries {len(values)} values, expected {count}")
    for v in values:
        if not 0 <= v < bound:
            _fail(phase, f"reported value {describe_uint(v)} outside {{0,...,{bound - 1}}}")
    return values


def _openings_body(ops: list[BitOpening]) -> bytes:
    return encode_u8(len(ops)) + b"".join(encode_opening(o) for o in ops)


def _sum_body(params: GroupParams, total: int, carry: IntCommitment, bundle: ProofBundle) -> bytes:
    return encode_uint(total) + encode_int_commitment(params, carry) + encode_bundle(bundle)


def _coin_pair_payload(params: GroupParams, pairs: list[ComplementPair], proofs: list[list]) -> bytes:
    out = [encode_u8(len(pairs))]
    out.append(params.encode_elements(c for pair in pairs for c in pair))
    out += [encode_sized_proof(proof) for pr in proofs for proof in pr]
    return b"".join(out)


def _parse_coin_pairs(
    ref: RefString, payload: bytes, phase: str, count: int
) -> tuple[list[ComplementPair], list[list]]:
    def read(r):
        got = r.u8()
        if got != count:
            _fail(phase, f"coin message carries {got} pairs, expected {count}")
        coms = ref.params.read_elements(r, 2 * count, "commitment", identity=False, named=True)
        return list(zip(coms[::2], coms[1::2])), [
            [read_sized_proof(r, ref.params, (1, 1)) for _ in range(2)] for _ in range(count)
        ]

    pairs, proofs = _decode(payload, phase, "coin message", read)
    for i, pair in enumerate(pairs):
        if not all(ref.params.is_member(c) for c in pair):
            _fail(phase, "coin commitment outside the subgroup", index=i)
    return pairs, proofs


def _mask_payload(bits: list[int]) -> bytes:
    return encode_u8(len(bits)) + bytes(bits)


def _parse_mask(payload: bytes, phase: str, count: int) -> list[int]:
    bits = _decode(payload, phase, "coin mask", lambda r: list(r.take(r.u8())))
    if len(bits) != count:
        _fail(phase, f"mask carries {len(bits)} bits, expected {count}")
    if any(b not in (0, 1) for b in bits):
        _fail(phase, "mask bits must be 0 or 1")
    return bits


def encode_outcome(o: Outcome) -> bytes:
    out = [encode_u8(1 if o.trade else 0)]
    out.append(encode_u8(1 if o.item is not None else 0))
    out.append(encode_u16(o.item if o.item is not None else 0))
    out.append(encode_uint(o.payment))
    if o.lottery is None:
        out.append(encode_u8(0))
    else:
        out.append(encode_u8(1) + encode_u8(len(o.lottery)) + bytes(o.lottery))
    return b"".join(out)


# -- mechanism case selection (the seller's only) ------------------------------


def posted_price_case(prices: tuple[int, ...], v: int) -> str:
    """ex1 and ex4: the buyer trades exactly when the price is at most its value."""
    return "trade" if prices[0] <= v else "none"


def _ranking(bids: list[int]) -> tuple[int, int, int]:
    """(winner, top bid, second bid), ties to the lowest index."""
    top = max(bids)
    return bids.index(top), top, sorted(bids, reverse=True)[1]


def second_price_case(prices: tuple[int, ...], bids: list[int]) -> str:
    """Where the hidden reserve falls against the top two bids."""
    _, top, second = _ranking(bids)
    if prices[0] > top:
        return "above"
    if prices[0] > second:
        return "between"
    return "below"


def unit_demand_choice(prices: tuple[int, int], values: list[int]) -> int | None:
    """Utility-maximizing feasible item, ties to the lower index."""
    feasible = [i for i in (0, 1) if values[i] >= prices[i]]
    if not feasible:
        return None
    return max(feasible, key=lambda i: (values[i] - prices[i], -i))


def two_part_case(prices: tuple[int, int], v: int) -> str:
    """Thresholds v/2 < s are integerized as s >= floor(v/2) + 1."""
    t = v // 2 + 1
    if prices[0] >= t:
        return "nothing"
    if prices[1] >= t:
        return "lottery"
    return "full"


# -- case rules: case -> evidence -> outcome ------------------------------------


class Evidence(NamedTuple):
    """One step of proof that a case owes, carried by one message.

    - ``reveal``: open price `item`, which must lie in [low, high];
    - ``ge`` / ``le``: prove price `item` >= low / <= high;
    - ``sum``: announce s1 + s2 and prove it against both commitments;
    - ``coin``: commit `bits` hidden coin bits as complement pairs, which
      the buyer's mask then selects;
    - ``open``: open the selected one-bit coin;
    - ``lt``: announce and prove whether the selected coin is below price
      `item`.
    """

    form: str
    item: int = 0
    low: int = 0
    high: int = 0
    bits: int = 0


# The first payload byte of an evidence message: a reveal's label (the item
# it opens) or a proof's claim byte.  With the tag it names the evidence, so
# the first evidence message of a run names the case the seller claims.
_LEAD = {
    ("reveal", 0): b"\x00",
    ("reveal", 1): b"\x01",
    ("ge", 0): b"\x00",  # first (or only) committed price >= public bound
    ("ge", 1): b"\x01",  # second committed price >= public bound
    ("le", 0): b"\x02",  # first (or only) committed price <= public bound
    ("le", 1): b"\x04",  # second committed price <= public bound
    ("sum", 0): b"\x03",  # announced total of the two committed prices
}
# form -> (the tag of its message, the phase that checks it)
_WIRE = {
    "reveal": (TAG_REVEAL, "reveal"),
    "ge": (TAG_EVAL_PROOF, "evaluate"),
    "le": (TAG_EVAL_PROOF, "evaluate"),
    "sum": (TAG_EVAL_PROOF, "evaluate"),
    "coin": (TAG_COIN_PAIR, "coin"),
    "open": (TAG_VERDICT, "verdict"),
    "lt": (TAG_VERDICT, "verdict"),
}


# Each rule is a generator: it yields the evidence the case owes, is sent
# back the fact each piece establishes (a revealed price, the announced
# total, the mask bits, the coin result), and returns the outcome.  The
# seller and the verifier both run it, so each bound is written here once.

_NO_TRADE = Outcome(trade=False, payment=0)


def _ex1_rule(case: str, reports: list[int], bound: int):
    (v,) = reports
    if case == "trade":
        s = yield Evidence("reveal", high=v)
        return Outcome(trade=True, item=0, payment=s)
    yield Evidence("ge", low=v + 1)
    return _NO_TRADE


def _ex1multi_rule(case: str, bids: list[int], bound: int):
    winner, top, second = _ranking(bids)
    if case == "above":
        yield Evidence("ge", low=top + 1)
        return _NO_TRADE
    if case == "between":
        s = yield Evidence("reveal", low=second + 1, high=top)
        return Outcome(trade=True, item=winner, payment=s)
    yield Evidence("le", high=second)
    return Outcome(trade=True, item=winner, payment=second)


def _ex2_rule(case: int | None, values: list[int], bound: int):
    if case is None:
        yield Evidence("ge", item=0, low=values[0] + 1)
        yield Evidence("ge", item=1, low=values[1] + 1)
        return _NO_TRADE
    other = 1 - case
    s = yield Evidence("reveal", item=case, high=values[case])
    # The other item must not give a larger gain.  Ties go to item 0, so a
    # sale of item 1 needs a strictly larger gain: that is the "+ case".
    w = s - values[case] + values[other] + case
    if w >= 1:  # every price meets a bound of 0 or less
        yield Evidence("ge", item=other, low=w)
    return Outcome(trade=True, item=case, payment=s)


def _ex3_rule(case: str, reports: list[int], bound: int):
    (v,) = reports
    half = v // 2  # v/2 < s is integerized as s >= floor(v/2) + 1
    if case == "nothing":
        yield Evidence("ge", item=0, low=half + 1)
        return _NO_TRADE
    if case == "lottery":
        s1 = yield Evidence("reveal", item=0, high=half)
        yield Evidence("ge", item=1, low=half + 1)
        (y,) = yield Evidence("coin", bits=1)
        z = yield Evidence("open")
        return Outcome(trade=z == 1, item=0 if z == 1 else None, payment=s1, lottery=(y, z))
    # s1 <= s2 is certified at commit time, so s2 <= v/2 bounds both.
    yield Evidence("le", item=1, high=half)
    total = yield Evidence("sum")
    return Outcome(trade=True, item=0, payment=total)


def _ex4_rule(case: str, reports: list[int], bound: int):
    (v,) = reports
    if case == "none":
        yield Evidence("ge", low=v + 1)
        return _NO_TRADE
    yield Evidence("le", high=v)
    mask = yield Evidence("coin", bits=width_of(bound))
    verdict = yield Evidence("lt")
    return Outcome(trade=True, item=0, payment=bound if verdict else 0, lottery=(*mask, verdict))


class Kind(NamedTuple):
    """The facts that make up a kind; its rule holds the rest."""

    prices: int  # how many prices it commits
    per_report: int  # values one report carries; 0: one report per bidder, two or more
    cases: tuple  # every case its selector returns
    rule: Callable  # (case, reports, H) -> the case's evidence, then its outcome
    select: Callable  # (prices, reports) -> the case; the seller's only
    certified: bool = False  # its commitment comes with a certificate of s1 <= s2
    draw: Callable | None = None  # (rng, H) -> the seller's coin, and the buyer's mask
    longest: int = 1  # evidence messages of its longest case, a coin mask included


# The selectors are looked up when called, so a test can patch them here.
KINDS = {
    "ex1": Kind(1, 1, ("trade", "none"), _ex1_rule, lambda p, r: posted_price_case(p, r[0])),
    "ex1multi": Kind(
        1, 0, ("above", "between", "below"), _ex1multi_rule, lambda p, r: second_price_case(p, r)
    ),
    "ex2": Kind(2, 2, (None, 0, 1), _ex2_rule, lambda p, r: unit_demand_choice(p, r), longest=2),
    "ex3": Kind(
        2, 1, ("nothing", "lottery", "full"), _ex3_rule, lambda p, r: two_part_case(p, r[0]),
        certified=True, draw=lambda rng, bound: rng.getrandbits(1), longest=5,
    ),
    "ex4": Kind(
        1, 1, ("trade", "none"), _ex4_rule, lambda p, r: posted_price_case(p, r[0]),
        draw=lambda rng, bound: rng.randrange(bound), longest=4,
    ),
}


def _selected_rule(spec: MechanismSpec, values: list[int]):
    """The rule of the case the mechanism selects for these reports."""
    kind = KINDS[spec.kind]
    return kind.rule(kind.select(spec.prices, values), values, spec.bound)


def owed_evidence(spec: MechanismSpec, values: list[int]) -> list[Evidence]:
    """The evidence an honest seller of `spec` sends for these reports, up
    to its coin flip if the case has one: the selected case's rule, fed the
    prices it reveals."""
    out = []
    steps = _selected_rule(spec, values)
    for ev in _walk(steps, lambda ev: spec.prices[ev.item] if ev.form == "reveal" else None):
        out.append(ev)
        if ev.form == "coin":  # what follows depends on the buyer's mask
            break
    return out


def _walk(steps, answer):
    """The evidence a rule's `steps` yield up to its outcome, each sent
    back the fact answer(ev)."""
    fact = None
    while True:
        try:
            ev = steps.send(fact)
        except StopIteration:
            return
        yield ev
        fact = answer(ev)


class _Log:
    """A run's record: its messages, each next to its frame.  The seed frame
    and every frame so far are the Fiat-Shamir prefix, joined only when a
    proof binds it, so logging a message costs its frame's length."""

    def __init__(self, seed: bytes):
        self.seed = seed
        self.messages: list[Message] = []
        self._frames = [seed_frame(seed)]

    @property
    def prefix(self) -> bytes:
        return b"".join(self._frames)

    def add(self, msg: Message) -> None:
        self.messages.append(msg)
        self._frames.append(msg.frame())

    def transcript(self, kind: str, bound: int) -> Transcript:
        return Transcript(kind=kind, bound=bound, seed=self.seed, messages=list(self.messages))


# -- seller session --------------------------------------------------------------


class SellerSession:
    """The committing party.  Emits message batches and logs every message,
    so each proof binds the entire conversation so far."""

    def __init__(
        self,
        ref: RefString,
        spec: MechanismSpec,
        rng: random.Random,
        coin_value: int | None = None,
    ):
        self.ref = ref
        self.spec = spec
        self.rng = rng
        self.phase = "commit"
        self.outcome: Outcome | None = None
        self._coin_value = coin_value  # test hook: scripted coin draw
        self.log = _Log(ref.seed)
        self._coms: list[IntCommitment] = []
        self._ops: list[list[BitOpening]] = []
        self._steps = None  # the claimed case's rule, once the reports are in
        self._pairs: list[ComplementPair] = []
        self._pair_ops: list[tuple[BitOpening, BitOpening]] = []
        self._coin: tuple[IntCommitment, list[BitOpening]] | None = None  # masked coin

    def _emit(self, tag: int, payload: bytes) -> Message:
        msg = Message(tag, payload)
        self.log.add(msg)
        return msg

    @property
    def awaiting_mask(self) -> bool:
        return self.phase == "mask"

    # protocol steps

    def begin(self) -> list[Message]:
        if self.phase != "commit":
            raise VerificationFailed("commit", f"out-of-order call in phase {self.phase}")
        for price in self.spec.prices:
            com, ops = commit_int(self.ref, price, width_of(self.spec.bound), self.rng)
            self._coms.append(com)
            self._ops.append(ops)
        out = [self._emit(TAG_COMMIT, _commit_payload(self.ref.params, self._coms))]
        if KINDS[self.spec.kind].certified:
            coms, ops = self._coms, self._ops
            bundle = prove_le_committed(
                self.ref, coms[0], ops[0], coms[1], ops[1], self.log.prefix, self.rng
            )
            out.append(self._emit(TAG_COMMIT_PROOF, encode_bundle(bundle)))
        self.phase = "report"
        return out

    def receive_reports(self, msgs: list[Message]) -> list[Message]:
        if self.phase != "report":
            raise VerificationFailed("report", f"out-of-order message in phase {self.phase}")
        expected = self.spec.n_buyers  # one report per bidder, or one in all
        if len(msgs) != expected:
            _fail("report", f"expected {expected} report message(s), got {len(msgs)}")
        per_msg = KINDS[self.spec.kind].per_report or 1
        values: list[int] = []
        for i, msg in enumerate(msgs):
            if msg.tag != TAG_TYPE_REPORT:
                _fail("report", f"unexpected tag {msg.tag:#x}")
            values.extend(_parse_report(msg.payload, "report", self.spec.bound, i, per_msg))
            self.log.add(msg)
        self._steps = _selected_rule(self.spec, values)
        return self._advance(None)

    def receive_mask(self, msg: Message) -> list[Message]:
        if self.phase != "mask":
            raise VerificationFailed("mask", f"out-of-order message in phase {self.phase}")
        if msg.tag != TAG_COIN_MASK:
            _fail("mask", f"unexpected tag {msg.tag:#x}")
        mask = _parse_mask(msg.payload, "mask", len(self._pairs))
        self.log.add(msg)
        self._coin = (coin_select(self._pairs, mask), coin_openings(self._pair_ops, mask))
        return self._advance(mask)

    def _advance(self, fact) -> list[Message]:
        """Prove the rule's evidence until it waits for the buyer's mask or
        ends; `fact` answers the evidence proved last."""
        out = []
        while True:
            try:
                ev = self._steps.send(fact)
            except StopIteration as stop:
                self.outcome = stop.value
                self.phase = "done"
                out.append(self._emit(TAG_OUTCOME, encode_outcome(stop.value)))
                return out
            body, fact = self._prove(ev)
            out.append(self._emit(_WIRE[ev.form][0], _LEAD.get((ev.form, ev.item), b"") + body))
            if ev.form == "coin":
                self.phase = "mask"
                return out

    def _prove(self, ev: Evidence) -> tuple[bytes, object]:
        """The payload carrying `ev`, past its lead byte, and the fact it
        establishes.  A claim the hidden prices do not satisfy raises
        `RefuseToProve`."""
        ref, rng, prefix = self.ref, self.rng, self.log.prefix
        com, ops = self._coms[ev.item], self._ops[ev.item]
        if ev.form == "reveal":
            s = self.spec.prices[ev.item]
            if not ev.low <= s <= ev.high:
                raise RefuseToProve(f"price {s} outside [{ev.low}, {ev.high}]")
            return _openings_body(ops), s
        if ev.form in ("ge", "le"):
            w = ev.low if ev.form == "ge" else ev.high
            if not 0 <= w < self.spec.bound:
                raise RefuseToProve(f"no price meets the bound {w}")
            prove = prove_ge_public if ev.form == "ge" else prove_le_public
            return encode_bundle(prove(ref, com, ops, w, prefix, rng)), None
        if ev.form == "sum":
            total, carry_com, bundle = prove_sum(
                ref, self._coms[0], self._ops[0], self._coms[1], self._ops[1], prefix, rng
            )
            return _sum_body(ref.params, total, carry_com, bundle), total
        if ev.form == "coin":
            return self._commit_coin(ev.bits, prefix), None
        z_com, z_ops = self._coin
        if ev.form == "open":
            return encode_opening(z_ops[0]), z_ops[0].bit
        verdict, borrow_com, bundle = prove_lt_committed(ref, z_com, z_ops, com, ops, prefix, rng)
        payload = encode_u8(verdict) + encode_int_commitment(ref.params, borrow_com)
        payload += encode_bundle(bundle)
        return payload, verdict

    def _commit_coin(self, bits: int, prefix: bytes) -> bytes:
        x = self._coin_value
        if x is None:
            x = KINDS[self.spec.kind].draw(self.rng, self.spec.bound)
        proofs = []
        for idx, bit in enumerate(int_bits(x, bits)):
            pair, ops = complement_commit(self.ref, bit, self.rng)
            self._pairs.append(pair)
            self._pair_ops.append(ops)
            proofs.append(prove_complement(self.ref, pair, ops, prefix, self.rng, idx))
        return _coin_pair_payload(self.ref.params, self._pairs, proofs)


# -- the verifier -------------------------------------------------------------------


def max_frame_bytes(kind: str, bound: int, params: GroupParams) -> int:
    """The longest payload of any message an honest `kind` run at this H in
    the group `params` sends, with every integer at its longest.
    Commitments, reports, reveals, masks, openings and outcomes are all
    shorter than a bound proof with i rows at position i, which no bound
    proof exceeds.  Each case's rule, fed the lowest reports and zero
    facts, names every other form a kind sends, with its coin's width."""
    k, w = KINDS[kind], width_of(bound)
    # One width for an element, an exponent, or s1 + s2 (w + 1 bits).
    e = max(params.element_bytes, params.exponent_bytes, 4 + (w + 8) // 8)
    pair = 2 * e + 2 * sized_proof_bytes((1, 1), e)  # one coin bit's pair and proofs
    longest = {
        "sum": 2 + e + w * e + bundle_bytes(plan_shapes(sum_plan(0, w)), e),
        "lt": 2 + w * e + bundle_bytes(plan_shapes(lt_plan(0, w)), e),
    }
    sizes = [1 + bundle_bytes([(1,) * i for i in range(1, w + 1)], e)]
    if k.certified:
        sizes.append(bundle_bytes(plan_shapes(le_committed_plan(w)), e))
    for case in k.cases:
        steps = k.rule(case, [0] * (k.per_report or 2), bound)
        for ev in _walk(steps, lambda ev: [0] * ev.bits if ev.form == "coin" else 0):
            sizes.append(1 + ev.bits * pair if ev.form == "coin" else longest.get(ev.form, 0))
    return max(sizes)


def max_messages(kind: str) -> int:
    """The most messages one run of `kind` carries: the commitment (and its
    certificate), the reports (one per bidder, and a report's u16 index
    allows 65,536), the longest case's evidence and the outcome."""
    k = KINDS[kind]
    return 1 + k.certified + (1 if k.per_report else 1 << 16) + k.longest + 1


def _admit(log: _Log, msg: Message | None, tag: int, phase: str) -> bytes:
    """Check that `msg` is there and carries `tag`; log it and return the
    prefix its proofs bind."""
    if msg is None:
        _fail(phase, "transcript truncated")
    if msg.tag != tag:
        _fail(phase, f"expected tag {tag:#x}, found {msg.tag:#x}", index=len(log.messages))
    prefix = log.prefix
    log.add(msg)
    return prefix


def _check(ref: RefString, ev: Evidence, payload: bytes, prefix: bytes, coms, coin, batch):
    """Check one evidence message against the claim `ev`, its terms joining
    `batch`; returns the fact it establishes (for a coin, its pairs, which
    the mask then selects)."""
    params = ref.params
    width = len(coms[0])
    com = coms[ev.item]
    phase = _WIRE[ev.form][1]
    lead = _LEAD.get((ev.form, ev.item), b"")
    if not payload.startswith(lead):
        _fail(phase, f"expected lead byte {lead.hex()}, found {payload[:1].hex() or 'none'}")
    start = len(lead)  # the rest is read at its offsets in the payload
    if ev.form == "reveal":
        def read_openings(r):
            return [read_opening(r, params.p) for _ in range(r.u8())]

        ops = _decode(payload, phase, "reveal", read_openings, start)
        if len(ops) != width:
            _fail(phase, f"reveal carries {len(ops)} openings, expected {width}")
        batch.begin(*OPENING_FAILURE)
        s = reveal_int(ref, com, ops, batch)
        if not ev.low <= s <= ev.high:
            _fail(phase, f"revealed price {s} outside [{ev.low}, {ev.high}]")
        return s
    if ev.form in ("ge", "le"):
        ge = ev.form == "ge"
        w = ev.low if ge else ev.high
        if w >= 1 << width:
            _fail(phase, f"claim impossible: the bound {w} is above the maximal price")
        shapes = plan_shapes(bound_plan(w, width, greater=ge))
        bundle = _decode(
            payload, phase, "proof message", lambda r: read_bundle(r, params, shapes), start
        )
        side, verify = ("lower", verify_ge_public) if ge else ("upper", verify_le_public)
        batch.begin(phase, f"{side}-bound proof against {w} does not verify")
        if not verify(ref, com, w, bundle, prefix, batch):
            batch.reject()
        return None
    if ev.form == "sum":
        def read_sum(r):
            total = r.uint()
            if not 0 <= total < 1 << (width + 1):
                _fail(phase, f"announced total {describe_uint(total)} out of range")
            shapes = plan_shapes(sum_plan(total, width))
            return total, read_commitment(r, params), read_bundle(r, params, shapes)

        total, carry_com, bundle = _decode(payload, phase, "sum proof", read_sum, start)
        _require_members(ref, carry_com, phase, "carry commitment")
        batch.begin(phase, "sum proof does not verify")
        if not verify_sum(ref, coms[0], coms[1], total, carry_com, bundle, prefix, batch):
            batch.reject()
        return total
    if ev.form == "coin":
        pairs, proofs = _parse_coin_pairs(ref, payload, phase, ev.bits)
        for idx, (pair, pair_proofs) in enumerate(zip(pairs, proofs)):
            batch.begin(phase, "complement proof does not verify", idx)
            if not verify_complement(ref, pair, pair_proofs, prefix, idx, batch):
                batch.reject()
        return pairs
    if ev.form == "open":
        # read_opening has checked the bit and the exponent.
        op = _decode(payload, phase, "coin opening", lambda r: read_opening(r, params.p))
        batch.begin(phase, "coin opening does not match the selected commitment")
        batch.add_opening(coin[0], ref.g if op.bit == 0 else ref.h, op.bit, op.r, None)
        return op.bit
    def read_lt(r):
        verdict = r.u8()
        if verdict not in (0, 1):
            _fail(phase, f"bad verdict byte {verdict}")
        shapes = plan_shapes(lt_plan(verdict, width))
        return verdict, read_commitment(r, params), read_bundle(r, params, shapes)

    verdict, borrow_com, bundle = _decode(payload, phase, "comparison proof", read_lt)
    _require_members(ref, borrow_com, phase, "borrow commitment")
    batch.begin(phase, "comparison proof does not verify")
    if not verify_lt_committed(ref, coin, com, verdict, borrow_com, bundle, prefix, batch):
        batch.reject()
    return verdict


def verifier(ref: RefString, kind: str, bound: int, log: _Log, batch: Batch):
    """Every check of one run, as a generator fed one message at a time.

    Prime it with `send(None)`, then send each message in order, and None
    once the log ends.  It raises `VerificationFailed` at the first bad
    message and returns the outcome (as `StopIteration.value`).  It appends
    each message it admits to `log`, which each proof's Fiat-Shamir prefix
    is taken from.

    The cell equations and openings its messages carry join `batch`, one
    group per message, and are settled by the time the log ends; the caller
    may check them sooner.  Feed it through `_feed`, which lets a failure give
    way to an earlier one still pending there.
    """
    width = width_of(bound)
    k = KINDS[kind]
    msg = yield
    _admit(log, msg, TAG_COMMIT, "commit")
    coms = _parse_commit(ref, msg.payload, "commit", k.prices, width)
    if k.certified:
        msg = yield
        prefix = _admit(log, msg, TAG_COMMIT_PROOF, "commit-proof")
        shapes = plan_shapes(le_committed_plan(width))
        bundle = _decode(
            msg.payload, "commit-proof", "certificate", lambda r: read_bundle(r, ref.params, shapes)
        )
        batch.begin("commit-proof", "incentive certificate does not verify")
        if not verify_le_committed(ref, coms[0], coms[1], bundle, prefix, batch):
            batch.reject()

    msg = yield
    _admit(log, msg, TAG_TYPE_REPORT, "report")
    reports = _parse_report(msg.payload, "report", bound, 0, k.per_report or 1)
    msg = yield
    while not k.per_report and msg is not None and msg.tag == TAG_TYPE_REPORT:
        log.add(msg)
        reports += _parse_report(msg.payload, "report", bound, len(reports), 1)
        msg = yield
    if not k.per_report and len(reports) < 2:
        _fail("report", f"need at least two bids, got {len(reports)}")

    # The first evidence message names the case the seller claims.
    if msg is None:
        _fail("evaluate", "transcript truncated")
    claimed = (msg.tag, msg.payload[:1])
    for case in k.cases:
        steps = k.rule(case, reports, bound)
        ev = next(steps)
        if (_WIRE[ev.form][0], _LEAD[ev.form, ev.item]) == claimed:
            break
    else:
        _fail("evaluate", f"no case opens with tag {msg.tag:#x}", index=len(log.messages))

    coin = None  # the coin commitment the buyer's mask selects
    while True:
        prefix = _admit(log, msg, *_WIRE[ev.form])
        fact = _check(ref, ev, msg.payload, prefix, coms, coin, batch)
        if ev.form == "coin":
            msg = yield
            _admit(log, msg, TAG_COIN_MASK, "coin")
            mask = _parse_mask(msg.payload, "coin", ev.bits)
            coin = coin_select(fact, mask)
            fact = mask
        try:
            ev = steps.send(fact)
        except StopIteration as stop:
            expected = stop.value
            break
        msg = yield

    msg = yield
    _admit(log, msg, TAG_OUTCOME, "outcome")
    if msg.payload != encode_outcome(expected):  # the encoding is canonical
        _fail("outcome", f"the announced outcome is not {expected}, which the evidence implies")
    if (yield) is not None:
        _fail("outcome", "trailing messages after outcome", index=len(log.messages))
    batch.check()
    return expected


def _feed(check, batch: Batch, msg: Message | None) -> Outcome | None:
    """Send a verifier its next message; returns the outcome once the run
    is complete.  A failure first checks the verifier's `batch`, which
    raises an earlier failure still pending there, so a run fails at the
    message, and with the error, that checking each message in full as it
    comes would give.  Errors of the layers below count as a failed check."""
    try:
        check.send(msg)
    except StopIteration as stop:
        return stop.value
    except VerificationFailed:
        batch.check()
        raise
    except (NonMemberError, ParameterError, CodecError) as exc:
        batch.check()
        raise VerificationFailed("replay", str(exc)) from exc
    return None


# -- buyer session ----------------------------------------------------------------


class BuyerSession:
    """The verifying party.  Produces reports and coin masks, and feeds each
    message it receives or sends, once, to the run's verifier, so the
    session aborts on the first bad message.  It checks the verifier's
    batch before each of its own sends, so it never answers evidence whose
    cell equations or openings are still unchecked."""

    def __init__(
        self,
        ref: RefString,
        kind: str,
        bound: int,
        values: list[int],
        rng: random.Random,
        mask_value: int | None = None,
    ):
        if kind not in KINDS:
            raise ParameterError(f"unknown kind {kind!r}")
        self._kind = KINDS[kind]
        self.kind = kind
        self.bound = bound
        width_of(bound)  # H must be a power of two
        if not self._kind.per_report and len(values) < 2:
            raise ParameterError(f"{kind} needs at least two bids")
        expected = self._kind.per_report or len(values)
        if len(values) != expected:
            raise ParameterError(f"{kind} takes {expected} reported value(s)")
        for v in values:
            if not 0 <= v < bound:
                raise ParameterError(f"value {v} outside {{0,...,{bound - 1}}}")
        self.values = list(values)
        self.rng = rng
        self.mask_value = mask_value  # test hook: scripted mask draw
        self.failed = False
        self.log = _Log(ref.seed)  # every message verified so far
        self._batch = Batch(ref.params)
        self._check = verifier(ref, kind, bound, self.log, self._batch)
        _feed(self._check, self._batch, None)

    def _guard(self):
        if self.failed:
            raise VerificationFailed("session", "session already aborted")

    def _absorb(self, msgs: list[Message | None], settle: bool = False) -> Outcome | None:
        """Feed messages to the verifier; None ends the log.  `settle`: then
        check every term they left pending."""
        self._guard()
        outcome = None
        try:
            for msg in msgs:
                outcome = _feed(self._check, self._batch, msg)
            if settle:
                self._batch.check()
        except VerificationFailed:
            self.failed = True
            raise
        return outcome

    def receive_commit(self, msgs: list[Message]) -> list[Message]:
        self._absorb(msgs, settle=True)
        # One report per bidder, or one in all.
        groups = [self.values] if self._kind.per_report else [[v] for v in self.values]
        out = [Message(TAG_TYPE_REPORT, _report_payload(i, g)) for i, g in enumerate(groups)]
        self._absorb(out)
        return out

    def receive_evidence(self, msgs: list[Message]) -> Message | None:
        """Absorb an evidence batch; if it ends with a coin-pair message,
        answer with a fresh mask."""
        answers = bool(msgs) and msgs[-1].tag == TAG_COIN_PAIR
        self._absorb(msgs, settle=answers)
        if not answers:
            return None
        y = self.mask_value
        if y is None:
            y = self._kind.draw(self.rng, self.bound)
        mask = int_bits(y, msgs[-1].payload[0])  # the pair count, which the verifier checked
        msg = Message(TAG_COIN_MASK, _mask_payload(mask))
        self._absorb([msg])
        return msg

    def receive_final(self, msgs: list[Message]) -> Outcome:
        """Absorb the closing batch, which completes the run."""
        return self._absorb([*msgs, None])


# -- transcript verification ---------------------------------------------------


def replay(ref: RefString, kind: str, bound: int, messages: Iterable[Message]) -> Outcome:
    """Run the verifier over a complete message log, taking one message at
    a time, so a log read lazily stops being read at its first bad message
    that fails a check other than a cell equation or an opening, which its
    batch may hold until the end of the log."""
    if kind not in KINDS:
        _fail("params", f"unknown protocol kind {kind!r}")
    batch = Batch(ref.params)
    check = verifier(ref, kind, bound, _Log(ref.seed), batch)
    for msg in chain((None,), messages, (None,)):  # prime, the log, its end
        outcome = _feed(check, batch, msg)
    return outcome


def verify_transcript(ref: RefString, transcript: Transcript) -> Outcome:
    """Replay a full transcript; returns the outcome iff every check passes."""
    if transcript.seed != ref.seed:
        _fail("params", "transcript seed differs from the reference string")
    return replay(ref, transcript.kind, transcript.bound, transcript.messages)


# -- in-process driver -------------------------------------------------------------


def run_local(
    ref: RefString,
    spec: MechanismSpec,
    values: list[int],
    seller_rng: random.Random,
    buyer_rng: random.Random,
    coin_value: int | None = None,
    mask_value: int | None = None,
) -> tuple[Outcome, Transcript]:
    """Run seller and buyer in one process; returns the verified outcome
    and the buyer's log."""
    seller = SellerSession(ref, spec, seller_rng, coin_value=coin_value)
    buyer = BuyerSession(ref, spec.kind, spec.bound, values, buyer_rng, mask_value=mask_value)
    batch = seller.receive_reports(buyer.receive_commit(seller.begin()))
    if seller.awaiting_mask:
        batch = seller.receive_mask(buyer.receive_evidence(batch))
    outcome = buyer.receive_final(batch)
    if seller.outcome != outcome:
        raise VerificationFailed("outcome", "seller and buyer disagree on the outcome")
    return outcome, buyer.log.transcript(spec.kind, spec.bound)
