import copy
import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import rewired
from zkmech import commitments, gadgets, group, mpc, protocols, sigma
from zkmech.codec import (
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
    decode_single_frame,
    seed_frame,
    transcript_dumps,
    transcript_loads,
)
from zkmech.errors import (
    CodecError,
    ICViolation,
    ParameterError,
    RefuseToProve,
    VerificationFailed,
    ZkmechError,
)
from zkmech.group import GroupParams, derive_generators
from zkmech.mpc import run_mpc_local
from zkmech.protocols import (
    BuyerSession,
    MechanismSpec,
    Outcome,
    SellerSession,
    run_local,
    verify_transcript,
)

# Independent outcome oracles, coded straight from the mechanism
# definitions (exact halves via Fraction, not the protocol's integerized
# thresholds).


def oracle_ex1(s, v):
    if s <= v:
        return Outcome(trade=True, item=0, payment=s)
    return Outcome(trade=False, payment=0)


def oracle_ex1multi(s, bids):
    top = max(bids)
    winner = bids.index(top)
    second = sorted(bids, reverse=True)[1]
    if s > top:
        return Outcome(trade=False, payment=0)
    if s > second:
        return Outcome(trade=True, item=winner, payment=s)
    return Outcome(trade=True, item=winner, payment=second)


def oracle_ex2(prices, values):
    feasible = [i for i in (0, 1) if values[i] >= prices[i]]
    if not feasible:
        return Outcome(trade=False, payment=0)
    best = max(feasible, key=lambda i: (values[i] - prices[i], -i))
    return Outcome(trade=True, item=best, payment=prices[best])


def oracle_ex3(prices, v, coin_z=None):
    s1, s2 = prices
    half = Fraction(v, 2)
    if half < s1:
        return Outcome(trade=False, payment=0)
    if half < s2:
        won = coin_z == 1
        return Outcome(
            trade=won, item=0 if won else None, payment=s1, lottery=None
        )
    return Outcome(trade=True, item=0, payment=s1 + s2)


def oracle_ex4(s, v, bound, z=None):
    if v < s:
        return Outcome(trade=False, payment=0)
    return Outcome(trade=True, item=0, payment=bound if z < s else 0)


def run(ref, spec, values, seed=0, **kw):
    return run_local(
        ref, spec, values, random.Random(f"{seed}/s"), random.Random(f"{seed}/b"), **kw
    )


class TestMechanismSpec:
    def test_ic_precondition_enforced_at_construction(self):
        ok = bad = 0
        for s1 in range(8):
            for s2 in range(8):
                if s1 <= s2:
                    MechanismSpec("ex3", 8, (s1, s2))
                    ok += 1
                else:
                    with pytest.raises(ICViolation):
                        MechanismSpec("ex3", 8, (s1, s2))
                    bad += 1
        assert (ok, bad) == (36, 28)

    def test_bound_must_be_power_of_two(self):
        with pytest.raises(ParameterError):
            MechanismSpec("ex1", 6, (1,))
        with pytest.raises(ParameterError):
            MechanismSpec("ex1", 1, (0,))

    def test_prices_in_range(self):
        with pytest.raises(ParameterError):
            MechanismSpec("ex1", 8, (8,))

    def test_value_out_of_range_is_an_input_error(self, ref23, rng):
        with pytest.raises(ParameterError):
            BuyerSession(ref23, "ex3", 8, [12], rng)


class TestHiddenPriceSale:
    def test_boundary_trade(self, ref23):
        spec = MechanismSpec("ex1", 8, (5,))
        out, _ = run(ref23, spec, [5])
        assert out == Outcome(trade=True, item=0, payment=5)

    def test_no_trade_with_proof(self, ref23):
        spec = MechanismSpec("ex1", 8, (5,))
        out, tr = run(ref23, spec, [3])
        assert out == Outcome(trade=False, payment=0)
        assert verify_transcript(ref23, tr) == out

    def test_exhaustive_small_bound(self, ref23):
        for s in range(4):
            spec = MechanismSpec("ex1", 4, (s,))
            for v in range(4):
                out, tr = run(ref23, spec, [v], seed=(s, v))
                assert out == oracle_ex1(s, v)
                assert verify_transcript(ref23, tr) == out

    def test_no_trade_leaks_no_openings(self, ref23):
        # structural information-flow check: a failed sale leaves only
        # commitments, the report, proofs, and the outcome in the log
        spec = MechanismSpec("ex1", 8, (5,))
        _, tr = run(ref23, spec, [2])
        assert tr.tags() == [TAG_COMMIT, TAG_TYPE_REPORT, TAG_EVAL_PROOF, TAG_OUTCOME]


class TestSecondPriceWithReserve:
    def test_reveal_case(self, ref23):
        out, _ = run(ref23, MechanismSpec("ex1multi", 8, (5,), n_buyers=2), [7, 3])
        assert out == Outcome(trade=True, item=0, payment=5)

    def test_second_price_case(self, ref23):
        out, _ = run(ref23, MechanismSpec("ex1multi", 8, (2,), n_buyers=2), [7, 6])
        assert out == Outcome(trade=True, item=0, payment=6)

    def test_reserve_above_all(self, ref23):
        out, _ = run(ref23, MechanismSpec("ex1multi", 8, (7,), n_buyers=2), [3, 2])
        assert out == Outcome(trade=False, payment=0)

    def test_ties_break_to_lowest_index(self, ref23):
        out, _ = run(ref23, MechanismSpec("ex1multi", 8, (1,), n_buyers=3), [5, 5, 2])
        assert out.item == 0 and out.payment == 5

    def test_exhaustive_three_bidders_small_bound(self, ref23):
        for s in range(4):
            spec = MechanismSpec("ex1multi", 4, (s,), n_buyers=2)
            for bids in product(range(4), repeat=2):
                out, tr = run(ref23, spec, list(bids), seed=(s, bids))
                assert out == oracle_ex1multi(s, list(bids))
                assert verify_transcript(ref23, tr) == out


class TestTwoItemUnitDemand:
    def test_worked_example(self, ref23):
        out, tr = run(ref23, MechanismSpec("ex2", 8, (3, 6)), [5, 5])
        assert out == Outcome(trade=True, item=0, payment=3)
        assert verify_transcript(ref23, tr) == out

    def test_double_no_trade(self, ref23):
        out, _ = run(ref23, MechanismSpec("ex2", 8, (7, 7)), [0, 0])
        assert out == Outcome(trade=False, payment=0)

    def test_negative_bound_omits_proof(self, ref23):
        # unsold item's required bound is non-positive: vacuous, no proof
        out, tr = run(ref23, MechanismSpec("ex2", 8, (0, 1)), [5, 0])
        assert out.trade and out.item == 0
        assert TAG_EVAL_PROOF not in tr.tags()
        assert verify_transcript(ref23, tr) == out

    def test_exhaustive_small_bound(self, ref23):
        for s1, s2 in product(range(4), repeat=2):
            spec = MechanismSpec("ex2", 4, (s1, s2))
            for v1, v2 in product(range(4), repeat=2):
                out, tr = run(ref23, spec, [v1, v2], seed=(s1, s2, v1, v2))
                assert out == oracle_ex2((s1, s2), [v1, v2])
                assert verify_transcript(ref23, tr) == out


class TestTwoPartPricing:
    def test_case_selection_matches_definition(self, ref23):
        # enumerate every value against the exact-halves definition
        spec = MechanismSpec("ex3", 8, (2, 5))
        for v in range(8):
            out, tr = run(ref23, spec, [v], seed=v, coin_value=1, mask_value=0)
            expected = oracle_ex3((2, 5), v, coin_z=1)
            assert (out.trade, out.payment) == (expected.trade, expected.payment)
            assert verify_transcript(ref23, tr) == out

    def test_lottery_coin_drives_allocation(self, ref23):
        spec = MechanismSpec("ex3", 8, (2, 5))
        for x, y in product((0, 1), repeat=2):
            out, tr = run(ref23, spec, [7], seed=(x, y), coin_value=x, mask_value=y)
            z = x ^ y
            assert out == Outcome(
                trade=z == 1, item=0 if z == 1 else None, payment=2, lottery=(y, z)
            )
            assert verify_transcript(ref23, tr) == out

    def test_full_allocation_announces_sum(self, ref23):
        out, tr = run(ref23, MechanismSpec("ex3", 8, (1, 2)), [7])
        assert out == Outcome(trade=True, item=0, payment=3)
        assert verify_transcript(ref23, tr) == out

    def test_value_out_of_range_rejected(self, ref23, rng):
        spec = MechanismSpec("ex3", 8, (2, 5))
        seller = SellerSession(ref23, spec, rng)
        seller.begin()
        from zkmech.protocols import _report_payload

        bad = Message(TAG_TYPE_REPORT, _report_payload(0, [12]))
        with pytest.raises(VerificationFailed):
            seller.receive_reports([bad])


class TestRandomizedPayment:
    def test_zero_price_never_charges(self, ref23):
        spec = MechanismSpec("ex4", 4, (0,))
        for x, y in product(range(4), repeat=2):
            out, tr = run(ref23, spec, [3], seed=(x, y), coin_value=x, mask_value=y)
            assert out.trade and out.payment == 0
            assert verify_transcript(ref23, tr) == out

    def test_charge_frequency_matches_price(self, ref23):
        # fixed mask, all four seller draws: exactly s of them pay H
        spec = MechanismSpec("ex4", 4, (2,))
        charged = 0
        for x in range(4):
            out, _ = run(ref23, spec, [3], seed=x, coin_value=x, mask_value=1)
            charged += out.payment == 4
        assert charged == 2

    def test_no_trade_below_price(self, ref23):
        out, tr = run(ref23, MechanismSpec("ex4", 8, (5,)), [3])
        assert out == Outcome(trade=False, payment=0)
        assert verify_transcript(ref23, tr) == out

    def test_exhaustive_coin_space(self, ref23):
        spec = MechanismSpec("ex4", 4, (2,))
        for v in range(4):
            for x, y in product(range(4), repeat=2):
                out, tr = run(ref23, spec, [v], seed=(v, x, y), coin_value=x, mask_value=y)
                assert out == verify_transcript(ref23, tr)
                expected = oracle_ex4(2, v, 4, z=x ^ y)
                assert (out.trade, out.payment) == (expected.trade, expected.payment)


class TestTranscriptVerification:
    def test_truncated_transcript_fails_with_phase(self, ref23):
        _, tr = run(ref23, MechanismSpec("ex1", 8, (5,)), [3])
        tr.messages = tr.messages[:-1]
        with pytest.raises(VerificationFailed) as err:
            verify_transcript(ref23, tr)
        assert err.value.phase == "outcome"

    def test_substituted_commitment_rejected(self, ref23):
        _, tr = run(ref23, MechanismSpec("ex1", 8, (5,)), [3])
        payload = bytearray(tr.messages[0].payload)
        # swap the first committed element for another subgroup member
        from zkmech.codec import Reader
        from zkmech.commitments import read_int_commitment

        r = Reader(bytes(payload))
        r.u8()
        com = read_int_commitment(r, ref23.params.q)
        old = com.bits[0].value
        new = next(
            x for x in (2, 3, 4) if ref23.params.is_member(x) and x != old
        )
        idx = bytes(payload).find(old.to_bytes(1, "big"), 2)
        payload[idx] = new
        tr.messages[0] = Message(TAG_COMMIT, bytes(payload))
        with pytest.raises(VerificationFailed):
            verify_transcript(ref23, tr)

    def test_wrong_seed_rejected(self, ref23):
        _, tr = run(ref23, MechanismSpec("ex1", 8, (5,)), [3])
        tr.seed = b"different"
        with pytest.raises(VerificationFailed):
            verify_transcript(ref23, tr)

    def test_outcome_substitution_rejected(self, ref23):
        from zkmech.protocols import encode_outcome

        _, tr = run(ref23, MechanismSpec("ex1", 8, (5,)), [3])
        fake = Outcome(trade=True, item=0, payment=0)
        tr.messages[-1] = Message(TAG_OUTCOME, encode_outcome(fake))
        with pytest.raises(VerificationFailed) as err:
            verify_transcript(ref23, tr)
        assert err.value.phase == "outcome"

    def test_only_the_canonical_outcome_bytes_pass(self, ref23):
        # a trade with item and payment, a lottery record, and a no-trade
        runs = [
            (MechanismSpec("ex1", 8, (3,)), [5], {}),
            (MechanismSpec("ex3", 8, (2, 5)), [7], {"coin_value": 1, "mask_value": 0}),
            (MechanismSpec("ex4", 8, (5,)), [3], {}),
        ]
        for spec, values, kw in runs:
            _, tr = run(ref23, spec, values, **kw)
            good = tr.messages[-1].payload
            bad = [good[:-1], good + b"\x00", b"\x00" * len(good)]
            bad += [
                bytes(b ^ (1 << bit) if i == k else b for i, b in enumerate(good))
                for k in range(len(good))
                for bit in range(8)
            ]
            for payload in set(bad) - {good}:  # a no-trade encodes to zero bytes
                tr.messages[-1] = Message(TAG_OUTCOME, payload)
                with pytest.raises(VerificationFailed) as err:
                    verify_transcript(ref23, tr)
                assert err.value.phase == "outcome", payload.hex()

    def test_unknown_kind_rejected(self, ref23):
        _, tr = run(ref23, MechanismSpec("ex1", 8, (5,)), [3])
        tr.kind = "nonsense"
        with pytest.raises(VerificationFailed):
            verify_transcript(ref23, tr)

    def test_round_trip_through_text(self, ref23):
        out, tr = run(ref23, MechanismSpec("ex3", 8, (2, 5)), [7], coin_value=1, mask_value=1)
        again = transcript_loads(transcript_dumps(tr))
        assert verify_transcript(ref23, again) == out

    def test_no_trade_against_maximal_report_auto_rejected(self, ref23):
        # a price above H-1 cannot exist, so a no-trade claim against the
        # top report is rejected before any proof is even read
        from zkmech.codec import Transcript
        from zkmech.commitments import commit_int
        from zkmech.gadgets import encode_bundle
        from zkmech.protocols import _LEAD, _commit_payload, _report_payload, encode_outcome

        com, _ = commit_int(ref23, 7, 3, random.Random(5))
        messages = [
            Message(TAG_COMMIT, _commit_payload(ref23.params, [com])),
            Message(TAG_TYPE_REPORT, _report_payload(0, [7])),
            Message(TAG_EVAL_PROOF, _LEAD["ge", 0] + encode_bundle([])),
            Message(TAG_OUTCOME, encode_outcome(Outcome(trade=False, payment=0))),
        ]
        forged = Transcript(kind="ex1", bound=8, seed=ref23.seed, messages=messages)
        with pytest.raises(VerificationFailed) as err:
            verify_transcript(ref23, forged)
        assert "maximal" in err.value.detail


class TestSessionPhases:
    def test_seller_rejects_out_of_order_calls(self, ref23, rng):
        spec = MechanismSpec("ex1", 8, (5,))
        seller = SellerSession(ref23, spec, rng)
        with pytest.raises(VerificationFailed):
            seller.receive_reports([])
        seller.begin()
        with pytest.raises(VerificationFailed):
            seller.begin()

    def test_buyer_poisoned_after_failure(self, ref23, rng):
        spec = MechanismSpec("ex3", 8, (2, 5))
        seller = SellerSession(ref23, spec, rng)
        msgs = seller.begin()
        buyer = BuyerSession(ref23, "ex3", 8, [7], random.Random(5))
        # corrupt the certificate message
        bad = [msgs[0], Message(msgs[1].tag, msgs[1].payload[:-1] + b"\x00")]
        with pytest.raises(VerificationFailed):
            buyer.receive_commit(bad)
        with pytest.raises(VerificationFailed):
            buyer.receive_commit(msgs)


class TestCaseRuleRegressions:
    def test_ex2_item_one_sale_on_a_tie_needs_a_strict_bound(self, ref23, rng, monkeypatch):
        # Reports (0, 1) on prices (0, 1) tie the two gains at 0, and ties
        # go to item 0, so selling item 1 needs a proof that s0 >= 1.
        spec = MechanismSpec("ex2", 8, (0, 1))
        monkeypatch.setattr(protocols, "unit_demand_choice", lambda *args: 1)
        with pytest.raises(RefuseToProve):
            run(ref23, spec, [0, 1])
        # The sale a seller without that proof would send is rejected.
        seller = SellerSession(ref23, spec, rng)
        messages = [
            *seller.begin(),
            Message(TAG_TYPE_REPORT, protocols._report_payload(0, [0, 1])),
            Message(
                TAG_REVEAL, protocols._LEAD["reveal", 1] + protocols._openings_body(seller._ops[1])
            ),
            Message(TAG_OUTCOME, protocols.encode_outcome(Outcome(trade=True, item=1, payment=1))),
        ]
        with pytest.raises(VerificationFailed) as err:
            verify_transcript(ref23, Transcript("ex2", 8, ref23.seed, messages))
        assert err.value.phase == "evaluate"

    def test_ex3_full_case_needs_the_upper_bound(self, ref23, rng, monkeypatch):
        # At report 5 the threshold floor(5/2) = 2 is below s1 = 6: the
        # mechanism sells nothing, but a "full" claim would charge 13.
        spec = MechanismSpec("ex3", 16, (6, 7))
        monkeypatch.setattr(protocols, "two_part_case", lambda *args: "full")
        with pytest.raises(RefuseToProve):
            run(ref23, spec, [5])
        # A full claim carrying only the sum proof is rejected.
        seller = SellerSession(ref23, spec, rng)
        messages = [*seller.begin(), Message(TAG_TYPE_REPORT, protocols._report_payload(0, [5]))]
        prefix = seed_frame(ref23.seed) + b"".join(m.frame() for m in messages)
        coms, ops = seller._coms, seller._ops
        total, carry, bundle = gadgets.prove_sum(
            ref23, coms[0], ops[0], coms[1], ops[1], prefix, rng
        )
        body = protocols._sum_body(ref23.params, total, carry, bundle)
        messages.append(Message(TAG_EVAL_PROOF, protocols._LEAD["sum", 0] + body))
        messages.append(
            Message(TAG_OUTCOME, protocols.encode_outcome(Outcome(trade=True, item=0, payment=13)))
        )
        with pytest.raises(VerificationFailed) as err:
            verify_transcript(ref23, Transcript("ex3", 16, ref23.seed, messages))
        assert err.value.phase == "evaluate"

    def test_ex3_full_case_carries_the_upper_bound_proof(self, ref23):
        _, tr = run(ref23, MechanismSpec("ex3", 8, (1, 2)), [7])
        claims = [m.payload[:1] for m in tr.messages if m.tag == TAG_EVAL_PROOF]
        assert claims == [protocols._LEAD["le", 1], protocols._LEAD["sum", 0]]


# The selection function each kind's seller calls, and every case it returns.
SELECTORS = {
    "ex1": ("posted_price_case", ("trade", "none")),
    "ex1multi": ("second_price_case", ("above", "between", "below")),
    "ex2": ("unit_demand_choice", (None, 0, 1)),
    "ex3": ("two_part_case", ("nothing", "lottery", "full")),
    "ex4": ("posted_price_case", ("trade", "none")),
}


def sweep_inputs(kind, bound=8):
    """(spec, reports, coin, mask, the mechanism's outcome) for every price
    vector and report vector at this bound; coins and masks are fixed per
    input so the oracle knows the draw."""
    grid = range(bound)
    if kind == "ex1":
        for s, v in product(grid, repeat=2):
            yield MechanismSpec(kind, bound, (s,)), [v], None, None, oracle_ex1(s, v)
    elif kind == "ex1multi":
        for s, v1, v2 in product(grid, repeat=3):
            spec = MechanismSpec(kind, bound, (s,), n_buyers=2)
            yield spec, [v1, v2], None, None, oracle_ex1multi(s, [v1, v2])
    elif kind == "ex2":
        for s1, s2, v1, v2 in product(grid, repeat=4):
            spec = MechanismSpec(kind, bound, (s1, s2))
            yield spec, [v1, v2], None, None, oracle_ex2((s1, s2), [v1, v2])
    elif kind == "ex3":
        for s1, s2, v in product(grid, repeat=3):
            if s1 > s2:
                continue
            x, y = (v ^ s1) & 1, (v ^ s2) & 1
            out = oracle_ex3((s1, s2), v, coin_z=x ^ y)
            if s1 <= Fraction(v, 2) < s2:  # the lottery records mask and coin
                out = replace(out, lottery=(y, x ^ y))
            yield MechanismSpec(kind, bound, (s1, s2)), [v], x, y, out
    else:
        width = bound.bit_length() - 1
        for s, v in product(grid, repeat=2):
            x, y = (3 * s + v) % bound, (s + 5 * v) % bound
            out = oracle_ex4(s, v, bound, z=x ^ y)
            if out.trade:  # the lottery records the mask bits and the verdict
                mask_bits = tuple((y >> k) & 1 for k in reversed(range(width)))
                out = replace(out, lottery=(*mask_bits, int(x ^ y < s)))
            yield MechanismSpec(kind, bound, (s,)), [v], x, y, out


@pytest.mark.parametrize("kind", sorted(SELECTORS))
def test_deviation_sweep(ref23, monkeypatch, kind):
    """Force the seller to claim each case on every input: a false claim
    must be refused by the prover or rejected by the buyer, and the one
    accepted claim must carry the mechanism's outcome."""
    name, cases = SELECTORS[kind]
    forced = [None]
    monkeypatch.setattr(protocols, name, lambda *args: forced[0])
    inputs = accepted = 0
    for i, (spec, reports, coin, mask, expected) in enumerate(sweep_inputs(kind)):
        inputs += 1
        for case in cases:
            forced[0] = case
            try:
                out, _ = run(ref23, spec, reports, seed=i, coin_value=coin, mask_value=mask)
            except (RefuseToProve, VerificationFailed):
                continue
            assert out == expected, f"{spec} on {reports}: claim {case!r} gave {out}"
            accepted += 1
    assert accepted == inputs


# Seeded honest runs of every kind and case: (spec, reports, coin, mask).
DIFFERENTIAL_RUNS = [
    (MechanismSpec("ex1", 8, (5,)), [6], None, None),
    (MechanismSpec("ex1", 8, (5,)), [3], None, None),
    (MechanismSpec("ex1multi", 8, (7,), n_buyers=2), [3, 2], None, None),
    (MechanismSpec("ex1multi", 8, (5,), n_buyers=3), [7, 3, 1], None, None),
    (MechanismSpec("ex1multi", 8, (2,), n_buyers=2), [7, 6], None, None),
    (MechanismSpec("ex2", 8, (7, 7)), [0, 0], None, None),
    (MechanismSpec("ex2", 8, (3, 6)), [5, 5], None, None),
    (MechanismSpec("ex2", 8, (2, 1)), [4, 4], None, None),
    (MechanismSpec("ex3", 8, (5, 6)), [3], None, None),
    (MechanismSpec("ex3", 8, (2, 5)), [7], 1, 0),
    (MechanismSpec("ex3", 8, (1, 2)), [7], None, None),
    (MechanismSpec("ex4", 4, (3,)), [1], None, None),
    (MechanismSpec("ex4", 4, (2,)), [3], 1, 2),
]


@pytest.mark.parametrize("spec, values, coin, mask", DIFFERENTIAL_RUNS)
def test_a_wrong_lead_byte_is_rejected(ref23, spec, values, coin, mask):
    # Every lead byte (a reveal's label, a proof's claim byte) is read in one
    # place: after the first evidence message, which names the case, a wrong
    # one fails there in the phase of its form.
    _, tr = run(ref23, spec, values, coin_value=coin, mask_value=mask)
    phases = {TAG_REVEAL: "reveal", TAG_EVAL_PROOF: "evaluate"}
    leads = [i for i, m in enumerate(tr.messages) if m.tag in phases]
    for i in leads:
        msg = tr.messages[i]
        for lead in set(range(6)) - {msg.payload[0]}:
            bad = Message(msg.tag, bytes([lead]) + msg.payload[1:])
            messages = [*tr.messages[:i], bad, *tr.messages[i + 1 :]]
            with pytest.raises(VerificationFailed) as err:
                verify_transcript(ref23, replace(tr, messages=messages))
            if i != leads[0]:
                assert err.value.phase == phases[msg.tag]
                assert "lead byte" in err.value.detail


def live_buyer(ref, spec, values, mask, log, tags):
    """A live buyer fed the seller's messages of `log`, laid out as `tags`
    lays out an honest run.  Returns ("accept", outcome), ("reject",
    phase), or None when the buyer would send other messages than the
    log's own reports and mask."""
    reports = [i for i, t in enumerate(tags) if t == TAG_TYPE_REPORT]
    first, last = reports[0], reports[-1] + 1
    buyer = BuyerSession(ref, spec.kind, spec.bound, values, random.Random(0), mask_value=mask)
    try:
        if buyer.receive_commit(log[:first]) != log[first:last]:
            return None
        if TAG_COIN_MASK not in tags:
            return "accept", buyer.receive_final(log[last:])
        m = tags.index(TAG_COIN_MASK)
        if buyer.receive_evidence(log[last:m]) != log[m]:
            return None
        return "accept", buyer.receive_final(log[m + 1 :])
    except VerificationFailed as exc:
        return "reject", exc.phase


def replay_verdict(ref, transcript):
    try:
        return "accept", verify_transcript(ref, transcript)
    except VerificationFailed as exc:
        return "reject", exc.phase


def test_buyer_and_replay_agree(ref23, monkeypatch):
    """The buyer checks a run through the verifier `replay` uses: it makes
    the same number of proof checks on honest runs, and on single-bit
    mutants it rejects exactly when replay does, in the same phase."""
    calls = [0]  # proofs checked
    real_ni_verify_all = gadgets.ni_verify_all

    def counted(items, batch=None):
        calls[0] += len(items)
        return real_ni_verify_all(items, batch)

    monkeypatch.setattr(gadgets, "ni_verify_all", counted)
    rng = random.Random("buyer-replay differential")
    compared = rejected = 0
    for n, (spec, values, coin, mask) in enumerate(DIFFERENTIAL_RUNS):
        calls[0] = 0
        _, tr = run(ref23, spec, values, seed=("diff", n), coin_value=coin, mask_value=mask)
        buyer_calls, calls[0] = calls[0], 0
        replay_verdict(ref23, tr)
        assert buyer_calls == calls[0], f"{spec}: buyer {buyer_calls}, replay {calls[0]}"
        tags = tr.tags()
        assert live_buyer(ref23, spec, values, mask, tr.messages, tags) == replay_verdict(ref23, tr)
        frames = [seed_frame(tr.seed)] + [m.frame() for m in tr.messages]
        for _ in range(40):
            idx = rng.randrange(len(frames))
            blob = bytearray(frames[idx])
            bit = rng.randrange(len(blob) * 8)
            blob[bit // 8] ^= 1 << (bit % 8)
            try:
                msg = decode_single_frame(bytes(blob))
            except CodecError:
                continue
            mutant = copy.deepcopy(tr)
            if idx == 0:
                if msg.tag != 0x00:
                    continue
                mutant.seed = msg.payload
            else:
                mutant.messages[idx - 1] = msg
            ref = ref23 if mutant.seed == ref23.seed else derive_generators(ref23.params, mutant.seed)
            live = live_buyer(ref, spec, values, mask, mutant.messages, tags)
            if live is None:  # a report or mask the buyer did not send
                continue
            expected = replay_verdict(ref, mutant)
            assert live == expected, f"{spec}: frame {idx} bit {bit}"
            compared += 1
            rejected += expected[0] == "reject"
    assert compared >= 300 and rejected >= 250


# -- the batched verifier in whole runs --------------------------------------------


@pytest.fixture
def batch_vs_cells(monkeypatch, per_cell_verdict):
    """Check every proof bundle on its own through `ni_verify_all` and the
    per-cell reference, which must agree, before the run's verifier records
    it in its batch; returns the tally of verdicts."""
    tally = Counter()
    real = sigma.ni_verify_all

    def both(items, batch=None):
        verdict = real(items)
        assert verdict == per_cell_verdict(items)
        tally[verdict] += 1
        return verdict if batch is None else real(items, batch)

    monkeypatch.setattr(gadgets, "ni_verify_all", both)
    monkeypatch.setattr(sigma, "ni_verify_all", both)  # mpc, through ni_verify
    return tally


def test_batch_agrees_with_cells_on_honest_runs(ref384, batch_vs_cells):
    for n, (spec, values, coin, mask) in enumerate(DIFFERENTIAL_RUNS):
        out, tr = run(ref384, spec, values, seed=("batch", n), coin_value=coin, mask_value=mask)
        assert verify_transcript(ref384, tr) == out
    run_mpc_local(ref384, 3, 5, 8, random.Random("mpc/s"), random.Random("mpc/b"))
    run_mpc_local(ref384, 6, 2, 8, random.Random("mpc/s2"), random.Random("mpc/b2"))
    assert batch_vs_cells[True] >= 40 and batch_vs_cells[False] == 0


def test_batch_agrees_with_cells_on_forced_claims(ref384, batch_vs_cells, monkeypatch):
    """A sample of the deviation sweep's inputs, every claim forced."""
    rng = random.Random("batch sweep")
    for kind, (name, cases) in sorted(SELECTORS.items()):
        forced = [None]
        monkeypatch.setattr(protocols, name, lambda *args: forced[0])
        inputs = list(sweep_inputs(kind))
        for i in sorted(rng.sample(range(len(inputs)), 10)):
            spec, reports, coin, mask, expected = inputs[i]
            for case in cases:
                forced[0] = case
                try:
                    out, _ = run(ref384, spec, reports, seed=i, coin_value=coin, mask_value=mask)
                except (RefuseToProve, VerificationFailed):
                    continue
                assert out == expected
    assert batch_vs_cells[True] >= 50


def test_batch_agrees_with_cells_on_single_bit_mutants(ref384, batch_vs_cells):
    """Criterion 12's victims and mutation, at 384 bits."""
    victims = [
        run(ref384, MechanismSpec("ex1", 8, (5,)), [3], "c12/ex1")[1],
        run(ref384, MechanismSpec("ex3", 8, (2, 5)), [7], "c12/ex3a", coin_value=1, mask_value=0)[1],
        run(ref384, MechanismSpec("ex3", 8, (1, 2)), [7], "c12/ex3b")[1],
    ]
    batch_vs_cells.clear()
    rng = random.Random("criterion-12")
    accepted = 0
    for i in range(150):
        tr = victims[i % len(victims)]
        frames = [seed_frame(tr.seed)] + [m.frame() for m in tr.messages]
        idx = rng.randrange(len(frames))
        blob = bytearray(frames[idx])
        bit = rng.randrange(len(blob) * 8)
        blob[bit // 8] ^= 1 << (bit % 8)
        try:
            msg = decode_single_frame(bytes(blob))
        except CodecError:
            continue
        mutant = copy.deepcopy(tr)
        if idx == 0:
            if msg.tag != 0x00:
                continue
            mutant.seed = msg.payload
        else:
            mutant.messages[idx - 1] = msg
        ref = ref384 if mutant.seed == ref384.seed else derive_generators(ref384.params, mutant.seed)
        accepted += replay_verdict(ref, mutant)[0] == "accept"
    assert accepted == 0
    assert batch_vs_cells[False] >= 20


# A dishonest prover's n-th proof, its first message carrying q - alpha in
# one cell and its challenge and response made over that value: (spec,
# reports, coin, mask, n, the rejection's text).  q - alpha is never a
# member, and from BATCH_BITS up an even weight hides its factor -1 from
# the batch's product, so only the alphas' membership test catches it there.
NEGATED_ALPHAS = {
    "ex3 certificate": (
        MechanismSpec("ex3", 8, (1, 2)), [7], None, None, 0,
        "[commit-proof] incentive certificate does not verify",
    ),
    "ex4 upper bound": (
        MechanismSpec("ex4", 8, (3,)), [5], 5, 2, 0,
        "[evaluate] upper-bound proof against 5 does not verify",
    ),
    "ex4 second coin pair": (
        MechanismSpec("ex4", 8, (3,)), [5], 5, 2, 3,
        "[coin] at index 1 complement proof does not verify",
    ),
    "ex4 comparison": (
        MechanismSpec("ex4", 8, (3,)), [5], 5, 2, 8,
        "[verdict] comparison proof does not verify",
    ),
}


@pytest.mark.parametrize("group", ["ref23", "ref384"])
@pytest.mark.parametrize("site", sorted(NEGATED_ALPHAS))
def test_a_negated_alpha_fails_at_its_message(request, group, site, monkeypatch):
    """The live buyer and a replay of the seller's log both reject the
    message that carries the negated alpha, with that message's failure,
    and the replay reads no message after it."""
    ref = request.getfixturevalue(group)
    spec, values, coin, mask, n, text = NEGATED_ALPHAS[site]
    real = sigma.cds_prove_first
    proofs = [0, n]  # proofs made, the one to negate

    def prove_first(stmt, wit, rng, openings=None):
        first, state = real(stmt, wit, rng, openings)
        if proofs[0] == proofs[1]:
            (alpha, *cells), *rows = first.alphas
            first = sigma.SigmaFirst(((ref.params.q - alpha, *cells), *rows))
        proofs[0] += 1
        return first, state

    def seller_log(negated):
        proofs[:] = [0, negated]
        seller = SellerSession(ref, spec, random.Random(f"{site}/s"), coin_value=coin)
        seller.begin()
        seller.receive_reports([Message(TAG_TYPE_REPORT, protocols._report_payload(0, values))])
        if seller.awaiting_mask:
            bits = protocols.int_bits(mask, protocols.width_of(spec.bound))
            seller.receive_mask(Message(TAG_COIN_MASK, protocols._mask_payload(bits)))
        return seller.log.transcript(spec.kind, spec.bound)

    monkeypatch.setattr(sigma, "cds_prove_first", prove_first)
    with pytest.raises(VerificationFailed) as live:
        run(ref, spec, values, seed=site, coin_value=coin, mask_value=mask)
    honest, log = seller_log(None), seller_log(n)
    bad = next(k for k, (a, b) in enumerate(zip(honest.messages, log.messages)) if a != b)
    read = []
    with pytest.raises(VerificationFailed) as replayed:
        verify_transcript(ref, replace(log, messages=(read.append(m) or m for m in log.messages)))
    assert str(live.value) == str(replayed.value) == text
    assert len(read) == bad + 1


def test_multi_pow_runs_once_per_replay_and_buyer_check_point(ref23, ref384, monkeypatch):
    """Above the batch size a replay checks every cell equation and opening
    of its log in one `multi_pow`, and a buyer makes one at each check
    point (before its reports, before its mask, at the end) that has terms
    pending; below it, none."""
    calls = Counter()
    real_multi_pow, real_check = GroupParams.multi_pow, sigma.Batch.check

    def multi_pow(self, pairs):
        calls["multi_pow"] += 1
        return real_multi_pow(self, pairs)

    def check(self):
        calls["pending"] += bool(self._groups)
        return real_check(self)

    monkeypatch.setattr(GroupParams, "multi_pow", multi_pow)
    monkeypatch.setattr(sigma.Batch, "check", check)
    for ref in (ref23, ref384):
        buyer_checks = 0
        for n, (spec, values, coin, mask) in enumerate(DIFFERENTIAL_RUNS):
            calls.clear()
            _, tr = run(ref, spec, values, seed=("count", n), coin_value=coin, mask_value=mask)
            assert calls["multi_pow"] == (0 if ref is ref23 else calls["pending"]), spec
            buyer_checks += calls["pending"]
            calls.clear()
            verify_transcript(ref, tr)
            assert calls["multi_pow"] == (0 if ref is ref23 else 1), spec
        # One at the end of each run, one before the reports of each ex3 run
        # (its certificate) and one before each of the two masks.
        assert buyer_checks == (0 if ref is ref23 else len(DIFFERENTIAL_RUNS) + 3 + 2)


def plan_cells(plan) -> int:
    return sum(sum(shape) for shape in gadgets.plan_shapes(plan))


def replay_elements(spec, values, out) -> tuple[int, int]:
    """(elements, cells) of a replay of an honest run of `spec` on these
    reports with outcome `out`: every element other than an alpha that it
    checks for membership (g and h, the commitment bits, the carry and
    borrow bits, the coin pairs' elements), and the cells of every proof
    the case owes (its plans' and, for ex3, the certificate's), one alpha
    each.  The case's rule is walked with the facts the run established."""
    width = protocols.width_of(spec.bound)
    kind = protocols.KINDS[spec.kind]
    elements = 2 + kind.prices * width
    cells = plan_cells(gadgets.le_committed_plan(width)) if kind.certified else 0

    def fact(ev):
        if ev.form == "reveal":
            return spec.prices[ev.item]
        if ev.form == "sum":
            return out.payment
        if ev.form == "coin":
            return list(out.lottery[: ev.bits])
        return out.lottery[-1] if ev.form in ("open", "lt") else None

    for ev in protocols._walk(protocols._selected_rule(spec, values), fact):
        if ev.form in ("ge", "le"):
            w = ev.low if ev.form == "ge" else ev.high
            cells += plan_cells(gadgets.bound_plan(w, width, greater=ev.form == "ge"))
        elif ev.form in ("sum", "lt"):  # the carries or borrows, and the gate proofs
            plan = gadgets.sum_plan if ev.form == "sum" else gadgets.lt_plan
            elements += width
            cells += plan_cells(plan(fact(ev), width))
        elif ev.form == "coin":
            elements += 2 * ev.bits
            cells += plan_cells(gadgets.complement_plan(0, ev.bits))
    return elements, cells


def raised_elements(units) -> set[int]:
    """The distinct elements other than alphas that `sigma._batch_holds`
    raises for `units`: every base and target of the proofs' cells, and
    every opened value and its base."""
    elements = set()
    for _, _, _, terms in units:
        if isinstance(terms, tuple):  # an opening: (value, base, r)
            elements.update(terms[:2])
        else:
            for stmt, _, _ in terms:
                elements.update(x for row in stmt.rows for cell in row for x in cell)
    return elements


def test_a_384_bit_replay_makes_one_multi_pow_and_no_other_power(ref384, monkeypatch):
    """A replay in a fresh group object, derivation included, checks each
    value once, where it enters (`replay_elements`), and makes one
    `multi_pow`, with one base per cell and one per distinct element it
    raises."""
    calls, bases, raised = Counter(), [], []

    def counted(name):
        real = getattr(GroupParams, name)

        def call(self, *args):
            calls[name] += 1
            return real(self, *args)

        monkeypatch.setattr(GroupParams, name, call)

    for name in ("pow_unchecked", "is_member"):
        counted(name)
    real_multi_pow, real_batch_holds = GroupParams.multi_pow, sigma._batch_holds

    def multi_pow(self, pairs):
        calls["multi_pow"] += 1
        bases.append(len(pairs := list(pairs)))
        return real_multi_pow(self, pairs)

    def batch_holds(params, units):
        raised.append(raised_elements(units))
        return real_batch_holds(params, units)

    monkeypatch.setattr(GroupParams, "multi_pow", multi_pow)
    monkeypatch.setattr(sigma, "_batch_holds", batch_holds)
    q384 = ref384.params
    for n, (spec, values, coin, mask) in enumerate(DIFFERENTIAL_RUNS):
        out, tr = run(ref384, spec, values, seed=n, coin_value=coin, mask_value=mask)
        calls.clear(), bases.clear(), raised.clear()
        fresh = GroupParams(q384.q, q384.p, q384.bit_length)  # as in a fresh process
        assert verify_transcript(derive_generators(fresh, tr.seed), tr) == out
        elements, cells = replay_elements(spec, values, out)
        assert calls == {"multi_pow": 1, "is_member": elements + cells}, (spec, values)
        assert bases == [cells + len(raised[0])], (spec, values)


def eager_verdict(ref, tr):
    """The replay's verdict with its batch checked after every message, as
    a verifier checking each message in full would give it: the outcome,
    or the failure's text."""
    batch = sigma.Batch(ref.params)
    check = protocols.verifier(ref, tr.kind, tr.bound, protocols._Log(ref.seed), batch)
    try:
        if tr.seed != ref.seed:
            protocols._fail("params", "transcript seed differs from the reference string")
        for msg in [None, *tr.messages, None]:
            outcome = protocols._feed(check, batch, msg)
            batch.check()
    except VerificationFailed as exc:
        return str(exc)
    return outcome


def end_of_log_verdict(ref, tr):
    try:
        return verify_transcript(ref, tr)
    except VerificationFailed as exc:
        return str(exc)


def flipped(tr, idx, bit):
    """`tr` with bit `bit` of frame `idx` flipped (0 is the seed frame), or
    None when the frame no longer decodes as one frame of its place."""
    blob = bytearray(([seed_frame(tr.seed)] + [m.frame() for m in tr.messages])[idx])
    blob[bit // 8] ^= 1 << (bit % 8)
    try:
        msg = decode_single_frame(bytes(blob))
    except CodecError:
        return None
    mutant = copy.deepcopy(tr)
    if idx == 0:
        if msg.tag != 0x00:
            return None
        mutant.seed = msg.payload
    else:
        mutant.messages[idx - 1] = msg
    return mutant


# The messages whose checks leave terms pending in the batch (proofs, and the
# openings of a reveal or of a coin), by the phase their failure names.
BATCHED_PHASES = {
    TAG_COMMIT_PROOF: "commit-proof",
    TAG_EVAL_PROOF: "evaluate",
    TAG_REVEAL: "reveal",
    TAG_COIN_PAIR: "coin",
    TAG_VERDICT: "verdict",
}


def resequenced(tr, other):
    """Mutants of `tr` that change its frame sequence, as (mutant, index of
    a flipped message or None): each message dropped, duplicated in place,
    swapped with the next, or replaced by the message at its place in
    `other`, a second session of the same kind, where the two differ.  Then,
    for each message with batched terms, one bit of it is flipped and each
    later message dropped or duplicated.  The bit is the low bit of the
    payload's 33rd byte from the end: in a proof, of its last gamma, ahead
    of its 32-byte digest; in an opening, of a middle byte of its exponent.
    So the message still decodes, and its terms go pending false."""
    msgs = tr.messages
    out = [(replace(tr, messages=seq), None) for _, seq in tampered(msgs, other.messages)]
    for i, msg in enumerate(msgs):
        if msg.tag not in BATCHED_PHASES or len(msg.payload) < 33:  # < 33: no term
            continue
        payload = bytearray(msg.payload)
        payload[-33] ^= 1
        bad = [*msgs[:i], Message(msg.tag, bytes(payload)), *msgs[i + 1 :]]
        for idx in range(i + 1, len(msgs)):
            out.append((replace(tr, messages=bad[:idx] + bad[idx + 1 :]), i))
            out.append((replace(tr, messages=bad[: idx + 1] + bad[idx:]), i))
    return out


def tampered(items, others):
    """(class, sequence) for each sequence made from `items` by dropping
    one, duplicating one in place, swapping one with the next, or replacing
    one by the item at its place in `others` where the two differ."""
    out = []
    for i, item in enumerate(items):
        out.append(("drop", items[:i] + items[i + 1 :]))
        out.append(("duplicate", items[: i + 1] + items[i:]))
        if i + 1 < len(items):
            out.append(("swap", [*items[:i], items[i + 1], item, *items[i + 2 :]]))
        if i < len(others) and others[i] != item:
            out.append(("splice", [*items[:i], others[i], *items[i + 1 :]]))
    return out


def reports_of(tr) -> list[int]:
    """The reported values, in order, as `tr`'s report frames carry them."""
    values = []
    for msg in tr.messages:
        if msg.tag == TAG_TYPE_REPORT:
            r = Reader(msg.payload)
            r.u16()  # the first bidder's index
            values.extend(r.uint() for _ in range(r.u8()))
    return values


def reproduces(ref, spec, mutant, seed, coin, mask) -> bool:
    """Whether `run_local`, with `mutant`'s reports and the seeds of the run
    it was made from, gives `mutant` byte for byte: then accepting it
    accepts an honest run."""
    reports = reports_of(mutant)
    try:
        if spec.n_buyers > 1:
            spec = replace(spec, n_buyers=len(reports))
        _, again = run(ref, spec, reports, seed=seed, coin_value=coin, mask_value=mask)
    except ZkmechError:  # these reports admit no honest run
        return False
    return transcript_dumps(again) == transcript_dumps(mutant)


# The resequenced mutants with a flipped message, by the phase they fail in.
# At q=23 no reveal and no coin opening is 33 bytes long.
FLIP_PHASES = {
    "ref23": {"commit-proof": 28, "evaluate": 34, "coin": 12, "verdict": 2},
    "ref384": {"commit-proof": 28, "evaluate": 34, "reveal": 22, "coin": 12, "verdict": 4},
}


@pytest.mark.parametrize("group", ["ref23", "ref384"])
def test_the_end_of_log_check_names_what_checking_each_message_names(request, group):
    """In the q=23 group, whose batch checks each term as it is added, and
    at 384 bits, where it defers them to the end of the log: over criterion
    12's mutants of three victims, one mutant per frame of every
    differential run (each replayable kind and case) and that run's
    `resequenced` mutants (against a second session of the same run), the
    replay gives the verdict, and the same error text, as one that checks
    its batch after every message.  A resequenced mutant with a flipped
    message fails at that message's terms, and is named at it; of the
    others only one is accepted: an ex1multi "between" run without its last
    bidder's report, an honest run of fewer bidders, as `reproduces`
    shows."""
    ref = request.getfixturevalue(group)
    victims = [
        run(ref, MechanismSpec("ex1", 8, (5,)), [3], "c12/ex1")[1],
        run(ref, MechanismSpec("ex3", 8, (2, 5)), [7], "c12/ex3a", coin_value=1, mask_value=0)[1],
        run(ref, MechanismSpec("ex3", 8, (1, 2)), [7], "c12/ex3b")[1],
    ]
    rng = random.Random("criterion-12")
    mutants = []
    for i in range(150):
        tr = victims[i % len(victims)]
        idx = rng.randrange(len(tr.messages) + 1)
        frame = seed_frame(tr.seed) if idx == 0 else tr.messages[idx - 1].frame()
        mutants.append(flipped(tr, idx, rng.randrange(len(frame) * 8)))
    rng = random.Random("one mutant per frame")
    kinds = Counter()
    accepted, flip_phases = [], Counter()
    for n, (spec, values, coin, mask) in enumerate(DIFFERENTIAL_RUNS):
        seed = ("eager", n)
        out, tr = run(ref, spec, values, seed=seed, coin_value=coin, mask_value=mask)
        _, other = run(ref, spec, values, seed=("second", n), coin_value=coin, mask_value=mask)
        for idx, frame in enumerate([seed_frame(tr.seed)] + [m.frame() for m in tr.messages]):
            mutants.append(flipped(tr, idx, rng.randrange(len(frame) * 8)))
            kinds[spec.kind] += 1
        for mutant, i in resequenced(tr, other):
            verdict = end_of_log_verdict(ref, mutant)
            assert verdict == eager_verdict(ref, mutant), (spec, values, i)
            if i is None:
                if not isinstance(verdict, str):
                    tags = [m.tag for m in mutant.messages]
                    accepted.append((spec.kind, values, tags, verdict == out))
                    assert reproduces(ref, spec, mutant, seed, coin, mask), (spec, values, tags)
                continue
            phase = verdict.split("]")[0][1:]
            assert phase == BATCHED_PHASES[tr.messages[i].tag], (spec, values, i, verdict)
            flip_phases[phase] += 1
    assert set(kinds) == set(protocols.KINDS)
    ex1multi_between = [TAG_COMMIT, TAG_TYPE_REPORT, TAG_TYPE_REPORT, TAG_REVEAL, TAG_OUTCOME]
    assert accepted == [("ex1multi", [7, 3, 1], ex1multi_between, True)]
    assert flip_phases == FLIP_PHASES[group]
    phases = Counter()
    for mutant in filter(None, mutants):
        seed = mutant.seed
        mutant_ref = ref if seed == ref.seed else derive_generators(ref.params, seed)
        verdict = end_of_log_verdict(mutant_ref, mutant)
        assert verdict == eager_verdict(mutant_ref, mutant)
        if isinstance(verdict, str):
            phases[verdict.split("]")[0][1:]] += 1
    assert sum(phases.values()) >= 150
    assert {"commit-proof", "evaluate", "reveal", "coin", "verdict"} <= set(phases), phases


def test_tampered_frame_sequences_fail_cleanly(ref23):
    """Over one seeded q=23 run of each case of every replayable kind, each
    frame of its text, the seed frame's among them, dropped, duplicated,
    swapped with the next, or replaced by the frame at its place in a second
    seeded session of the same run: reading and replaying the mutant fails
    with `VerificationFailed` or `CodecError` and nothing else, or accepts a
    mutant that `reproduces` as an honest run."""
    tally = Counter()
    for n, (spec, values, coin, mask) in enumerate(DIFFERENTIAL_RUNS):
        seed = ("tamper", n)
        _, tr = run(ref23, spec, values, seed=seed, coin_value=coin, mask_value=mask)
        _, other = run(ref23, spec, values, seed=("second", n), coin_value=coin, mask_value=mask)
        head, *frames = transcript_dumps(tr).splitlines()
        for cls, lines in tampered(frames, transcript_dumps(other).splitlines()[1:]):
            text = "\n".join([head, *lines]) + "\n"
            tally[cls, replay_of_edit(ref23, text, spec, seed, coin, mask)] += 1
    assert tally[("drop", "accepted")] == 1  # the ex1multi "between" run's last report
    assert all(tally[cls, "rejected"] > 0 for cls in ("drop", "duplicate", "swap", "splice")), tally


def replay_of_edit(ref, text, spec, seed, coin, mask) -> str:
    """Read and replay `text`, an edit of the seeded run of `spec`, in the
    group of `ref` with the generators of its own seed: "rejected" when that
    fails with `VerificationFailed` or `CodecError`, "accepted" when it
    passes and `reproduces` the edit as an honest run.  Anything else fails
    the caller."""
    try:
        mutant = transcript_loads(text)
        mutant_ref = derive_generators(ref.params, mutant.seed)
        verify_transcript(mutant_ref, mutant)
    except (VerificationFailed, CodecError):
        return "rejected"
    assert reproduces(mutant_ref, spec, mutant, seed, coin, mask), text
    return "accepted"


# An edit of a transcript's frames, the seed frame's first: bytes written
# over at a place, bits flipped at up to four places, or a frame's payload
# cut short behind a length that matches it.  Places are drawn as integers
# and taken modulo the frame count and the frame's length.
PLACE = st.integers(min_value=0, max_value=1 << 16)
EDITS = st.one_of(
    st.tuples(st.just("replace"), PLACE, PLACE, st.binary(min_size=1, max_size=8)),
    st.tuples(st.just("flip"), st.lists(st.tuples(PLACE, PLACE), min_size=1, max_size=4)),
    st.tuples(st.just("truncate"), PLACE, PLACE),
)


def edited(text: str, edit) -> str:
    head, *lines = text.splitlines()
    frames = [bytearray.fromhex(line) for line in lines]
    if edit[0] == "replace":
        _, at, offset, new = edit
        frame = frames[at % len(frames)]
        start = offset % len(frame)
        frame[start : start + len(new)] = new[: len(frame) - start]
    elif edit[0] == "flip":
        for at, bit in edit[1]:
            frame = frames[at % len(frames)]
            bit %= 8 * len(frame)
            frame[bit // 8] ^= 1 << (bit % 8)
    else:
        _, at, keep = edit
        msg = decode_single_frame(bytes(frames[at % len(frames)]))
        cut = Message(msg.tag, msg.payload[: keep % (len(msg.payload) + 1)])
        frames[at % len(frames)] = bytearray(cut.frame())
    return "\n".join([head, *(frame.hex() for frame in frames)]) + "\n"


@pytest.fixture(scope="module")
def corpus_runs(ref23):
    """The text of one seeded q=23 run per case of every replayable kind."""
    runs = []
    for n, (spec, values, coin, mask) in enumerate(DIFFERENTIAL_RUNS):
        _, tr = run(ref23, spec, values, seed=("corpus", n), coin_value=coin, mask_value=mask)
        runs.append((transcript_dumps(tr), spec, ("corpus", n), coin, mask))
    return runs


@settings(max_examples=1500, deadline=None, derandomize=True)
@given(data=st.data())
def test_a_generated_tamper_corpus_fails_cleanly(ref23, corpus_runs, data):
    """Bytes replaced, bits flipped and frames cut short in one run of each
    case of every replayable kind: reading and replaying the edit fails
    with `VerificationFailed` or `CodecError` and nothing else, or accepts
    an edit that `reproduces` as an honest run."""
    text, spec, seed, coin, mask = data.draw(st.sampled_from(corpus_runs))
    replay_of_edit(ref23, edited(text, data.draw(EDITS)), spec, seed, coin, mask)


def test_a_false_opening_is_named_at_its_index(ref384):
    """An ex1 trade at 384 bits whose reveal carries shifted exponents:
    its only terms are openings, and the error names the first false one."""
    _, tr = run(ref384, MechanismSpec("ex1", 16, (9,)), [12], "reveal-only")
    (i,) = [i for i, m in enumerate(tr.messages) if m.tag == TAG_REVEAL]
    reveal = tr.messages[i]
    r = Reader(reveal.payload, 1)
    ops = [protocols.read_opening(r, ref384.params.p) for _ in range(r.u8())]
    assert verify_transcript(ref384, tr).payment == 9
    for shifted in ({1}, {3}, {4}, {2, 4}, {3, 4}):
        bad = [replace(op, r=op.r % (ref384.params.p - 1) + 1) if k in shifted else op for k, op in enumerate(ops, 1)]
        payload = reveal.payload[:1] + protocols._openings_body(bad)
        mutant = replace(tr, messages=[*tr.messages[:i], Message(reveal.tag, payload), *tr.messages[i + 1 :]])
        with pytest.raises(VerificationFailed) as err:
            verify_transcript(ref384, mutant)
        assert (err.value.phase, err.value.detail) == ("reveal", "opening does not match commitment")
        assert err.value.index == min(shifted)


def plan_powers(plan, ops) -> int:
    """The powers `gadgets._prove_plan` makes for `plan` over openings
    `ops`, with its hint: per proof, one per real-row cell (its nonce), one
    per simulated cell whose base is its target's opening base, and two per
    other simulated cell."""
    powers = 0
    for _, _, rows in plan:
        real = gadgets.plan_witness(rows, ops).row
        for n, cells in enumerate(rows):
            for bit, (k, i) in cells:
                powers += 1 if n == real or ops[k][i - 1].bit == bit else 2
    return powers


def test_the_seller_raises_only_g_and_h(ref384, monkeypatch):
    """Every target a seller simulates a cell against is a commitment it
    opened itself, so at 384 bits its powers are all of g and h, bar mpc's
    one k_s^r_s at the price slot.  Their number is exact: one per committed
    bit, and per proof those of `plan_powers`; the witness check makes
    none.  Each of g and h goes through the comb, so a fall-back to plain
    `pow` fails here."""
    role, calls, other, tables = [None], Counter(), Counter(), Counter()
    committed, expected = Counter(), Counter()
    real_pow, real_table_pow = GroupParams.pow_unchecked, group._table_pow
    real_commit_bit, real_prove_plan = commitments.commit_bit, gadgets._prove_plan

    def pow_unchecked(self, base, e):
        if role[0]:
            calls[role[0]] += 1
            other[role[0]] += base not in (ref384.g, ref384.h)
        return real_pow(self, base, e)

    def table_pow(*args):
        tables[role[0]] += 1
        return real_table_pow(*args)

    def commit_bit(*args):
        committed[role[0]] += 1
        return real_commit_bit(*args)

    def prove_plan(ref, plan, coms, ops, *rest):
        expected[role[0]] += plan_powers(plan, ops)
        return real_prove_plan(ref, plan, coms, ops, *rest)

    def as_role(name, fn):
        def step(*args, **kwargs):
            role[0] = name
            try:
                return fn(*args, **kwargs)
            finally:
                role[0] = None

        return step

    monkeypatch.setattr(GroupParams, "pow_unchecked", pow_unchecked)
    monkeypatch.setattr(group, "_table_pow", table_pow)
    for module in (commitments, gadgets, mpc):
        monkeypatch.setattr(module, "commit_bit", commit_bit)
    monkeypatch.setattr(gadgets, "_prove_plan", prove_plan)
    for step in ("begin", "receive_reports", "receive_mask"):
        monkeypatch.setattr(SellerSession, step, as_role("seller", getattr(SellerSession, step)))
    monkeypatch.setattr(mpc, "mpc_seller_commit", as_role("commit", mpc.mpc_seller_commit))
    monkeypatch.setattr(mpc, "mpc_seller_finalize", as_role("finalize", mpc.mpc_seller_finalize))
    ex3_cases = set()
    for n, (spec, values, coin, mask) in enumerate(DIFFERENTIAL_RUNS):
        run(ref384, spec, values, seed=("seller powers", n), coin_value=coin, mask_value=mask)
        if spec.kind == "ex3":
            ex3_cases.add(protocols.two_part_case(spec.prices, values[0]))
    assert {spec.kind for spec, *_ in DIFFERENTIAL_RUNS} == set(protocols.KINDS)
    assert ex3_cases == {"nothing", "lottery", "full"}
    assert calls["seller"] == committed["seller"] + expected["seller"] and other["seller"] == 0
    assert tables["seller"] == calls["seller"]
    bound = 8
    for price, value in ((3, 5), (6, 2)):  # a trade and a no-trade
        calls.clear(), other.clear(), committed.clear(), tables.clear()
        run_mpc_local(ref384, price, value, bound, random.Random("mpc/s"), random.Random("mpc/b"))
        # H slots; the one-hot proof's real row, H nonces; each of its H - 1
        # simulated rows, H - 2 same-base cells and 2 cross-base ones
        assert committed["commit"] == bound
        assert calls["commit"] == 2 * bound + (bound - 1) * (bound + 2) and other["commit"] == 0
        assert tables["commit"] == calls["commit"]
        assert other["finalize"] == 1


PLAN_BUILDERS = (
    gadgets.bound_plan,
    gadgets.le_committed_plan,
    gadgets.sum_plan,
    gadgets.lt_plan,
    gadgets.complement_plan,
)


def test_each_verified_bundle_builds_its_plan_once(ref23, monkeypatch):
    """The bundle reader and the verifier share one plan: replaying a run
    from cold caches builds one plan per bundle it verifies."""
    bundles = [0]
    real_verify_plan = gadgets._verify_plan

    def counted(*args):
        bundles[0] += 1
        return real_verify_plan(*args)

    monkeypatch.setattr(gadgets, "_verify_plan", counted)
    # One run per case, no two of its bundles with the same plan.
    runs = [r for r in DIFFERENTIAL_RUNS if r[1] != [0, 0]]
    verified = 0
    for n, (spec, values, coin, mask) in enumerate(runs):
        _, tr = run(ref23, spec, values, seed=("plans", n), coin_value=coin, mask_value=mask)
        for builder in PLAN_BUILDERS:
            builder.cache_clear()
        bundles[0] = 0
        verify_transcript(ref23, tr)
        builds = sum(builder.cache_info().misses for builder in PLAN_BUILDERS)
        assert builds == bundles[0], spec
        verified += bundles[0]
    assert verified >= 10


def test_a_long_log_replays_in_linear_time(ref23):
    """The verifier's log keeps its frames and joins them only when a proof
    binds the prefix, so an ex1multi commitment followed by 4x as many
    reports takes about 4x as long to replay, not 16x.  The two lengths
    alternate and each is timed in process time, so that load from other
    processes weighs on both alike."""
    import time

    commit = SellerSession(ref23, MechanismSpec("ex1multi", 8, (5,), n_buyers=2), random.Random(0))
    (commit_msg,) = commit.begin()
    reports = [Message(TAG_TYPE_REPORT, protocols._report_payload(i, [3])) for i in range(1 << 16)]
    logs = {n: [commit_msg] + reports[:n] for n in (1 << 14, 1 << 16)}
    best = {}
    for _ in range(3):
        for n, msgs in logs.items():
            t0 = time.process_time()
            with pytest.raises(VerificationFailed) as err:
                protocols.replay(ref23, "ex1multi", 8, msgs)
            best[n] = min(best.get(n, float("inf")), time.process_time() - t0)
            assert (err.value.phase, err.value.detail) == ("evaluate", "transcript truncated")
    small, large = best[1 << 14], best[1 << 16]
    assert large < 8 * small, (small, large)


# -- each proof byte read and encoded once -------------------------------------------


def replayed_proofs(ref, tr, monkeypatch):
    """Replay `tr`; returns each proof it reads, as (its sized bytes on the
    wire, the statement, the proof, the context it was verified against)."""
    read, verified = {}, {}
    real_read, real_verify = sigma.read_sized_proof, gadgets.ni_verify_all

    def reading(r, params, shape):
        start = r.off
        proof = real_read(r, params, shape)
        read[id(proof)] = proof, bytes(r.buf[start : r.off])  # the proof kept, so ids stay unique
        return proof

    def verifying(items, batch=None):
        for item in items:
            verified[id(item[1])] = item
        return real_verify(items, batch)

    with monkeypatch.context() as m:
        for module in (gadgets, protocols):
            m.setattr(module, "read_sized_proof", reading)
        m.setattr(gadgets, "ni_verify_all", verifying)
        verify_transcript(ref, tr)
    assert read.keys() == verified.keys()
    return [(read[key][1], *verified[key]) for key in read]


@pytest.mark.parametrize("group", ["ref23", "ref384"])
def test_proofs_keep_their_wire_bytes(request, group, monkeypatch):
    """Every proof of the differential runs encodes to the bytes it was read
    from.  A proof changed with `dataclasses.replace` (an alpha, a gamma or
    the challenge) carries none of them: given the bytes its new fields
    encode to, it reads back as itself and `ni_verify_all` rejects it."""
    ref = request.getfixturevalue(group)
    p, q = ref.params.p, ref.params.q
    checked = 0
    for n, (spec, values, coin, mask) in enumerate(DIFFERENTIAL_RUNS):
        _, tr = run(ref, spec, values, seed=("wire bytes", n), coin_value=coin, mask_value=mask)
        for blob, stmt, proof, ctx in replayed_proofs(ref, tr, monkeypatch):
            again = sigma.read_sized_proof(Reader(blob), ref.params, stmt.shape)
            assert again == proof and sigma.encode_sized_proof(again) == blob
            assert replace(proof)._wire is None
            assert sigma.encode_sized_proof(rewired(ref.params, replace(proof))) == blob
            assert sigma.ni_verify_all([(stmt, proof, ctx)])
            (alpha, *others), *rows = proof.first.alphas
            (gamma, *rest), *grows = proof.response.gammas
            changed = [
                replace(proof, first=sigma.SigmaFirst(((alpha % (q - 1) + 1, *others), *rows))),
                replace(
                    proof,
                    response=replace(proof.response, gammas=(((gamma + 1) % p, *rest), *grows)),
                ),
                replace(proof, challenge=proof.challenge % p + 1),
            ]
            for bad in changed:
                assert bad._wire is None
                wire = sigma.encode_sized_proof(rewired(ref.params, bad))
                assert wire != blob
                assert sigma.read_sized_proof(Reader(wire), ref.params, stmt.shape) == bad
                assert not sigma.ni_verify_all([(stmt, bad, ctx)])
            checked += 1
    assert checked >= 30


def test_a_replay_encodes_no_proof_and_each_element_once(ref23, monkeypatch):
    """Replaying seeded ex4 coin, ex1multi and ex3 lottery runs calls
    `encode_first` 0 times, and within each verified bundle encodes no
    group element twice; the mpc indicator check encodes each of its H
    slots, g and h once."""
    bundles: list[list[int]] = []
    current: list[list[int]] = []
    first_calls = [0]
    real_elements, real_first = GroupParams.encode_elements, sigma.encode_first

    def encode_elements(params, xs):
        xs = list(xs)
        if current:
            current[-1].extend(xs)
        return real_elements(params, xs)

    def encode_first(params, first):
        first_calls[0] += 1
        return real_first(params, first)

    def bundle(real):
        def wrapped(*args):
            current.append([])
            try:
                return real(*args)
            finally:
                bundles.append(current.pop())

        return wrapped

    monkeypatch.setattr(GroupParams, "encode_elements", encode_elements)
    monkeypatch.setattr(sigma, "encode_first", encode_first)
    monkeypatch.setattr(gadgets, "_verify_plan", bundle(gadgets._verify_plan))
    cases = Counter()  # verified bundles per case
    for n, (spec, values, coin, mask) in enumerate(DIFFERENTIAL_RUNS):
        _, tr = run(ref23, spec, values, seed=("encodes", n), coin_value=coin, mask_value=mask)
        case = spec.kind
        if spec.kind == "ex3":
            case += "/" + protocols.two_part_case(spec.prices, values[0])
        elif spec.kind == "ex4":
            case += "/coin" if TAG_COIN_MASK in tr.tags() else "/none"
        if case not in ("ex4/coin", "ex1multi", "ex3/lottery"):
            continue
        first_calls[0], bundles[:] = 0, []
        verify_transcript(ref23, tr)
        assert first_calls[0] == 0, case
        assert all(len(b) == len(set(b)) for b in bundles), (case, bundles)
        assert all({ref23.g, ref23.h} <= set(b) for b in bundles), case
        cases[case] += len(bundles)
    assert cases.keys() == {"ex4/coin", "ex1multi", "ex3/lottery"} and min(cases.values()) >= 2, cases

    monkeypatch.setattr(mpc, "verify_indicator", bundle(mpc.verify_indicator))
    bundles[:] = []
    run_mpc_local(ref23, 3, 5, 8, random.Random("mpc/s"), random.Random("mpc/b"))
    (indicator,) = bundles
    assert len(indicator) == len(set(indicator)) <= 8 + 2
