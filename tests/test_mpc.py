import hashlib
import random
from collections import Counter
from itertools import product

import pytest

from conftest import rewired
from zkmech import group, mpc
from zkmech.codec import Reader, encode_u8, encode_uints, transcript_dumps
from zkmech.commitments import BitOpening, commit_bit, verify_opening
from zkmech.errors import CodecError, ParameterError, VerificationFailed
from zkmech.group import GroupParams, derive_generators
from zkmech.mpc import (
    MAX_PRICE_SLOTS,
    IndicatorCommitment,
    decode_final,
    decode_indicator,
    decode_response,
    encode_final,
    encode_indicator,
    encode_response,
    mpc_buyer_conclude,
    mpc_buyer_respond,
    mpc_seller_commit,
    mpc_seller_finalize,
    one_hot_statement,
    run_mpc_local,
    verify_indicator,
)
from zkmech.sigma import (
    CdsWitness,
    NiProof,
    SigmaFirst,
    SigmaResponse,
    check_witness,
    encode_proof,
    read_proof,
)


def subgroup(params):
    return sorted({pow(x, 2, params.q) for x in range(1, params.q)})


class TestIndicatorCommitment:
    def test_one_hot_layout(self, ref23, rng):
        ic, secrets = mpc_seller_commit(ref23, 2, 4, rng)
        assert len(ic.coms) == 4
        for i, (com, r) in enumerate(zip(ic.coms, secrets.exps)):
            assert com == commit_bit(ref23, 1 if i == 2 else 0, r)
        assert verify_indicator(ref23, ic)

    def test_price_zero(self, ref23, rng):
        ic, secrets = mpc_seller_commit(ref23, 0, 4, rng)
        assert ic.coms[0] == commit_bit(ref23, 1, secrets.exps[0])

    def test_two_hot_vector_has_no_witness(self, ref23, rng):
        # witness-search oracle: a forged two-hot indicator satisfies no
        # row of the validity statement, so the prover must refuse
        exps = [ref23.params.exp_sample(rng) for _ in range(4)]
        bits = [1, 1, 0, 0]
        coms = [commit_bit(ref23, b, r) for b, r in zip(bits, exps)]
        stmt = one_hot_statement(ref23, coms)
        for row in range(4):
            assert not check_witness(stmt, CdsWitness(row=row, exps=tuple(exps)))

    def test_slot_bound_enforced(self, ref23, rng):
        with pytest.raises(ParameterError):
            mpc_seller_commit(ref23, 0, 128, rng)

    def test_buyer_refuses_more_slots_than_the_bound(self, ref23, rng, monkeypatch):
        # the statement has H^2 cells, so the buyer caps H before building it
        ic, _ = mpc_seller_commit(ref23, 3, MAX_PRICE_SLOTS, rng)
        assert decode_indicator(ref23, encode_indicator(ic)) == ic and verify_indicator(ref23, ic)
        with monkeypatch.context() as patch:  # a seller that ignores the bound
            patch.setattr(mpc, "MAX_PRICE_SLOTS", 65)
            wide, _ = mpc_seller_commit(ref23, 3, 65, rng)
        assert not verify_indicator(ref23, wide)
        with pytest.raises(VerificationFailed):
            mpc_buyer_respond(ref23, wide, 3, rng)

    def test_a_hostile_indicator_fails_verification_before_the_value_is_read(self, ref23, rng):
        # an empty indicator is not a bad value but a bad indicator
        ic, _ = mpc_seller_commit(ref23, 1, 4, rng)
        with pytest.raises(VerificationFailed) as exc:
            mpc_buyer_respond(ref23, IndicatorCommitment(coms=(), proof=ic.proof), 0, rng)
        assert exc.value.phase == "mpc-commit"
        with pytest.raises(ParameterError, match="value 6 outside"):  # honest, but value >= H
            mpc_buyer_respond(ref23, ic, 6, rng)

    def test_bad_proof_aborts_buyer(self, ref23, rng):
        ic, _ = mpc_seller_commit(ref23, 1, 4, rng)
        other, _ = mpc_seller_commit(ref23, 2, 4, rng)
        forged = IndicatorCommitment(coms=ic.coms, proof=other.proof)
        with pytest.raises(VerificationFailed):
            mpc_buyer_respond(ref23, forged, 3, rng)


class TestBuyerResponse:
    def test_the_buyer_raises_4_through_its_table(self, q384, monkeypatch):
        """At 384 bits and H=8, for every (price, value), the buyer makes
        exactly H powers of g or h (its commitments), H - value - 1 of the
        sampling base 4, all through 4's table (its junk entries), and value
        + 1 plain powers, one of each willing slot's commitment.  The group
        object builds 4's table once, in the buyer: the seller never samples."""
        bound = 8
        fresh = GroupParams(q384.q, q384.p, q384.bit_length)
        ref = derive_generators(fresh, b"buyer powers")
        sellers = [mpc_seller_commit(ref, s, bound, random.Random(f"s{s}")) for s in range(bound)]
        assert 4 not in fresh._tables
        calls, table_powers, builds = [], Counter(), Counter()
        real_pow, real_table_pow = GroupParams.pow_unchecked, group._table_pow
        real_build = group._build_table

        def pow_unchecked(self, base, e):
            calls.append((base, base in self._tables))
            return real_pow(self, base, e)

        def table_pow(rows, e, q):
            table_powers[next(b for b, r in fresh._tables.items() if r is rows)] += 1
            return real_table_pow(rows, e, q)

        def build_table(q, base):
            builds[base] += 1
            return real_build(q, base)

        monkeypatch.setattr(group, "_table_pow", table_pow)
        monkeypatch.setattr(group, "_build_table", build_table)
        for s, (ic, _) in enumerate(sellers):
            for v in range(bound):
                calls.clear(), table_powers.clear()
                with monkeypatch.context() as patch:
                    patch.setattr(GroupParams, "pow_unchecked", pow_unchecked)
                    mpc_buyer_respond(ref, ic, v, random.Random(f"b{s}{v}"))
                assert len(calls) == 2 * bound, (s, v)
                commitments = [tabled for base, tabled in calls if base in (ref.g, ref.h)]
                assert commitments == [True] * bound, (s, v)
                junk = [tabled for base, tabled in calls if base == 4]
                assert junk == [True] * (bound - v - 1) and table_powers[4] == len(junk), (s, v)
                plain = sorted(base for base, tabled in calls if not tabled)
                assert plain == sorted(com.value for com in ic.coms[: v + 1]), (s, v)
        assert builds[4] == 1

    def test_willingness_structure(self, ref23, rng):
        ic, _ = mpc_seller_commit(ref23, 1, 4, rng)
        for v in (0, 3):
            resp, secrets = mpc_buyer_respond(ref23, ic, v, rng)
            for i in range(4):
                structured = resp.zs[i] == ref23.params.pow(ic.coms[i].value, secrets.rhos[i])
                assert structured == (i <= v)

    def test_junk_entries_are_uniform_over_the_subgroup(self, ref23):
        # chi-square over all 11 subgroup elements at the 99% level
        rng = random.Random(515)
        ic, _ = mpc_seller_commit(ref23, 3, 4, rng)
        counts = Counter()
        n = 10_000
        for _ in range(n):
            resp, _ = mpc_buyer_respond(ref23, ic, 0, rng)
            counts[resp.zs[3]] += 1  # slot 3 unwilling when v=0
        members = subgroup(ref23.params)
        expect = n / len(members)
        stat = sum((counts[m] - expect) ** 2 / expect for m in members)
        assert stat < 24.725  # df=10, 99%


class TestFinalize:
    def test_exhaustive_trade_rule(self, ref23):
        for s in range(8):
            for v in range(8):
                seller_rng = random.Random(f"1/{s}/{v}/seller")
                buyer_rng = random.Random(f"1/{s}/{v}/buyer")
                out, seen, tr = run_mpc_local(ref23, s, v, 8, seller_rng, buyer_rng)
                assert out.trade == (v >= s)
                assert seen == (s if out.trade else None)
                assert [m.tag for m in tr.messages] == [0x11, 0x12, 0x13]

    def test_reveal_round_trips_through_opening(self, ref23, rng):
        ic, secrets = mpc_seller_commit(ref23, 5, 8, rng)
        resp, _ = mpc_buyer_respond(ref23, ic, 6, rng)
        outcome, opening = mpc_seller_finalize(ref23, secrets, resp)
        assert outcome.trade and outcome.payment == 5
        assert verify_opening(ref23, ic.coms[5], opening)
        assert mpc_buyer_conclude(ref23, ic, True, 5, opening) == 5

    def test_deviating_buyer_succeeds_on_one_junk_value_only(self, ref23, rng):
        # exact probability oracle: over all possible junk values at the
        # price slot, exactly one of |G| causes a spurious trade (1/p odds
        # plus the identity element)
        ic, secrets = mpc_seller_commit(ref23, 4, 8, rng)
        resp, bsec = mpc_buyer_respond(ref23, ic, 2, rng)  # unwilling at 4
        trades = 0
        for junk in subgroup(ref23.params):
            zs = list(resp.zs)
            zs[4] = junk
            from zkmech.mpc import BuyerResponse

            outcome, _ = mpc_seller_finalize(
                ref23, secrets, BuyerResponse(ks=resp.ks, zs=tuple(zs))
            )
            trades += outcome.trade
        assert trades == 1

    def test_seller_view_identical_across_values_on_same_side(self, ref7):
        # exhaustive distribution comparison in the 3-element subgroup:
        # the seller's pre-finalize view at her slot, (K_s, Z_s), has
        # exactly the same multiset for any two buyer values on the same
        # side of the price; only the side is visible in principle
        params = ref7.params
        s, bound = 2, 4
        r_s = 1
        c_s = commit_bit(ref7, 1, r_s).value

        def view_distribution(v):
            dist = Counter()
            willing = v >= s
            for rho in range(1, params.p):
                if willing:
                    pair = (params.pow(ref7.h, rho), params.pow(c_s, rho))
                    dist[pair] += params.p  # weight matches the junk space
                else:
                    k = params.pow(ref7.g, rho)
                    for junk_exp in range(params.p):
                        dist[(k, pow(4, junk_exp, params.q))] += 1
            return dist

        above = [view_distribution(v) for v in range(s, bound)]
        below = [view_distribution(v) for v in range(s)]
        assert all(d == above[0] for d in above)
        assert all(d == below[0] for d in below)
        assert above[0] != below[0]


class TestWireFraming:
    def test_indicator_round_trip(self, ref23, rng):
        ic, _ = mpc_seller_commit(ref23, 2, 4, rng)
        assert decode_indicator(ref23, encode_indicator(ic)) == ic

    def test_response_round_trip(self, ref23, rng):
        ic, _ = mpc_seller_commit(ref23, 2, 4, rng)
        resp, _ = mpc_buyer_respond(ref23, ic, 1, rng)
        assert decode_response(encode_response(resp)) == resp

    @pytest.mark.parametrize("count", [65, 255])
    def test_too_many_slots_fail_at_the_count(self, ref23, count):
        """A count above MAX_PRICE_SLOTS is refused where it is read, at
        offset 0, before H commitments and an H x H proof are: whether the
        payload stops after the count or carries all of them in full."""
        g = ref23.g
        proof = NiProof(
            first=SigmaFirst(alphas=((g,) * count,) * count),
            challenge=1,
            response=SigmaResponse(betas=(0,) * count, gammas=((0,) * count,) * count),
            context_digest=bytes(32),
        )
        rewired(ref23.params, proof)
        full = encode_u8(count) + encode_uints([g] * count) + encode_proof(proof)
        r = Reader(full, 1)
        r.uints(count, 2, ref23.params.q - 1, "commitment")
        read_proof(r, ref23.params, (count,) * count)
        r.finish()  # the full payload is well formed but for its count
        for payload in (full[:1], full[:50], full):
            with pytest.raises(CodecError, match=f"{count} price slots exceed the bound 64") as exc:
                decode_indicator(ref23, payload)
            assert exc.value.offset == 0

    def test_final_round_trip(self, ref23):
        assert decode_final(encode_final(False, None, None), ref23.params.p) == (False, None, None)
        op = BitOpening(bit=1, r=5)
        assert decode_final(encode_final(True, 3, op), ref23.params.p) == (True, 3, op)

    def test_seeded_transcripts_are_pinned(self, q23, q384):
        # every (H, price, value) at H = 2, 4, 8 in the q=23 group and then
        # the 384-bit one; a refactor must not move one byte, and each
        # indicator must decode to what was sent
        digest = hashlib.sha256()
        for params in (q23, q384):
            ref = derive_generators(params, b"mpc digest")
            for bound in (2, 4, 8):
                for s, v in product(range(bound), repeat=2):
                    seller = random.Random(f"s{bound}{s}{v}")
                    buyer = random.Random(f"b{bound}{s}{v}")
                    _, _, tr = run_mpc_local(ref, s, v, bound, seller, buyer)
                    digest.update(transcript_dumps(tr).encode())
                    payload = tr.messages[0].payload
                    assert encode_indicator(decode_indicator(ref, payload)) == payload
        assert digest.hexdigest() == "aa7fc7e31f33ecdbbdc42201fa84cc5738907d8138ed02680438a556db77b535"
