import random
from itertools import product

import pytest

from conftest import rewired
from zkmech.commitments import BitOpening, commit_int
from zkmech.errors import ParameterError, RefuseToProve
from zkmech.gadgets import (
    _LBL_GATE,
    _carry_bits,
    _full_adder,
    _prove_plan,
    _verify_plan,
    bound_plan,
    coin_openings,
    coin_select,
    complement_commit,
    lt_plan,
    plan_statement,
    prove_complement,
    prove_ge_public,
    prove_le_committed,
    prove_le_public,
    prove_lt_committed,
    prove_sum,
    sum_plan,
    verify_complement,
    verify_ge_public,
    verify_le_committed,
    verify_le_public,
    verify_lt_committed,
    verify_sum,
)
from zkmech.sigma import Batch, cds_simulate, cds_verify

CTX = b"gadget tests"


def has_witness(s_bits, plan):
    """Characterization oracle, read from a bound plan: every proof has a
    one-cell row whose bit the value has at the cell's position."""
    return all(any(s_bits[j - 1] == bit for ((bit, (_, j)),) in rows) for _, _, rows in plan)


def targets(plan):
    """Each proof's position, with the (bit, position) of its rows' cells."""
    return [(i, [(bit, j) for ((bit, (_, j)),) in rows]) for _, i, rows in plan]


def bits(value, width):
    return [(value >> (width - 1 - i)) & 1 for i in range(width)]


class TestCharacterization:
    def test_matches_integer_comparison_all_widths(self):
        # the witness-existence predicate equals plain >= / <= for every
        # pair at widths up to 4 (brute force over all s, w)
        for width in range(1, 5):
            for s in range(1 << width):
                for w in range(1 << width):
                    ge, le = (bound_plan(w, width, greater=g) for g in (True, False))
                    assert has_witness(bits(s, width), ge) == (s >= w)
                    assert has_witness(bits(s, width), le) == (s <= w)

    def test_worked_target_sets(self):
        # s=5 (101) vs w=4 (100): single proof at the leading bit
        assert targets(bound_plan(4, 3, greater=True)) == [(1, [(1, 1)])]
        # w=7 (111): three singleton proofs
        assert targets(bound_plan(7, 3, greater=True)) == [(i, [(1, i)]) for i in (1, 2, 3)]
        # le: s=3 (011) vs w=5 (101): position 2 collects indices 1 and 2
        assert targets(bound_plan(5, 3, greater=False)) == [(2, [(0, 1), (0, 2)])]


class TestPublicBounds:
    def test_ge_exhaustive_width3(self, ref23, rng):
        # every pair at widths 1 to 4: the prover refuses exactly when s < w
        for width in range(1, 5):
            for s in range(1 << width):
                com, ops = commit_int(ref23, s, width, rng)
                for w in range(1 << width):
                    if s >= w:
                        bundle = prove_ge_public(ref23, com, ops, w, CTX, rng)
                        assert verify_ge_public(ref23, com, w, bundle, CTX)
                    else:
                        with pytest.raises(RefuseToProve):
                            prove_ge_public(ref23, com, ops, w, CTX, rng)

    def test_le_exhaustive_width3(self, ref23, rng):
        # every pair at widths 1 to 4: the prover refuses exactly when s > w
        for width in range(1, 5):
            for s in range(1 << width):
                com, ops = commit_int(ref23, s, width, rng)
                for w in range(1 << width):
                    if s <= w:
                        bundle = prove_le_public(ref23, com, ops, w, CTX, rng)
                        assert verify_le_public(ref23, com, w, bundle, CTX)
                    else:
                        with pytest.raises(RefuseToProve):
                            prove_le_public(ref23, com, ops, w, CTX, rng)

    def test_vacuous_bounds_give_empty_bundles(self, ref23, rng):
        com, ops = commit_int(ref23, 5, 3, rng)
        assert prove_ge_public(ref23, com, ops, 0, CTX, rng) == []
        assert verify_ge_public(ref23, com, 0, [], CTX)
        com, ops = commit_int(ref23, 2, 3, rng)
        assert prove_le_public(ref23, com, ops, 7, CTX, rng) == []
        assert verify_le_public(ref23, com, 7, [], CTX)

    def test_bundle_under_wrong_bound_rejected(self, ref23, rng):
        com, ops = commit_int(ref23, 5, 3, rng)
        bundle = prove_ge_public(ref23, com, ops, 4, CTX, rng)
        assert not verify_ge_public(ref23, com, 5, bundle, CTX)
        assert not verify_ge_public(ref23, com, 4, bundle, b"other ctx")

    def test_out_of_range_bound(self, ref23, rng):
        com, ops = commit_int(ref23, 5, 3, rng)
        with pytest.raises(ParameterError):
            prove_ge_public(ref23, com, ops, 8, CTX, rng)

    def test_proofs_are_bound_to_their_positions(self, ref23, rng):
        # transplanting a proof between positions changes its statement
        # and context, so the swap cannot verify
        com, ops = commit_int(ref23, 7, 3, rng)
        bundle = prove_ge_public(ref23, com, ops, 7, CTX, rng)
        assert [pos for pos, _ in bundle] == [1, 2, 3]
        swapped = [(1, bundle[1][1]), (2, bundle[0][1]), (3, bundle[2][1])]
        assert not verify_ge_public(ref23, com, 7, swapped, CTX)

    def test_witnessless_prover_accepts_exactly_one_challenge(self, ref23, rng):
        # interactive soundness at desk scale: a simulated first message
        # commits to one challenge; over the whole challenge space exactly
        # one verifies, i.e. per-challenge success is exactly 1/p
        com, ops = commit_int(ref23, 2, 3, rng)  # 2 < 4: no witness for >= 4
        ((_, _, rows),) = bound_plan(4, 3, greater=True)  # one proof, at position 1
        stmt = plan_statement(ref23, (com.bits,), rows)
        planted = 7
        first, resp = cds_simulate(stmt, planted, rng)
        hits = [
            beta
            for beta in range(1, ref23.params.p + 1)
            if cds_verify(stmt, first, beta, resp)
        ]
        assert hits == [planted]


class TestCommittedComparison:
    def test_exhaustive_width3(self, ref23, rng):
        # every pair at widths 1 to 3: the prover refuses exactly when a > b
        for width in range(1, 4):
            for a in range(1 << width):
                com_a, ops_a = commit_int(ref23, a, width, rng)
                for b in range(1 << width):
                    com_b, ops_b = commit_int(ref23, b, width, rng)
                    if a <= b:
                        bundle = prove_le_committed(ref23, com_a, ops_a, com_b, ops_b, CTX, rng)
                        assert verify_le_committed(ref23, com_a, com_b, bundle, CTX)
                    else:
                        with pytest.raises(RefuseToProve):
                            prove_le_committed(ref23, com_a, ops_a, com_b, ops_b, CTX, rng)

    def test_equal_values_use_reflexivity(self, ref23, rng):
        com_a, ops_a = commit_int(ref23, 5, 3, rng)
        com_b, ops_b = commit_int(ref23, 5, 3, rng)
        bundle = prove_le_committed(ref23, com_a, ops_a, com_b, ops_b, CTX, rng)
        assert verify_le_committed(ref23, com_a, com_b, bundle, CTX)

    def test_swapped_commitments_rejected(self, ref23, rng):
        com_a, ops_a = commit_int(ref23, 2, 2, rng)
        com_b, ops_b = commit_int(ref23, 3, 2, rng)
        bundle = prove_le_committed(ref23, com_a, ops_a, com_b, ops_b, CTX, rng)
        assert not verify_le_committed(ref23, com_b, com_a, bundle, CTX)


def single_gate(table):
    """A one-entry plan: one gate proof over one single-bit commitment per
    column of the truth table `table`, as the gate chains build each of
    theirs."""
    refs = [(k, 1) for k in range(len(table[0]))]
    return ((_LBL_GATE, 0, tuple(tuple(zip(row, refs)) for row in table)),)


# Reference gate chains, written longhand: one gate per circuit, each a set
# of allowed assignments turned into one row apiece in sorted order.  The
# shared full-adder tables and the plans built on them must equal these
# row for row.


def ref_adder_gate(sum_bit, lsb):
    rows = []
    for a in (0, 1):
        for b in (0, 1):
            for cin in ((0,) if lsb else (0, 1)):
                if (a + b + cin) % 2 != sum_bit:
                    continue
                cout = 1 if a + b + cin >= 2 else 0
                rows.append((a, b, cout) if lsb else (a, b, cout, cin))
    return frozenset(rows)


def ref_subtractor_gate(lsb):
    rows = []
    for z in (0, 1):
        for s in (0, 1):
            for bin_ in ((0,) if lsb else (0, 1)):
                bout = 1 if (1 - z) + s + bin_ >= 2 else 0
                rows.append((z, s, bout) if lsb else (z, s, bout, bin_))
    return frozenset(rows)


def ref_gate_rows(allowed, refs):
    return tuple(tuple(zip(assignment, refs)) for assignment in sorted(allowed))


def ref_chain_plan(top_bit, gates):
    plan = [(_LBL_GATE, 0, (((top_bit, (2, 1)),),))]
    for i, allowed in enumerate(gates, start=1):
        refs = [(0, i), (1, i), (2, i), (2, i + 1)][: len(next(iter(allowed)))]
        plan.append((_LBL_GATE, i, ref_gate_rows(allowed, refs)))
    return tuple(plan)


def ref_sum_plan(total, width):
    total_bits = bits(total, width + 1)
    gates = [ref_adder_gate(b, i == width) for i, b in enumerate(total_bits[1:], start=1)]
    return ref_chain_plan(total_bits[0], gates)


def ref_lt_plan(verdict, width):
    return ref_chain_plan(verdict, [ref_subtractor_gate(i == width) for i in range(1, width + 1)])


class TestGates:
    def test_degenerate_bit_gate_is_a_zero_proof(self, ref23, rng):
        plan = single_gate(((0,),))
        com, ops = commit_int(ref23, 0, 1, rng)
        bundle = _prove_plan(ref23, plan, [com.bits], [ops], CTX, rng)
        assert _verify_plan(ref23, plan, [com.bits], bundle, CTX)
        com1, ops1 = commit_int(ref23, 1, 1, rng)
        with pytest.raises(RefuseToProve):
            _prove_plan(ref23, plan, [com1.bits], [ops1], CTX, rng)

    def test_xor_gate_truth_table(self, ref23, rng):
        xor = ((0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0))
        for assignment in product((0, 1), repeat=3):
            coms, ops = [], []
            for bit in assignment:
                c, o = commit_int(ref23, bit, 1, rng)
                coms.append(c.bits)
                ops.append(o)
            if assignment in xor:
                bundle = _prove_plan(ref23, single_gate(xor), coms, ops, CTX, rng)
                assert _verify_plan(ref23, single_gate(xor), coms, bundle, CTX)
            else:
                with pytest.raises(RefuseToProve):
                    _prove_plan(ref23, single_gate(xor), coms, ops, CTX, rng)

    def test_adder_gate_has_four_quadruplets(self):
        for sum_bit in (0, 1):
            table = _full_adder(0, sum_bit, lsb=False)
            assert len(table) == 4 and table == tuple(sorted(table))
            for a, b, cout, cin in table:
                assert (a + b + cin) % 2 == sum_bit
                assert cout == (1 if a + b + cin >= 2 else 0)

    def test_subtractor_gate_has_eight_rows(self):
        table = _full_adder(1, None, lsb=False)
        assert len(table) == 8 and {len(row) for row in table} == {4}
        for z, s, bout, bin_ in table:
            assert bout == (1 if (1 - z) + s + bin_ >= 2 else 0)
        assert {len(row) for row in _full_adder(1, None, lsb=True)} == {3}

    def test_tables_match_the_reference_gates(self):
        for lsb in (False, True):
            for sum_bit in (0, 1):
                assert _full_adder(0, sum_bit, lsb) == tuple(sorted(ref_adder_gate(sum_bit, lsb)))
            assert _full_adder(1, None, lsb) == tuple(sorted(ref_subtractor_gate(lsb)))

    def test_chain_plans_match_the_reference_row_for_row(self):
        for width in range(1, 7):
            for total in range(1 << (width + 1)):
                assert sum_plan(total, width) == ref_sum_plan(total, width), (total, width)
            for verdict in (0, 1):
                assert lt_plan(verdict, width) == ref_lt_plan(verdict, width), (verdict, width)
        sample = random.Random(16)
        for total in [0, (1 << 17) - 1] + [sample.randrange(1 << 17) for _ in range(20)]:
            assert sum_plan(total, 16) == ref_sum_plan(total, 16), total
        for verdict in (0, 1):
            assert lt_plan(verdict, 16) == ref_lt_plan(verdict, 16)


class TestSum:
    def test_carry_chain_worked_example(self):
        # 3 (11) + 1 (01): both carries set, announced total 100
        assert _carry_bits([1, 1], [0, 1]) == [1, 1]
        assert _carry_bits([0, 0], [0, 0]) == [0, 0]

    def test_exhaustive_width3(self, ref23, rng):
        for a in range(8):
            for b in range(8):
                com_a, ops_a = commit_int(ref23, a, 3, rng)
                com_b, ops_b = commit_int(ref23, b, 3, rng)
                total, carry_com, bundle = prove_sum(
                    ref23, com_a, ops_a, com_b, ops_b, CTX, rng
                )
                assert total == a + b
                assert verify_sum(ref23, com_a, com_b, total, carry_com, bundle, CTX)
                # any tampered announced total must be rejected
                wrong = (total + 1) % 16
                assert not verify_sum(ref23, com_a, com_b, wrong, carry_com, bundle, CTX)

    def test_width_mismatch(self, ref23, rng):
        com_a, ops_a = commit_int(ref23, 1, 2, rng)
        com_b, ops_b = commit_int(ref23, 1, 3, rng)
        with pytest.raises(ParameterError):
            prove_sum(ref23, com_a, ops_a, com_b, ops_b, CTX, rng)


class TestComplementPairs:
    def test_both_orientations_prove(self, ref23, rng):
        for bit in (0, 1):
            pair, ops = complement_commit(ref23, bit, rng)
            proofs = prove_complement(ref23, pair, ops, CTX, rng)
            assert verify_complement(ref23, [pair], [proofs], CTX)

    def test_equal_bits_refuse(self, ref23, rng):
        # openings claiming (0, 0) and (1, 1)
        for bit in (0, 1):
            pair, ops = complement_commit(ref23, bit, rng)
            bad = (ops[0], BitOpening(bit=ops[0].bit, r=ops[1].r))
            with pytest.raises(RefuseToProve):
                prove_complement(ref23, pair, bad, CTX, rng)

    def test_pair_elements_always_distinct(self, ref7, rng):
        # resampling guarantees distinct elements even in the tiny group
        for _ in range(200):
            pair, _ = complement_commit(ref7, rng.getrandbits(1), rng)
            assert pair.r_com.value != pair.rp_com.value

    def test_proofs_do_not_transfer(self, ref23, rng):
        pair, ops = complement_commit(ref23, 0, rng)
        proofs = prove_complement(ref23, pair, ops, CTX, rng)
        other, _ = complement_commit(ref23, 0, rng)
        assert not verify_complement(ref23, [other], [proofs], CTX)


def checked(ref, ev, payload, prefix, coms, coin):
    """`protocols._check` of one evidence message, its batch checked after."""
    from zkmech.protocols import _check

    batch = Batch(ref.params)
    fact = _check(ref, ev, payload, prefix, coms, coin, batch)
    batch.check()
    return fact


class TestCoinFlip:
    def test_selection_worked_example(self, ref23, rng):
        # x = 101, y = 011: z = 110 and the mask picks (R1, R'2, R'3)
        pairs, pair_ops = [], []
        for bit in (1, 0, 1):
            pair, ops = complement_commit(ref23, bit, rng)
            pairs.append(pair)
            pair_ops.append(ops)
        z_com = coin_select(pairs, [0, 1, 1])
        assert z_com.bits[0] == pairs[0].r_com
        assert z_com.bits[1] == pairs[1].rp_com
        assert z_com.bits[2] == pairs[2].rp_com
        z_ops = coin_openings(pair_ops, [0, 1, 1])
        assert [op.bit for op in z_ops] == [1, 1, 0]  # 5 xor 3 = 6

    def test_zero_mask_is_identity(self, ref23, rng):
        pairs, pair_ops = [], []
        for bit in (1, 0):
            pair, ops = complement_commit(ref23, bit, rng)
            pairs.append(pair)
            pair_ops.append(ops)
        z_com = coin_select(pairs, [0, 0])
        assert [b for b in z_com.bits] == [p.r_com for p in pairs]

    def test_exhaustive_width2_commits_to_xor(self, ref23, rng):
        from zkmech.commitments import reveal_int

        for x in range(4):
            for y in range(4):
                x_bits = bits(x, 2)
                y_bits = bits(y, 2)
                pairs, pair_ops, proofs = [], [], []
                for idx, bit in enumerate(x_bits):
                    pair, ops = complement_commit(ref23, bit, rng)
                    pairs.append(pair)
                    pair_ops.append(ops)
                    proofs.append(prove_complement(ref23, pair, ops, CTX, rng, idx))
                # the verifier's path: check every pair in one batch, then
                # select by the mask
                assert verify_complement(ref23, pairs, proofs, CTX)
                z_com = coin_select(pairs, y_bits)
                z_ops = coin_openings(pair_ops, y_bits)
                assert reveal_int(ref23, z_com, z_ops) == x ^ y

    def test_mask_makes_the_coin_uniform(self):
        # for any fixed adversarial x and uniform mask (and vice versa),
        # the result sweeps the whole range exactly once per mask value
        from collections import Counter

        for width in (1, 2, 3):
            space = 1 << width
            for x in range(space):
                dist = Counter(x ^ y for y in range(space))
                assert dist == Counter(range(space))
            for y in range(space):
                dist = Counter(x ^ y for x in range(space))
                assert dist == Counter(range(space))

    def test_unverified_pairs_rejected(self, ref23, rng):
        # the verifier checks a coin message's complement proofs before the
        # mask selects from its pairs: proofs made for other pairs fail there
        from zkmech.errors import VerificationFailed
        from zkmech.protocols import Evidence, _coin_pair_payload

        pair, ops = complement_commit(ref23, 1, rng)
        other, other_ops = complement_commit(ref23, 1, rng)
        proofs = [prove_complement(ref23, other, other_ops, CTX, rng, 0)]
        price, _ = commit_int(ref23, 0, 1, rng)
        coin = Evidence("coin", bits=1)
        with pytest.raises(VerificationFailed) as exc:
            checked(ref23, coin, _coin_pair_payload(ref23.params, [pair], proofs), CTX, [price], None)
        assert exc.value.phase == "coin"
        payload = _coin_pair_payload(ref23.params, [other], proofs)
        assert checked(ref23, coin, payload, CTX, [price], None) == [other]

    @pytest.mark.parametrize("group", ["ref23", "ref384"])
    @pytest.mark.parametrize("fault", ["proofs of another pair", "a gamma off by one"])
    def test_bad_pair_is_named_after_the_batch(self, group, fault, request, rng):
        # all the pairs of a coin message are one unit of the run's batch; a
        # failed unit is checked pair by pair, so the reject still names the
        # first bad pair
        from dataclasses import replace

        from zkmech.errors import VerificationFailed
        from zkmech.protocols import Evidence, _coin_pair_payload

        ref = request.getfixturevalue(group)
        pairs, proofs = [], []
        for idx in range(4):
            pair, ops = complement_commit(ref, idx % 2, rng)
            pairs.append(pair)
            proofs.append(prove_complement(ref, pair, ops, CTX, rng, idx))
        price, _ = commit_int(ref, 0, 4, rng)
        coin = Evidence("coin", bits=4)
        assert checked(ref, coin, _coin_pair_payload(ref.params, pairs, proofs), CTX, [price], None) == pairs
        if fault == "proofs of another pair":
            other, other_ops = complement_commit(ref, 0, rng)
            proofs[2] = prove_complement(ref, other, other_ops, CTX, rng, 2)
        else:  # passes the challenge and range checks, fails a cell equation
            proof = proofs[2][1]
            gammas = ((proof.response.gammas[0][0] + 1) % ref.params.p,), proof.response.gammas[1]
            proofs[2][1] = rewired(ref.params, replace(proof, response=replace(proof.response, gammas=gammas)))
        with pytest.raises(VerificationFailed) as exc:
            checked(ref, coin, _coin_pair_payload(ref.params, pairs, proofs), CTX, [price], None)
        assert (exc.value.phase, exc.value.index) == ("coin", 2)
        assert exc.value.detail == "complement proof does not verify"


class TestStrictComparison:
    def test_borrow_chain_examples(self):
        # the borrows of z - s are the carries of (NOT z) + s
        # 010 - 101: the low and high positions borrow, the middle absorbs
        assert _carry_bits([1 - b for b in bits(2, 3)], bits(5, 3)) == [1, 0, 1]
        assert _carry_bits([1 - b for b in bits(5, 3)], bits(5, 3)) == [0, 0, 0]

    def test_width_mismatch(self, ref23, rng):
        # refused before any chain bit is computed, whichever side is wider
        com_a, ops_a = commit_int(ref23, 1, 2, rng)
        com_b, ops_b = commit_int(ref23, 1, 3, rng)
        for args in ((com_a, ops_a, com_b, ops_b), (com_b, ops_b, com_a, ops_a)):
            with pytest.raises(ParameterError):
                prove_lt_committed(ref23, *args, CTX, rng)
        verdict, borrow_com, bundle = prove_lt_committed(ref23, com_a, ops_a, com_a, ops_a, CTX, rng)
        assert verify_lt_committed(ref23, com_a, com_a, verdict, borrow_com, bundle, CTX)
        assert not verify_lt_committed(ref23, com_a, com_b, verdict, borrow_com, bundle, CTX)

    def test_exhaustive_width3(self, ref23, rng):
        for z in range(8):
            for s in range(8):
                com_z, ops_z = commit_int(ref23, z, 3, rng)
                com_s, ops_s = commit_int(ref23, s, 3, rng)
                verdict, borrow_com, bundle = prove_lt_committed(
                    ref23, com_z, ops_z, com_s, ops_s, CTX, rng
                )
                assert verdict == (1 if z < s else 0)
                assert verify_lt_committed(
                    ref23, com_z, com_s, verdict, borrow_com, bundle, CTX
                )
                # flipping the announced verdict must not verify
                assert not verify_lt_committed(
                    ref23, com_z, com_s, 1 - verdict, borrow_com, bundle, CTX
                )

    def test_only_the_verdict_is_announced(self, ref23, rng):
        # the bundle is gate proofs only: one verdict bit gate plus one
        # gate per position; no openings or difference bits appear
        com_z, ops_z = commit_int(ref23, 2, 3, rng)
        com_s, ops_s = commit_int(ref23, 5, 3, rng)
        verdict, borrow_com, bundle = prove_lt_committed(
            ref23, com_z, ops_z, com_s, ops_s, CTX, rng
        )
        assert [pos for pos, _ in bundle] == [0, 1, 2, 3]
        assert borrow_com.width == 3
