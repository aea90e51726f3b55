import ast
import hashlib
import random
from collections import Counter
from itertools import product

from dataclasses import replace
from pathlib import Path

import pytest

from conftest import and_statement, decode_proof, or_statement, rewired, schnorr_statement
from zkmech import sigma
from zkmech.commitments import BitOpening, commit_bit, commit_int, reveal_int
from zkmech.errors import (
    ExtractionError,
    ParameterError,
    ShapeMismatch,
    StateConsumed,
    VerificationFailed,
)
from zkmech.gadgets import bound_plan, le_committed_plan, plan_statement, plan_witness
from zkmech.group import RFC3526_MODP_2048, GroupParams, derive_generators, params_from_modulus
from zkmech.sigma import (
    Batch,
    BATCH_BITS,
    CdsStatement,
    CdsWitness,
    NiProof,
    _build_first,
    _build_response,
    _sim_alpha,
    cds_extract,
    cds_prove_first,
    cds_respond,
    cds_simulate,
    cds_verify,
    check_witness,
    encode_first,
    encode_proof,
    fiat_shamir_challenge,
    ni_prove,
    ni_verify,
    ni_verify_all,
)


def transcript_tuple(first, beta, resp):
    return (
        tuple(a for row in first for a in row),
        beta,
        resp.betas,
        tuple(g for row in resp.gammas for g in row),
    )


class TestKnowledgeOfDlog:
    def test_first_message_worked_example(self, q7):
        # base 2, target 4 = 2^2, nonce 1: the first message is 2^1
        stmt = schnorr_statement(q7, 2, 4)
        wit = CdsWitness(row=0, exps=(2,))
        first = _build_first(stmt, wit, (1,), {})
        assert first == ((2,),)

    def test_response_worked_examples(self, q7):
        stmt = schnorr_statement(q7, 2, 4)
        wit = CdsWitness(row=0, exps=(2,))
        resp = _build_response(stmt, wit, (1,), {}, beta=1)
        assert resp.gammas == ((0,),)  # 1 + 1*2 = 3 = 0 (mod 3)
        resp = _build_response(stmt, wit, (1,), {}, beta=2)
        assert resp.gammas == ((2,),)  # 1 + 2*2 = 5 = 2 (mod 3)

    def test_verify_hand_check(self, q7):
        stmt = schnorr_statement(q7, 2, 4)
        first = _build_first(stmt, CdsWitness(0, (2,)), (1,), {})
        ok = cds_verify(
            stmt,
            first,
            1,
            _build_response(stmt, CdsWitness(0, (2,)), (1,), {}, 1),
        )
        assert ok
        from zkmech.sigma import SigmaResponse

        assert not cds_verify(stmt, first, 1, SigmaResponse(betas=(1,), gammas=((1,),)))

    def test_invalid_witness_rejected(self, q7, rng):
        stmt = schnorr_statement(q7, 2, 4)
        with pytest.raises(ParameterError):
            cds_prove_first(stmt, CdsWitness(row=0, exps=(1,)), rng)

    def test_prover_state_single_use(self, q7, rng):
        stmt = schnorr_statement(q7, 2, 4)
        first, state = cds_prove_first(stmt, CdsWitness(0, (2,)), rng)
        cds_respond(state, 1)
        with pytest.raises(StateConsumed):
            cds_respond(state, 2)


def all_witness_statements_1x1(params):
    """Every (base, target, witness) combination in the toy group."""
    out = []
    for base in (2, 4):
        for r in range(1, params.p):
            target = params.pow(base, r)
            if target == 1:
                continue
            out.append((schnorr_statement(params, base, target), CdsWitness(0, (r,))))
    return out


class TestCompleteness:
    def test_exhaustive_1x1(self, q7):
        p = q7.p
        for stmt, wit in all_witness_statements_1x1(q7):
            for nonce in range(1, p + 1):
                first = _build_first(stmt, wit, (nonce,), {})
                for beta in range(1, p + 1):
                    resp = _build_response(stmt, wit, (nonce,), {}, beta)
                    assert cds_verify(stmt, first, beta, resp)

    def test_exhaustive_2x1(self, q7):
        p = q7.p
        for r1, r2 in product(range(1, p), repeat=2):
            a1, a2 = q7.pow(2, r1), q7.pow(4, r2)
            stmt = CdsStatement(params=q7, rows=(((2, a1),), ((4, a2),)))
            for row, r in ((0, r1), (1, r2)):
                wit = CdsWitness(row=row, exps=(r,))
                other = 1 - row
                for nonce in range(1, p + 1):
                    for sim_beta, sim_gamma in product(range(p), repeat=2):
                        sims = {other: (sim_beta, (sim_gamma,))}
                        first = _build_first(stmt, wit, (nonce,), sims)
                        for beta in range(1, p + 1):
                            resp = _build_response(stmt, wit, (nonce,), sims, beta)
                            assert cds_verify(stmt, first, beta, resp)
                            assert sum(resp.betas) % p == beta % p

    def test_exhaustive_2x2_sampled_targets(self, q7):
        p = q7.p
        stmt = CdsStatement(
            params=q7,
            rows=(((2, 4), (4, 2)), ((2, 2), (4, 4))),
        )
        # row 0: log_2(4) = 2, log_4(2) = 2; row 1: log_2(2) = 1, log_4(4) = 1
        for wit in (CdsWitness(0, (2, 2)), CdsWitness(1, (1, 1))):
            assert check_witness(stmt, wit)
            other = 1 - wit.row
            for nonces in product(range(1, p + 1), repeat=2):
                for combo in product(range(p), repeat=3):
                    sims = {other: (combo[0], combo[1:])}
                    first = _build_first(stmt, wit, nonces, sims)
                    for beta in range(1, p + 1):
                        resp = _build_response(stmt, wit, nonces, sims, beta)
                        assert cds_verify(stmt, first, beta, resp)

    def test_shape_mismatch_raises(self, q7, rng):
        stmt = schnorr_statement(q7, 2, 4)
        wide = or_statement(q7, 2, [4, 2])
        first, state = cds_prove_first(wide, CdsWitness(0, (2,)), rng)
        resp = cds_respond(state, 1)
        with pytest.raises(ShapeMismatch):
            cds_verify(stmt, first, 1, resp)


class TestSpecialSoundness:
    def test_worked_example(self, q7):
        from zkmech.sigma import SigmaResponse

        stmt = schnorr_statement(q7, 2, 4)
        first = ((2,),)
        t1 = (1, SigmaResponse(betas=(1,), gammas=((0,),)))
        t2 = (2, SigmaResponse(betas=(2,), gammas=((2,),)))
        wit = cds_extract(stmt, first, t1, t2)
        assert wit.exps == (2,)
        assert q7.pow(2, 2) == 4

    def test_exhaustive_all_accepting_pairs(self, q7):
        # every accepting transcript pair with a shared first message and
        # distinct challenges yields a valid witness
        p = q7.p
        stmt = or_statement(q7, 2, [4, 2])
        accepting = {}
        for alphas in product((1, 2, 4), repeat=2):
            first_key = alphas
            from zkmech.sigma import SigmaResponse

            first = ((alphas[0],), (alphas[1],))
            for beta in range(1, p + 1):
                for b0 in range(p):
                    b1 = (beta - b0) % p
                    gammas = []
                    good = True
                    for (base, target), bi, alpha in zip(
                        [row[0] for row in stmt.rows], (b0, b1), alphas
                    ):
                        want = alpha * q7.pow(target, bi) % q7.q
                        g = next(
                            (e for e in range(p) if q7.pow(base, e) == want), None
                        )
                        if g is None:
                            good = False
                            break
                        gammas.append((g,))
                    if not good:
                        continue
                    resp = SigmaResponse(betas=(b0, b1), gammas=tuple(gammas))
                    if cds_verify(stmt, first, beta, resp):
                        accepting.setdefault(first_key, []).append((beta, resp))
        checked = 0
        for first_key, transcripts in accepting.items():
            first = ((first_key[0],), (first_key[1],))
            for t1, t2 in product(transcripts, repeat=2):
                if t1[0] % p == t2[0] % p:
                    continue
                wit = cds_extract(stmt, first, t1, t2)
                assert check_witness(stmt, wit)
                checked += 1
        assert checked > 0

    def test_equal_challenges_rejected(self, q7, rng):
        stmt = schnorr_statement(q7, 2, 4)
        first, state = cds_prove_first(stmt, CdsWitness(0, (2,)), rng)
        resp = cds_respond(state, 2)
        with pytest.raises(ExtractionError):
            cds_extract(stmt, first, (2, resp), (2, resp))


class TestHonestVerifierSimulation:
    def test_worked_example(self, q7):
        rng = random.Random(5)
        stmt = schnorr_statement(q7, 2, 4)
        # force gamma = 1 by trying rngs until the draw matches the example
        while True:
            first, resp = cds_simulate(stmt, 2, rng)
            if resp.gammas == ((1,),):
                break
        assert first == ((1,),)  # 2^1 / 4^2 = 2 * 2^-1... = 1 in Z7
        assert cds_verify(stmt, first, 2, resp)

    def test_simulated_transcripts_always_verify(self, q7, rng):
        stmt = or_statement(q7, 2, [4, 2])
        for beta in range(1, q7.p + 1):
            for _ in range(20):
                first, resp = cds_simulate(stmt, beta, rng)
                assert cds_verify(stmt, first, beta, resp)

    def test_perfect_hvzk_schnorr(self, q7):
        # multiset of simulated transcripts over all (beta, gamma) equals
        # multiset of honest transcripts over all (nonce, beta): exact
        p = q7.p
        stmt = schnorr_statement(q7, 2, 4)
        wit = CdsWitness(0, (2,))
        honest = Counter()
        for nonce in range(1, p + 1):
            first = _build_first(stmt, wit, (nonce,), {})
            for beta in range(1, p + 1):
                resp = _build_response(stmt, wit, (nonce,), {}, beta)
                honest[transcript_tuple(first, beta, resp)] += 1
        from zkmech.sigma import SigmaResponse, _sim_alpha

        simulated = Counter()
        for gamma in range(p):
            for beta in range(1, p + 1):
                alpha = _sim_alpha(q7, 2, 4, beta % p, gamma)
                first = ((alpha,),)
                resp = SigmaResponse(betas=(beta % p,), gammas=((gamma,),))
                simulated[transcript_tuple(first, beta, resp)] += 1
        assert honest == simulated

    def test_perfect_hvzk_two_rows_and_witness_independence(self, q7):
        p = q7.p
        stmt = CdsStatement(params=q7, rows=(((2, 4),), ((2, 2),)))
        worlds = []
        for wit in (CdsWitness(0, (2,)), CdsWitness(1, (1,))):
            counter = Counter()
            other = 1 - wit.row
            for nonce in range(1, p + 1):
                for sb, sg in product(range(p), repeat=2):
                    sims = {other: (sb, (sg,))}
                    first = _build_first(stmt, wit, (nonce,), sims)
                    for beta in range(1, p + 1):
                        resp = _build_response(stmt, wit, (nonce,), sims, beta)
                        counter[transcript_tuple(first, beta, resp)] += 1
            worlds.append(counter)
        sim_counter = Counter()
        from zkmech.sigma import SigmaResponse, _sim_alpha

        for b0 in range(p):
            for g0, g1 in product(range(p), repeat=2):
                for beta in range(1, p + 1):
                    b1 = (beta - b0) % p
                    first = (
                        (_sim_alpha(q7, 2, 4, b0, g0),),
                        (_sim_alpha(q7, 2, 2, b1, g1),),
                    )
                    resp = SigmaResponse(betas=(b0, b1), gammas=((g0,), (g1,)))
                    sim_counter[transcript_tuple(first, beta, resp)] += 1
        assert worlds[0] == worlds[1] == sim_counter


class TestFiatShamir:
    def test_deterministic(self, q23):
        assert fiat_shamir_challenge(q23, b"ctx") == fiat_shamir_challenge(q23, b"ctx")
        assert fiat_shamir_challenge(q23, b"ctx") != fiat_shamir_challenge(q23, b"ctx2")

    def test_range(self, q23):
        rng = random.Random(9)
        for _ in range(10_000):
            c = fiat_shamir_challenge(q23, rng.randbytes(12))
            assert 1 <= c <= q23.p

    def test_near_uniform(self, q23):
        import math

        n = 100_000
        counts = Counter(
            fiat_shamir_challenge(q23, b"u" + i.to_bytes(4, "big")) for i in range(n)
        )
        expect = n / q23.p
        bound = 5 * math.sqrt(n * (1 / q23.p) * (1 - 1 / q23.p))
        for c in range(1, q23.p + 1):
            assert abs(counts[c] - expect) < bound

    @staticmethod
    def rehash_per_block(params, context):
        """The plain derivation: hash the whole context again for every block."""
        nbits = 2 * params.p.bit_length()
        nbytes = (nbits + 7) // 8
        for counter in range(1000):
            out = bytearray()
            block = 0
            while len(out) < nbytes:
                out += hashlib.sha256(
                    context + counter.to_bytes(4, "big") + block.to_bytes(4, "big")
                ).digest()
                block += 1
            t = int.from_bytes(out[:nbytes], "big") >> (8 * nbytes - nbits)
            if t == 0:
                continue
            c = t % params.p
            return params.p if c == 0 else c

    def test_one_pass_equals_rehash_per_block(self, q23, q384):
        params_2048 = params_from_modulus(RFC3526_MODP_2048)
        rng = random.Random("fiat-shamir differential")
        for params, n in ((q23, 300), (q384, 300), (params_2048, 100)):
            for _ in range(n):
                context = rng.randbytes(rng.choice((0, 1, 31, 32, 33, 64, rng.randrange(2000))))
                assert fiat_shamir_challenge(params, context) == self.rehash_per_block(
                    params, context
                )


def toy_statements(params):
    g, h = 2, 4
    return [
        (schnorr_statement(params, g, params.pow(g, 2)), CdsWitness(0, (2,))),
        (or_statement(params, h, [params.pow(h, 1), params.pow(g, 2)]), CdsWitness(0, (1,))),
        (and_statement(params, [(g, params.pow(g, 2)), (h, params.pow(h, 2))]), CdsWitness(0, (2, 2))),
        (
            CdsStatement(
                params=params,
                rows=(((g, params.pow(g, 1)),), ((g, params.pow(g, 2)), (h, params.pow(h, 1)))),
            ),
            CdsWitness(1, (2, 1)),
        ),
    ]


class TestNonInteractive:
    def test_honest_proofs_verify(self, q23, rng):
        for stmt, wit in toy_statements(q23):
            proof = ni_prove(stmt, wit, b"context", rng)
            assert ni_verify(stmt, proof, b"context")

    def test_wrong_context_rejected(self, q23, rng):
        stmt, wit = toy_statements(q23)[0]
        proof = ni_prove(stmt, wit, b"context", rng)
        assert not ni_verify(stmt, proof, b"other context")

    def test_single_bit_flips_all_rejected(self, q23, rng):
        stmt, wit = toy_statements(q23)[1]
        proof = ni_prove(stmt, wit, b"context", rng)
        blob = bytearray(encode_proof(proof))
        positions = rng.sample(range(len(blob) * 8), min(200, len(blob) * 8))
        for bitpos in positions:
            mutated = bytearray(blob)
            mutated[bitpos // 8] ^= 1 << (bitpos % 8)
            try:
                candidate = decode_proof(bytes(mutated), q23, stmt.shape)
            except Exception:
                continue  # malformed encodings count as rejections
            assert not ni_verify(stmt, candidate, b"context")

    def test_round_trip(self, q23, rng):
        for stmt, wit in toy_statements(q23):
            proof = ni_prove(stmt, wit, b"ctx", rng)
            again = decode_proof(encode_proof(proof), q23, stmt.shape)
            assert again == proof

    @pytest.mark.parametrize("group", ["q23", "q384"])
    def test_replace_carries_no_wire_bytes(self, request, group, rng):
        """A proof made by `ni_prove` or read from bytes keeps those bytes,
        and `dataclasses.replace` drops them: one proof's fields moved onto
        another, made for the same statement and context, are that other
        proof but for its bytes, and with the bytes its fields encode to
        verify and encode as it does."""
        params = request.getfixturevalue(group)
        for stmt, wit in toy_statements(params):
            made, other = (ni_prove(stmt, wit, b"ctx", rng) for _ in range(2))
            read = decode_proof(encode_proof(made), params, stmt.shape)
            for proof in (made, read):
                moved = replace(proof, first=other.first, challenge=other.challenge, response=other.response)
                assert moved == other and moved._wire is None
                rewired(params, moved)
                assert encode_proof(moved) == encode_proof(other)
                assert ni_verify_all([(stmt, moved, b"ctx")])


class TestShims:
    def test_or_is_rows_of_width_one(self, q7):
        stmt = or_statement(q7, 2, [4, 2, 4])
        assert stmt.shape == (1, 1, 1)

    def test_and_is_one_wide_row(self, q7):
        stmt = and_statement(q7, [(2, 4), (4, 2)])
        assert stmt.shape == (2,)

    def test_identity_rejected(self, q7):
        with pytest.raises(ParameterError):
            or_statement(q7, 2, [1])


# -- the batched verifier against the per-cell reference ------------------------


def prove_with_first(stmt, wit, context, rng, edit_alphas):
    """An honest proof whose first message `edit_alphas` rewrites before the
    challenge is drawn, so the challenge and digest checks still pass."""
    first, state = cds_prove_first(stmt, wit, rng)
    first = edit_alphas(first)
    challenge = fiat_shamir_challenge(stmt.params, context + encode_first(stmt.params, first))
    digest = hashlib.sha256(context).digest()
    return rewired(stmt.params, NiProof(first, challenge, cds_respond(state, challenge), digest))


def replace_at(rows, r, c, value):
    return tuple(
        tuple(value if (i, j) == (r, c) else x for j, x in enumerate(row)) for i, row in enumerate(rows)
    )


class TestBatchVerification:
    """Bundles crafted against the batch equation, at 384 bits: the batch
    and the per-cell reference must agree on each."""

    # ge 3 over 4 bits at value 15: positions 3 and 4, with rows over bits
    # {1, 2, 3} and {1, 2, 4}, so cell (h, bit 1) sits in both proofs.
    @pytest.fixture
    def bundle(self, ref384, rng):
        com, ops = commit_int(ref384, 15, 4, rng)
        plan = bound_plan(3, 4, greater=True)
        return [
            (plan_statement(ref384, (com,), rows), plan_witness(rows, (ops,)), b"ctx %d" % pos)
            for _, pos, rows in plan
        ]

    def items(self, bundle, rng, edits=None):
        edits = edits or {}
        return [
            (stmt, prove_with_first(stmt, wit, ctx, rng, edits.get(n, lambda a: a)), ctx)
            for n, (stmt, wit, ctx) in enumerate(bundle)
        ]

    def test_batch_is_on_at_384_bits_only(self, q23, q384):
        assert q23.p.bit_length() < BATCH_BITS <= q384.p.bit_length()

    def test_honest_bundle_verifies(self, bundle, rng, per_cell_verdict):
        items = self.items(bundle, rng)
        assert ni_verify_all(items) and per_cell_verdict(items)
        assert ni_verify_all([])

    def test_negated_alpha_in_one_cell(self, bundle, rng, q384, per_cell_verdict):
        negate = lambda a: replace_at(a, 1, 0, q384.q - a[1][0])  # noqa: E731
        items = self.items(bundle, rng, {0: negate})
        assert not per_cell_verdict(items)
        assert not ni_verify_all(items)

    def test_two_negated_alphas_in_one_bundle(self, bundle, rng, q384, per_cell_verdict):
        negate = lambda a: replace_at(a, 0, 0, q384.q - a[0][0])  # noqa: E731
        items = self.items(bundle, rng, {0: negate, 1: negate})
        assert not per_cell_verdict(items)
        assert not ni_verify_all(items)

    def test_the_membership_test_is_what_stops_negated_alphas(self, bundle, rng, q384, monkeypatch):
        """Without it, a pair of negated alphas passes whenever their two
        weights have the same parity: about every other context."""
        negate = lambda a: replace_at(a, 0, 0, q384.q - a[0][0])  # noqa: E731
        monkeypatch.setattr(GroupParams, "is_member", lambda self, x: True)
        verdicts = []
        for k in range(16):
            renamed = [(stmt, wit, ctx + b" %d" % k) for stmt, wit, ctx in bundle]
            verdicts.append(ni_verify_all(self.items(renamed, rng, {0: negate, 1: negate})))
        assert any(verdicts) and not all(verdicts)

    def test_gammas_moved_between_cells_of_one_base_and_target(self, bundle, rng, q384, per_cell_verdict):
        items = self.items(bundle, rng)
        ((stmt0, proof0, ctx0), (stmt1, proof1, ctx1)) = items
        assert stmt0.rows[0] == stmt1.rows[0]  # (h, bit 1) in both proofs
        p = q384.p

        def shifted(proof, delta):
            gammas = replace_at(proof.response.gammas, 0, 0, (proof.response.gammas[0][0] + delta) % p)
            return rewired(q384, replace(proof, response=replace(proof.response, gammas=gammas)))

        items = [(stmt0, shifted(proof0, 1), ctx0), (stmt1, shifted(proof1, -1), ctx1)]
        assert not per_cell_verdict(items)
        assert not ni_verify_all(items)

    def test_betas_moved_between_rows(self, bundle, rng, q384, per_cell_verdict):
        items = self.items(bundle, rng)
        stmt, proof, ctx = items[1]
        b = list(proof.response.betas)
        b[0], b[2] = (b[0] + 1) % q384.p, (b[2] - 1) % q384.p
        moved = rewired(q384, replace(proof, response=replace(proof.response, betas=tuple(b))))
        assert sum(b) % q384.p == proof.challenge % q384.p
        items[1] = (stmt, moved, ctx)
        assert not per_cell_verdict(items)
        assert not ni_verify_all(items)

    def test_a_target_that_is_a_base(self, ref384, rng, per_cell_verdict):
        # a bit commitment with r = 1 is g itself: in a <= b over a = 01 and
        # b = 11, g is the target of cells whose base is g, and of the AND
        # row's cell, so the batch sums one element's exponents from both sides
        ops_a = [BitOpening(bit=0, r=1), BitOpening(bit=1, r=ref384.params.exp_sample(rng))]
        com_a = tuple(commit_bit(ref384, op.bit, op.r) for op in ops_a)
        com_b, ops_b = commit_int(ref384, 3, 2, rng)
        coms, ops = (com_a, com_b), (ops_a, ops_b)
        items = []
        for _, pos, rows in le_committed_plan(2):
            stmt = plan_statement(ref384, coms, rows)
            items.append((stmt, ni_prove(stmt, plan_witness(rows, ops), b"ctx %d" % pos, rng), b"ctx %d" % pos))
        stmt, proof, ctx = items[0]
        assert stmt.rows[0] == ((ref384.g, ref384.g),)
        assert ni_verify_all(items) and per_cell_verdict(items)
        gammas = replace_at(proof.response.gammas, 0, 0, (proof.response.gammas[0][0] + 1) % ref384.params.p)
        items[0] = (stmt, rewired(stmt.params, replace(proof, response=replace(proof.response, gammas=gammas))), ctx)
        assert not per_cell_verdict(items)
        assert not ni_verify_all(items)

    def test_every_failure_before_the_batch_returns_false(self, bundle, rng):
        items = self.items(bundle, rng)
        stmt, proof, ctx = items[0]
        assert not ni_verify_all([items[1], (stmt, proof, ctx + b"!")])
        assert not ni_verify_all([(stmt, rewired(stmt.params, replace(proof, challenge=proof.challenge + 1)), ctx)])
        short = rewired(stmt.params, replace(proof, first=proof.first[:-1]))
        assert not ni_verify_all([(stmt, short, ctx)])  # a shape mismatch

    def test_a_run_batch_names_its_first_false_unit(self, bundle, ref384, rng):
        """Three messages' terms, a proof bundle, a reveal and another
        bundle: a false unit is named, at its index, ahead of any later one
        and of a failure found after it; with every unit true, that failure
        stands."""
        p = ref384.params.p
        com, ops = commit_int(ref384, 5, 3, rng)
        shifted = [op if k != 1 else replace(op, r=op.r % (p - 1) + 1) for k, op in enumerate(ops)]
        (stmt, proof, ctx), rest = self.items(bundle, rng)
        gammas = replace_at(proof.response.gammas, 0, 0, (proof.response.gammas[0][0] + 1) % p)
        false_bundle = [(stmt, rewired(stmt.params, replace(proof, response=replace(proof.response, gammas=gammas))), ctx), rest]

        def batch_of(*messages):
            batch = Batch(ref384.params)
            for name, terms in messages:
                batch.begin(name, "false")
                if name == "reveal":
                    assert reveal_int(ref384, com, terms, batch) == 5
                else:
                    assert ni_verify_all(terms, batch)
            return batch

        def failure(raise_it):
            with pytest.raises(VerificationFailed) as err:
                raise_it()
            return err.value.phase, err.value.index

        def fail_late(batch):
            batch.check()
            raise VerificationFailed("late", "found after")
        good = ("proofs", self.items(bundle, rng))
        for messages, first in [
            ((good, ("reveal", shifted), ("last", false_bundle)), ("reveal", 2)),
            ((good, ("reveal", ops), ("last", false_bundle)), ("last", None)),
            ((("first", false_bundle), ("reveal", shifted)), ("first", None)),
        ]:
            assert failure(batch_of(*messages).check) == first
            assert failure(lambda: fail_late(batch_of(*messages))) == first
        batch = batch_of(good, ("reveal", ops))
        assert failure(lambda: fail_late(batch)) == ("late", None)
        batch.check()  # nothing is left pending
        assert batch_of(good, ("reveal", ops)).holds() and not batch_of(good, ("reveal", shifted)).holds()

    def test_one_group_per_batch(self, bundle, rng, q23):
        (stmt, proof, ctx), _ = self.items(bundle, rng)
        toy = schnorr_statement(q23, 2, 4)
        toy_proof = ni_prove(toy, CdsWitness(0, (2,)), b"toy", rng)
        with pytest.raises(ParameterError):
            ni_verify_all([(stmt, proof, ctx), (toy, toy_proof, b"toy")])


# -- one reader of the size rule: the batch decides when a term is checked -------

SIZE_RULE = {"deferred", "BATCH_BITS"}


def size_rule_reads(source: str) -> list[tuple[str, str]]:
    """(function, name) of each read of the batch's size rule in `source`:
    `.deferred`, or BATCH_BITS as a name, an attribute or an imported name;
    the function's name is dotted when nested."""
    reads = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            where = f"{where}.{node.name}" if where else node.name
        name = getattr(node, "attr", None) or getattr(node, "id", None)
        if isinstance(node, ast.alias):
            name = node.name
        if name in SIZE_RULE:
            reads.append((where, name))
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(source), "")
    return reads


class TestOneReaderOfTheSizeRule:
    def test_the_scan_finds_each_form_of_read(self):
        source = (
            "from .sigma import BATCH_BITS\n"
            "def f(batch):\n"
            "    def g(p):\n"
            "        return p.bit_length() >= sigma.BATCH_BITS\n"
            "    return batch.deferred or BATCH_BITS\n"
        )
        assert sorted(size_rule_reads(source)) == sorted(
            [("", "BATCH_BITS"), ("f.g", "BATCH_BITS"), ("f", "deferred"), ("f", "BATCH_BITS")]
        )

    def test_no_module_but_sigma_py_reads_the_size_rule(self):
        """Whether a term is checked as it comes or deferred is `sigma.Batch`'s
        choice alone: its callers begin groups and add terms the same way at
        every group size."""
        package = Path(sigma.__file__).parent
        reads = {
            path.name: size_rule_reads(path.read_text(encoding="utf-8"))
            for path in sorted(package.glob("*.py"))
        }
        assert reads.pop("sigma.py")  # the scan sees sigma's own reads
        assert {name: found for name, found in reads.items() if found} == {}


# -- the prover's hint: simulated cells from the targets' openings ---------------


@pytest.fixture(scope="module")
def ref2048():
    return derive_generators(params_from_modulus(RFC3526_MODP_2048), b"hinted prover")


def hinted_statement(ref, rng, shape, real=0):
    """A statement over g and h whose every target is a power g^r or h^r:
    rows of the given widths, cell bases and target bases drawn at random,
    except that row `real` has the witness (its targets are powers of their
    cells' bases).  Returns the statement, the hint (target -> (B, r); in a
    toy group two cells may share a target, opened either way) and the
    witness."""
    bases = (ref.g, ref.h)
    rows, openings, exps = [], {}, []
    for n, width in enumerate(shape):
        cells = []
        for _ in range(width):
            base = rng.choice(bases)
            t_base = base if n == real else rng.choice(bases)
            r = ref.params.exp_sample(rng)
            target = ref.params.pow_unchecked(t_base, r)
            cells.append((base, target))
            openings[target] = (t_base, r)
            if n == real:
                exps.append(r)
        rows.append(tuple(cells))
    return CdsStatement(params=ref.params, rows=tuple(rows)), openings, CdsWitness(real, tuple(exps))


class TestHintedSimulation:
    """A simulated cell's alpha from the target's opening equals the generic
    `_sim_alpha`, and a hinted proof equals the unhinted one byte for byte,
    with the same draws from the rng."""

    @pytest.fixture(params=["ref23", "ref384", "ref2048"])
    def ref(self, request):
        return request.getfixturevalue(request.param)

    def test_alpha_matches_the_generic_path(self, ref, rng):
        params, p = ref.params, ref.params.p
        seen = Counter()
        for n in range(40):
            base, t_base = (ref.g, ref.h)[n % 2], (ref.g, ref.h)[n // 2 % 2]
            r = params.exp_sample(rng)
            target = params.pow_unchecked(t_base, r)
            beta = 0 if n % 5 == 0 else rng.randrange(p)
            gamma = rng.randrange(p)
            hinted = _sim_alpha(params, base, target, beta, gamma, (t_base, r))
            assert hinted == _sim_alpha(params, base, target, beta, gamma), (n, beta, r)
            seen["same base" if base == t_base else "cross base"] += 1
            seen["beta 0"] += beta == 0
            seen["beta r >= p"] += beta * r >= p
            seen["gamma < beta r"] += gamma < beta * r
        assert min(seen.values()) >= 5, seen

    def test_hinted_proof_is_the_unhinted_one(self, ref):
        rng = random.Random("hinted proofs")
        shapes = [(1, 1), (2, 2, 2), (1, 3, 2)] if ref.params.bit_length < 2048 else [(2, 1, 2)]
        for shape in shapes:
            for real in range(len(shape)):
                stmt, openings, wit = hinted_statement(ref, rng, shape, real)
                seed = rng.getrandbits(64)
                plain, hinted = random.Random(seed), random.Random(seed)
                proof = ni_prove(stmt, wit, b"ctx", plain)
                assert ni_prove(stmt, wit, b"ctx", hinted, openings) == proof
                assert hinted.getstate() == plain.getstate()
                assert ni_verify(stmt, proof, b"ctx")

    def test_hint_lacking_a_simulated_target_raises(self, ref384, rng):
        stmt, openings, wit = hinted_statement(ref384, rng, (1, 2, 2))
        ((_, real_target),) = stmt.rows[0]
        del openings[real_target]  # the real row is proved, not simulated
        ni_prove(stmt, wit, b"ctx", rng, openings)
        for row in (1, 2):
            for _, target in stmt.rows[row]:
                partial = {t: op for t, op in openings.items() if t != target}
                with pytest.raises(ParameterError):
                    cds_prove_first(stmt, wit, rng, partial)
                with pytest.raises(ParameterError):
                    ni_prove(stmt, wit, b"ctx", rng, partial)

    def test_a_witness_its_openings_contradict_raises(self, ref, rng):
        """The hint opens every real target as (base, r); a witness with
        another exponent at any cell does not hold, and is refused as it is
        without the hint."""
        p = ref.params.p
        stmt, openings, wit = hinted_statement(ref, rng, (2, 1, 3), real=2)
        for n, r in enumerate(wit.exps):
            wrong = CdsWitness(wit.row, (*wit.exps[:n], r % (p - 1) + 1, *wit.exps[n + 1 :]))
            assert not check_witness(stmt, wrong) and not check_witness(stmt, wrong, openings)
            for hint in (None, openings):
                with pytest.raises(ParameterError):
                    cds_prove_first(stmt, wrong, rng, hint)

    def test_a_real_target_opened_the_other_way_still_proves(self, ref23):
        """In the q=23 group two cells can share a target that the hint opens
        under the other base.  A real cell whose opening differs from its
        (base, exponent) is raised, and the proof is the unhinted one, byte
        for byte and draw for draw."""
        params, p = ref23.params, ref23.params.p
        rng = random.Random("opened the other way")
        for real, shape in ((0, (1, 2)), (1, (2, 3)), (2, (1, 1, 2))):
            stmt, openings, wit = hinted_statement(ref23, rng, shape, real)
            for base, target in stmt.rows[real]:
                other = ref23.h if base == ref23.g else ref23.g
                r = next(r for r in range(1, p) if params.pow_unchecked(other, r) == target)
                openings[target] = (other, r)
            seed = rng.getrandbits(64)
            plain, hinted = random.Random(seed), random.Random(seed)
            proof = ni_prove(stmt, wit, b"ctx", plain)
            assert ni_prove(stmt, wit, b"ctx", hinted, openings) == proof
            assert hinted.getstate() == plain.getstate()
            assert ni_verify(stmt, proof, b"ctx")

    def test_a_hinted_prover_raises_no_real_cell(self, ref384, rng, monkeypatch):
        """With the hint, the powers are the real row's nonces and the
        simulated cells' alphas, one for a cell whose target its opening
        raises the cell's own base, two for any other; without it each real
        cell is raised once more and each simulated cell twice."""
        calls = [0]
        real_pow = GroupParams.pow_unchecked

        def pow_unchecked(self, base, e):
            calls[0] += 1
            return real_pow(self, base, e)

        monkeypatch.setattr(GroupParams, "pow_unchecked", pow_unchecked)
        stmt, openings, wit = hinted_statement(ref384, rng, (2, 3, 1, 2), real=1)
        real = len(stmt.rows[1])
        simulated = [cell for n, row in enumerate(stmt.rows) if n != 1 for cell in row]
        same_base = sum(openings[target][0] == base for base, target in simulated)
        for hint, expected in (
            (openings, real + same_base + 2 * (len(simulated) - same_base)),
            (None, 2 * real + 2 * len(simulated)),
        ):
            calls[0] = 0
            cds_prove_first(stmt, wit, rng, hint)
            assert calls[0] == expected
