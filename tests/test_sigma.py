import hashlib
import random
from collections import Counter
from itertools import product

import pytest

from zkmech.errors import ExtractionError, ParameterError, ShapeMismatch, StateConsumed
from zkmech.group import RFC3526_MODP_2048, params_from_modulus
from zkmech.sigma import (
    CdsStatement,
    CdsWitness,
    _build_first,
    _build_response,
    and_statement,
    cds_extract,
    cds_prove_first,
    cds_respond,
    cds_simulate,
    cds_verify,
    check_witness,
    decode_proof,
    encode_proof,
    fiat_shamir_challenge,
    ni_prove,
    ni_verify,
    or_statement,
    schnorr_statement,
)


def transcript_tuple(first, beta, resp):
    return (
        tuple(a for row in first.alphas for a in row),
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
        assert first.alphas == ((2,),)

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
        from zkmech.sigma import SigmaFirst, SigmaResponse

        stmt = schnorr_statement(q7, 2, 4)
        first = SigmaFirst(alphas=((2,),))
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
            from zkmech.sigma import SigmaFirst, SigmaResponse

            first = SigmaFirst(alphas=((alphas[0],), (alphas[1],)))
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
            from zkmech.sigma import SigmaFirst

            first = SigmaFirst(alphas=((first_key[0],), (first_key[1],)))
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
        assert first.alphas == ((1,),)  # 2^1 / 4^2 = 2 * 2^-1... = 1 in Z7
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
        from zkmech.sigma import SigmaFirst, SigmaResponse, _sim_alpha

        simulated = Counter()
        for gamma in range(p):
            for beta in range(1, p + 1):
                alpha = _sim_alpha(q7, 2, 4, beta % p, gamma)
                first = SigmaFirst(alphas=((alpha,),))
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
        from zkmech.sigma import SigmaFirst, SigmaResponse, _sim_alpha

        for b0 in range(p):
            for g0, g1 in product(range(p), repeat=2):
                for beta in range(1, p + 1):
                    b1 = (beta - b0) % p
                    alphas = (
                        (_sim_alpha(q7, 2, 4, b0, g0),),
                        (_sim_alpha(q7, 2, 2, b1, g1),),
                    )
                    first = SigmaFirst(alphas=alphas)
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
