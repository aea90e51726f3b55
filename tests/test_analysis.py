import math
import random
from fractions import Fraction
from itertools import product

import pytest

from zkmech.analysis import (
    EquivocatorStrategy,
    FiniteMechanism,
    GrovesInstance,
    HonestSellerStrategy,
    SHIPPED_HIDING_CONFIGS,
    TruncatedGeometric,
    check_dsic_ir,
    commitment_attack_driver,
    ex3_ic_lemma_check,
    expected_utility,
    groves_extract_weights,
    groves_outcome,
    noise_ratio_report,
    random_groves_instance,
    transcript_distribution_equality,
    two_part_mechanism,
)
from zkmech.errors import (
    DegenerateValuation,
    EnumerationBudget,
    ParameterError,
)
from zkmech.codec import TAG_EVAL_PROOF, Reader
from zkmech.group import RefString, params_from_modulus
from zkmech.protocols import _LEAD, MechanismSpec, owed_evidence, run_local


def posted_price_mechanism(price: int, bound: int) -> FiniteMechanism:
    """Take-it-or-leave-it at a fixed price: IR and DSIC by construction."""
    outcomes = ((0, 0), (1, price))
    table = {
        v: ({(1, price): Fraction(1)} if v >= price else {(0, 0): Fraction(1)})
        for v in range(bound)
    }
    return FiniteMechanism(
        types=tuple(range(bound)),
        outcomes=outcomes,
        table=table,
        utility=lambda v, x: Fraction(x[0] * v - x[1]),
    )


def geometric_noise(alpha: float, bounds: tuple[int, int], rng: random.Random) -> int:
    """One draw of truncated two-sided geometric noise."""
    return TruncatedGeometric(alpha, bounds[0], bounds[1]).sample(rng)


def independent_incentive_scan(m: FiniteMechanism):
    """Second, separately coded definitional check: truth-telling must be a
    best response and never lose money."""
    bad = []
    for t in m.types:
        payoffs = {r: expected_utility(m, t, r) for r in m.types}
        if payoffs[t] < 0:
            bad.append(("IR", t, None))
        best = max(payoffs.values())
        if payoffs[t] < best:
            for r, u in sorted(payoffs.items(), key=lambda kv: str(kv[0])):
                if u > payoffs[t]:
                    bad.append(("DSIC", t, r))
    return bad


def random_finite_mechanism(rng):
    n_types = rng.randrange(2, 5)
    n_outcomes = rng.randrange(2, 4)
    types = tuple(range(n_types))
    outcomes = tuple(range(n_outcomes))
    table = {}
    for t in types:
        weights = [rng.randrange(0, 4) for _ in outcomes]
        if sum(weights) == 0:
            weights[0] = 1
        total = sum(weights)
        table[t] = {x: Fraction(w, total) for x, w in zip(outcomes, weights) if w}
    payoff = {
        (t, x): Fraction(rng.randrange(-5, 6)) for t in types for x in outcomes
    }
    return FiniteMechanism(
        types=types,
        outcomes=outcomes,
        table=table,
        utility=lambda t, x: payoff[(t, x)],
    )


class TestIncentiveChecking:
    def test_posted_price_is_clean(self):
        for s in (0, 3, 7):
            assert check_dsic_ir(posted_price_mechanism(s, 8)) == []

    def test_bad_two_part_prices_caught_with_the_classic_deviation(self):
        violations = check_dsic_ir(two_part_mechanism(5, 2, 8))
        assert violations
        assert any(kind == "DSIC" and dev == 10 for kind, _, dev in violations)

    def test_good_two_part_prices_clean(self):
        assert check_dsic_ir(two_part_mechanism(2, 5, 8)) == []

    def test_agrees_with_independent_scan(self):
        rng = random.Random(77)
        for _ in range(100):
            m = random_finite_mechanism(rng)
            assert sorted(map(str, check_dsic_ir(m))) == sorted(
                map(str, independent_incentive_scan(m))
            )

    def test_distribution_must_sum_to_one(self):
        with pytest.raises(ParameterError):
            FiniteMechanism(
                types=(0,),
                outcomes=(0, 1),
                table={0: {0: Fraction(1, 2)}},
                utility=lambda t, x: Fraction(0),
            )


class TestIncentiveLemma:
    @pytest.mark.parametrize("bound", [2, 4])
    def test_holds_at_small_bounds(self, bound):
        assert ex3_ic_lemma_check(bound)

    def test_bound_cap(self):
        with pytest.raises(ParameterError):
            ex3_ic_lemma_check(64)

    @pytest.mark.parametrize("bound", [0, -4])
    def test_no_bound_below_one(self, bound):
        # the scan over no price pairs used to report the lemma as holding
        with pytest.raises(ParameterError):
            ex3_ic_lemma_check(bound)


def pmf_log_devs(epsilon, ell, lo, hi):
    """The largest deviations of log(pmf(y) / pmf(y - ell)) from ell * log
    alpha where y >= ell, and from its negative where y <= 0."""
    dist = TruncatedGeometric(1.0 - epsilon, lo, hi)
    target = ell * math.log(1.0 - epsilon)
    dev = mirror = 0.0
    for y in range(max(lo, lo + ell), hi + 1):
        ratio = math.log(dist.pmf(y)) - math.log(dist.pmf(y - ell))
        if y >= ell:
            dev = max(dev, abs(ratio - target))
        elif y <= 0:
            mirror = max(mirror, abs(ratio + target))
    return dev, mirror


class TestGeometricNoise:
    def test_center_mass_formula(self):
        alpha = 0.5
        dist = TruncatedGeometric(alpha, -60, 60)
        # renormalized center mass: alpha^0 / sum(alpha^|z|)
        total = sum(alpha ** abs(z) for z in range(-60, 61))
        assert abs(dist.pmf(0) - 1 / total) < 1e-12
        # wide windows approach the untruncated (1-a)/(1+a)
        assert abs(dist.pmf(0) - (1 - alpha) / (1 + alpha)) < 1e-12

    def test_interior_ratio_is_exact(self):
        for epsilon, ell, window in ((0.1, 1, 50), (0.2, 3, 40)):
            dev, mirror = pmf_log_devs(epsilon, ell, -window, window)
            assert dev < 1e-12 and mirror < 1e-12
        report3 = noise_ratio_report(0.2, 3, 0, (-40, 40), random.Random(0))
        assert report3.boundary_bins == 6

    def test_log_masses_match_the_pmf_ratios(self):
        """Every window up to 2,000 bins, where no mass underflows: the
        ratio of `pmf` logs is the ideal one in the interior and mirror
        bins, and the report counts the interior bins.  The deviations are
        compared to 1e-9 of the log ratio ell * |log alpha| they are
        measured from, a tolerance set from float64 before the comparison
        was run."""
        for epsilon, ell, step in ((0.1, 1, 1), (0.3, 7, 29)):
            tolerance = 1e-9 * ell * abs(math.log(1.0 - epsilon))
            for window in range(0, 2001, step):
                report = noise_ratio_report(epsilon, ell, 0, (-window, window), random.Random(0))
                dev, mirror = pmf_log_devs(epsilon, ell, -window, window)
                assert dev == pytest.approx(0.0, abs=tolerance), window
                assert mirror == pytest.approx(0.0, abs=tolerance), window
                assert report.interior_bins == max(0, window - ell + 1)

    def test_sampler_tracks_pmf(self):
        rng = random.Random(99)
        alpha, lo, hi = 0.8, -20, 20
        dist = TruncatedGeometric(alpha, lo, hi)
        n = 60_000
        counts = {z: 0 for z in range(lo, hi + 1)}
        for _ in range(n):
            counts[dist.sample(rng)] += 1
        for z in range(lo, hi + 1):
            p = dist.pmf(z)
            sd = math.sqrt(n * p * (1 - p))
            assert abs(counts[z] - n * p) <= 4 * sd

    def test_degenerate_window_rejected(self):
        with pytest.raises(ParameterError):
            geometric_noise(0.9, (5, 1), random.Random(0))
        with pytest.raises(ParameterError):
            geometric_noise(1.0, (-5, 5), random.Random(0))

    def test_report_renders_key_value_lines(self):
        report = noise_ratio_report(0.1, 1, 100, (-10, 10), random.Random(4))
        text = report.render()
        assert "epsilon=0.1" in text
        assert any(line.startswith("interior_bins=") for line in text.splitlines())


class TestGroves:
    def test_worked_example(self):
        inst = GrovesInstance(
            n=2,
            outcomes=("a", "b"),
            weights=(Fraction(1, 2), Fraction(1, 2)),
            valuations=((Fraction(4), Fraction(0)), (Fraction(0), Fraction(4))),
        )
        y, transfers = groves_outcome(inst)
        assert y == 0  # tie broken to the first outcome
        assert transfers == (Fraction(0), Fraction(-4))
        assert groves_extract_weights(inst.valuations, (y, transfers)) == inst.weights

    def test_all_zero_valuations_error(self):
        inst = GrovesInstance(
            n=2,
            outcomes=("a",),
            weights=(Fraction(1, 3), Fraction(2, 3)),
            valuations=((Fraction(0),), (Fraction(0),)),
        )
        with pytest.raises(DegenerateValuation):
            groves_extract_weights(inst.valuations, groves_outcome(inst))

    def test_random_round_trip_exact(self):
        rng = random.Random(31)
        for _ in range(100):
            inst = random_groves_instance(3, 4, rng)
            outcome = groves_outcome(inst)
            assert groves_extract_weights(inst.valuations, outcome) == inst.weights

    @pytest.mark.parametrize("n, outcomes", [(0, 4), (1, 4), (3, 0)])
    def test_a_degenerate_instance_is_refused(self, n, outcomes):
        # n = 0 or no outcome used to draw valuations forever
        with pytest.raises(ParameterError):
            random_groves_instance(n, outcomes, random.Random(1))

    def test_weight_validation(self):
        with pytest.raises(ParameterError):
            GrovesInstance(
                n=2,
                outcomes=("a",),
                weights=(Fraction(1), Fraction(0)),
                valuations=((Fraction(1),), (Fraction(1),)),
            )


def bundle_positions(r: Reader) -> list[int]:
    positions = []
    for _ in range(r.u16()):
        positions.append(r.u16())
        r.span()
    return positions


def lower_bounds(spec: MechanismSpec, values: list[int]) -> list[tuple[int, int]]:
    """(item, bound) of each lower-bound proof the case rule owes."""
    return [(ev.item, ev.low) for ev in owed_evidence(spec, values) if ev.form == "ge"]


def hiding_refs(params):
    from zkmech.analysis import _subgroup_elements

    nonid = [x for x in _subgroup_elements(params) if x != 1]
    pairs = [(g, h) for g in nonid for h in nonid if g != h]
    sims = [(g, rho) for g in nonid for rho in range(2, params.p)]
    return pairs, sims


class TestHidingEquality:
    @pytest.mark.parametrize("config", SHIPPED_HIDING_CONFIGS, ids=lambda c: f"{c[0]}-{c[2].prices}-{c[3]}")
    def test_shipped_configurations_are_exactly_hiding(self, config):
        kind, q, spec, reports = config
        assert transcript_distribution_equality(kind, params_from_modulus(q), spec, reports)

    def test_ex2_item_one_sale_with_a_tie_bound_is_hiding(self):
        # Reports (0, 0) on prices (1, 0) sell item 1; the tie rule makes
        # the seller prove s0 >= 1, which the planned worlds must include.
        spec = MechanismSpec("ex2", 2, (1, 0))
        assert lower_bounds(spec, [0, 0]) == [(0, 1)]
        assert transcript_distribution_equality("ex2", params_from_modulus(7), spec, [0, 0])

    @pytest.mark.parametrize("bound", [2, 4])
    def test_ex2_planned_proofs_are_the_ones_the_seller_sends(self, ref23, bound):
        width = bound.bit_length() - 1
        for s0, s1, v0, v1 in product(range(bound), repeat=4):
            spec = MechanismSpec("ex2", bound, (s0, s1))
            _, transcript = run_local(ref23, spec, [v0, v1], random.Random(1), random.Random(2))
            sent = []
            for msg in transcript.messages:
                if msg.tag == TAG_EVAL_PROOF:
                    item = {_LEAD["ge", 0]: 0, _LEAD["ge", 1]: 1}[msg.payload[:1]]
                    # one proof per 1-bit of the bound, at its position (MSB is 1)
                    positions = bundle_positions(Reader(msg.payload, 1))
                    sent.append((item, sum(1 << (width - i) for i in positions)))
            assert lower_bounds(spec, [v0, v1]) == sent, (s0, s1, v0, v1)

    def test_budget_guard(self):
        kind, q, spec, reports = SHIPPED_HIDING_CONFIGS[0]
        with pytest.raises(EnumerationBudget):
            transcript_distribution_equality(
                kind, params_from_modulus(q), spec, reports, budget=1
            )

    def test_comparison_is_not_vacuous(self):
        # negative control: the transcript tuples are sensitive -- the
        # revealing and the hidden-price branches produce disjoint
        # distributions, so a simulator for the wrong branch would fail
        from zkmech.analysis import _hiding_worlds

        params = params_from_modulus(7)
        pairs, sims = hiding_refs(params)
        spec = MechanismSpec("ex1", 2, (1,))
        real_hidden, _ = _hiding_worlds(pairs, sims, params, spec, [0], 10**6)
        real_reveal, _ = _hiding_worlds(pairs, sims, params, spec, [1], 10**6)
        assert real_hidden
        assert not set(real_hidden) & set(real_reveal)

    def test_real_world_enumerates_the_whole_budgeted_space(self):
        # ex1 price 2, report 0 at H=4: one ge proof with two one-cell rows,
        # so every real-row nonce must be paired with every simulated row
        from zkmech.analysis import _hiding_worlds

        params = params_from_modulus(7)
        pairs, sims = hiding_refs(params)
        spec = MechanismSpec("ex1", 4, (2,))
        real, sim = _hiding_worlds(pairs, sims, params, spec, [0], 648)
        assert sum(real.values()) == sum(sim.values()) == 648
        with pytest.raises(EnumerationBudget):
            _hiding_worlds(pairs, sims, params, spec, [0], 647)

    @pytest.mark.parametrize("kind,bound,n_buyers", [("ex1", 4, 1), ("ex1multi", 4, 2), ("ex2", 2, 1)])
    def test_every_small_configuration_is_hiding(self, kind, bound, n_buyers):
        params = params_from_modulus(7)
        n_prices = 2 if kind == "ex2" else 1
        n_reports = 2 if kind == "ex2" else n_buyers
        for prices in product(range(bound), repeat=n_prices):
            spec = MechanismSpec(kind, bound, prices, n_buyers=n_buyers)
            for reports in product(range(bound), repeat=n_reports):
                assert transcript_distribution_equality(kind, params, spec, list(reports)), (
                    prices,
                    reports,
                )

    @pytest.mark.parametrize("prices,reports", [((3, 0), [0, 0]), ((0, 3), [0, 1])])
    def test_ex2_width_two_bounds_are_hiding(self, prices, reports):
        # the ge proofs here have two-row statements whose real and
        # simulated witness rows differ
        spec = MechanismSpec("ex2", 4, prices)
        assert transcript_distribution_equality("ex2", params_from_modulus(7), spec, reports)

    def test_unsupported_kinds_are_refused(self):
        params = params_from_modulus(7)
        with pytest.raises(ParameterError):
            transcript_distribution_equality("ex2", params, MechanismSpec("ex1", 2, (1,)), [0])
        for spec in (MechanismSpec("ex3", 2, (0, 1)), MechanismSpec("ex4", 2, (1,))):
            with pytest.raises(ParameterError):
                transcript_distribution_equality(spec.kind, params, spec, [0])


class TestAttackDriver:
    def test_honest_strategy_extracts_nothing(self, ref23):
        adv = HonestSellerStrategy(price=5, bound=8, rng=random.Random(1))
        assert commitment_attack_driver(adv, ref23, 8) is None

    def test_double_opening_yields_planted_trapdoor(self, q23):
        rho = 7
        g = 2
        ref = RefString(params=q23, seed=b"planted", g=g, h=q23.pow(g, rho))
        adv = EquivocatorStrategy(
            rho=rho, bound=8, rng=random.Random(2), reveal_plan=lambda v: v
        )
        ell = commitment_attack_driver(adv, ref, 8)
        assert ell == rho % q23.p
        assert q23.pow(g, ell) == ref.h

    def test_claim_then_reveal_conflict_extracted_by_rewinding(self, q23):
        rho = 4
        g = 3
        ref = RefString(params=q23, seed=b"planted", g=g, h=q23.pow(g, rho))
        adv = EquivocatorStrategy(
            rho=rho,
            bound=8,
            rng=random.Random(3),
            reveal_plan=lambda v: 0,
            claim_below=4,
        )
        ell = commitment_attack_driver(adv, ref, 8)
        assert ell == rho % q23.p
        assert q23.pow(g, ell) == ref.h

    def test_verified_outcomes_pin_a_single_price_or_extraction_succeeds(self, q23):
        # the committing property at desk scale: replay every strategy in
        # the harness over all reports; either the per-report verified
        # outcomes match a single fixed price, or the driver finds log_g(h)
        from zkmech.analysis import ClaimAction, RevealAction
        from zkmech.commitments import reveal_int, verify_opening

        bound = 8
        rho = 5
        g = 2
        planted = RefString(params=q23, seed=b"planted", g=g, h=q23.pow(g, rho))
        factories = [
            ("honest", lambda seed: HonestSellerStrategy(price=3, bound=bound, rng=random.Random(seed))),
            (
                "double-opener",
                lambda seed: EquivocatorStrategy(
                    rho=rho, bound=bound, rng=random.Random(seed), reveal_plan=lambda v: v
                ),
            ),
            (
                "claim-then-reveal",
                lambda seed: EquivocatorStrategy(
                    rho=rho,
                    bound=bound,
                    rng=random.Random(seed),
                    reveal_plan=lambda v: 0,
                    claim_below=4,
                ),
            ),
        ]
        for name, factory in factories:
            probe = factory(123)
            com = probe.commit(planted)
            outcomes = {}
            for v in range(bound):
                action = probe.evaluate(planted, v)
                if isinstance(action, RevealAction):
                    if all(
                        verify_opening(planted, c, op)
                        for c, op in zip(com.bits, action.openings)
                    ):
                        price = reveal_int(planted, com, action.openings)
                        outcomes[v] = ("trade", price)
                elif isinstance(action, ClaimAction):
                    outcomes[v] = ("no-trade", action.bound)
            consistent = any(
                all(
                    out == (("trade", s) if s <= v else ("no-trade", v + 1))
                    for v, out in outcomes.items()
                )
                for s in range(bound)
            )
            extracted = commitment_attack_driver(factory(123), planted, bound)
            assert consistent or extracted is not None, name
            if name == "honest":
                assert consistent and extracted is None
