import decimal
import hashlib
import math
import random
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_push_forward import EXACT_SPECS

from sgverify import (
    DiscreteDistribution,
    HJParameters,
    IndependentSequence,
    IntegerAdditive,
    check_hj,
    check_hj_simple,
    check_mogulskii,
    check_moment_growth,
    check_moment_vs_quantile,
    check_spike_moment_bound,
    check_step_moment_sandwich,
    check_step_quantile_chain,
    check_truncated_quantile_shift,
    check_walk_moment_bound,
    check_walk_quantile_ratio,
    estimate_quantile_ratio_constant,
    moment_growth_multiplier,
    parse_instance,
    sweep_moment_growth,
    tight_block_set,
)
from sgverify import inequalities
from sgverify.inequalities import (
    DEFAULT_PQ_GRID,
    FLAG_DEFAULTS,
    INEQUALITIES,
    _chain_report,
    moment_growth_reports,
    suite_reports,
)
from sgverify.corpus import CorpusSpec, generate_corpus, generate_sequence, random_hj_parameters
from sgverify.laws import is_rational
from sgverify.reports import FLOAT_SLACK_TOL, InequalityReport, canonical_json

F = Fraction


def rademacher_seq(n):
    var = DiscreteDistribution.of([(1, F(1, 2)), (-1, F(1, 2))])
    return IndependentSequence.build(IntegerAdditive(), [var] * n)


# -- block inequality -------------------------------------------------------


def test_hj_single_block_is_tautology():
    # one block of size one: P(peak > t) <= P(step > s) + P(peak > t)
    seq = rademacher_seq(2)
    rep = check_hj(seq, HJParameters((1,), (F(1),), F(0)))
    assert rep.holds
    assert rep.slack == seq.step_peak_law.tail(0)


def test_hj_worked_example_n2():
    seq = rademacher_seq(2)
    rep = check_hj(seq, HJParameters((2,), (F(1),), F(1)))
    assert rep.params["tight_blocks"] == [1]
    assert rep.lhs == 0
    assert rep.rhs == F(1, 4)
    assert rep.slack == F(1, 4)
    assert rep.engine["arithmetic"] == "rational"


def test_hj_two_blocks_n3():
    seq = rademacher_seq(3)
    rep = check_hj(seq, HJParameters((2, 2), (F(1), F(1)), F(1)))
    assert rep.holds and rep.slack >= 0
    assert rep.rhs == F(1, 16)


def test_hj_tight_block_rule_matches_definition():
    seq = rademacher_seq(3)
    walk = seq.walk_peak_law
    params = HJParameters((2, 1, 1), (F(1), F(2), F(0)), F(0))
    tight = tight_block_set(walk, params)
    for i, (n_i, t_i) in enumerate(zip(params.block_sizes, params.thresholds), start=1):
        exponent = n_i - (1 if i == 1 else 0)
        expected = walk.prob_le(t_i) ** exponent <= F(1, math.factorial(n_i))
        assert (i in tight) == expected


def test_hj_rejects_oversized_blocks():
    seq = rademacher_seq(2)
    with pytest.raises(ValueError):
        check_hj(seq, HJParameters((2, 2), (F(1), F(1)), F(0)))


def test_hj_parameter_validation():
    with pytest.raises(ValueError):
        HJParameters((0,), (F(1),), F(0))
    with pytest.raises(ValueError):
        HJParameters((1,), (F(-1),), F(0))
    with pytest.raises(ValueError):
        HJParameters((1, 1), (F(1),), F(0))


def test_hj_monte_carlo_engine_reports_z():
    seq = rademacher_seq(2)
    rep = check_hj(
        seq, HJParameters((2,), (F(1),), F(1)), engine="mc", trials=20_000, seed=3
    )
    assert rep.engine["kind"] == "mc"
    assert "z" in rep.engine and rep.holds
    assert rep.engine["trials"] == 20_000


# -- single-threshold consequence -------------------------------------------


def test_hj_simple_k1():
    rep = check_hj_simple(rademacher_seq(2), 1, F(1))
    assert (rep.lhs, rep.rhs) == (0, 1)


def test_hj_simple_k2_n3():
    rep = check_hj_simple(rademacher_seq(3), 2, F(1))
    assert rep.lhs == 0
    assert rep.rhs == F(1, 2)


def test_hj_simple_threshold_above_range():
    seq = rademacher_seq(2)
    rep = check_hj_simple(seq, 1, F(10))
    assert rep.lhs == 0 and rep.holds


def test_hj_simple_degenerate_when_stay_impossible():
    # every path peaks above 1/2, so the stay probability vanishes
    rep = check_hj_simple(rademacher_seq(2), 2, F(1, 2))
    assert rep.degenerate
    assert rep.holds and rep.rhs == math.inf


def test_hj_simple_repeats_above_length_still_exact():
    # padding with identity steps makes any repeat count valid
    for K in (1, 2, 3, 4):
        rep = check_hj_simple(rademacher_seq(1), K, F(1))
        assert rep.degenerate or rep.slack >= 0


# -- window inequalities -----------------------------------------------------


def test_mogulskii_equalities_on_rademacher():
    seq = rademacher_seq(2)
    first, second = check_mogulskii(seq, 1, F(1), F(1))
    assert first.lhs == first.rhs == 1
    first, second = check_mogulskii(seq, 1, F(2), F(1))
    assert second.lhs == F(1, 2) and second.rhs == F(1, 2)


def test_mogulskii_negative_radius_difference_is_trivial():
    seq = rademacher_seq(2)
    _, second = check_mogulskii(seq, 1, F(1, 2), F(2))
    assert second.rhs == 1
    assert second.holds


def test_mogulskii_randomized_windows():
    rng = random.Random(8)
    corpus = generate_corpus(CorpusSpec(count=40, seed=14))
    for seq in corpus:
        end_values = [0] + list(seq.end_distance_law.values)
        for _ in range(3):
            m = rng.randint(1, seq.n)
            a = rng.choice(end_values)
            b = rng.choice(end_values)
            for rep in check_mogulskii(seq, m, a, b):
                assert rep.slack >= 0, (seq.label, rep.to_jsonable())


def test_mogulskii_refuses_a_non_associative_carrier():
    subint = parse_instance("broken:subint")
    step = DiscreteDistribution.of([(1, F(1, 2)), (-2, F(1, 2))])
    seq = IndependentSequence.build(subint, [step] * 3)
    with pytest.raises(ValueError, match="associative.*; broken:subint is not such a carrier"):
        check_mogulskii(seq, 1, 1, 1)


def test_mogulskii_refuses_a_carrier_whose_magnitude_depends_on_the_base_point():
    mulreal = parse_instance("broken:mulreal")
    step = DiscreteDistribution.of([(2, F(1, 2)), (3, F(1, 2))])
    seq = IndependentSequence.build(mulreal, [step] * 3)
    with pytest.raises(ValueError, match="associative.*; broken:mulreal is not such a carrier"):
        check_mogulskii(seq, 1, 1, 1)


# -- step-peak sandwiches ----------------------------------------------------


def test_chain_point_mass():
    line = IntegerAdditive()
    seq = IndependentSequence.build(line, [DiscreteDistribution.point_mass(1)])
    rep = check_step_quantile_chain(seq, F(2, 5))
    assert list(rep.components.values()) == [1, 1, 1, 1]


def test_chain_two_deterministic_steps():
    line = IntegerAdditive()
    seq = IndependentSequence.build(
        line,
        [DiscreteDistribution.point_mass(1), DiscreteDistribution.point_mass(2)],
    )
    rep = check_step_quantile_chain(seq, F(2, 5))
    assert list(rep.components.values()) == [2, 2, 2, 2]
    rep = check_step_quantile_chain(seq, F(3, 5))
    assert list(rep.components.values()) == [1, 1, 2, 2]
    assert rep.holds


def test_sandwich_examples():
    line = IntegerAdditive()
    solo = IndependentSequence.build(line, [DiscreteDistribution.point_mass(1)])
    rep = check_step_moment_sandwich(solo, F(1, 2), 1)
    assert rep.components["lower"] == F(1, 3)
    assert rep.components["step_peak_moment"] == 1
    assert rep.components["upper"] == 1
    mixed = IndependentSequence.build(
        line, [DiscreteDistribution.of([(1, F(1, 2)), (3, F(1, 2))])]
    )
    rep = check_step_moment_sandwich(mixed, F(3, 5), 1)
    assert rep.components == {
        "lower": F(1),
        "step_peak_moment": F(2),
        "upper": F(2),
    }
    zero = IndependentSequence.build(line, [DiscreteDistribution.point_mass(0)])
    rep = check_step_moment_sandwich(zero, F(1, 2), 1)
    assert rep.components["step_peak_moment"] == 0 and rep.holds


def test_chain_skips_links_between_infinite_floats():
    # inf <= inf cannot be decided in floats; the other links still are, and
    # a failing one is a failure, not a degenerate report
    inf, nan = math.inf, math.nan
    held = _chain_report("chain", {}, [("a", 1.0), ("b", inf), ("c", inf)])
    assert held.holds and held.slack == inf and held.degenerate == "infinite-links"
    failed = _chain_report("chain", {}, [("a", inf), ("b", inf), ("c", 1.0)])
    assert not failed.holds and failed.slack == -inf and failed.degenerate is None
    finite = _chain_report("chain", {}, [("a", 1.0), ("b", 2.0)])
    assert finite.degenerate is None and finite.slack == 1.0
    for links in ([1.0, nan, 2.0], [nan, nan], [inf, nan, inf], [1.0, 2.0, nan]):
        rep = _chain_report("chain", {}, list(zip("abc", links)))
        assert not rep.holds and math.isnan(rep.slack) and rep.degenerate is None, links


# -- quantile-ratio constant --------------------------------------------------


def test_quantile_ratio_worked_example():
    rep = check_walk_quantile_ratio(rademacher_seq(2), F(1, 10), F(1, 2))
    assert rep.components["walk_quantile_t"] == 2
    assert rep.components["walk_quantile_s"] == 1
    assert rep.components["step_quantile_half_t"] == 1
    expected = 2 * max(math.log(2), math.log(math.log(40))) / (math.log(10) * 2)
    assert rep.ratio == pytest.approx(expected, abs=1e-12)


def test_quantile_ratio_parameter_collapse():
    rep = check_walk_quantile_ratio(rademacher_seq(2), F(1, 4), F(1, 4))
    assert math.isfinite(rep.ratio)


def test_quantile_ratio_point_mass_steps():
    line = IntegerAdditive()
    seq = IndependentSequence.build(line, [DiscreteDistribution.point_mass(2)] * 2)
    rep = check_walk_quantile_ratio(seq, F(1, 10), F(1, 2))
    bound = max(math.log(2), math.log(math.log(40))) / math.log(10)
    assert rep.ratio <= bound + 1e-12


def test_quantile_ratio_zero_walk():
    line = IntegerAdditive()
    seq = IndependentSequence.build(line, [DiscreteDistribution.point_mass(0)])
    rep = check_walk_quantile_ratio(seq, F(1, 10), F(1, 2))
    assert rep.ratio == 0 and not rep.degenerate


def test_quantile_ratio_domain():
    with pytest.raises(ValueError):
        check_walk_quantile_ratio(rademacher_seq(2), F(3, 5), F(7, 10))
    with pytest.raises(ValueError):
        check_walk_quantile_ratio(rademacher_seq(2), F(1, 4), F(1, 8))


def test_estimate_c1_monotone_in_corpus():
    corpus = generate_corpus(CorpusSpec(count=60, seed=15))
    small = estimate_quantile_ratio_constant(corpus[:30])
    big = estimate_quantile_ratio_constant(corpus)
    assert big.value >= small.value
    assert math.isfinite(big.value)
    # a one-shot iterable of the corpus gives the same estimate and size
    assert estimate_quantile_ratio_constant(iter(corpus)) == big
    assert big.corpus_size == 60
    # the witness reproduces its reported ratio
    rep = check_walk_quantile_ratio(
        corpus[big.witness["corpus_index"]],
        big.witness["params"]["t"],
        big.witness["params"]["s"],
    )
    assert rep.ratio == big.witness["ratio"]


# -- truncation-frame comparisons ---------------------------------------------


def test_moment_vs_quantile_rademacher():
    plain, truncated = check_moment_vs_quantile(rademacher_seq(2), 1)
    assert plain.ratio == pytest.approx(0.5)
    assert truncated.ratio == pytest.approx(0.5)  # unit steps survive the cut


def test_moment_vs_quantile_point_mass():
    line = IntegerAdditive()
    seq = IndependentSequence.build(line, [DiscreteDistribution.point_mass(1)])
    plain, _ = check_moment_vs_quantile(seq, 1)
    assert plain.ratio == pytest.approx(0.5)


def test_moment_vs_quantile_degenerate_walk():
    line = IntegerAdditive()
    seq = IndependentSequence.build(line, [DiscreteDistribution.point_mass(0)])
    plain, truncated = check_moment_vs_quantile(seq, 1)
    assert plain.degenerate and plain.ratio == 1.0
    assert truncated.degenerate


def test_moment_vs_quantile_completes_semigroups():
    seq = IndependentSequence.build(
        parse_instance("posreal"),
        [DiscreteDistribution.of([(F(1), F(1, 2)), (F(3), F(1, 2))])],
    )
    plain, _ = check_moment_vs_quantile(seq, 1)
    assert plain.note and "completed" in plain.note
    assert math.isfinite(plain.ratio) and plain.ratio > 0


def test_truncated_quantile_shift_cases():
    seq = rademacher_seq(2)
    rep = check_truncated_quantile_shift(seq, 1)  # eta = e^-1/4
    assert rep.lhs == 2 and rep.rhs == 2 and rep.holds
    rep = check_truncated_quantile_shift(seq, 1, eta=1.0)
    assert rep.lhs == 0 and rep.holds
    with pytest.raises(ValueError):
        check_truncated_quantile_shift(seq, 1, eta=0.01)


def test_truncated_shift_inert_truncation_is_monotonicity():
    # all atoms survive the cut, so the bound reduces to quantile monotonicity
    seq = rademacher_seq(3)
    rep = check_truncated_quantile_shift(seq, 2)
    cut = rep.components["cutoff"]
    assert cut >= 1  # unit magnitudes survive
    assert rep.holds


def test_walk_moment_bound_examples():
    rep = check_walk_moment_bound(rademacher_seq(2), 1)
    assert rep.lhs == F(3, 2)
    assert rep.rhs == 24  # 8 * (1 + walk quantile 2 at level 1/8)
    line = IntegerAdditive()
    solo = IndependentSequence.build(line, [DiscreteDistribution.point_mass(5)])
    rep = check_walk_moment_bound(solo, 1)
    assert rep.lhs == 5 and rep.rhs == 8 * (5 + 5)
    rep = check_walk_moment_bound(rademacher_seq(3), 2)
    assert rep.engine["arithmetic"] == "rational"
    assert rep.slack >= 0


@pytest.mark.parametrize("p", [200.5, 300.25, 500.0])
def test_walk_moment_bound_compares_roots_beyond_the_float_range(p):
    # On a 3-step +-20 walk E[peak^p] leaves the float range at these
    # orders; both sides are compared as p-th roots, checked here against
    # the same roots taken in 60-digit decimals
    step = DiscreteDistribution.of([(20, F(1, 2)), (-20, F(1, 2))])
    seq = IndependentSequence.build(IntegerAdditive(), [step] * 3)
    rep = check_walk_moment_bound(seq, p)
    assert rep.degenerate is None and rep.holds
    assert rep.note and "roots" in rep.note
    with decimal.localcontext(prec=60):
        order = Decimal(p)

        def moment(values, probs):
            return sum(Decimal(v) ** order * Decimal(q.numerator) / q.denominator
                       for v, q in zip(values, probs))

        walk, peak = seq.walk_peak_law, seq.step_peak_law
        quantile = Decimal(rep.components["walk_quantile"])
        lhs = moment(walk.values, walk.probs) ** (1 / order)
        rhs = (2 ** (1 + 2 * order) * (moment(peak.values, peak.probs) + quantile**order)) ** (
            1 / order
        )
    assert rep.lhs == pytest.approx(float(lhs), rel=1e-12)
    assert rep.rhs == pytest.approx(float(rhs), rel=1e-12)


@pytest.mark.parametrize("p", [250.5, 300.25, 400.75])
def test_step_moment_sandwich_compares_roots_beyond_the_float_range(p):
    # Steps 20, -20 or 3: E[step peak^p] leaves the float range at these
    # orders, and the chain is compared on p-th roots, checked here against
    # the same roots taken in 60-digit decimals.  At t = 3/2 the aggregate
    # quantile is L = 3 (the summed magnitude tails are 3/2 on [3, 20)), so
    # the excess tail moment is R = 3 * 1/2 * (20^p - 3^p).
    step = DiscreteDistribution.of([(20, F(1, 4)), (-20, F(1, 4)), (3, F(1, 2))])
    seq = IndependentSequence.build(IntegerAdditive(), [step] * 3)
    t = F(3, 2)
    rep = check_step_moment_sandwich(seq, t, p)
    assert rep.degenerate is None and rep.holds
    assert rep.note and "roots" in rep.note
    with decimal.localcontext(prec=60):
        order, level = Decimal(p), Decimal(3) / 2
        cut_p, top_p = Decimal(3) ** order, Decimal(20) ** order
        extra = 3 * (top_p - cut_p) / 2
        expected = {
            "lower": ((level * cut_p + extra) / (1 + level)) ** (1 / order),
            "step_peak_moment": (cut_p / 8 + 7 * top_p / 8) ** (1 / order),
            "upper": (cut_p + extra) ** (1 / order),
        }
    for name, value in expected.items():
        assert rep.components[name] == pytest.approx(float(value), rel=1e-12), name
    assert (rep.lhs, rep.rhs) == (rep.components["lower"], rep.components["upper"])


def test_step_moment_sandwich_in_the_float_range_compares_moments():
    step = DiscreteDistribution.of([(20, F(1, 4)), (-20, F(1, 4)), (3, F(1, 2))])
    seq = IndependentSequence.build(IntegerAdditive(), [step] * 3)
    rep = check_step_moment_sandwich(seq, F(3, 2), 200.5)
    assert rep.note is None and rep.holds
    assert rep.components["step_peak_moment"] == seq.step_peak_law.moment(200.5)


def test_spike_moment_bound_examples():
    seq = rademacher_seq(2)
    rep = check_spike_moment_bound(seq, F(1, 2), 1)
    assert rep.lhs == 0  # the cut removes every unit step
    line = IntegerAdditive()
    var = DiscreteDistribution.of([(1, F(7, 10)), (5, F(3, 10))])
    s2 = IndependentSequence.build(line, [var, var])
    rep = check_spike_moment_bound(s2, F(9, 10), 1)
    assert rep.lhs == 3
    assert rep.rhs == pytest.approx(2 * math.exp(1.8) * 3.4)
    assert rep.components["cutoff"] == 1
    rep = check_spike_moment_bound(s2, F(1, 100), 1)
    assert rep.lhs == 0  # aggregate quantile exceeds every magnitude


# -- moment growth -------------------------------------------------------------


def required(seq, p, q, p0=1, eps=math.log(16)):
    """The first growth bound's required-constant report at one (p, q)."""
    (rep,) = moment_growth_reports(seq, p0, eps, [(p, q)])
    return rep


def test_required_growth_constant_worked_example():
    rep = required(rademacher_seq(2), 1, 1)
    factor = 1 / math.log(1 + math.log(16))
    assert rep.ratio == pytest.approx(1.5 / (factor * 2.5 + 1), abs=1e-12)
    assert rep.components["step_quantile"] == 1
    # second bound: E[peak] <= c' * factor * (E[peak] + E[step peak])
    _, second = check_moment_growth(rademacher_seq(2), 1, 1, 1, math.log(16), c=1.0, cprime=2.0)
    assert second.lhs == 1.5
    assert second.rhs == pytest.approx(2.0 * factor * (1.5 + 1), abs=1e-12)


def test_growth_bounds_hold_with_required_constant():
    seq = rademacher_seq(3)
    req = required(seq, 1, 2).ratio
    first, second = check_moment_growth(seq, 1, 1, 2, math.log(16), c=req)
    assert first.holds and abs(first.slack) < 1e-9
    assert second.holds
    assert second.params["cprime"] == pytest.approx(
        req * moment_growth_multiplier(1, math.log(16))
    )


def test_growth_p_equals_q_needs_no_inflation():
    # with p = q the peak root appears on both sides; c = 1 always works
    for seq in generate_corpus(CorpusSpec(count=20, seed=33)):
        rep = required(seq, 1, 1)
        if not rep.degenerate:
            assert rep.ratio <= 1 + 1e-12


def test_growth_parameter_domain():
    seq = rademacher_seq(2)
    with pytest.raises(ValueError):
        required(seq, 2, 1)  # q < p
    with pytest.raises(ValueError):
        required(seq, 1, 2, eps=5.0)  # eps > log 16
    with pytest.raises(ValueError):
        check_moment_growth(seq, 2.5, 2.5, 3, 0.1, c=1.0)  # eps below the gate


def test_estimate_c_monotone_and_finite():
    corpus = generate_corpus(CorpusSpec(count=40, seed=18))
    small = sweep_moment_growth(corpus[:20], 1, math.log(16))["estimate"]
    big = sweep_moment_growth(corpus, 1, math.log(16))["estimate"]
    assert big.value >= small.value
    assert math.isfinite(big.value) and big.value > 0
    assert sweep_moment_growth(iter(corpus), 1, math.log(16))["estimate"] == big
    assert big.corpus_size == 40


@pytest.mark.parametrize(
    "p0, eps, shrink",
    [
        (1, math.log(16), 1.0),
        (1, 1.0, 1.0),
        (0.5, 1.5, 1.0),
        (1, math.log(16), 0.03),
        (1, 1.0, 0.02),
    ],
)
def test_sweep_c_checks_the_second_bound_as_check_moment_growth_does(
    monkeypatch, p0, eps, shrink
):
    # a shrunken multiplier makes some, not all, items violate the second bound
    multiplier = moment_growth_multiplier(p0, eps) * shrink
    monkeypatch.setattr(inequalities, "moment_growth_multiplier", lambda p0, eps: multiplier)
    corpus = generate_corpus(CorpusSpec(count=40, seed=18))
    # the reference: the largest required constant, then every item checked again
    reports = [(index, rep) for index, seq in enumerate(corpus)
               for rep in moment_growth_reports(seq, p0, eps)]
    ratios = [(rep.ratio, -index) for index, rep in reports if not rep.degenerate]
    c, negated_index = max(ratios)  # the first item that reaches c
    cprime = c * multiplier
    seconds = [
        check_moment_growth(seq, p0, p, q, eps, c, cprime)[1]
        for seq in corpus
        for p, q in DEFAULT_PQ_GRID
    ]
    violations = sum(not rep.holds for rep in seconds)
    assert (0 < violations < len(seconds)) == (shrink < 1)
    result = sweep_moment_growth(iter(corpus), p0, eps)
    estimate = result.pop("estimate")
    assert (estimate.value, estimate.witness["corpus_index"]) == (c, -negated_index)
    assert estimate.skipped_degenerate == len(reports) - len(ratios)
    assert (estimate.corpus_size, estimate.grid_size) == (len(corpus), len(DEFAULT_PQ_GRID))
    assert result == {
        "multiplier": multiplier,
        "cprime": cprime,
        "second_bound_checked": len(seconds),
        "second_bound_violations": violations,
    }


def test_approximation_ratios_bounded_and_positive():
    from sgverify import sweep_moment_vs_quantile

    corpus = generate_corpus(CorpusSpec(count=30, seed=22))
    summary = sweep_moment_vs_quantile(corpus, p_grid=(1, 2))
    for entry in summary["ratios"].values():
        assert 0 < entry["min"] <= entry["max"] < math.inf


def test_hj_reports_separated_basepoint_counterexample_honestly():
    # The block bound observes the walk from its own start.  With z1 one
    # step away from z0 and a zero first threshold there is a one-step
    # counterexample; the checker must report the negative slack and note
    # the separated basepoints instead of masking them.
    cyc = parse_instance("cyclic:6")
    var = DiscreteDistribution.of([(5, F(7, 13)), (3, F(1, 13)), (1, F(5, 13))])
    seq = IndependentSequence.build(cyc, [var], z0=0, z1=1)
    rep = check_hj(seq, HJParameters((2,), (F(0),), F(1)))
    assert rep.slack == F(-27, 169)
    assert not rep.holds
    assert "basepoint" in rep.note
    # the same inequality certifies in the common-basepoint frame
    rep0 = check_hj(seq.with_basepoints(0, 0), HJParameters((2,), (F(0),), F(1)))
    assert rep0.holds and rep0.note is None


# -- basepoint robustness -------------------------------------------------------


def test_reports_invariant_under_common_translation():
    # moving both basepoints by g leaves every lhs/rhs unchanged, exactly
    rng = random.Random(4)
    corpus = generate_corpus(CorpusSpec(count=12, seed=19))
    for seq in corpus:
        if not seq.instance.is_abelian:
            continue
        g = seq.instance.random_element(rng)
        moved = seq.with_basepoints(
            seq.instance.compose(g, seq.z0), seq.instance.compose(g, seq.z1)
        )
        params = random_hj_parameters(rng, seq)
        a = check_hj(seq, params)
        b = check_hj(moved, params)
        assert (a.lhs, a.rhs) == (b.lhs, b.rhs)
        ra = check_walk_quantile_ratio(seq, F(1, 10), F(1, 2))
        rb = check_walk_quantile_ratio(moved, F(1, 10), F(1, 2))
        assert ra.ratio == rb.ratio


# -- slack on random sequences ----------------------------------------------


@settings(max_examples=400, deadline=None)
@given(
    spec=st.sampled_from([s for s in EXACT_SPECS if not s.startswith("broken:")]),
    seed=st.integers(0, 2**32),
    max_len=st.integers(1, 6),
    max_support=st.integers(1, 3),
)
def test_default_suite_slack_is_nonnegative_on_random_sequences(
    spec, seed, max_len, max_support
):
    seq = generate_sequence(parse_instance(spec), random.Random(seed), max_len, max_support, "")
    for rep in suite_reports(seq):
        if not isinstance(rep, InequalityReport) or rep.degenerate:
            continue
        if is_rational(rep.slack):
            assert rep.slack >= 0, rep.to_jsonable()
        else:
            assert rep.slack >= -FLOAT_SLACK_TOL, rep.to_jsonable()


# SHA-256 of `canonical_json` of the `check --ineq all` reports of each item
# of the default corpus, in corpus order; recorded at commit 4ada7ee, before
# the suite was read from the table of inequalities.
SUITE_DIGEST = "d822ee84dbf4f07aeb3affd5df66fbca809c5ff5aa10c888fc8deda6b47ef2a5"


def test_all_suite_keeps_its_digest_on_the_default_corpus(corpus):
    digest = hashlib.sha256()
    for seq in corpus:
        digest.update(canonical_json(list(suite_reports(seq))).encode())
    assert digest.hexdigest() == SUITE_DIGEST


def test_every_check_flag_has_one_kind_in_the_table():
    kinds = {}
    for row in INEQUALITIES.values():
        for flag, kind in row.flags.items():
            assert kind in (int, Fraction, float), flag
            assert kinds.setdefault(flag, kind) is kind, flag
    # a flag with a default is read by some row, with the kind of its default
    assert all(type(value) is kinds[flag] for flag, value in FLAG_DEFAULTS.items())
