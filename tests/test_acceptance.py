"""Acceptance criteria, one test per criterion at its stated tolerance.

The sequence corpus (10,000 items, seed 1) is session-scoped and shared by
the certification criteria; run `pytest tests/test_acceptance.py -v -s` to
see one PASS line per criterion with timings.
"""

import math
import random
import time
from fractions import Fraction

from sgverify import (
    CompletedMonoid,
    DiscreteDistribution,
    IndependentSequence,
    IntegerAdditive,
    PositiveRationalsAdditive,
    WalkConfig,
    check_hj,
    check_hj_simple,
    check_mogulskii,
    check_moment_growth,
    check_spike_moment_bound,
    check_step_moment_sandwich,
    check_step_quantile_chain,
    check_truncated_quantile_shift,
    check_walk_moment_bound,
    check_walk_quantile_ratio,
    derive_seed,
    detect_convergence,
    estimate_quantile_ratio_constant,
    mc_tail_agreement,
    moment_growth_multiplier,
    monte_carlo_law,
    parse_instance,
    simulate_walk,
    sweep_moment_growth,
    verify_axioms,
)
from sgverify.corpus import random_hj_parameters
from sgverify.inequalities import DEFAULT_PQ_GRID

F = Fraction

# the seed of the session corpus (`corpus` in conftest.py)
CORPUS_SEED = 1


def ok(criterion: str, detail: str):
    print(f"\nACCEPTANCE {criterion}: PASS ({detail})")


def assert_certified(report, where):
    """Slack >= 0 exactly in rational mode, >= -1e-9 in float mode."""
    if report.degenerate:
        return 0
    if report.engine["arithmetic"] == "rational":
        assert report.slack >= 0, (where, report.to_jsonable())
    else:
        assert report.slack >= -1e-9, (where, report.to_jsonable())
    return 1


def test_c01_axiom_certification():
    start = time.time()
    for spec in ("cyclic:6", "sym:3", "graphgroup:3"):
        report = verify_axioms(parse_instance(spec))
        assert report.ok and report.total_violations == 0, spec
    broken = verify_axioms(parse_instance("broken:mulreal"), samples=1000, seed=7)
    invariance_hits = (
        broken.violations["left-invariance"] + broken.violations["right-invariance"]
    )
    assert invariance_hits >= 1
    elapsed = time.time() - start
    assert elapsed < 5.0
    ok("C1 axiom-certification", f"3 exact instances clean, broken flagged, {elapsed:.2f}s")


def test_c02_completion_well_defined():
    pos = PositiveRationalsAdditive()
    rng = random.Random(derive_seed(CORPUS_SEED, "completion"))
    worst = 0
    for _ in range(1000):
        a, b, z = (pos.random_element(rng) for _ in range(3))
        gap = abs(
            pos.distance(a, pos.compose(a, z)) - pos.distance(b, pos.compose(b, z))
        )
        worst = max(worst, gap)
    assert worst <= 1e-12
    for probe in (F(1, 10), F(7), F(1000)):
        mono = CompletedMonoid(pos, probe=probe)
        assert mono.distance(mono.identity, F(7, 2)) == F(7, 2)
    ok("C2 completion-well-defined", f"1000 probe triples, worst gap {worst}")


def test_c03_hj_exact_certification(corpus):
    start = time.time()
    checked = 0
    for index, seq in enumerate(corpus):
        rng = random.Random(derive_seed(CORPUS_SEED, "hj-params", index))
        for _ in range(3):
            params = random_hj_parameters(rng, seq)
            report = check_hj(seq, params)
            if not report.degenerate:
                assert report.engine["arithmetic"] == "rational", report.to_jsonable()
            checked += assert_certified(report, (index, params))
    elapsed = time.time() - start
    assert elapsed < 300.0
    ok("C3 hj-exact", f"{checked} non-degenerate checks, 0 violations, {elapsed:.1f}s")


def test_c04_hj_simple_quantile_grid(corpus):
    start = time.time()
    checked = 0
    for index, seq in enumerate(corpus):
        grid = [t for t in seq.walk_peak_law.values if t > 0]
        for repeats in (1, 2, 3, 4):
            for t in grid:
                report = check_hj_simple(seq, repeats, t)
                checked += assert_certified(report, (index, repeats, t))
    elapsed = time.time() - start
    ok("C4 hj-simple", f"{checked} checks over K=1..4, 0 violations, {elapsed:.1f}s")


def test_c05_window_inequalities(corpus):
    start = time.time()
    checked = 0
    for index, seq in enumerate(corpus):
        rng = random.Random(derive_seed(CORPUS_SEED, "windows", index))
        cands = [0] + list(seq.end_distance_law.values)
        draws = [(rng.randint(1, seq.n), rng.choice(cands), rng.choice(cands))]
        low, high = min(cands), max(cands)
        if low < high:
            draws.append((rng.randint(1, seq.n), low, high))  # a < b
        draws.append((rng.randint(1, seq.n), rng.choice(cands), 0))  # b = 0
        for m, a, b in draws:
            for report in check_mogulskii(seq, m, a, b):
                checked += assert_certified(report, (index, m, a, b))
    elapsed = time.time() - start
    ok("C5 window-inequalities", f"{checked} checks incl. a<b and b=0, {elapsed:.1f}s")


T_GRID = (F(1, 20), F(1, 10), F(1, 4), F(2, 5), F(49, 100))


def test_c06_step_peak_chain_and_sandwich(corpus):
    start = time.time()
    checked = 0
    for index, seq in enumerate(corpus):
        for t in T_GRID:
            checked += assert_certified(check_step_quantile_chain(seq, t), (index, t))
            for p in (0.5, 1, 2):
                report = check_step_moment_sandwich(seq, t, p)
                if isinstance(p, int):
                    assert report.engine["arithmetic"] == "rational"
                checked += assert_certified(report, (index, t, p))
    elapsed = time.time() - start
    ok("C6 step-peak-bounds", f"{checked} chain+sandwich checks, {elapsed:.1f}s")


def test_c07_truncation_and_moment_bounds(corpus):
    start = time.time()
    checked = 0
    for index, seq in enumerate(corpus):
        for p in (0.5, 1, 2):
            for eta in (None, 1.0):
                report = check_truncated_quantile_shift(seq, p, eta=eta)
                checked += assert_certified(report, (index, "shift", p, eta))
            report = check_walk_moment_bound(seq, p)
            checked += assert_certified(report, (index, "walk-moment", p))
            for r in (F(3, 10), F(9, 10)):
                report = check_spike_moment_bound(seq, r, p)
                checked += assert_certified(report, (index, "spike", r, p))
    elapsed = time.time() - start
    ok("C7 truncation-bounds", f"{checked} checks at p in (0.5,1,2), {elapsed:.1f}s")


# the (p, q) grid of the `c` sweep
PQ_GRID = ((1, 1), (1, 2), (2, 4), (1, 8))


def test_c08_moment_growth_constant(corpus):
    start = time.time()
    eps = math.log(16)
    assert PQ_GRID == DEFAULT_PQ_GRID
    estimate = sweep_moment_growth(corpus, 1, eps)["estimate"]
    assert math.isfinite(estimate.value) and estimate.value > 0
    cprime = estimate.value * moment_growth_multiplier(1, eps)
    violations = 0
    checked = 0
    for seq in corpus:
        for p, q in PQ_GRID:
            _, second = check_moment_growth(seq, 1, p, q, eps, estimate.value, cprime)
            checked += 1
            if not second.holds:
                violations += 1
    assert violations == 0
    elapsed = time.time() - start
    ok(
        "C8 moment-growth",
        f"c-hat {estimate.value:.4f}, c' {cprime:.4f}, "
        f"{checked} combined-bound checks, 0 violations, {elapsed:.1f}s",
    )


def test_c09_quantile_ratio_constant(corpus):
    start = time.time()
    estimate = estimate_quantile_ratio_constant(
        corpus,
        t_grid=(F(1, 100), F(1, 20), F(1, 10)),
        s_grid=(F(1, 20), F(1, 10), F(1, 4), F(1, 2)),
    )
    assert math.isfinite(estimate.value) and estimate.value > 0
    var = DiscreteDistribution.of([(1, F(1, 2)), (-1, F(1, 2))])
    rad2 = IndependentSequence.build(IntegerAdditive(), [var, var])
    spot = check_walk_quantile_ratio(rad2, F(1, 10), F(1, 2))
    assert spot.components["walk_quantile_t"] == 2
    assert spot.components["walk_quantile_s"] == 1
    assert spot.components["step_quantile_half_t"] == 1
    expected = 2 * max(math.log(2), math.log(math.log(40))) / (math.log(10) * 2)
    assert abs(spot.ratio - expected) <= 1e-3
    assert abs(spot.ratio - 0.567) <= 1e-3
    elapsed = time.time() - start
    ok(
        "C9 quantile-ratio",
        f"c1-hat {estimate.value:.4f}, spot ratio {spot.ratio:.6f}, {elapsed:.1f}s",
    )


def test_c10_monte_carlo_agreement(corpus):
    start = time.time()
    instances = corpus[:200]
    clean = 0
    for index, seq in enumerate(instances):
        records = mc_tail_agreement(
            seq, trials=100_000, seed=derive_seed(CORPUS_SEED, "agree", index)
        )
        if all(rec["z"] <= 3.0 for rec in records):
            clean += 1
    share = clean / len(instances)
    assert share >= 0.99
    elapsed = time.time() - start
    ok("C10 oracle-agreement", f"{clean}/200 instances within 3 SE, {elapsed:.1f}s")


def test_c11_convergence_dichotomy():
    start = time.time()
    geometric = simulate_walk(WalkConfig(seed=5))
    verdict = detect_convergence(geometric)
    assert verdict.verdict == "converging"
    assert verdict.inconclusive_fraction == 0.0
    assert verdict.max_gap_by_window[10] <= 3.0**-10
    constant = detect_convergence(
        simulate_walk(WalkConfig(schedule="constant:uniform", seed=5))
    )
    assert constant.verdict == "diverging"
    elapsed = time.time() - start
    assert elapsed < 30.0
    ok(
        "C11 dichotomy",
        f"geometric converging (max gap@10 {verdict.max_gap_by_window[10]:.2e}), "
        f"constant diverging, {elapsed:.1f}s",
    )


def test_c12_moment_growth_order():
    start = time.time()
    var = DiscreteDistribution.of([(1, F(1, 2)), (-1, F(1, 2))])
    walk = IndependentSequence.build(IntegerAdditive(), [var] * 200)
    law = monte_carlo_law(walk, "walk_peak", trials=100_000, seed=12)
    ratios = {}
    for q in (4, 8, 16, 32):
        ratio = law.moment_root(q) / (math.sqrt(q) * math.sqrt(200))
        assert 0.2 <= ratio <= 3.0, (q, ratio)
        ratios[q] = round(ratio, 3)
    elapsed = time.time() - start
    ok("C12 growth-order", f"ratios {ratios} within [0.2, 3], {elapsed:.1f}s")
