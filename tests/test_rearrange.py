import random
from fractions import Fraction

import pytest

from sgverify import (
    DiscreteDistribution,
    IntegerAdditive,
    ScalarLaw,
    TransferTuple,
    check_rearrangement_transfer,
    excess_tail_moment,
    parse_instance,
    rearrangement_at,
    tail_sum_inverse,
    tail_sum_inverse_law,
    truncate,
    truncate_upper,
)
from sgverify.corpus import CorpusSpec, generate_corpus

from law_oracles import rearrangement_grid_law, tail_sum, tail_sup_distance

F = Fraction


def scaled(law, factor):
    """The law of factor * X for X with law `law`."""
    return ScalarLaw.from_pairs((v * factor, p) for v, p in zip(law.values, law.probs))


def test_rearrangement_basic_steps():
    law = ScalarLaw.from_pairs([(0, F(7, 10)), (1, F(3, 10))])
    assert rearrangement_at(law, F(1, 10)) == 1
    assert rearrangement_at(law, F(3, 10)) == 0
    assert rearrangement_at(law, 1) == 0


def test_rearrangement_on_walk_peak_law():
    law = ScalarLaw.from_pairs([(1, F(1, 2)), (2, F(1, 2))])
    assert rearrangement_at(law, F(1, 4)) == 2
    assert rearrangement_at(law, F(3, 4)) == 1
    assert rearrangement_at(law, 1) == 0


def test_rearrangement_rejects_negative_argument():
    law = ScalarLaw.point_mass(1)
    with pytest.raises(ValueError):
        rearrangement_at(law, -0.1)


def test_rearrangement_level_equivalence():
    # X*(t) <= x  iff  P(X > x) <= t, over a grid of x and t
    law = ScalarLaw.from_pairs([(0, F(1, 5)), (1, F(2, 5)), (3, F(2, 5))])
    levels = [F(i, 20) for i in range(21)]
    xs = [0, F(1, 2), 1, 2, 3, 4]
    for t in levels:
        for x in xs:
            assert (rearrangement_at(law, t) <= x) == (law.tail(x) <= t)


def test_rearrangement_monotone_in_t_and_law():
    law = ScalarLaw.from_pairs([(1, F(1, 2)), (2, F(1, 2))])
    bigger = ScalarLaw.from_pairs([(2, F(1, 2)), (3, F(1, 2))])
    grid = [F(i, 10) for i in range(11)]
    for a, b in zip(grid, grid[1:]):
        assert rearrangement_at(law, a) >= rearrangement_at(law, b)
    for t in grid:
        assert rearrangement_at(law, t) <= rearrangement_at(bigger, t)


def test_rearrangement_scaling():
    law = ScalarLaw.from_pairs([(1, F(1, 2)), (4, F(1, 2))])
    for x in (F(2), F(1, 3), F(5)):
        shrunk = scaled(law, 1 / x)
        for t in (F(1, 10), F(2, 5), F(3, 4)):
            assert rearrangement_at(shrunk, t) == rearrangement_at(law, t) / x


def test_moment_dominates_quantile_mass():
    # E[X^p] >= t * X*(t)^p on (0, 1)
    law = ScalarLaw.from_pairs([(1, F(1, 4)), (2, F(1, 4)), (5, F(1, 2))])
    for p in (1, 2):
        m = law.moment(p)
        for t in (F(1, 20), F(1, 4), F(7, 10), F(99, 100)):
            assert m >= t * rearrangement_at(law, t) ** p


def test_dominated_tails_transfer_to_moments():
    # P(X > x) <= beta * P(Y > gamma*x) for all x > 0 gives
    # E[Y^p] >= gamma^p / beta * E[X^p]; with Y = X/2 both sides are equal
    law_x = ScalarLaw.from_pairs([(1, F(1, 4)), (2, F(1, 4)), (5, F(1, 2))])
    law_y = scaled(law_x, F(1, 2))
    beta, gamma = F(1), F(1, 2)
    grid = sorted(set(law_x.values) | {F(1, 7), F(3), F(9)})
    for x in grid:
        if x > 0:
            assert law_x.tail(x) <= beta * law_y.tail(gamma * x)
    for p in (1, 2):
        assert law_y.moment(p) >= gamma**p / beta * law_x.moment(p)
        assert law_y.moment(p) == gamma**p * law_x.moment(p)


def test_rearrangement_is_equidistributed():
    law = ScalarLaw.from_pairs([(0, F(1, 4)), (1, F(1, 4)), (3, F(1, 2))])
    gaps = []
    for cells in (8, 64, 512):
        grid_law = rearrangement_grid_law(law, cells)
        assert set(grid_law.values) <= set(law.values) | {0}
        gaps.append(tail_sup_distance(grid_law, law))
    assert gaps[0] >= gaps[1] >= gaps[2]
    assert gaps[-1] <= 1 / 256
    exact = rearrangement_grid_law(law, 4)  # 1/4-aligned masses recover the law
    assert exact.values == law.values
    assert exact.probs == law.probs


def test_tail_sum_inverse_steps():
    y1, y2 = ScalarLaw.point_mass(1), ScalarLaw.point_mass(2)
    assert tail_sum_inverse([y1, y2], F(3, 2)) == 1
    assert tail_sum_inverse([y1, y2], F(1, 2)) == 2
    assert tail_sum_inverse([y1, y2], 3) == 0
    assert tail_sum([y1, y2], F(3, 2)) == 1


def test_tail_sum_inverse_single_constant():
    y = ScalarLaw.point_mass(F(7, 2))
    assert tail_sum_inverse([y], F(1, 2)) == F(7, 2)
    assert tail_sum_inverse([y], 1) == 0
    assert tail_sum_inverse([y], 2) == 0


def test_tail_sum_inverse_rejects_bad_input():
    with pytest.raises(ValueError):
        tail_sum_inverse([], F(1, 2))
    with pytest.raises(ValueError):
        tail_sum_inverse([ScalarLaw.point_mass(1)], 0)


def test_tail_sum_law_identity():
    # P(agg > x) equals the summed tails, clipped at one
    corpus = generate_corpus(CorpusSpec(count=25, seed=21))
    for seq in corpus:
        mags = seq.magnitude_laws
        law = tail_sum_inverse_law(mags)
        grid = sorted({v for m in mags for v in m.values})
        for x in grid:
            assert law.tail(x) == min(F(1), tail_sum(mags, x))


def test_tail_sum_law_lebesgue_consistency():
    # the law's quantiles reproduce the pointwise inverse
    y1 = ScalarLaw.from_pairs([(1, F(1, 2)), (3, F(1, 2))])
    y2 = ScalarLaw.point_mass(2)
    law = tail_sum_inverse_law([y1, y2])
    for t in (F(1, 10), F(1, 3), F(2, 3), F(9, 10)):
        assert rearrangement_at(law, t) == tail_sum_inverse([y1, y2], t)


def test_excess_tail_moment_cases():
    yu = ScalarLaw.from_pairs([(1, F(1, 2)), (3, F(1, 2))])
    assert tail_sum_inverse([yu], F(3, 5)) == 1
    assert excess_tail_moment([yu], F(3, 5), 1) == 1
    assert tail_sum_inverse([yu], F(2, 5)) == 3
    assert excess_tail_moment([yu], F(2, 5), 1) == 0
    solo = ScalarLaw.point_mass(1)
    assert excess_tail_moment([solo], F(2, 5), 1) == 0


def test_truncations_on_the_line():
    line = IntegerAdditive()
    dist = DiscreteDistribution.of([(-3, F(1, 2)), (1, F(1, 2))])
    assert sorted(truncate(dist, 2, line).atoms) == [(0, F(1, 2)), (1, F(1, 2))]
    assert sorted(truncate_upper(dist, 2, line).atoms) == [(-3, F(1, 2)), (0, F(1, 2))]
    # cutoff above every magnitude: unchanged / collapsed respectively
    assert sorted(truncate(dist, 5, line).atoms) == sorted(dist.atoms)
    assert truncate_upper(dist, 5, line).atoms == ((0, F(1)),)
    # cutoff below every magnitude: collapsed / unchanged
    assert truncate(dist, F(1, 2), line).atoms == ((0, F(1)),)
    assert sorted(truncate_upper(dist, F(1, 2), line).atoms) == sorted(dist.atoms)


def test_truncations_are_complementary():
    line = IntegerAdditive()
    dist = DiscreteDistribution.of([(1, F(7, 10)), (5, F(3, 10))])
    cut = 1
    kept_small = truncate(dist, cut, line)
    kept_large = truncate_upper(dist, cut, line)
    assert sorted(kept_large.atoms) == [(0, F(7, 10)), (5, F(3, 10))]
    for x, _ in dist.atoms:
        mag = abs(x)
        small = dict(kept_small.atoms)
        large = dict(kept_large.atoms)
        if mag != cut:
            assert (x in small) != (x in large)


def test_truncation_needs_identity():
    pos = parse_instance("posreal")
    dist = DiscreteDistribution.of([(F(1), F(1))])
    with pytest.raises(ValueError):
        truncate(dist, 1, pos)
    completed = parse_instance("posreal+1")
    out = truncate(dist, F(1, 2), completed)
    assert out.atoms[0][0] is completed.identity


def test_transfer_identity_tuple():
    law = ScalarLaw.from_pairs([(1, F(1, 2)), (2, F(1, 2))])
    rep = check_rearrangement_transfer([TransferTuple()], law, law, F(1, 4))
    assert rep.holds and not rep.degenerate
    assert rep.lhs == rep.rhs == 2


def test_transfer_with_scaling():
    law = ScalarLaw.from_pairs([(1, F(1, 2)), (2, F(1, 2))])
    doubled = scaled(law, 2)
    rep = check_rearrangement_transfer(
        [TransferTuple(gamma=2)], law, doubled, F(1, 4)
    )
    assert rep.holds
    assert rep.rhs == F(1, 2) * rearrangement_at(doubled, F(1, 4))


def test_transfer_flags_failed_hypothesis():
    law = ScalarLaw.from_pairs([(1, F(1, 2)), (2, F(1, 2))])
    doubled = scaled(law, 2)
    rep = check_rearrangement_transfer(
        [TransferTuple(beta=F(1, 100), gamma=2)], law, doubled, F(1, 4)
    )
    assert rep.degenerate == "hypothesis-failed-untested"
    assert rep.holds  # vacuous


def test_transfer_min_form_when_all_clauses_hold():
    law = ScalarLaw.from_pairs([(1, F(1, 2)), (2, F(1, 2))])
    rep = check_rearrangement_transfer(
        [TransferTuple(), TransferTuple(beta=2)], law, law, F(1, 4)
    )
    assert rep.components["bound_form"] == "min"
    assert rep.holds


def test_random_laws_transfer_consistency():
    rng = random.Random(3)
    for _ in range(30):
        values = sorted(rng.sample(range(0, 12), rng.randint(1, 4)))
        weights = [rng.randint(1, 5) for _ in values]
        total = sum(weights)
        law = ScalarLaw.from_pairs(
            [(v, F(w, total)) for v, w in zip(values, weights)]
        )
        rep = check_rearrangement_transfer(
            [TransferTuple()], law, law, F(rng.randint(0, 10), 10)
        )
        assert rep.holds
