"""The quantile layer against the linear scans and the Fraction tails it
replaced.

`rearrangement_at`, `tail_sum_inverse`, `tail_sum_inverse_law` and
`excess_tail_moment` bisect precomputed tails; the functions below are their
earlier definitions, which scan every grid point and re-sum the tails at
each.  Results must be equal and have the same repr, so that no report
changes a byte, whether the laws come as a plain tuple or as a sequence's
shared `AggregateTail`.

The bisections and moments work on a law's integer weights and tails,
compared with floor(t * D); `law_oracles` keeps their forms on Fraction
tails, compared with t itself.  They must agree in value, type and repr,
and raise the same errors, on every default-corpus item at the checkers'
own arguments and on random laws at arguments chosen to sit on, or next
to, an attained tail.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sgverify import (
    ScalarLaw,
    excess_tail_moment,
    rearrangement_at,
    tail_sum,
    tail_sum_inverse,
    tail_sum_inverse_law,
)
from sgverify.corpus import CorpusSpec, generate_corpus
from sgverify.inequalities import _identity_frame
from sgverify.laws import _prob_from_json
from sgverify.rearrange import AggregateTail, aggregate_tail, pow_value

from law_oracles import (
    FractionAggregateTail,
    fraction_moment,
    fraction_rearrangement_at,
    fraction_tail_sum_inverse,
)

F = Fraction


def scan_rearrangement_at(law, t):
    if t < 0:
        raise ValueError(f"rearrangement argument must be >= 0, got {t}")
    if law.tail(0) <= t:
        return 0
    for v in law.values:
        if law.tail(v) <= t:
            return v
    return law.values[-1]


def scan_tail_sum_inverse(laws, t):
    if t <= 0:
        raise ValueError(f"tail-sum inverse needs t > 0, got {t}")
    if not laws:
        raise ValueError("empty family of magnitude laws")
    if tail_sum(laws, 0) <= t:
        return 0
    grid = sorted({v for law in laws for v in law.values})
    for v in grid:
        if tail_sum(laws, v) <= t:
            return v
    return grid[-1]


def scan_tail_sum_inverse_law(laws):
    if not laws:
        raise ValueError("empty family of magnitude laws")
    one = Fraction(1)
    grid = sorted({v for law in laws for v in law.values if v > 0})
    prev = min(one, tail_sum(laws, 0))
    pairs = []
    if one - prev > 0:
        pairs.append((0, one - prev))
    for v in grid:
        cur = min(one, tail_sum(laws, v))
        if prev - cur > 0:
            pairs.append((v, prev - cur))
        prev = cur
    return ScalarLaw.from_pairs(pairs)


def scan_excess_tail_moment(laws, t, p):
    if p <= 0:
        raise ValueError("moment order must be positive")
    return scan_excess_above(laws, scan_tail_sum_inverse(laws, t), p)


def scan_excess_above(laws, cut, p):
    total = 0
    for law in laws:
        points = [cut] + [v for v in law.values if v > cut]
        for a, b in zip(points, points[1:]):
            tau = law.tail(a)
            if tau > 0:
                total = total + tau * (pow_value(b, p) - pow_value(a, p))
    return total


def same(a, b):
    return a == b and repr(a) == repr(b)


C06_T_GRID = (F(1, 20), F(1, 10), F(1, 4), F(2, 5), F(49, 100))
# C06's t grid and t >= 1, as Fractions and as floats, each with a moment
# order for the excess tail moment.
LEVELS = (*C06_T_GRID, F(1), F(3, 2), F(2))
LEVELS = [*LEVELS, *(float(t) for t in LEVELS)]
ORDERS = (0.5, 1, 2)


def assert_quantiles_match(mags, laws, levels):
    """Compare on the family `mags` and on `laws`, cycling the moment order."""
    assert same(tail_sum_inverse_law(mags), scan_tail_sum_inverse_law(mags))
    for i, t in enumerate(levels):
        p = ORDERS[i % len(ORDERS)]
        cut = scan_tail_sum_inverse(mags, t)
        assert same(tail_sum_inverse(mags, t), cut), t
        assert same(excess_tail_moment(mags, t, p), scan_excess_above(mags, cut, p)), (t, p)
    for law in laws:
        for t in (0, *levels):
            assert same(rearrangement_at(law, t), scan_rearrangement_at(law, t)), t


def test_quantile_layer_matches_linear_scans_on_default_corpus():
    for seq in generate_corpus(CorpusSpec(count=10_000, seed=1)):
        mags = aggregate_tail(seq)
        assert aggregate_tail(seq) is mags
        laws = (seq.walk_peak_law, seq.step_peak_law, tail_sum_inverse_law(mags))
        assert_quantiles_match(mags, laws, LEVELS)


def exact_laws():
    """Laws from weights over a few values: Fraction or int values."""
    values = st.one_of(
        st.integers(0, 6), st.fractions(0, 6, max_denominator=4)
    )
    return st.lists(
        st.tuples(values, st.integers(1, 5)), min_size=1, max_size=5
    ).map(lambda pairs: ScalarLaw.from_pairs(
        [(v, F(w, sum(w for _, w in pairs))) for v, w in pairs]
    ))


def empirical_laws():
    """Monte Carlo style laws: counts over trials, float or int values."""
    values = st.one_of(st.integers(0, 6), st.floats(0, 6, allow_nan=False))
    return st.dictionaries(values, st.integers(1, 50), min_size=1, max_size=5).map(
        lambda counts: ScalarLaw.from_counts(counts, sum(counts.values()), seed=0)
    )


@settings(max_examples=300, deadline=None)
@given(
    mags=st.lists(st.one_of(exact_laws(), empirical_laws()), min_size=1, max_size=4),
    levels=st.lists(
        st.one_of(
            st.fractions(0, 3, max_denominator=12).filter(lambda t: t > 0),
            st.floats(1e-6, 3),
        ),
        min_size=1,
        max_size=4,
    ),
)
def test_quantile_layer_matches_linear_scans_on_random_laws(mags, levels):
    # as a sequence's shared table and as a plain list of laws
    assert_quantiles_match(AggregateTail(mags), mags, levels)
    assert_quantiles_match(mags, mags, levels)


def test_quantile_layer_rejects_what_the_scans_reject():
    law = ScalarLaw.point_mass(1)
    for bad in (lambda f: f([], F(1, 2)), lambda f: f([law], 0)):
        for fn in (tail_sum_inverse, scan_tail_sum_inverse):
            with pytest.raises(ValueError):
                bad(fn)
    with pytest.raises(ValueError, match="empty family"):
        tail_sum_inverse_law([])
    for fn in (excess_tail_moment, scan_excess_tail_moment):
        with pytest.raises(ValueError, match="must be positive"):
            fn([law], F(1, 2), 0)
    with pytest.raises(ValueError, match=">= 0"):
        rearrangement_at(law, -math.ulp(0))


def outcome(fn, *args):
    """fn(*args), or the type of the error it raises."""
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc)


def assert_same_outcome(a, b, where):
    assert type(a) is type(b) and a == b and repr(a) == repr(b), where


def assert_matches_fraction_oracles(family, laws, levels, orders):
    """The int paths against the Fraction oracles on `family` (as a shared
    table and as a tuple) and on `laws`, at every level and order."""
    oracle = FractionAggregateTail(family)
    inverse = tail_sum_inverse_law(family)
    assert_same_outcome(inverse, oracle.inverse_law, "inverse law")
    assert repr(inverse._suffix) == repr(oracle.inverse_law._suffix)
    for t in levels:
        expected = outcome(fraction_tail_sum_inverse, oracle, t)
        for table in (family, tuple(family)):
            assert_same_outcome(outcome(tail_sum_inverse, table, t), expected, ("S", t))
    for law in (*laws, inverse):
        for t in levels:
            got = outcome(rearrangement_at, law, t)
            assert_same_outcome(got, outcome(fraction_rearrangement_at, law, t), (law, t))
        for p in orders:
            assert_same_outcome(law.moment(p), fraction_moment(law, p), (law, p))


P_GRID = (1, 2, 4, 8)
CHECKER_LEVELS = (
    *(math.exp(-p) / 4 for p in P_GRID),
    *(math.exp(-p) / 8 for p in P_GRID),
    F(1, 10),
    F(2, 5),
    *(t / (1 - t) for t in (F(1, 10), F(2, 5))),
    0,
)
CHECKER_ORDERS = (*P_GRID, 0.5, 2.5)


def test_int_paths_match_the_fraction_oracles_on_default_corpus():
    for seq in generate_corpus(CorpusSpec(count=10_000, seed=1)):
        laws = (seq.walk_peak_law, seq.step_peak_law, seq.end_distance_law)
        assert_matches_fraction_oracles(aggregate_tail(seq), laws, CHECKER_LEVELS, CHECKER_ORDERS)
        frame, _ = _identity_frame(seq)
        if frame is not seq:
            family = aggregate_tail(frame)
            assert_matches_fraction_oracles(family, family, CHECKER_LEVELS, CHECKER_ORDERS)


def float_laws():
    """Float probabilities: counts over their total, as floats."""
    values = st.one_of(st.integers(0, 6), st.floats(0, 6, allow_nan=False))
    return st.dictionaries(values, st.integers(1, 50), min_size=1, max_size=5).map(
        lambda counts: ScalarLaw.from_pairs(
            [(v, c / sum(counts.values())) for v, c in counts.items()]
        )
    )


def probe_levels(laws):
    """Every attained tail and summed tail, as it is and as a float, with
    the floats next to it; t > 1, subnormal floats, inf and nan."""
    levels = [F(3, 2), 2.0, 5e-324, 2.5e-310, math.inf, math.nan]
    tails = [tail for law in laws for tail in law._suffix]
    for tail in [*tails, *FractionAggregateTail(laws).sums]:
        f = float(tail)
        levels += [tail, f, math.nextafter(f, -math.inf), math.nextafter(f, math.inf)]
    return levels


@settings(max_examples=300, deadline=None)
@given(
    laws=st.lists(
        st.one_of(exact_laws(), empirical_laws(), float_laws()), min_size=1, max_size=4
    ),
)
def test_int_paths_match_the_fraction_oracles_on_random_laws(laws):
    levels = probe_levels(laws)
    orders = (1, 2, 3, 0.5, 2.5, 1000.5)
    assert_matches_fraction_oracles(AggregateTail(laws), laws, levels, orders)


def test_non_finite_levels_give_what_they_gave():
    law = ScalarLaw.from_pairs([(1, F(1, 3)), (2, F(2, 3))])
    for t, expected in ((math.inf, 0), (-math.inf, ValueError), (math.nan, IndexError)):
        assert outcome(rearrangement_at, law, t) == expected
        assert outcome(tail_sum_inverse, [law], t) == expected


def test_numpy_levels_give_what_python_numbers_give():
    law = ScalarLaw.from_pairs([(1, F(1, 3)), (2, F(2, 3))])
    for t in (np.int64(0), np.int64(1), np.float32(0.5), np.float64(1 / 3)):
        got = outcome(rearrangement_at, law, t)
        assert_same_outcome(got, outcome(fraction_rearrangement_at, law, t), t)
        got = outcome(tail_sum_inverse, [law], t)
        assert_same_outcome(got, outcome(fraction_tail_sum_inverse, [law], t), t)


# the forms Fraction parses, with exponents of at most three digits
RATIONAL_TEXT = r"\A\s*[-+]?\d*(_\d+)*(/\d+(_\d+)*|\.\d*)?([eE][-+]?\d{1,3})?\s*\Z"


@settings(max_examples=300, deadline=None)
@given(
    text=st.one_of(
        st.text(max_size=6),
        st.from_regex(RATIONAL_TEXT),
        st.tuples(st.integers(0, 10**40), st.integers(0, 10**40)).map("{0[0]}/{0[1]}".format),
    )
)
@example(text="\u0661/\u0662")  # Arabic-Indic digits
@example(text="\u00b2/3")  # a superscript digit, which int() refuses
@example(text="3/0")
@example(text="0/0")
@example(text=" 1/2")
@example(text="1_000/3")
@example(text="1/2/3")
@example(text="7" * 5000 + "/3")  # beyond int()'s digit limit
def test_prob_from_json_parses_as_fraction_does(text):
    try:
        expected = Fraction(text)
    except Exception as exc:
        with pytest.raises(type(exc)):
            _prob_from_json(text)
        return
    got = _prob_from_json(text)
    assert type(got) is Fraction and got.as_integer_ratio() == expected.as_integer_ratio()
