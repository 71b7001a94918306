"""Slow reference constructions that the exact engine is checked against.

`enumerate_outcomes` walks the joint support; `product_magnitude_laws` and
`product_step_peak_law` build the step magnitudes from each variable's atoms
and the step peak as the product of their CDFs, the construction the
push-forward replaced; `pair_pass_stay` gives the Mogulskii stay
probabilities by a pass over pairs per window index, the construction the
backward pass over suffix products replaced.  `fraction_rearrangement_at`,
`fraction_tail_sum_inverse`, `FractionAggregateTail` and `fraction_moment`
are the quantile layer and the moments on Fraction probabilities and tail
sums, compared with the argument as it is, which the integer weights and
tails replaced.

`FractionDistribution` is a step distribution as it was built from Fraction
probabilities, summed and compared as Fractions, and `fraction_corpus_steps`
the corpus's step distributions built that way from the same draws: the path
that integer weights replaced.

`path_trace` gives the four path statistics along one outcome, from the same
transitions as the engines; `tail_sum`, `rearrangement_grid_law` and
`tail_sup_distance` are the summed magnitude tails at one point, a grid
sampling of a decreasing rearrangement and the sup distance between two
tail functions.

`check_rearrangement_transfer` checks the transfer of tail comparisons
f(P(X > alpha x)) <= beta P(Y > gamma x)^delta to the rearrangements.
"""

import itertools
import math
import random
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Iterable, Sequence

from sgverify import EnumerationCapError, ScalarLaw, derive_seed, parse_instance, rearrangement_at
from sgverify.corpus import _distinct_elements
from sgverify.laws import (
    DEFAULT_ENUMERATION_CAP,
    MASS_TOL,
    STEP_PEAK,
    WALK_PEAK,
    _advance,
    _exact_weights,
    _product,
    _statistic,
    is_rational,
)
from sgverify.reports import InequalityReport, make_report


def enumerate_outcomes(seq, cap=DEFAULT_ENUMERATION_CAP):
    """Yield (outcome, probability) over the joint support."""
    count = seq.outcome_count
    if count > cap:
        raise EnumerationCapError(f"{count} joint outcomes exceed the cap {cap}")
    supports = [var.atoms for var in seq.variables]
    for combo in itertools.product(*supports):
        outcome = tuple(e for e, _ in combo)
        prob = math.prod((p for _, p in combo), start=Fraction(1))
        yield outcome, prob


def product_magnitude_laws(seq):
    """Law of each step's magnitude d(z0, z0 * x), merged by `from_pairs`."""
    inst, z0 = seq.instance, seq.z0
    return tuple(
        ScalarLaw.from_pairs(
            (inst.distance(z0, inst.compose(z0, e)), p) for e, p in var.atoms
        )
        for var in seq.variables
    )


def product_step_peak_law(seq):
    """Law of the largest step magnitude: independent steps, so its CDF is
    the product of the magnitudes' CDFs."""
    magnitudes = product_magnitude_laws(seq)
    grid = sorted({v for law in magnitudes for v in law.values})
    pairs = []
    prev_cdf = 0
    for y in grid:
        cdf = math.prod(law.prob_le(y) for law in magnitudes)
        mass = cdf - prev_cdf
        if mass > 0:
            pairs.append((y, mass))
        prev_cdf = cdf
    return ScalarLaw.from_pairs(pairs)


@dataclass(frozen=True)
class FractionDistribution:
    """((element, probability), ...), checked as Fractions."""

    atoms: tuple

    @staticmethod
    def of(pairs, merge=False):
        merged = {}
        for element, prob in pairs:
            if not prob >= 0:  # also false for NaN
                raise ValueError(f"probability {prob} for atom {element!r} is not >= 0")
            if element in merged:
                if not merge:
                    raise ValueError(f"duplicate atom {element!r}")
                merged[element] = merged[element] + prob
            else:
                merged[element] = prob
        atoms = tuple((e, p) for e, p in merged.items() if p > 0)
        if not atoms:
            raise ValueError("distribution needs at least one atom")
        total = sum(p for _, p in atoms)
        if all(is_rational(p) for _, p in atoms):
            if total != 1:
                raise ValueError(f"probabilities sum to {total}, not 1")
        elif abs(total - 1) > MASS_TOL:
            raise ValueError(f"probabilities sum to {total}, not 1")
        return FractionDistribution(atoms)

    @staticmethod
    def from_weights(elements, weights):
        """The pairs (element, weight / total) of the weights a corpus draws."""
        total = sum(weights)
        return FractionDistribution.of([(e, Fraction(w, total)) for e, w in zip(elements, weights)])

    @property
    def weights_over_lcm(self):
        """(L, (p * L, ...)), L the lcm of the probabilities' denominators."""
        lcm = math.lcm(*(p.denominator for _, p in self.atoms))
        return lcm, tuple(p.numerator * (lcm // p.denominator) for _, p in self.atoms)


def fraction_corpus_steps(spec):
    """Each corpus item's step distributions, as `FractionDistribution`s
    from the draws that `corpus.generate_sequence` makes."""
    instances = [parse_instance(s) for s in spec.instances]
    for index in range(spec.count):
        inst = instances[index % len(instances)]
        rng = random.Random(derive_seed(spec.seed, "corpus", index))
        steps = []
        for _ in range(rng.randint(1, spec.max_len)):
            elements = _distinct_elements(inst, rng, rng.randint(1, spec.max_support))
            weights = [rng.randint(1, 9) for _ in elements]
            steps.append(FractionDistribution.from_weights(elements, weights))
        yield steps


def pair_pass_stay(seq, m, b, cap=DEFAULT_ENUMERATION_CAP):
    """[P(d(s_k, s_n) <= b) for k = m..n]: at each window index k the law of
    s_k is pushed forward as pairs (s_k, s_j) from j = k to n, with the
    weights of the exact engine; an empty sum stays the int 0."""
    inst = seq.instance
    start, product, _ = _product(inst)

    def pair_step(state, x):
        return state[0], product(state[1], x)

    one, columns, denominator = _exact_weights(seq.variables)
    states, masses = (start,), [one]
    stay = []
    for k, column in enumerate(columns, 1):
        states, masses = _advance((states, masses), column, product, k, cap)
        if k < m:
            continue
        pairs = [(s, s) for s in states], masses
        for j in range(k, seq.n):
            pairs = _advance(pairs, columns[j], pair_step, j + 1, cap)
        total = sum(w for (s_k, s_n), w in zip(*pairs) if inst.distance(s_k, s_n) <= b)
        stay.append(Fraction(total, denominator) if denominator and total else total)
    return stay


def fraction_rearrangement_at(law, t):
    """X*(t): the first value v with P(X > v) <= t, by bisection on the
    Fraction tail sums."""
    if t < 0:
        raise ValueError(f"rearrangement argument must be >= 0, got {t}")
    if law.tail(0) <= t:
        return 0
    return law.values[bisect_left(law._suffix, True, 1, key=lambda tail: tail <= t) - 1]


class FractionAggregateTail(tuple):
    """The summed tails S(x) of a family of laws on the merged grid of their
    values, each S(v) summed from the laws' tails in their order."""

    def __init__(self, laws):
        if not self:
            raise ValueError("empty family of magnitude laws")
        self.at_zero = tail_sum(self, 0)
        self.grid = sorted({v for law in self for v in law.values})
        self.sums = [tail_sum(self, v) for v in self.grid]

    @cached_property
    def inverse_law(self):
        """The law on [0, 1] whose tail function is min(1, S)."""
        one = Fraction(1)
        prev = min(one, self.at_zero)
        pairs = []
        if one - prev > 0:
            pairs.append((0, one - prev))
        for v, total in zip(self.grid, self.sums):
            if v > 0:
                cur = min(one, total)
                if prev - cur > 0:
                    pairs.append((v, prev - cur))
                prev = cur
        return ScalarLaw.from_pairs(pairs)


def fraction_tail_sum_inverse(laws, t):
    """inf{y > 0 : S(y) <= t}: the first grid value with S <= t, by
    bisection; 0 when S(0) <= t."""
    if t <= 0:
        raise ValueError(f"tail-sum inverse needs t > 0, got {t}")
    table = laws if isinstance(laws, FractionAggregateTail) else FractionAggregateTail(laws)
    if table.at_zero <= t:
        return 0
    return table.grid[bisect_left(table.sums, True, key=lambda total: total <= t)]


def fraction_moment(law, p):
    """E[X^p] summed over the probabilities: exact for a positive int p on a
    law of rational values and probabilities, else a float, math.inf beyond
    the float range."""
    if p <= 0:
        raise ValueError("moment order must be positive")
    pairs = list(zip(law.values, law.probs))
    if (
        isinstance(p, int)
        and not isinstance(p, bool)
        and all(is_rational(v) and is_rational(prob) for v, prob in pairs)
    ):
        return sum(prob * v**p for v, prob in pairs)
    try:
        return sum(float(prob) * float(v) ** float(p) for v, prob in pairs)
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class PathTrace:
    """Per-index path statistics for one outcome."""

    products: tuple
    peaks: tuple  # running max of d(z1, z0 * s_j)
    steps: tuple  # step magnitudes d(z0, z0 * x_j)
    step_peaks: tuple  # running max of step magnitudes


def _running(statistic, outcome):
    """Values of a (start, step, value) statistic along one outcome, after
    each step."""
    state, step, value = statistic
    values = []
    for x in outcome:
        state = step(state, x)
        values.append(value(state))
    return tuple(values)


def path_trace(seq, outcome):
    """All four path statistics for one outcome; validates elements."""
    if len(outcome) != seq.n:
        raise ValueError(f"outcome length {len(outcome)} != sequence length {seq.n}")
    for x in outcome:
        seq.instance.require_element(x)
    step_peak = _statistic(seq, STEP_PEAK)
    _, magnitude_peak, _ = step_peak
    return PathTrace(
        _running(_product(seq.instance), outcome),
        _running(_statistic(seq, WALK_PEAK), outcome),
        tuple(magnitude_peak(None, x) for x in outcome),
        _running(step_peak, outcome),
    )


def tail_sum(laws, x):
    """Sum of the step-magnitude tails at x (may exceed 1)."""
    if not laws:
        raise ValueError("empty family of magnitude laws")
    return sum(law.tail(x) for law in laws)


def rearrangement_grid_law(law, cells):
    """Law of the rearrangement sampled at the midpoints of `cells` uniform
    cells of [0, 1], each carrying mass 1/cells.

    Converges to the original law as the grid refines, and every sampled
    value is an exact step position of the original law.
    """
    if cells < 1:
        raise ValueError("need at least one grid cell")
    weight = Fraction(1, cells)
    return ScalarLaw.from_pairs(
        (rearrangement_at(law, Fraction(2 * i + 1, 2 * cells)), weight) for i in range(cells)
    )


def tail_sup_distance(a, b):
    """sup_x |P(A > x) - P(B > x)| over the merged step grid."""
    best = abs(float(a.tail(-1) - b.tail(-1)))
    for x in sorted(set(a.values) | set(b.values)):
        best = max(best, abs(float(a.tail(x)) - float(b.tail(x))))
    return best


# tail-comparison transfer to rearrangements


@dataclass(frozen=True)
class TransferTuple:
    """One hypothesis clause f(P(X > alpha*x)) <= beta * P(Y > gamma*x)^delta."""

    alpha: object = 1
    beta: object = 1
    gamma: object = 1
    delta: object = 1
    fn: Callable | None = None  # nondecreasing; identity when None

    def apply_fn(self, value):
        return value if self.fn is None else self.fn(value)


def _ratio(v, scale):
    if is_rational(v) and is_rational(scale):
        return Fraction(v) / Fraction(scale)
    return float(v) / float(scale)


def _hypothesis_grid(tuples, law_x: ScalarLaw, law_y: ScalarLaw) -> list:
    """Positive probe points covering every constancy interval of the clause
    tails, plus a point beyond the last breakpoint."""
    breaks = set()
    for tup in tuples:
        for v in law_x.values:
            if v > 0:
                breaks.add(_ratio(v, tup.alpha))
        for v in law_y.values:
            if v > 0:
                breaks.add(_ratio(v, tup.gamma))
    points = sorted(breaks)
    grid = []
    if points:
        grid.append(points[0] / 2)
        grid.extend(points)
        for a, b in zip(points, points[1:]):
            grid.append((a + b) / 2)
        grid.append(points[-1] * 2)
    else:
        grid.append(1)
    return sorted(set(grid))


def check_rearrangement_transfer(
    tuples: Iterable[TransferTuple],
    law_x: ScalarLaw,
    law_y: ScalarLaw,
    t,
    grid: Sequence | None = None,
) -> InequalityReport:
    """Verify the tail-to-rearrangement transfer bound.

    First checks the hypothesis clauses on a grid of x values (one clause must
    hold at each x; if every clause holds at every x the sharper min-form
    bound is checked as well).  When the hypothesis fails on the grid the
    conclusion is reported as untested.
    """
    tuples = list(tuples)
    if not tuples:
        raise ValueError("need at least one transfer tuple")
    probe = list(grid) if grid is not None else _hypothesis_grid(tuples, law_x, law_y)
    exists_ok = True
    all_ok = True
    for x in probe:
        clause = [
            tup.apply_fn(law_x.tail(tup.alpha * x))
            <= tup.beta * law_y.tail(tup.gamma * x) ** _as_exponent(tup.delta)
            for tup in tuples
        ]
        if not any(clause):
            exists_ok = False
        if not all(clause):
            all_ok = False
    params = {
        "t": t,
        "tuples": [
            {"alpha": tp.alpha, "beta": tp.beta, "gamma": tp.gamma, "delta": tp.delta}
            for tp in tuples
        ],
        "grid_size": len(probe),
    }
    if not exists_ok:
        return make_report(
            "rearrangement-transfer",
            params,
            lhs=rearrangement_at(law_x, t),
            rhs=math.inf,
            degenerate="hypothesis-failed-untested",
            note="hypothesis clauses fail on the probe grid; conclusion untested",
        )
    lhs = rearrangement_at(law_x, t)
    bounds = []
    for tup in tuples:
        scaled = tup.apply_fn(t) / tup.beta
        exponent = _as_exponent(tup.delta)
        arg = scaled if exponent == 1 else float(scaled) ** (1.0 / float(exponent))
        bounds.append(_ratio(tup.alpha, tup.gamma) * rearrangement_at(law_y, min(arg, 1)))
    rhs = min(bounds) if all_ok else max(bounds)
    return make_report(
        "rearrangement-transfer",
        params,
        lhs,
        rhs,
        components={"bound_form": "min" if all_ok else "max", "bounds": bounds},
    )


def _as_exponent(delta):
    if isinstance(delta, int) and not isinstance(delta, bool):
        return delta
    f = float(delta)
    return int(f) if f.is_integer() else f
