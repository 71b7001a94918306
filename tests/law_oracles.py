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
"""

import itertools
import math
from bisect import bisect_left
from fractions import Fraction
from functools import cached_property

from sgverify import EnumerationCapError, ScalarLaw, tail_sum
from sgverify.laws import (
    DEFAULT_ENUMERATION_CAP,
    _advance,
    _exact_weights,
    _product,
    is_rational,
)


def enumerate_outcomes(seq, cap=DEFAULT_ENUMERATION_CAP):
    """Yield (outcome, probability) over the joint support."""
    if not seq.is_exact:
        raise ValueError("exact enumeration needs finitely supported variables")
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


def pair_pass_stay(seq, m, b, cap=DEFAULT_ENUMERATION_CAP):
    """[P(d(s_k, s_n) <= b) for k = m..n]: at each window index k the law of
    s_k is pushed forward as pairs (s_k, s_j) from j = k to n, with the
    weights of the exact engine; an empty sum stays the int 0."""
    inst = seq.instance
    start, product, _ = _product(inst)

    def pair_step(state, x):
        return state[0], product(state[1], x)

    one, columns, denominator = _exact_weights(seq.variables)
    states = {start: one}
    stay = []
    for k, atoms in enumerate(columns, 1):
        states = _advance(states, atoms, product, k, cap)
        if k < m:
            continue
        pairs = {(s, s): w for s, w in states.items()}
        for j in range(k, seq.n):
            pairs = _advance(pairs, columns[j], pair_step, j + 1, cap)
        total = sum(w for (s_k, s_n), w in pairs.items() if inst.distance(s_k, s_n) <= b)
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
