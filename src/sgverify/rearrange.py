"""Quantile calculus: decreasing rearrangements, aggregate step quantiles,
truncations, and the tail-integral moment pieces.

Everything operates on `ScalarLaw` values.  For exact laws the computations
are closed-form over the finitely many tail steps; nothing is ever estimated
by quadrature.  Quantiles are bisections on precomputed tails: a law's
tail sums, and the `AggregateTail` table of the summed magnitude tails,
which a sequence builds once (`aggregate_tail`) and every checker shares;
on exact laws both are integers, compared with floor(t * D).
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Iterable, Sequence

from .laws import DiscreteDistribution, IndependentSequence, ScalarLaw, is_rational, tail_level
from .reports import InequalityReport, make_report
from .semigroups import MetricSemigroup


def rearrangement_at(law: ScalarLaw, t):
    """Decreasing rearrangement X*(t) = sup{y >= 0 : P(X > y) > t}, sup {} = 0.

    Right-continuous and nonincreasing in t; X*(1) = 0 always.  Values of
    t above 1 are accepted (the sup is empty there); negative t is an error.
    The answer is the first value v with P(X > v) <= t, found by bisection
    on the nonincreasing tail sums (P(X > values[i]) is tails[i + 1]), in
    ints with floor(t * D) on an exact law.
    """
    level, tails = tail_level(t, law._denominator, law._exact), law._tails
    if level < 0:  # exactly when t < 0
        raise ValueError(f"rearrangement argument must be >= 0, got {t}")
    if tails[bisect_right(law.values, 0)] <= level:
        return 0
    return law.values[bisect_left(tails, True, 1, key=lambda tail: tail <= level) - 1]


# ---------------------------------------------------------------------------
# aggregate step quantile (inverse of the summed magnitude tails)


class AggregateTail(tuple):
    """A family of step-magnitude laws whose summed tails
    S(x) = sum_i P(Y_i > x) are tabulated on the merged grid of their values.

    The functions below accept any sequence of laws and tabulate it on each
    call; given an `AggregateTail` they use its table, so a sequence builds
    it once (`aggregate_tail`) and every checker shares it.  When every law
    is exact, S is summed in ints over the lcm D of their denominators;
    otherwise each S(v) is summed from the laws' tails in their order, so
    float tails come out bit for bit as sum(law.tail(v) for law in laws),
    with D = 1.
    """

    def __init__(self, laws: Iterable[ScalarLaw]):
        if not self:
            raise ValueError("empty family of magnitude laws")
        self.exact = all(law._exact for law in self)
        scale = math.lcm(*(law._denominator for law in self)) if self.exact else 1
        self.denominator = scale
        columns = [
            [t * (scale // law._denominator) for t in law._tails] if self.exact else law._suffix
            for law in self
        ]

        def total(x):
            return sum(col[bisect_right(law.values, x)] for law, col in zip(self, columns))

        self.at_zero = total(0)
        self.grid = sorted({v for law in self for v in law.values})
        self.sums = [total(v) for v in self.grid]

    @cached_property
    def inverse_law(self) -> ScalarLaw:
        """`tail_sum_inverse_law` of the family, in weights over D."""
        one = self.denominator if self.exact else Fraction(1)
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
        if self.exact:
            return ScalarLaw.from_weights(*zip(*pairs), one)
        return ScalarLaw.from_pairs(pairs)


def aggregate_tail(seq: IndependentSequence) -> AggregateTail:
    """The aggregate tail of a sequence's magnitude laws, built once per
    sequence."""
    return seq.derived("aggregate_tail", lambda: AggregateTail(seq.magnitude_laws))


def _aggregate(laws: Sequence[ScalarLaw]) -> AggregateTail:
    return laws if isinstance(laws, AggregateTail) else AggregateTail(laws)


def tail_sum_inverse(laws: Sequence[ScalarLaw], t):
    """inf{y > 0 : sum_i P(Y_i > y) <= t}; 0 when every positive y qualifies.

    S is nonincreasing, so this is the first grid value with S <= t, found
    by bisection; S is 0 past the top value, so one exists.
    """
    if t <= 0:
        raise ValueError(f"tail-sum inverse needs t > 0, got {t}")
    table = _aggregate(laws)
    level = tail_level(t, table.denominator, table.exact)
    if table.at_zero <= level:
        return 0
    return table.grid[bisect_left(table.sums, True, key=lambda total: total <= level)]


def tail_sum_inverse_law(laws: Sequence[ScalarLaw]) -> ScalarLaw:
    """The tail-sum inverse as a law on [0, 1] with Lebesgue measure.

    Its tail function is min(1, sum_i P(Y_i > x)), the clipped form of the
    summed-tails identity.
    """
    return _aggregate(laws).inverse_law


def pow_value(v, p):
    """v**p, exact for integer p on rational v, float otherwise (math.inf
    beyond the float range)."""
    if isinstance(p, int) and not isinstance(p, bool) and is_rational(v):
        return v**p
    try:
        return float(v) ** float(p)
    except OverflowError:
        return math.inf


def _excess_intervals(laws: Sequence[ScalarLaw], cut):
    """(P(Y_i > a), a, b) for each interval [a, b) above `cut` on which a
    magnitude tail is constant and positive."""
    for law in laws:
        points = [cut, *law.values[bisect_right(law.values, cut) :]]
        for a, b in zip(points, points[1:]):
            tau = law.tail(a)
            if tau > 0:
                yield tau, a, b


def excess_tail_moment(laws: Sequence[ScalarLaw], t, p):
    """p * sum_i int_{L}^{inf} u^(p-1) P(Y_i > u) du with L the tail-sum
    inverse at t, evaluated in closed form over the tail constancy intervals;
    math.inf once a power u^p leaves the float range."""
    if p <= 0:
        raise ValueError("moment order must be positive")
    total = 0
    for tau, a, b in _excess_intervals(laws, tail_sum_inverse(laws, t)):
        top = pow_value(b, p)
        if top == math.inf:
            return math.inf
        total = total + tau * (top - pow_value(a, p))
    return total


# ---------------------------------------------------------------------------
# truncations


def _require_identity(instance: MetricSemigroup):
    if not instance.has_identity:
        raise ValueError(
            f"truncation needs an identity; complete {instance.name} first"
        )
    return instance.identity


def truncate(
    dist: DiscreteDistribution, cutoff, instance: MetricSemigroup
) -> DiscreteDistribution:
    """Replace atoms of magnitude > cutoff by the identity (keep small steps)."""
    e = _require_identity(instance)
    pairs = []
    for x, prob in dist.atoms:
        mag = instance.distance(e, x)
        pairs.append((e if mag > cutoff else x, prob))
    return DiscreteDistribution.of(pairs, merge=True)


def truncate_upper(
    dist: DiscreteDistribution, cutoff, instance: MetricSemigroup
) -> DiscreteDistribution:
    """Replace atoms of magnitude <= cutoff by the identity (keep large steps)."""
    e = _require_identity(instance)
    pairs = []
    for x, prob in dist.atoms:
        mag = instance.distance(e, x)
        pairs.append((e if mag <= cutoff else x, prob))
    return DiscreteDistribution.of(pairs, merge=True)


# ---------------------------------------------------------------------------
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
