"""Quantile calculus: decreasing rearrangements, aggregate step quantiles,
truncations, and the tail-integral moment pieces.

Everything operates on `ScalarLaw` values.  For exact laws the computations
are closed-form over the finitely many tail steps; nothing is ever estimated
by quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from .laws import DiscreteDistribution, ScalarLaw, is_rational
from .reports import InequalityReport, make_report
from .semigroups import MetricSemigroup


def rearrangement_at(law: ScalarLaw, t):
    """Decreasing rearrangement X*(t) = sup{y >= 0 : P(X > y) > t}, sup {} = 0.

    Right-continuous and nonincreasing in t; X*(1) = 0 always.  Values of
    t above 1 are accepted (the sup is empty there); negative t is an error.
    """
    if t < 0:
        raise ValueError(f"rearrangement argument must be >= 0, got {t}")
    if law.tail(0) <= t:
        return 0
    for v in law.values:
        if law.tail(v) <= t:
            return v
    return law.values[-1]  # unreachable: the tail past the top value is 0


@dataclass(frozen=True)
class Rearrangement:
    """Callable view of a law's decreasing rearrangement."""

    law: ScalarLaw

    def __call__(self, t):
        return rearrangement_at(self.law, t)


def rearrangement_grid_law(law: ScalarLaw, cells: int) -> ScalarLaw:
    """Law of the rearrangement sampled at the midpoints of `cells` uniform
    cells of [0, 1], each carrying mass 1/cells.

    Converges to the original law as the grid refines, and every sampled
    value is an exact step position of the original law.
    """
    if cells < 1:
        raise ValueError("need at least one grid cell")
    pairs = []
    weight = Fraction(1, cells)
    for i in range(cells):
        t = Fraction(2 * i + 1, 2 * cells)
        pairs.append((rearrangement_at(law, t), weight))
    return ScalarLaw.from_pairs(pairs)


def tail_sup_distance(a: ScalarLaw, b: ScalarLaw) -> float:
    """sup_x |P(A > x) - P(B > x)| over the merged step grid."""
    grid = sorted(set(a.values) | set(b.values))
    gap = abs(float(a.tail(-1) - b.tail(-1))) if grid else 0.0
    best = gap
    for x in grid:
        best = max(best, abs(float(a.tail(x)) - float(b.tail(x))))
    return best


# ---------------------------------------------------------------------------
# aggregate step quantile (inverse of the summed magnitude tails)


def tail_sum(laws: Sequence[ScalarLaw], x):
    """Sum of the step-magnitude tails at x (may exceed 1)."""
    if not laws:
        raise ValueError("empty family of magnitude laws")
    return sum(law.tail(x) for law in laws)


def tail_sum_inverse(laws: Sequence[ScalarLaw], t):
    """inf{y > 0 : sum_i P(Y_i > y) <= t}; 0 when every positive y qualifies."""
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
    return grid[-1]  # unreachable: the summed tail past the top value is 0


def tail_sum_inverse_law(laws: Sequence[ScalarLaw]) -> ScalarLaw:
    """The tail-sum inverse as a law on [0, 1] with Lebesgue measure.

    Its tail function is min(1, sum_i P(Y_i > x)), the clipped form of the
    summed-tails identity.
    """
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


def pow_value(v, p):
    """v**p, exact for integer p on rational v, float otherwise."""
    if isinstance(p, int) and not isinstance(p, bool) and is_rational(v):
        return v**p
    return float(v) ** float(p)


def excess_tail_moment(laws: Sequence[ScalarLaw], t, p):
    """p * sum_i int_{L}^{inf} u^(p-1) P(Y_i > u) du with L the tail-sum
    inverse at t, evaluated in closed form over the tail constancy intervals."""
    if p <= 0:
        raise ValueError("moment order must be positive")
    cut = tail_sum_inverse(laws, t)
    total = 0
    for law in laws:
        points = [cut] + [v for v in law.values if v > cut]
        for a, b in zip(points, points[1:]):
            tau = law.tail(a)
            if tau > 0:
                total = total + tau * (pow_value(b, p) - pow_value(a, p))
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
