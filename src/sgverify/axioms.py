"""Axiom certification: metric axioms, invariance, and group-metric classes."""

from __future__ import annotations

import itertools
import math
import numbers
import random
from dataclasses import dataclass, field
from typing import Callable, Iterable

from .semigroups import MetricSemigroup, NotAGroupError


@dataclass(frozen=True)
class AxiomViolation:
    axiom: str
    witness: tuple
    deviation: float


@dataclass
class AxiomReport:
    """Per-axiom evaluation counts, violation counts, and worst witnesses."""

    instance: str
    mode: str
    tol: float
    samples: int | None
    seed: int | None
    checked: dict = field(default_factory=dict)
    violations: dict = field(default_factory=dict)
    worst: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(v == 0 for v in self.violations.values())

    @property
    def total_violations(self) -> int:
        return sum(self.violations.values())

    def to_jsonable(self) -> dict:
        return {
            "instance": self.instance,
            "mode": self.mode,
            "tol": self.tol,
            "samples": self.samples,
            "seed": self.seed,
            "ok": self.ok,
            "checked": dict(self.checked),
            "violations": dict(self.violations),
            "worst": {
                name: (
                    None
                    if w is None
                    else {
                        "witness": [repr(x) for x in w.witness],
                        "deviation": w.deviation,
                    }
                )
                for name, w in self.worst.items()
            },
        }


def _axiom_checks(inst: MetricSemigroup, tol) -> list[tuple[str, int, Callable]]:
    """Each check maps a tuple of elements to a deviation; > tol is a violation."""
    d = inst.distance
    c = inst.compose

    def associativity(a, b, x):
        return d(c(c(a, b), x), c(a, c(b, x)))

    def symmetry(a, b):
        return abs(d(a, b) - d(b, a))

    def nonnegativity(a, b):
        return max(0, -d(a, b))

    def self_distance(a):
        return d(a, a)

    def distinct_points(a, b):
        if inst.elements_equal(a, b, tol):
            return 0
        return 1 if d(a, b) <= tol else 0

    def triangle(a, b, x):
        return d(a, x) - d(a, b) - d(b, x)

    def left_invariance(a, b, x):
        return abs(d(c(x, a), c(x, b)) - d(a, b))

    def right_invariance(a, b, x):
        return abs(d(c(a, x), c(b, x)) - d(a, b))

    def product_triangle(y1, y2, z1, z2):
        return d(c(y1, y2), c(z1, z2)) - d(y1, z1) - d(y2, z2)

    def magnitude_independence(a, b, g):
        return abs(d(a, c(a, g)) - d(b, c(b, g)))

    checks = [
        ("associativity", 3, associativity),
        ("symmetry", 2, symmetry),
        ("nonnegativity", 2, nonnegativity),
        ("self-distance", 1, self_distance),
        ("distinct-points", 2, distinct_points),
        ("triangle", 3, triangle),
        ("left-invariance", 3, left_invariance),
        ("right-invariance", 3, right_invariance),
        ("product-triangle", 4, product_triangle),
        ("magnitude-independence", 3, magnitude_independence),
    ]
    if inst.has_identity:
        e = inst.identity

        def identity_neutral(a):
            return max(d(c(e, a), a), d(c(a, e), a))

        checks.append(("identity-neutral", 1, identity_neutral))
    return checks


def _check_setup(inst: MetricSemigroup, samples, seed, tol) -> tuple:
    """(tolerance, tuples) of a check on `inst`: `tuples(arity, tag)` gives all
    element tuples of a finite carrier when `samples` is None, else `samples`
    random ones for `tag`; `tol` must be None or a finite number >= 0."""
    if samples is not None and (not isinstance(samples, int) or samples < 1):
        raise ValueError(f"samples must be a positive integer, got {samples!r}")
    if tol is None:
        tol = 0 if inst.is_exact else 1e-12
    elif not isinstance(tol, numbers.Real) or not 0 <= tol < math.inf:
        raise ValueError(f"tolerance must be a finite number >= 0, got {tol!r}")
    if samples is None and not inst.is_finite:
        raise ValueError(f"{inst.name} is not finite; pass samples= for a sampled check")

    def tuples(arity: int, tag: str) -> Iterable[tuple]:
        if samples is None:
            return itertools.product(list(inst.elements()), repeat=arity)
        rng = random.Random((seed, tag).__repr__())
        return (tuple(inst.random_element(rng) for _ in range(arity)) for _ in range(samples))

    return tol, tuples


def verify_axioms(
    inst: MetricSemigroup,
    samples: int | None = None,
    seed: int = 0,
    tol: float | None = None,
) -> AxiomReport:
    """Check every semigroup/metric axiom on `inst`.

    With ``samples=None`` the check is exhaustive and requires a finite
    carrier; otherwise `samples` random element tuples are drawn per axiom
    from ``random.Random(seed)``.  The default tolerance is 0 for exact
    instances and 1e-12 for real-valued ones.
    """
    tol, tuples = _check_setup(inst, samples, seed, tol)
    exhaustive = samples is None
    report = AxiomReport(
        instance=inst.name,
        mode="exhaustive" if exhaustive else "sampled",
        tol=float(tol),
        samples=None if exhaustive else samples,
        seed=None if exhaustive else seed,
    )

    for name, arity, check in _axiom_checks(inst, tol):
        count = 0
        bad = 0
        worst: AxiomViolation | None = None
        for tup in tuples(arity, name):
            count += 1
            dev = check(*tup)
            if dev > tol:
                bad += 1
                if worst is None or dev > worst.deviation:
                    worst = AxiomViolation(name, tup, float(dev))
        report.checked[name] = count
        report.violations[name] = bad
        report.worst[name] = worst
    return report


@dataclass(frozen=True)
class GroupMetricClassification:
    """Which invariance properties a group metric satisfies.

    Properties: (1) left-translation invariance, (2) right-translation
    invariance, (3) the inverse map is an isometry, (4) invariance under
    conjugation.  Any two of them imply the other two, so the number that
    hold is 0, 1 or 4 -- never 2 or 3.  `product_triangle` records the
    two-sided product bound, the formulation equivalent to (3).
    """

    instance: str
    left_invariant: bool
    right_invariant: bool
    inverse_isometry: bool
    conjugation_invariant: bool
    product_triangle: bool

    def property_set(self) -> frozenset:
        held = []
        for idx, flag in enumerate(
            (
                self.left_invariant,
                self.right_invariant,
                self.inverse_isometry,
                self.conjugation_invariant,
            ),
            start=1,
        ):
            if flag:
                held.append(idx)
        return frozenset(held)

    @property
    def consistent(self) -> bool:
        return len(self.property_set()) in (0, 1, 4)

    def to_jsonable(self) -> dict:
        return {
            "instance": self.instance,
            "properties": sorted(self.property_set()),
            "product_triangle": self.product_triangle,
            "consistent": self.consistent,
        }


def classify_group_metric(
    inst: MetricSemigroup,
    samples: int | None = None,
    seed: int = 0,
    tol: float | None = None,
) -> GroupMetricClassification:
    """Classify the invariance properties of a group's metric.

    Exhaustive over all element triples when the group is finite and
    ``samples`` is None; sampled otherwise.
    """
    if not inst.is_group:
        raise NotAGroupError(f"{inst.name} is not a group")
    tol, tuples_of = _check_setup(inst, samples, seed, tol)
    d = inst.distance
    c = inst.compose
    inv = inst.inverse

    left = right = inverse_iso = conj = True
    for a, b, x in tuples_of(3, "classify"):
        base = d(a, b)
        if abs(d(c(x, a), c(x, b)) - base) > tol:
            left = False
        if abs(d(c(a, x), c(b, x)) - base) > tol:
            right = False
        if abs(d(inv(a), inv(b)) - base) > tol:
            inverse_iso = False
        xi = inv(x)
        if abs(d(c(c(x, a), xi), c(c(x, b), xi)) - base) > tol:
            conj = False

    prod_tri = True
    for y1, y2, z1, z2 in tuples_of(4, "classify-product"):
        if d(c(y1, y2), c(z1, z2)) - d(y1, z1) - d(y2, z2) > tol:
            prod_tri = False
            break
    return GroupMetricClassification(
        instance=inst.name,
        left_invariant=left,
        right_invariant=right,
        inverse_isometry=inverse_iso,
        conjugation_invariant=conj,
        product_triangle=prod_tri,
    )


def telescoping_slack(inst: MetricSemigroup, head, tail):
    """Slack of the telescoping bound along a composition chain.

    For head = (z_0, ..., z_k) and tail = (z_{k+1}, ..., z_{k+l}):
    d(z_0...z_k, z_0...z_{k+l}) <= sum_i d(z_0, z_0 * z_{k+i}).
    Returns bound minus distance (nonnegative when the bound holds).
    """
    if not head:
        raise ValueError("head must contain at least z_0")
    z0 = head[0]
    prod = head[0]
    for z in head[1:]:
        prod = inst.compose(prod, z)
    full = prod
    bound = 0
    for z in tail:
        full = inst.compose(full, z)
        bound += inst.distance(z0, inst.compose(z0, z))
    return bound - inst.distance(prod, full)
