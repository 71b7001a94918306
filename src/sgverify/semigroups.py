"""Carriers with an associative composition and a translation-invariant metric.

Every instance bundles a carrier representation, the composition law, and a
metric that is invariant under composing on either side.  Discrete instances
use integer or rational arithmetic throughout so that downstream certification
can run at zero tolerance; the real-valued instances (vectors, tori) carry
floats and are checked against a small absolute tolerance instead.

Three carrier families are each one class hierarchy, whose subclasses
override only what differs: the integers (`int`, `broken:subint`), the
positive rationals (`posreal`, `broken:mulreal`) and the real vectors
(`real`, `torus`).  Elements are read from JSON by one strict reader per
element kind, which raises `CarrierMismatchError` on any other JSON value.

Instances are immutable after construction and safe to share across threads;
every operation is a pure function of its arguments.
"""

from __future__ import annotations

import itertools
import math
import sys
from fractions import Fraction
from typing import Any, Iterator, Sequence

Element = Any


class CarrierMismatchError(ValueError):
    """An element does not belong to this instance's carrier."""


class InstanceSpecError(ValueError):
    """Unknown or malformed instance specification string."""


class NotAGroupError(ValueError):
    """The operation needs inverses but the instance is not a group."""


class _AdjoinedIdentity:
    """Sentinel identity added by monoid completion; one shared value."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "<adjoined identity>"


ADJOINED_IDENTITY = _AdjoinedIdentity()


class MetricSemigroup:
    """Base class for all instances.

    Subclasses must set the capability flags (``is_magnitude_invariant``:
    d(a, a*g) does not depend on a) and implement ``compose``,
    ``distance``, ``contains``, ``random_element`` and the element JSON
    round-trip.  ``compose`` and ``distance`` assume valid elements (hot
    loops call them unchecked); use ``require_element`` at API boundaries.
    """

    name: str = "abstract"
    spec: str = ""
    is_abelian: bool = False
    has_identity: bool = False
    is_group: bool = False
    is_finite: bool = False
    is_exact: bool = False
    is_associative: bool = True
    is_magnitude_invariant: bool = True

    def compose(self, a: Element, b: Element) -> Element:
        raise NotImplementedError

    def distance(self, a: Element, b: Element):
        raise NotImplementedError

    @property
    def identity(self) -> Element:
        raise NotAGroupError(f"{self.name} has no identity element")

    def inverse(self, a: Element) -> Element:
        raise NotAGroupError(f"{self.name} is not a group")

    def contains(self, x: Element) -> bool:
        raise NotImplementedError

    def require_element(self, x: Element) -> Element:
        if not self.contains(x):
            raise CarrierMismatchError(f"{x!r} is not an element of {self.name}")
        return x

    def elements(self) -> Iterator[Element]:
        raise ValueError(f"{self.name} is not finite; no exhaustive carrier iterator")

    def carrier_size(self) -> int:
        raise ValueError(f"{self.name} is not finite")

    def random_element(self, rng) -> Element:
        raise NotImplementedError

    def elements_equal(self, a: Element, b: Element, tol: float = 0.0) -> bool:
        if self.is_exact:
            return a == b
        return self.distance(a, b) <= tol

    def element_to_json(self, x: Element):
        raise NotImplementedError

    def element_from_json(self, j) -> Element:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name}>"


def is_integer(x) -> bool:
    """An int that is not a bool: what a JSON integer reads as."""
    return isinstance(x, int) and not isinstance(x, bool)


def _read_integer(j) -> int:
    if not is_integer(j):
        raise CarrierMismatchError(f"expected a JSON integer, got {j!r}")
    return j


def _read_integers(j) -> tuple:
    if not isinstance(j, list):
        raise CarrierMismatchError(f"expected a list of integers, got {j!r}")
    return tuple(map(_read_integer, j))


def _read_rational(j) -> Fraction:
    if is_integer(j) or isinstance(j, str):
        try:
            return Fraction(j)
        except (ValueError, ZeroDivisionError):
            pass
    raise CarrierMismatchError(f"expected an integer or a 'p/q' string, got {j!r}")


def is_finite_number(v) -> bool:
    """A finite int or float that is not a bool and fits in a float."""
    return isinstance(v, (int, float)) and not isinstance(v, bool) and abs(v) <= sys.float_info.max


class CyclicGroup(MetricSemigroup):
    """Residues mod m under addition, with the circular distance."""

    is_abelian = True
    has_identity = True
    is_group = True
    is_finite = True
    is_exact = True

    def __init__(self, modulus: int):
        if modulus < 1:
            raise InstanceSpecError("cyclic modulus must be >= 1")
        self.modulus = modulus
        self.name = f"cyclic({modulus})"
        self.spec = f"cyclic:{modulus}"

    def compose(self, a, b):
        return (a + b) % self.modulus

    def distance(self, a, b):
        delta = (a - b) % self.modulus
        return min(delta, self.modulus - delta)

    @property
    def identity(self):
        return 0

    def inverse(self, a):
        return (-a) % self.modulus

    def contains(self, x):
        return is_integer(x) and 0 <= x < self.modulus

    def elements(self):
        return iter(range(self.modulus))

    def carrier_size(self):
        return self.modulus

    def random_element(self, rng):
        return rng.randrange(self.modulus)

    def element_to_json(self, x):
        return x

    def element_from_json(self, j):
        return self.require_element(_read_integer(j))


class SymmetricGroup(MetricSemigroup):
    """Permutations of {0..k-1}; distance counts displaced points.

    Elements are tuples of images, composed by (p*q)(i) = p[q[i]].  The
    displaced-point count is invariant under composition on both sides.
    """

    has_identity = True
    is_group = True
    is_finite = True
    is_exact = True

    def __init__(self, degree: int):
        if degree < 1:
            raise InstanceSpecError("symmetric group degree must be >= 1")
        self.degree = degree
        self.is_abelian = degree <= 2
        self.name = f"sym({degree})"
        self.spec = f"sym:{degree}"

    def compose(self, a, b):
        return tuple(a[b[i]] for i in range(self.degree))

    def distance(self, a, b):
        return sum(1 for x, y in zip(a, b) if x != y)

    @property
    def identity(self):
        return tuple(range(self.degree))

    def inverse(self, a):
        inv = [0] * self.degree
        for i, x in enumerate(a):
            inv[x] = i
        return tuple(inv)

    def contains(self, x):
        return (
            isinstance(x, tuple)
            and len(x) == self.degree
            and sorted(x) == list(range(self.degree))
        )

    def elements(self):
        return itertools.permutations(range(self.degree))

    def carrier_size(self):
        return math.factorial(self.degree)

    def random_element(self, rng):
        perm = list(range(self.degree))
        rng.shuffle(perm)
        return tuple(perm)

    def element_to_json(self, x):
        return list(x)

    def element_from_json(self, j):
        return self.require_element(_read_integers(j))


class GraphGroup(MetricSemigroup):
    """Edge sets on a fixed vertex set under symmetric difference.

    Elements are frozensets of (u, v) pairs with u < v; the metric counts
    edges in the symmetric difference.  Every element is its own inverse.
    """

    is_abelian = True
    has_identity = True
    is_group = True
    is_finite = True
    is_exact = True

    def __init__(self, vertices: int):
        if vertices < 1:
            raise InstanceSpecError("graph group needs >= 1 vertex")
        self.vertices = vertices
        self.edge_pool = tuple(
            (u, v) for u in range(vertices) for v in range(u + 1, vertices)
        )
        self.edges = frozenset(self.edge_pool)
        self.name = f"graphgroup({vertices})"
        self.spec = f"graphgroup:{vertices}"

    def compose(self, a, b):
        return a ^ b

    def distance(self, a, b):
        return len(a ^ b)

    @property
    def identity(self):
        return frozenset()

    def inverse(self, a):
        return a

    def contains(self, x):
        return isinstance(x, frozenset) and x <= self.edges

    def elements(self):
        for r in range(len(self.edge_pool) + 1):
            for combo in itertools.combinations(self.edge_pool, r):
                yield frozenset(combo)

    def carrier_size(self):
        return 2 ** len(self.edge_pool)

    def random_element(self, rng):
        return frozenset(e for e in self.edge_pool if rng.random() < 0.5)

    def element_to_json(self, x):
        return sorted([list(e) for e in x])

    def element_from_json(self, j):
        if not isinstance(j, list):
            raise CarrierMismatchError(f"expected a list of [u, v] edges, got {j!r}")
        # an edge of other than two vertices is not in `edges`
        return self.require_element(frozenset(tuple(sorted(_read_integers(e))) for e in j))


class IntegerAdditive(MetricSemigroup):
    """The integers under addition with |a - b|."""

    name = spec = "int"
    is_abelian = True
    has_identity = True
    is_group = True
    is_exact = True

    def compose(self, a, b):
        return a + b

    def distance(self, a, b):
        return abs(a - b)

    @property
    def identity(self):
        return 0

    def inverse(self, a):
        return -a

    def contains(self, x):
        return is_integer(x)

    def random_element(self, rng):
        return rng.randint(-9, 9)

    def element_to_json(self, x):
        return x

    def element_from_json(self, j):
        return self.require_element(_read_integer(j))


class BrokenSubtractionIntegers(IntegerAdditive):
    """Integers under subtraction with |a - b|: composition is not associative."""

    name = spec = "broken:subint"
    is_associative = False
    is_abelian = False
    has_identity = False
    is_group = False
    identity = MetricSemigroup.identity
    inverse = MetricSemigroup.inverse

    def compose(self, a, b):
        return a - b


class PositiveRationalsAdditive(MetricSemigroup):
    """Positive rationals under addition with |a - b|: no identity, no inverses.

    The carrier is exact (Fraction/int values > 0) so that completion and
    axiom checks certify at zero tolerance.
    """

    name = spec = "posreal"
    is_abelian = True
    is_exact = True

    def compose(self, a, b):
        return a + b

    def distance(self, a, b):
        return abs(a - b)

    def contains(self, x):
        return isinstance(x, (int, Fraction)) and not isinstance(x, bool) and x > 0

    def random_element(self, rng):
        return Fraction(rng.randint(1, 12), rng.randint(1, 4))

    def canonical_element(self):
        return Fraction(1)

    def element_to_json(self, x):
        x = Fraction(x)
        return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"

    def element_from_json(self, j):
        return self.require_element(_read_rational(j))


class BrokenMultiplicativeRationals(PositiveRationalsAdditive):
    """Positive rationals under *multiplication* with |a - b|: a negative test.

    Multiplication is associative and |a - b| is a metric, but the metric is
    not translation-invariant (d(ac, bc) = c * d(a, b)), so this is not a
    metric semigroup and axiom checks must flag it.
    """

    name = spec = "broken:mulreal"
    is_magnitude_invariant = False
    has_identity = True
    is_group = True

    def compose(self, a, b):
        return a * b

    @property
    def identity(self):
        return Fraction(1)

    def inverse(self, a):
        return 1 / Fraction(a)


def _norm_of(deltas: Sequence[float], norm: str) -> float:
    if norm == "sup":
        return max(deltas) if deltas else 0.0
    return math.sqrt(sum(d * d for d in deltas))


class RealVectorGroup(MetricSemigroup):
    """R^d under addition with the Euclidean or sup norm distance."""

    prefix = "real"
    is_abelian = True
    has_identity = True
    is_group = True

    def __init__(self, dim: int, norm: str = "euclid"):
        if dim < 1:
            raise InstanceSpecError(f"{self.prefix} dimension must be >= 1")
        if norm not in ("euclid", "sup"):
            raise InstanceSpecError(f"unknown norm {norm!r} (use euclid or sup)")
        self.dim = dim
        self.norm = norm
        self.name = f"{self.prefix}({dim},{norm})"
        self.spec = f"{self.prefix}:{dim}:{norm}"

    def wrap(self, coords: tuple) -> tuple:
        """The element that the coordinate tuple `coords` stands for."""
        return coords

    def compose(self, a, b):
        return tuple(x + y for x, y in zip(a, b))

    def distance(self, a, b):
        return _norm_of([abs(x - y) for x, y in zip(a, b)], self.norm)

    @property
    def identity(self):
        return (0.0,) * self.dim

    def inverse(self, a):
        return tuple(-x for x in a)

    def contains(self, x):
        return isinstance(x, tuple) and len(x) == self.dim and all(map(is_finite_number, x))

    def random_element(self, rng):
        return tuple(rng.uniform(-5.0, 5.0) for _ in range(self.dim))

    def element_to_json(self, x):
        return [float(v) for v in x]

    def element_from_json(self, j):
        if self.dim == 1 and not isinstance(j, list):
            j = [j]
        if not (isinstance(j, list) and all(map(is_finite_number, j))):
            raise CarrierMismatchError(f"expected a list of {self.dim} finite numbers, got {j!r}")
        return self.require_element(self.wrap(tuple(map(float, j))))


class TorusGroup(RealVectorGroup):
    """The d-torus: coordinates mod 1, with the wrap-around quotient metric.

    Per coordinate the distance is min(|x - y|, 1 - |x - y|); coordinates are
    combined by the chosen norm.
    """

    prefix = "torus"

    def wrap(self, coords):
        return tuple(c % 1.0 for c in coords)

    def compose(self, a, b):
        return tuple((x + y) % 1.0 for x, y in zip(a, b))

    def distance(self, a, b):
        deltas = []
        for x, y in zip(a, b):
            d = abs(x - y)
            deltas.append(min(d, 1.0 - d))
        return _norm_of(deltas, self.norm)

    def inverse(self, a):
        return tuple((-x) % 1.0 for x in a)

    def contains(self, x):
        return super().contains(x) and all(0 <= v < 1 for v in x)

    def random_element(self, rng):
        return tuple(rng.random() for _ in range(self.dim))


class WordMetricGroup(MetricSemigroup):
    """A finite group re-metrized by a weighted word length.

    d(a, b) is the minimal total weight of a generator word equal to
    inverse(a)*b, which makes the metric left-invariant by construction.
    With generator weights that are not constant on conjugacy classes the
    metric is *only* left-invariant: a probe case for the group-metric
    property classification.
    """

    has_identity = True
    is_group = True
    is_finite = True
    is_exact = True

    def __init__(self, base: MetricSemigroup, generator_weights: dict):
        if not (base.is_group and base.is_finite):
            raise InstanceSpecError("word metric needs a finite group")
        self.base = base
        self.is_abelian = base.is_abelian
        self.generator_weights = dict(generator_weights)
        self.name = f"wordmetric({base.name})"
        self.spec = f"wordmetric:{base.spec}"
        self._lengths = self._dijkstra_lengths()

    def _dijkstra_lengths(self) -> dict:
        import heapq

        start = self.base.identity
        dist = {start: 0}
        heap = [(0, 0, start)]
        counter = itertools.count(1)
        while heap:
            d, _, g = heapq.heappop(heap)
            if d > dist.get(g, math.inf):
                continue
            for gen, w in self.generator_weights.items():
                h = self.base.compose(g, gen)
                nd = d + w
                if nd < dist.get(h, math.inf):
                    dist[h] = nd
                    heapq.heappush(heap, (nd, next(counter), h))
        missing = [g for g in self.base.elements() if g not in dist]
        if missing:
            raise InstanceSpecError("generators do not generate the group")
        return dist

    def compose(self, a, b):
        return self.base.compose(a, b)

    def distance(self, a, b):
        return self._lengths[self.base.compose(self.base.inverse(a), b)]

    @property
    def identity(self):
        return self.base.identity

    def inverse(self, a):
        return self.base.inverse(a)

    def contains(self, x):
        return self.base.contains(x)

    def elements(self):
        return self.base.elements()

    def carrier_size(self):
        return self.base.carrier_size()

    def random_element(self, rng):
        return self.base.random_element(rng)

    def element_to_json(self, x):
        return self.base.element_to_json(x)

    def element_from_json(self, j):
        return self.base.element_from_json(j)


class CompletedMonoid(MetricSemigroup):
    """Monoid completion: the carrier plus one adjoined identity.

    The distance from the new identity to z is measured as d(a, a*z) for a
    fixed probe element a; translation-invariance of the base metric makes
    this independent of the probe, which `verify_axioms` re-checks as an
    observable property.
    """

    has_identity = True

    def __init__(self, base: MetricSemigroup, probe: Element | None = None):
        if base.has_identity:
            raise InstanceSpecError(f"{base.name} already has an identity")
        self.base = base
        if probe is None:
            if hasattr(base, "canonical_element"):
                probe = base.canonical_element()
            elif base.is_finite:
                probe = next(iter(base.elements()))
            else:
                raise InstanceSpecError(f"no canonical probe element for {base.name}")
        self.probe = base.require_element(probe)
        self.is_abelian = base.is_abelian
        self.is_group = base.is_group
        self.is_finite = base.is_finite
        self.is_exact = base.is_exact
        self.is_associative = base.is_associative
        self.is_magnitude_invariant = base.is_magnitude_invariant
        self.name = f"{base.name}+1"
        self.spec = f"{base.spec}+1"

    def compose(self, a, b):
        if a is ADJOINED_IDENTITY:
            return b
        if b is ADJOINED_IDENTITY:
            return a
        return self.base.compose(a, b)

    def distance(self, a, b):
        a_id = a is ADJOINED_IDENTITY
        b_id = b is ADJOINED_IDENTITY
        if a_id and b_id:
            return 0 if self.is_exact else 0.0
        if a_id:
            return self.base.distance(self.probe, self.base.compose(self.probe, b))
        if b_id:
            return self.base.distance(self.probe, self.base.compose(self.probe, a))
        return self.base.distance(a, b)

    @property
    def identity(self):
        return ADJOINED_IDENTITY

    def contains(self, x):
        return x is ADJOINED_IDENTITY or self.base.contains(x)

    def elements(self):
        return itertools.chain([ADJOINED_IDENTITY], self.base.elements())

    def carrier_size(self):
        return self.base.carrier_size() + 1

    def random_element(self, rng):
        if rng.random() < 0.125:
            return ADJOINED_IDENTITY
        return self.base.random_element(rng)

    def elements_equal(self, a, b, tol: float = 0.0):
        a_id = a is ADJOINED_IDENTITY
        b_id = b is ADJOINED_IDENTITY
        if a_id or b_id:
            return a_id and b_id
        return self.base.elements_equal(a, b, tol)

    def element_to_json(self, x):
        if x is ADJOINED_IDENTITY:
            return None
        return self.base.element_to_json(x)

    def element_from_json(self, j):
        if j is None:
            return ADJOINED_IDENTITY
        return self.base.element_from_json(j)


def adjoin_identity(inst: MetricSemigroup) -> MetricSemigroup:
    """Smallest monoid containing `inst`; returns `inst` itself if it already
    has an identity, so the operation is idempotent."""
    if inst.has_identity:
        return inst
    return CompletedMonoid(inst)


def standard_word_metric_sym3() -> WordMetricGroup:
    """S_3 with a left-invariant word metric whose generator weights are not
    conjugation-invariant; classifies as left-invariant only."""
    sym = SymmetricGroup(3)
    weights = {
        (1, 0, 2): 1,  # swap 0,1
        (2, 1, 0): 2,  # swap 0,2
        (0, 2, 1): 3,  # swap 1,2
    }
    return WordMetricGroup(sym, weights)


def parse_instance(spec: str) -> MetricSemigroup:
    """Build an instance from a specification string.

    Formats: ``cyclic:6``, ``sym:4``, ``graphgroup:3``, ``int``, ``posreal``,
    ``real:2[:euclid|sup]``, ``torus:1[:euclid|sup]``, ``broken:mulreal``,
    ``broken:subint``, ``wordmetric:sym:3``.  Append ``+1`` to adjoin an
    identity (e.g. ``posreal+1``).
    """
    if not isinstance(spec, str):
        raise InstanceSpecError(f"instance spec must be a string, not {spec!r}")
    text = spec.strip()
    complete = False
    if text.endswith("+1"):
        complete = True
        text = text[:-2]
    parts = text.split(":")
    head = parts[0]
    try:
        if head == "cyclic" and len(parts) == 2:
            inst = CyclicGroup(int(parts[1]))
        elif head == "sym" and len(parts) == 2:
            inst = SymmetricGroup(int(parts[1]))
        elif head == "graphgroup" and len(parts) == 2:
            inst = GraphGroup(int(parts[1]))
        elif head == "int" and len(parts) == 1:
            inst = IntegerAdditive()
        elif head == "posreal" and len(parts) == 1:
            inst = PositiveRationalsAdditive()
        elif head == "real" and len(parts) in (2, 3):
            inst = RealVectorGroup(int(parts[1]), parts[2] if len(parts) == 3 else "euclid")
        elif head == "torus" and len(parts) in (2, 3):
            inst = TorusGroup(int(parts[1]), parts[2] if len(parts) == 3 else "euclid")
        elif head == "broken" and len(parts) == 2 and parts[1] == "mulreal":
            inst = BrokenMultiplicativeRationals()
        elif head == "broken" and len(parts) == 2 and parts[1] == "subint":
            inst = BrokenSubtractionIntegers()
        elif head == "wordmetric" and parts[1:] == ["sym", "3"]:
            inst = standard_word_metric_sym3()
        else:
            raise InstanceSpecError(f"unknown instance spec {spec!r}")
    except (ValueError, IndexError) as exc:
        if isinstance(exc, InstanceSpecError):
            raise
        raise InstanceSpecError(f"malformed instance spec {spec!r}: {exc}") from exc
    if complete:
        inst = adjoin_identity(inst)
    return inst
