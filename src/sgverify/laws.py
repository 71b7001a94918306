"""Independent step sequences and the laws of their path statistics.

Every step is a `DiscreteDistribution`, a law with finitely many atoms.
One with rational probabilities keeps them as int weights over the lcm of
their denominators, checks its mass in ints, and makes its (element,
Fraction) atoms only when they are read; the engines and the corpus read
the ints.  Each statistic is a transition step(state, x) plus
value(state), and two engines push a measure on states forward one
variable at a time, merging equal states:

* the exact engine keeps the distinct states, in the order they are first
  reached, with their weights, and hashes each next state once.  When
  every probability is rational the weights are integer numerators over one
  common denominator, the product of each variable's lcm of probability
  denominators, and stay integers in the law they build, so downstream
  inequality checks certify at zero tolerance without a gcd per addition;
  float probabilities give float weights;
* seeded Monte Carlo keeps one state id per trial, where trial t's
  randomness is a pure function of (seed, t), making results independent
  of execution order and chunking.  A trial's atom in a column of k atoms
  is the number of the first k - 1 cumulative probabilities its uniform
  reaches, counted in k - 1 vectorised comparisons (a binary search above
  `MAX_THRESHOLD_ATOMS` atoms).  The uniforms are drawn in cache-sized
  sub-blocks, each reduced at once to a one-byte atom index per trial and
  column, so a chunk holds a byte per uniform rather than a float, and a
  column reads its atoms as one contiguous row.  The distinct (state,
  atom) pairs of a column are found by flagging their codes in a dense
  array, not by sorting (`np.unique` only above 2 * batch possible
  pairs).  Runs of columns with the same elements share a table from
  (state, atom) to the next state, so an iid walk steps each transition
  once per chunk rather than once per column.

Every exact law a sequence holds comes from the exact engine: the walk
peak, the end distance, the step peak, and each step's magnitude, which is
the step peak pushed through that step alone.

Laws that come from integer counts (Monte Carlo) or integer numerators
over one denominator (the rational exact engine) are built by
`ScalarLaw.from_weights`, which checks their mass in ints.

The statistics of a path x_1..x_n with basepoints z0, z1 are the partial
products s_j = x_1...x_j, the running peak distance max_{i<=j} d(z1, z0*s_i),
the step magnitudes d(z0, z0*x_j), and their running maximum.
"""

from __future__ import annotations

import itertools
import math
import sys
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import itemgetter
from typing import Iterable, Sequence

import numpy as np

from .rng import uniform_block
from .semigroups import MetricSemigroup, parse_instance

DEFAULT_ENUMERATION_CAP = 10_000_000

# Monte Carlo draws a chunk's uniforms this many at a time.  A sub-block and
# its copy with a row per column take 1 MB of float64 together, and stay in
# cache while they are reduced to atoms.
SUB_BLOCK_UNIFORMS = 1 << 16

# Monte Carlo columns with at most this many atoms pick each trial's atom by
# counting the cumulative probabilities it reaches, one comparison per level
# of thresholds over every column that has that level; wider columns use a
# binary search, whose cost grows with log k instead of k.  On a sub-block
# of 200 columns x 327 trials (2-vCPU x86 host, microseconds per column per
# 1,000 trials), counting columns that share all their levels took 1.0,
# 7.3, 8.0, 16 and 68 at 2, 8, 9, 16 and 64 atoms, against 27, 41, 43, 53
# and 80 for a binary search per column; but a column alone in its levels
# took 18, 96, 90, 207 and 810, against 18 to 29, as each of its levels is
# then a call on 327 values.  The crossover thus depends on how many
# columns share a level, which the cutoff does not see.
MAX_THRESHOLD_ATOMS = 8

WALK_PEAK = "walk_peak"
STEP_PEAK = "step_peak"
END_DISTANCE = "end_distance"


def is_rational(x) -> bool:
    return isinstance(x, (int, Fraction)) and not isinstance(x, bool)


# Largest mass error allowed when float probabilities should sum to one.
MASS_TOL = 1e-12


class EnumerationCapError(ValueError):
    """An exact law needs more states than the cap allows."""


# ---------------------------------------------------------------------------
# distributions over semigroup elements


@dataclass(frozen=True)
class DiscreteDistribution:
    """Finitely supported law on a carrier: ((element, probability), ...).

    Probabilities are Fractions (exact mode) or floats; they must be positive
    and sum to one (exactly when rational, else within `MASS_TOL`).

    However it is built, a distribution keeps its elements as `support`.
    When every probability is rational (`is_rational`) it also keeps
    `weights_over_lcm`, (L, (p * L, ...)) in the order of `support`, L the
    lcm of the probabilities' denominators, so the weights are ints whose
    gcd is 1; the mass is checked in ints, and a distribution made by
    `from_weights` makes its Fraction `atoms` only on first read.
    """

    atoms: tuple

    # Fields are set by object.__setattr__, not through __dict__, which
    # would make each distribution hold a dict of its own.

    def __post_init__(self):
        probs = [p for _, p in self.atoms]
        rational = all(is_rational(p) for p in probs)
        object.__setattr__(self, "support", tuple(e for e, _ in self.atoms))
        object.__setattr__(self, "is_rational", rational)
        if rational:
            lcm, weights = _over_lcm(probs)
            object.__setattr__(self, "weights_over_lcm", (lcm, tuple(weights)))

    def __getattr__(self, name):
        # reached only while a distribution made by `from_weights` has no
        # `atoms` yet
        if name != "atoms":
            raise AttributeError(name)
        lcm, weights = self.weights_over_lcm
        atoms = tuple((e, Fraction(w, lcm)) for e, w in zip(self.support, weights))
        object.__setattr__(self, "atoms", atoms)
        return atoms

    @staticmethod
    def of(pairs: Iterable[tuple], merge: bool = False) -> "DiscreteDistribution":
        """Checks the probabilities; `IndependentSequence.build` checks the
        elements against its instance."""
        merged: dict = {}
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
        dist = DiscreteDistribution(atoms)
        if dist.is_rational:
            lcm, weights = dist.weights_over_lcm
            total = sum(weights)
            if total != lcm:
                raise ValueError(f"probabilities sum to {Fraction(total, lcm)}, not 1")
        else:
            total = sum(p for _, p in atoms)
            if abs(total - 1) > MASS_TOL:
                raise ValueError(f"probabilities sum to {total}, not 1")
        return dist

    @staticmethod
    def from_weights(elements: Iterable, weights: Iterable[int]) -> "DiscreteDistribution":
        """The distribution giving each of the distinct `elements` the
        probability weight / sum(weights), for positive int weights.

        Equal to `of` on the pairs (element, Fraction(weight, sum(weights))),
        in value and in the repr of `atoms`, which it makes only on first
        read; any other weights (zero, negative, bool, float) or repeated
        elements take that path, and raise what it raises.
        """
        support, weights = tuple(elements), tuple(weights)
        if len(support) != len(weights):
            raise ValueError(f"{len(support)} elements but {len(weights)} weights")
        total = sum(weights)
        if (
            not weights
            or set(map(type, weights)) != {int}
            or min(weights) <= 0
            or len(set(support)) != len(support)
        ):
            return DiscreteDistribution.of(
                [(e, Fraction(w, total)) for e, w in zip(support, weights)]
            )
        g = math.gcd(*weights)
        if g > 1:
            total //= g
            weights = tuple(w // g for w in weights)
        # Built without __init__, which would need the atoms.
        dist = object.__new__(DiscreteDistribution)
        object.__setattr__(dist, "support", support)
        object.__setattr__(dist, "is_rational", True)
        object.__setattr__(dist, "weights_over_lcm", (total, weights))
        return dist

    @staticmethod
    def point_mass(element) -> "DiscreteDistribution":
        return DiscreteDistribution(((element, Fraction(1)),))

    @staticmethod
    def uniform(elements: Sequence) -> "DiscreteDistribution":
        n = len(elements)
        return DiscreteDistribution.of([(e, Fraction(1, n)) for e in elements])


# ---------------------------------------------------------------------------
# scalar laws on [0, oo)


def tail_level(t, denominator: int, exact: bool):
    """What tail sums over `denominator` are compared with to decide tail <= t:
    floor(t * denominator) for int sums; for float sums or a nan or inf, t."""
    if not exact:
        return t
    try:
        num, den = t.as_integer_ratio()
    except (OverflowError, ValueError):
        return t
    except AttributeError:  # numpy integers
        num, den = Fraction(t).as_integer_ratio()
    return num * denominator // den


@dataclass(frozen=True)
class ScalarLaw:
    """A law on [0, oo): sorted distinct values with positive weights.

    ``kind`` is "exact" for enumerated/analytic laws and "empirical" for
    Monte Carlo output, which keeps (trials, seed) provenance and represents
    the empirical measure exactly as counts/trials.

    However it is built, a law keeps its probabilities as `_weights` over
    one `_denominator` D, with their suffix sums `_tails` (0 last).  When
    every probability is rational (`_exact`) these are ints, and `probs` and
    the tail probabilities `_suffix` become Fractions on first use;
    otherwise they are the probabilities and their sums, with D = 1.
    """

    values: tuple
    probs: tuple
    kind: str = "exact"
    trials: int | None = None
    seed: int | None = None

    def __post_init__(self):
        if not self.values:
            raise ValueError("scalar law needs at least one value")
        if any(v < 0 for v in self.values):
            raise ValueError("scalar law values must be nonnegative")
        if all(is_rational(p) for p in self.probs):
            self._keep_weights(*_over_lcm(self.probs))
        else:
            self._keep_weights(1, self.probs, exact=False)
            self.__dict__["_suffix"] = self._tails

    def _keep_weights(self, denominator, weights, exact=True):
        tails = tuple(itertools.accumulate(reversed(weights), initial=0))[::-1]
        self.__dict__.update(
            _weights=tuple(weights), _tails=tails, _denominator=denominator, _exact=exact
        )

    def __getattr__(self, name):
        # reached only for what a law makes on first read and then keeps in
        # its __dict__: the Fraction `probs` of a law made by `from_weights`,
        # the tail probabilities `_suffix` (P(X > values[i - 1]) at i, from
        # `_tails`) and `is_rational`
        if name == "probs":
            value = tuple(Fraction(w, self._denominator) for w in self._weights)
        elif name == "_suffix":
            value = (*(Fraction(t, self._denominator) for t in self._tails[:-1]), 0)
        elif name == "is_rational":
            value = self._exact and all(is_rational(v) for v in self.values)
        else:
            raise AttributeError(name)
        self.__dict__[name] = value
        return value

    @staticmethod
    def from_pairs(
        pairs: Iterable[tuple],
        kind: str = "exact",
        trials: int | None = None,
        seed: int | None = None,
    ) -> "ScalarLaw":
        merged: dict = {}
        for v, p in pairs:
            if not p >= 0:  # also false for NaN
                raise ValueError(f"probability {p} is not >= 0")
            merged[v] = merged.get(v, 0) + p
        items = sorted((v, p) for v, p in merged.items() if p > 0)
        values = tuple(v for v, _ in items)
        probs = tuple(p for _, p in items)
        total = sum(probs)
        if all(is_rational(p) for p in probs):
            if total != 1:
                raise ValueError(f"law mass is {total}, not 1")
        elif abs(total - 1) > MASS_TOL:
            raise ValueError(f"law mass is {total}, not 1")
        return ScalarLaw(values, probs, kind=kind, trials=trials, seed=seed)

    @staticmethod
    def from_weights(
        values: Iterable,
        weights: Iterable[int],
        denominator: int,
        kind: str = "exact",
        trials: int | None = None,
        seed: int | None = None,
    ) -> "ScalarLaw":
        """The law giving each of the distinct `values` the probability
        weight / denominator, for positive int weights that sum to the int
        `denominator`.

        The values are sorted once and the mass is checked in ints; the
        probabilities and tail sums become Fractions only on first use, equal
        in value and repr to those `from_pairs` makes from the same law.
        """
        items = sorted(zip(values, weights), key=itemgetter(0))
        if not items:
            raise ValueError("scalar law needs at least one value")
        if items[0][0] < 0:
            raise ValueError("scalar law values must be nonnegative")
        weights = [w for _, w in items]
        if min(weights) <= 0:
            raise ValueError(f"weights must be positive, got {min(weights)}")
        total = sum(weights)
        if total != denominator:
            raise ValueError(f"law mass is {Fraction(total, denominator)}, not 1")
        # Built without __init__, which would need the probabilities.
        law = object.__new__(ScalarLaw)
        law.__dict__.update(
            values=tuple(v for v, _ in items), kind=kind, trials=trials, seed=seed
        )
        law._keep_weights(denominator, weights)
        return law

    @staticmethod
    def from_counts(counts: dict, trials: int, seed: int | None) -> "ScalarLaw":
        """Empirical law of `trials` trials from value -> count; zero counts
        are dropped."""
        kept = [(v, c) for v, c in counts.items() if c]
        return ScalarLaw.from_weights(
            [v for v, _ in kept],
            [c for _, c in kept],
            trials,
            kind="empirical",
            trials=trials,
            seed=seed,
        )

    @staticmethod
    def point_mass(value) -> "ScalarLaw":
        return ScalarLaw((value,), (Fraction(1),))

    @property
    def is_empirical(self) -> bool:
        return self.kind == "empirical"

    @property
    def max_value(self):
        return self.values[-1]

    def tail(self, x):
        """P(X > x)."""
        return self._suffix[bisect_right(self.values, x)]

    def prob_ge(self, x):
        """P(X >= x)."""
        return self._suffix[bisect_left(self.values, x)]

    def prob_le(self, x):
        """P(X <= x)."""
        return self._suffix[0] - self.tail(x)

    def moment(self, p):
        """E[X^p]; exact (Fraction) when p is a positive int on a rational law,
        else a float, math.inf when a power leaves the float range.

        Exact: one int sum over D * lcm(value denominators^p); float: w / D
        for each probability, rounded as float(Fraction(w, D)).  Memoised
        per (type(p), p) in the law's own __dict__.
        """
        if p <= 0:
            raise ValueError("moment order must be positive")
        memo = self.__dict__.setdefault("_moments", {})
        key = (type(p), p)
        if key not in memo:
            weights, denominator = self._weights, self._denominator
            if isinstance(p, int) and not isinstance(p, bool) and self.is_rational:
                powers = [(v.numerator**p, v.denominator**p) for v in self.values]
                scale = math.lcm(*(b for _, b in powers))
                total = sum(w * a * (scale // b) for (a, b), w in zip(powers, weights))
                memo[key] = Fraction(total, denominator * scale)
            else:
                try:
                    memo[key] = sum(
                        w / denominator * float(v) ** float(p)
                        for v, w in zip(self.values, weights)
                    )
                except OverflowError:
                    memo[key] = math.inf
        return memo[key]

    def moment_root(self, p):
        """E[X^p]^(1/p); kept exact for p == 1, float otherwise.

        When E[X^p] leaves the normal float range, or its root overflows,
        the root is taken as M * E[(X/M)^p]^(1/p) with M the largest value,
        which stays finite and keeps its precision.
        """
        m = self.moment(p)
        if p == 1:
            return m
        try:
            moment = float(m)
            root = moment ** (1.0 / float(p))
        except OverflowError:
            moment = root = math.inf
        if not self.max_value or (moment >= sys.float_info.min and root < math.inf):
            return root
        top, r, d = self.max_value, float(p), self._denominator
        scaled = sum(w / d * float(v / top) ** r for v, w in zip(self.values, self._weights))
        return float(top) * scaled ** (1.0 / r)

    def mean(self):
        return self.moment(1)

    def to_jsonable(self) -> dict:
        def num(x):
            if isinstance(x, Fraction):
                return str(x)
            return x

        out = {
            "kind": self.kind,
            "atoms": [[num(v), num(p)] for v, p in zip(self.values, self.probs)],
        }
        if self.kind == "empirical":
            out["trials"] = self.trials
            out["seed"] = self.seed
        return out


# ---------------------------------------------------------------------------
# sequences and path statistics


@dataclass(eq=False)
class IndependentSequence:
    """A finite sequence of independent steps on one instance.

    Variables are `DiscreteDistribution`s, finite laws that both engines
    take.  Basepoints default to the identity on monoids and to the first
    atom of the first variable otherwise.
    """

    instance: MetricSemigroup
    variables: tuple
    z0: object
    z1: object
    label: str = ""

    @staticmethod
    def build(
        instance: MetricSemigroup,
        variables: Sequence,
        z0=None,
        z1=None,
        label: str = "",
    ) -> "IndependentSequence":
        variables = tuple(variables)
        if not variables:
            raise ValueError("sequence needs at least one variable")
        for var in variables:
            if not isinstance(var, DiscreteDistribution):
                raise TypeError(f"variable {var!r} is not a DiscreteDistribution")
            for e in var.support:
                instance.require_element(e)
        if z0 is None or z1 is None:
            default = instance.identity if instance.has_identity else variables[0].support[0]
            z0 = default if z0 is None else z0
            z1 = default if z1 is None else z1
        instance.require_element(z0)
        instance.require_element(z1)
        return IndependentSequence(instance, variables, z0, z1, label)

    @property
    def n(self) -> int:
        return len(self.variables)

    @property
    def outcome_count(self) -> int:
        return math.prod(len(v.support) for v in self.variables)

    def with_basepoints(self, z0, z1) -> "IndependentSequence":
        return IndependentSequence.build(
            self.instance, self.variables, z0, z1, self.label
        )

    def with_variables(self, variables: Sequence) -> "IndependentSequence":
        return IndependentSequence.build(
            self.instance, variables, self.z0, self.z1, self.label
        )

    def derived(self, key, build):
        """`build()`, made once per sequence for `key`.

        Like the cached properties, the value lives in the sequence's own
        __dict__, so a copy made by `dataclasses.replace` starts cold.
        """
        memo = self.__dict__.setdefault("_derived", {})
        if key not in memo:
            memo[key] = build()
        return memo[key]

    @cached_property
    def magnitude_laws(self) -> tuple:
        """Law of each step's magnitude d(z0, z0 * x): the step peak of that
        step alone, by the push-forward of `exact_functional_law`;
        basepoint-independent."""
        step_peak = _statistic(self, STEP_PEAK)
        return tuple(
            _push_forward_law(step_peak, (var,), DEFAULT_ENUMERATION_CAP)
            for var in self.variables
        )

    @cached_property
    def walk_peak_law(self) -> ScalarLaw:
        return exact_functional_law(self, WALK_PEAK)

    @cached_property
    def step_peak_law(self) -> ScalarLaw:
        """Law of the largest step magnitude max_j d(z0, z0 * x_j)."""
        return exact_functional_law(self, STEP_PEAK)

    @cached_property
    def end_distance_law(self) -> ScalarLaw:
        return exact_functional_law(self, END_DISTANCE)


# ---------------------------------------------------------------------------
# path statistics as transitions
#
# A statistic is (start, step, value): folding step(state, x) over x_1..x_n
# from `start` and applying `value` to the final state gives the statistic of
# the path.  Both engines push a measure on states forward one variable at a
# time and merge equal states, so the work grows with the number of distinct
# states rather than with the number of joint outcomes.


def _product(inst: MetricSemigroup) -> tuple:
    """The partial product s_j = x_1...x_j (no start element is needed)."""
    compose = inst.compose

    def step(s, x):
        return x if s is None else compose(s, x)

    return None, step, lambda s: s


def _statistic(seq: IndependentSequence, statistic) -> tuple:
    """(start, step, value) of a named scalar statistic."""
    compose, distance = seq.instance.compose, seq.instance.distance
    z0, z1 = seq.z0, seq.z1
    if statistic == WALK_PEAK:

        def walk_peak(state, x):
            position, peak = state
            position = compose(position, x)
            dist = distance(z1, position)
            return position, dist if peak is None or dist > peak else peak

        return (z0, None), walk_peak, itemgetter(1)
    if statistic == END_DISTANCE:
        return z0, compose, lambda position: distance(z1, position)
    if statistic == STEP_PEAK:
        # each atom's magnitude, once per sequence; keyed by the atom's
        # identity, so that 1 and Fraction(1) stay apart, and only for the
        # atoms that the sequence keeps alive
        magnitudes = seq.derived(STEP_PEAK, lambda: dict.fromkeys(
            id(x) for var in seq.variables for x in var.support
        ))

        def step_peak(peak, x):
            mag = magnitudes.get(id(x))
            if mag is None:
                mag = distance(z0, compose(z0, x))
                if id(x) in magnitudes:
                    magnitudes[id(x)] = mag
            return mag if peak is None or mag > peak else peak

        return None, step_peak, lambda peak: peak
    raise ValueError(f"unknown statistic {statistic!r}")


def _exact_weights(variables) -> tuple:
    """(start weight, (support, weights) of each variable, denominator) for
    the exact push-forward.

    When every probability is rational, a variable's weights are the
    integers p * L of `DiscreteDistribution.weights_over_lcm`, so the
    weights stay integers over the denominator D, the product of the L's.
    Otherwise the weights are the products of the probabilities themselves
    and the denominator is None.
    """
    if not all(var.is_rational for var in variables):
        columns = [(var.support, [p for _, p in var.atoms]) for var in variables]
        return Fraction(1), columns, None
    lcms, weights = zip(*(var.weights_over_lcm for var in variables))
    return 1, [(var.support, w) for var, w in zip(variables, weights)], math.prod(lcms)


def _over_lcm(probs) -> tuple:
    """(L, [p * L for each p]), L the lcm of the rational probabilities'
    denominators, so the weights are ints."""
    lcm = math.lcm(*(p.denominator for p in probs))
    return lcm, [p.numerator * (lcm // p.denominator) for p in probs]


def _advance(measure: tuple, column: tuple, step, index: int, cap: int) -> tuple:
    """Push a measure on states through step `index` (1-based), whose
    elements and weights are `column`; equal states merge and their weights
    add.

    A measure is (states, masses): the distinct states, in the order they
    were first reached, and their weights.  The states come out as a dict
    from each state to its position, so each next state is hashed once, by
    `setdefault`; a Fraction or a tuple of Fractions hashes in Python.  The
    cap bounds the (state, atom) pairs of one layer and is checked before
    the layer is expanded.
    """
    states, masses = measure
    support, weights = column
    if len(states) * len(support) > cap:
        raise EnumerationCapError(
            f"{len(states)} states reached before step {index}; its "
            f"{len(support)} atoms would exceed the state cap {cap}"
        )
    ids: dict = {}
    out: list = []
    for state, mass in zip(states, masses):
        for x, w in zip(support, weights):
            i = ids.setdefault(step(state, x), len(out))
            if i == len(out):
                out.append(mass * w)
            else:
                out[i] += mass * w
    return ids, out


def exact_functional_law(
    seq: IndependentSequence,
    statistic,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> ScalarLaw:
    """Law of a path statistic under the product measure.

    `cap` bounds the merged states times the atoms of the next step.
    """
    return _push_forward_law(_statistic(seq, statistic), seq.variables, cap)


def _push_forward_law(statistic: tuple, variables, cap: int) -> ScalarLaw:
    """Law of a (start, step, value) statistic over the discrete `variables`."""
    start, step, value = statistic
    one, columns, denominator = _exact_weights(variables)
    measure = (start,), [one]
    for index, column in enumerate(columns, 1):
        measure = _advance(measure, column, step, index, cap)
    # the values merge as step n + 1, whose one atom has weight 1
    n = len(columns)
    values, weights = _advance(measure, ((None,), (1,)), lambda s, _: value(s), n + 1, cap)
    if denominator is None:
        return ScalarLaw.from_pairs(zip(values, weights))
    return ScalarLaw.from_weights(values.keys(), weights, denominator)


# ---------------------------------------------------------------------------
# Monte Carlo engine


def monte_carlo_law(
    seq: IndependentSequence,
    statistic=WALK_PEAK,
    trials: int = 10_000,
    seed: int = 0,
    chunk_size: int = 65536,
) -> ScalarLaw:
    """Empirical law of a path functional from seeded Monte Carlo.

    Trial t consumes a fixed window of a counter-based uniform stream keyed
    by `seed`, so the law is reproducible and independent of chunking.  On
    exact carriers the sampled functional values stay exact (Fraction/int)
    and the empirical measure is represented as counts/trials.

    Every step is a finite distribution, and column i (step i + 1) reads
    uniform i of its trial.  Trials run in chunks of `chunk_size`.  A
    chunk's uniforms are drawn `SUB_BLOCK_UNIFORMS` at a time; each
    sub-block is copied with a row per column and, while it is in cache,
    reduced to the chunk's atom matrix: one row per column, holding each
    trial's atom index in one byte (more above 256 atoms).  In a column of
    k atoms with cumulative probabilities c_1 <= ... <= c_k = 1, a trial
    with uniform u < 1 takes atom #{i < k : c_i <= u}, which is
    searchsorted(c, u, side="right").  Up to `MAX_THRESHOLD_ATOMS` atoms it
    is counted level by level: level j compares every column that has a
    j-th threshold at once; wider columns run the binary search on the
    sub-block.  So a chunk holds a byte per uniform, not the 8 of a float
    block, and the default chunk of 65,536 trials takes the bytes that
    8,192 trials take as floats.

    A column then reads its atoms as one contiguous row.  It steps once
    per distinct (state, atom) pair, found without sorting: the pair codes
    state * k + atom lie below states x atoms, so they are flagged in a
    bool array of that size and read back in ascending order, the order
    `np.unique` gives; the pairs are stepped and their states interned in
    that order, and the next state ids gathered through a table of the
    same size.  A run of consecutive columns whose atoms have the same
    elements (an epoch; every column of an iid walk) shares one such
    table next[state * k + atom], so each pair is stepped once per epoch.
    The table is allocated at 2 * batch entries, -1 meaning not yet
    stepped, on the epoch's second column; a column then gathers the next
    state ids from it and steps only the pairs it has not seen.  A column
    that starts afresh (the first of a chunk, or one with new elements)
    uses its table once.  An epoch ends at a column with other elements
    (compared by value and by repr, so 1 and Fraction(1) differ), and at a
    column reached with more states x atoms than twice the trials of the
    chunk.  Such a column sorts its pair codes with `np.unique` instead, so
    a table never holds more than 2 * chunk_size entries.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if chunk_size < 1:
        raise ValueError("chunk_size must be >= 1")
    start, step, value = _statistic(seq, statistic)
    # (cumulative probabilities, elements, same elements as the column before)
    columns = []
    previous = None
    for var in seq.variables:
        if var.is_rational:
            # w / L is float(Fraction(w, L)), rounded once
            lcm, weights = var.weights_over_lcm
            cum = np.cumsum([w / lcm for w in weights])
        else:
            cum = np.cumsum([float(p) for _, p in var.atoms])
        cum[-1] = 1.0
        elements = var.support
        same = elements == previous and repr(elements) == repr(previous)
        columns.append((cum, elements, same))
        previous = elements
    width = len(columns)
    cums = [cum for cum, _, _ in columns]
    counted = [(col, cum) for col, cum in enumerate(cums) if len(cum) <= MAX_THRESHOLD_ATOMS]
    wide = [(col, cum) for col, cum in enumerate(cums) if len(cum) > MAX_THRESHOLD_ATOMS]
    # level j: the columns of at most MAX_THRESHOLD_ATOMS atoms that have a
    # j-th threshold, as a slice when they are adjacent, and those thresholds
    # as a column, one per row of a sub-block
    levels = []
    for j in range(MAX_THRESHOLD_ATOMS - 1):
        have = [(col, cum[j]) for col, cum in counted if j < len(cum) - 1]
        if not have:
            break
        cols, thresholds = zip(*have)
        if cols[-1] - cols[0] == len(cols) - 1:
            cols = slice(cols[0], cols[-1] + 1)
        else:
            cols = np.array(cols)
        levels.append((cols, np.array(thresholds)[:, None]))
    dtype = np.min_scalar_type(max(len(cum) for cum in cums) - 1)
    rows = max(1, SUB_BLOCK_UNIFORMS // width)

    def intern(p):
        """Id of the state reached from pair p = state id * k + atom; a new
        state is appended to `reached`, the epoch's states in id order."""
        nxt = step(states[p // k], elements[p % k])
        i = interned.setdefault(nxt, len(interned))
        if i == len(reached):
            reached.append(nxt)
        return i

    def step_pairs(codes, lookup, size):
        """Step the distinct pairs among `codes` (all below `size`) in
        ascending order and write their next state ids into `lookup`."""
        flags = np.zeros(size, dtype=bool)
        flags[codes] = True
        pairs = np.flatnonzero(flags)
        lookup[pairs] = [intern(p) for p in pairs.tolist()]

    counts: dict = {}
    done = 0
    while done < trials:
        batch = min(chunk_size, trials - done)
        atoms = np.zeros((width, batch), dtype=dtype)
        for r0 in range(0, batch, rows):
            # a row per column, so that every comparison runs along
            # contiguous memory, however few the columns
            u = uniform_block(seed, width, done + r0, min(rows, batch - r0)).T.copy()
            picked = atoms[:, r0 : r0 + u.shape[1]]
            for cols, thresholds in levels:
                picked[cols] += u[cols] >= thresholds
            for col, cum in wide:
                picked[col] = np.searchsorted(cum, u[col], side="right")
        states = [start]
        ids = np.zeros(batch, dtype=np.intp)
        for col, (cum, elements, same) in enumerate(columns):
            k = len(elements)
            codes = ids * k
            codes += atoms[col]
            size = len(states) * k
            if same and size <= 2 * batch:
                if table is None:
                    table = np.full(2 * batch, -1, dtype=np.intp)
                ids = table[codes]
                if ids.min() < 0:
                    step_pairs(codes[ids < 0], table, size)
                    ids = table[codes]
            else:
                interned, reached, table = {}, [], None
                if size <= 2 * batch:
                    fresh = np.empty(size, dtype=np.intp)
                    step_pairs(codes, fresh, size)
                    ids = fresh[codes]
                else:
                    pairs, inverse = np.unique(codes, return_inverse=True)
                    new_ids = [intern(p) for p in pairs.tolist()]
                    ids = np.asarray(new_ids, dtype=np.intp)[inverse]
            states = reached
        for state, c in zip(states, np.bincount(ids, minlength=len(states)).tolist()):
            if c:
                v = value(state)
                counts[v] = counts.get(v, 0) + c
        done += batch
    return ScalarLaw.from_counts(counts, trials, seed)


def mc_tail_agreement(
    seq: IndependentSequence,
    statistic=WALK_PEAK,
    trials: int = 100_000,
    seed: int = 0,
) -> list[dict]:
    """Compare empirical and exact tails at every exact quantile-grid point.

    Returns one record per grid value with the exact tail, empirical tail,
    binomial standard error (from the exact tail), and |z|; deterministic
    points (tail 0 or 1) require exact agreement and report z = 0 or inf.
    """
    exact = exact_functional_law(seq, statistic)
    empirical = monte_carlo_law(seq, statistic, trials=trials, seed=seed)
    records = []
    for x in exact.values:
        p = exact.tail(x)
        p_hat = empirical.tail(x)
        se = math.sqrt(float(p) * (1.0 - float(p)) / trials)
        diff = abs(float(p_hat - p))
        if se == 0.0:
            z = 0.0 if p_hat == p else math.inf
        else:
            z = diff / se
        records.append(
            {"x": x, "exact": p, "empirical": p_hat, "se": se, "z": z}
        )
    return records


# ---------------------------------------------------------------------------
# JSON configuration round-trip


def _prob_to_json(p):
    if isinstance(p, Fraction):
        return str(p)
    if isinstance(p, int):
        return str(Fraction(p))
    return float(p)


def _prob_from_json(j):
    if isinstance(j, str):
        # the plain "p/q" form from ints; every other form Fraction parses
        num, _, den = j.partition("/")
        try:
            if num.isdecimal() and den.isdecimal():
                return Fraction(int(num), int(den))
            return Fraction(j)
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"cannot parse probability {j!r}") from None
    if isinstance(j, bool):
        raise ValueError("probability cannot be a boolean")
    if isinstance(j, int):
        return Fraction(j)
    if isinstance(j, float):
        return j
    raise ValueError(f"cannot parse probability {j!r}")


def sequence_to_config(seq: IndependentSequence) -> dict:
    """Serializable description: instance spec, atoms with exact probabilities,
    and basepoints."""
    inst = seq.instance
    return {
        "instance": inst.spec,
        "variables": [
            {"atoms": [[inst.element_to_json(e), _prob_to_json(p)] for e, p in var.atoms]}
            for var in seq.variables
        ],
        "z0": inst.element_to_json(seq.z0),
        "z1": inst.element_to_json(seq.z1),
    }


def sequence_from_config(config: dict) -> IndependentSequence:
    """Inverse of `sequence_to_config`; rejects unknown keys, and a config
    of the wrong shape with a ValueError that names the field.

    Engine preferences (engine/trials/seed) may ride along in the same file;
    they do not affect the sequence itself.
    """
    if not isinstance(config, dict):
        raise ValueError(f"sequence config must be an object, not {config!r}")
    allowed = {"instance", "variables", "z0", "z1", "label", "engine", "trials", "seed"}
    unknown = set(config) - allowed
    if unknown:
        raise ValueError(f"unknown sequence config keys: {sorted(unknown)}")
    if "instance" not in config or "variables" not in config:
        raise ValueError("sequence config needs 'instance' and 'variables'")
    if config.get("engine") not in (None, "exact", "mc"):
        raise ValueError(f"unknown engine {config['engine']!r}")
    if not isinstance(config["instance"], str):
        raise ValueError(f"'instance' must be a string, not {config['instance']!r}")
    if not isinstance(config["variables"], list):
        raise ValueError(f"'variables' must be a list of objects, not {config['variables']!r}")
    inst = parse_instance(config["instance"])
    variables = []
    for index, entry in enumerate(config["variables"]):
        if not isinstance(entry, dict):
            raise ValueError(f"variable {index} must be an object, not {entry!r}")
        extra = set(entry) - {"atoms"}
        if extra:
            raise ValueError(f"unknown variable config keys: {sorted(extra)}")
        pairs = entry.get("atoms")
        if not isinstance(pairs, list) or not all(
            isinstance(pair, list) and len(pair) == 2 for pair in pairs
        ):
            raise ValueError(
                f"'atoms' of variable {index} must be a list of [element, probability] "
                f"pairs, not {pairs!r}"
            )
        atoms = [(inst.element_from_json(e), _prob_from_json(p)) for e, p in pairs]
        variables.append(DiscreteDistribution.of(atoms))
    z0 = inst.element_from_json(config["z0"]) if "z0" in config else None
    z1 = inst.element_from_json(config["z1"]) if "z1" in config else None
    return IndependentSequence.build(
        inst, variables, z0=z0, z1=z1, label=config.get("label", "")
    )
