"""Independent step sequences and the laws of their path statistics.

Each statistic is a transition step(state, x) plus value(state), and two
engines push a measure on states forward one variable at a time, merging
equal states:

* the exact engine keeps a dict from state to weight.  When every
  probability is rational the weights are integer numerators over one
  common denominator, the product of each variable's lcm of probability
  denominators, and become Fractions only once equal values of the
  statistic have been merged, so downstream inequality checks certify at
  zero tolerance without a gcd per addition; float probabilities give
  float weights;
* seeded Monte Carlo keeps one state id per trial, where trial t's
  randomness is a pure function of (seed, t), making results independent
  of execution order and chunking.  Runs of columns with the same
  elements share a table from (state, atom) to the next state, so an iid
  walk steps each transition once per chunk rather than once per column.

The statistics of a path x_1..x_n with basepoints z0, z1 are the partial
products s_j = x_1...x_j, the running peak distance max_{i<=j} d(z1, z0*s_i),
the step magnitudes d(z0, z0*x_j), and their running maximum.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import itemgetter
from typing import Iterable, Iterator, Sequence

import numpy as np

from .rng import uniform_block
from .semigroups import MetricSemigroup, parse_instance

DEFAULT_ENUMERATION_CAP = 10_000_000

WALK_PEAK = "walk_peak"
STEP_PEAK = "step_peak"
END_DISTANCE = "end_distance"


def is_rational(x) -> bool:
    return isinstance(x, (int, Fraction)) and not isinstance(x, bool)


# Largest mass error allowed when float probabilities should sum to one.
MASS_TOL = 1e-12


class EnumerationCapError(ValueError):
    """An exact law needs more states (or outcomes) than the cap allows."""


# ---------------------------------------------------------------------------
# distributions over semigroup elements


@dataclass(frozen=True)
class DiscreteDistribution:
    """Finitely supported law on a carrier: ((element, probability), ...).

    Probabilities are Fractions (exact mode) or floats; they must be positive
    and sum to one (exactly when rational, else within `MASS_TOL`).
    """

    atoms: tuple

    @staticmethod
    def of(
        pairs: Iterable[tuple],
        instance: MetricSemigroup | None = None,
        merge: bool = False,
    ) -> "DiscreteDistribution":
        merged: dict = {}
        for element, prob in pairs:
            if instance is not None:
                instance.require_element(element)
            if prob < 0:
                raise ValueError(f"negative probability {prob} for atom {element!r}")
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
        return DiscreteDistribution(atoms)

    @staticmethod
    def point_mass(element) -> "DiscreteDistribution":
        return DiscreteDistribution(((element, Fraction(1)),))

    @staticmethod
    def uniform(elements: Sequence) -> "DiscreteDistribution":
        n = len(elements)
        return DiscreteDistribution.of([(e, Fraction(1, n)) for e in elements])

    @property
    def support(self) -> tuple:
        return tuple(e for e, _ in self.atoms)

    @property
    def is_rational(self) -> bool:
        return all(is_rational(p) for _, p in self.atoms)


class Sampler:
    """Draws one element from a fixed number of uniforms (duck-typed).

    Implementations provide ``width`` (uniforms consumed per draw) and
    ``draw(u)`` mapping a length-`width` float sequence to an element.
    """

    width: int = 1

    def draw(self, u: Sequence[float]):
        raise NotImplementedError


def _variable_is_discrete(var) -> bool:
    return isinstance(var, DiscreteDistribution)


# ---------------------------------------------------------------------------
# scalar laws on [0, oo)


@dataclass(frozen=True)
class ScalarLaw:
    """A law on [0, oo): sorted distinct values with positive weights.

    ``kind`` is "exact" for enumerated/analytic laws and "empirical" for
    Monte Carlo output, which keeps (trials, seed) provenance and represents
    the empirical measure exactly as counts/trials.
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
        suffix = [0] * (len(self.values) + 1)
        for i in range(len(self.values) - 1, -1, -1):
            suffix[i] = suffix[i + 1] + self.probs[i]
        object.__setattr__(self, "_suffix", tuple(suffix))

    @staticmethod
    def from_pairs(
        pairs: Iterable[tuple],
        kind: str = "exact",
        trials: int | None = None,
        seed: int | None = None,
    ) -> "ScalarLaw":
        merged: dict = {}
        for v, p in pairs:
            if p < 0:
                raise ValueError(f"negative probability {p}")
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
    def from_counts(counts: dict, trials: int, seed: int | None) -> "ScalarLaw":
        pairs = [(v, Fraction(c, trials)) for v, c in counts.items()]
        return ScalarLaw.from_pairs(pairs, kind="empirical", trials=trials, seed=seed)

    @staticmethod
    def point_mass(value) -> "ScalarLaw":
        return ScalarLaw((value,), (Fraction(1),))

    @property
    def is_rational(self) -> bool:
        return all(is_rational(v) for v in self.values) and all(
            is_rational(p) for p in self.probs
        )

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
        """E[X^p]; exact (Fraction) when p is a positive int on a rational law.

        Memoised per (type(p), p) in the law's own __dict__.
        """
        if p <= 0:
            raise ValueError("moment order must be positive")
        memo = self.__dict__.setdefault("_moments", {})
        key = (type(p), p)
        if key not in memo:
            if isinstance(p, int) and not isinstance(p, bool) and self.is_rational:
                memo[key] = sum(prob * v**p for v, prob in zip(self.values, self.probs))
            else:
                memo[key] = sum(
                    float(prob) * float(v) ** float(p)
                    for v, prob in zip(self.values, self.probs)
                )
        return memo[key]

    def moment_root(self, p):
        """E[X^p]^(1/p); kept exact for p == 1, float otherwise."""
        m = self.moment(p)
        if p == 1:
            return m
        return float(m) ** (1.0 / float(p))

    def mean(self):
        return self.moment(1)

    def scale(self, factor) -> "ScalarLaw":
        if factor <= 0:
            raise ValueError("scale factor must be positive")
        return ScalarLaw(
            tuple(v * factor for v in self.values),
            self.probs,
            kind=self.kind,
            trials=self.trials,
            seed=self.seed,
        )

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


@dataclass(frozen=True)
class PathTrace:
    """Per-index path statistics for one outcome."""

    products: tuple
    peaks: tuple  # running max of d(z1, z0 * s_j)
    steps: tuple  # step magnitudes d(z0, z0 * x_j)
    step_peaks: tuple  # running max of step magnitudes


@dataclass(eq=False)
class IndependentSequence:
    """A finite sequence of independent steps on one instance.

    Variables are `DiscreteDistribution`s (exact + Monte Carlo engines) or
    `Sampler`s (Monte Carlo only).  Basepoints default to the identity on
    monoids and to the first atom of the first variable otherwise.
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
            if _variable_is_discrete(var):
                for e, _ in var.atoms:
                    instance.require_element(e)
            elif not hasattr(var, "draw"):
                raise TypeError(f"variable {var!r} is neither discrete nor a sampler")
        if z0 is None or z1 is None:
            if instance.has_identity:
                default = instance.identity
            elif _variable_is_discrete(variables[0]):
                default = variables[0].atoms[0][0]
            else:
                raise ValueError("cannot default basepoints without identity or atoms")
            z0 = default if z0 is None else z0
            z1 = default if z1 is None else z1
        instance.require_element(z0)
        instance.require_element(z1)
        return IndependentSequence(instance, variables, z0, z1, label)

    @property
    def n(self) -> int:
        return len(self.variables)

    @property
    def is_exact(self) -> bool:
        return all(_variable_is_discrete(v) for v in self.variables)

    @property
    def outcome_count(self) -> int:
        if not self.is_exact:
            raise ValueError("sequence has sampler-backed variables")
        return math.prod(len(v.atoms) for v in self.variables)

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

    def release_derived(self) -> None:
        """Drop what `derived` keeps and the moments memoised on the cached
        laws; the cached laws themselves stay."""
        self.__dict__.pop("_derived", None)
        for value in self.__dict__.values():
            if isinstance(value, ScalarLaw):
                value.__dict__.pop("_moments", None)

    @cached_property
    def magnitude_laws(self) -> tuple:
        """Law of each step's magnitude d(z0, z0 * x); basepoint-independent."""
        laws = []
        for var in self.variables:
            if not _variable_is_discrete(var):
                raise ValueError("magnitude laws need discrete variables")
            pairs = [
                (self.instance.distance(self.z0, self.instance.compose(self.z0, e)), p)
                for e, p in var.atoms
            ]
            laws.append(ScalarLaw.from_pairs(pairs))
        return tuple(laws)

    @cached_property
    def walk_peak_law(self) -> ScalarLaw:
        return exact_functional_law(self, WALK_PEAK)

    @cached_property
    def step_peak_law(self) -> ScalarLaw:
        """Law of the running maximum of step magnitudes (independent product)."""
        grid = sorted({v for law in self.magnitude_laws for v in law.values})
        pairs = []
        prev_cdf = 0
        for y in grid:
            cdf = math.prod(law.prob_le(y) for law in self.magnitude_laws)
            mass = cdf - prev_cdf
            if mass > 0:
                pairs.append((y, mass))
            prev_cdf = cdf
        return ScalarLaw.from_pairs(pairs)

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

        def step_peak(peak, x):
            mag = distance(z0, compose(z0, x))
            return mag if peak is None or mag > peak else peak

        return None, step_peak, lambda peak: peak
    raise ValueError(f"unknown statistic {statistic!r}")


def _running(statistic: tuple, outcome: Sequence) -> tuple:
    """Values of a statistic along one outcome, after each step."""
    state, step, value = statistic
    values = []
    for x in outcome:
        state = step(state, x)
        values.append(value(state))
    return tuple(values)


def path_trace(seq: IndependentSequence, outcome: Sequence) -> PathTrace:
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


def _exact_weights(variables) -> tuple:
    """(start weight, weighted atoms of each variable, prob) for the exact
    push-forward; `prob(total)` turns a sum of final weights into a
    probability, keeping an empty sum the int 0.

    When every probability is rational, a variable's atoms carry the integer
    weights p * L, with L the lcm of its probability denominators, so the
    weights stay integers over the product D of the L's and `prob(total)`
    is Fraction(total, D).  Otherwise the weights are the products of the
    probabilities themselves and `prob` is the identity.
    """
    if not all(var.is_rational for var in variables):
        return Fraction(1), [var.atoms for var in variables], lambda total: total
    columns = []
    denominator = 1
    for var in variables:
        lcm, weights = _over_lcm([p for _, p in var.atoms])
        columns.append(tuple(zip(var.support, weights)))
        denominator *= lcm
    return 1, columns, lambda total: Fraction(total, denominator) if total else total


def _over_lcm(probs) -> tuple:
    """(L, [p * L for each p]), L the lcm of the rational probabilities'
    denominators, so the weights are ints."""
    lcm = math.lcm(*(p.denominator for p in probs))
    return lcm, [p.numerator * (lcm // p.denominator) for p in probs]


def _advance(states: dict, atoms, step, index: int, cap: int) -> dict:
    """Push a measure on states through step `index` (1-based), whose
    (element, weight) pairs are `atoms`; equal states merge and their
    weights add.

    The cap bounds the (state, atom) pairs of one layer and is checked before
    the layer is expanded.
    """
    if len(states) * len(atoms) > cap:
        raise EnumerationCapError(
            f"{len(states)} states reached before step {index}; its "
            f"{len(atoms)} atoms would exceed the state cap {cap}"
        )
    out: dict = {}
    for state, weight in states.items():
        for x, prob in atoms:
            nxt = step(state, x)
            mass = weight * prob
            seen = out.get(nxt)
            out[nxt] = mass if seen is None else seen + mass
    return out


def enumerate_outcomes(
    seq: IndependentSequence, cap: int = DEFAULT_ENUMERATION_CAP
) -> Iterator[tuple]:
    """Yield (outcome, probability) over the joint support.

    The exact engine does not use this; it is the reference that tests
    compare the state-merging push-forward against.
    """
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


def exact_functional_law(
    seq: IndependentSequence,
    statistic,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> ScalarLaw:
    """Law of a path statistic under the product measure.

    `cap` bounds the merged states times the atoms of the next step.
    """
    start, step, value = _statistic(seq, statistic)
    if not seq.is_exact:
        raise ValueError("exact laws need finitely supported variables")
    one, columns, prob = _exact_weights(seq.variables)
    states = {start: one}
    for index, atoms in enumerate(columns, 1):
        states = _advance(states, atoms, step, index, cap)
    merged: dict = {}
    for state, weight in states.items():
        v = value(state)
        merged[v] = merged.get(v, 0) + weight
    return ScalarLaw.from_pairs((v, prob(w)) for v, w in merged.items())


# ---------------------------------------------------------------------------
# Monte Carlo engine


def monte_carlo_law(
    seq: IndependentSequence,
    statistic=WALK_PEAK,
    trials: int = 10_000,
    seed: int = 0,
    chunk_size: int = 8192,
) -> ScalarLaw:
    """Empirical law of a path functional from seeded Monte Carlo.

    Trial t consumes a fixed window of a counter-based uniform stream keyed
    by `seed`, so the law is reproducible and independent of chunking.  On
    exact carriers the sampled functional values stay exact (Fraction/int)
    and the empirical measure is represented as counts/trials.

    Each chunk keeps one state id per trial.  A sampler column steps once
    per trial.  A discrete column steps once per distinct (state, atom)
    pair, and a run of consecutive discrete columns whose atoms have the
    same elements (an epoch; every column of an iid walk) shares one
    transition table next[state * k + atom], so each pair is stepped once
    per epoch.  An epoch ends at a column with other elements (compared by
    value and by repr, so 1 and Fraction(1) differ), at a sampler column,
    and at a column reached with more states x atoms than twice the trials
    of the chunk; the next column starts a fresh table, so a table never
    holds more than 2 * chunk_size entries.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if chunk_size < 1:
        raise ValueError("chunk_size must be >= 1")
    start, step, value = _statistic(seq, statistic)
    # (variable, cumulative probabilities, elements, same elements as the
    # column before); samplers have no cumulative probabilities.
    columns = []
    previous = None
    for var in seq.variables:
        if _variable_is_discrete(var):
            cum = np.cumsum([float(p) for _, p in var.atoms])
            cum[-1] = 1.0
            elements = [e for e, _ in var.atoms]
            same = elements == previous and repr(elements) == repr(previous)
            columns.append((var, cum, elements, same))
            previous = elements
        else:
            columns.append((var, None, None, False))
            previous = None
    width = sum(var.width if cum is None else 1 for var, cum, _, _ in columns)
    counts: dict = {}
    done = 0
    while done < trials:
        batch = min(chunk_size, trials - done)
        u = uniform_block(seed, width, done, batch)
        states = [start]
        ids = np.zeros(batch, dtype=np.intp)
        col = 0
        for var, cum, elements, same in columns:
            if cum is None:
                w = var.width
                states = [
                    step(states[i], var.draw(u[row, col : col + w]))
                    for row, i in enumerate(ids.tolist())
                ]
                ids = np.arange(batch)
                col += w
                continue
            k = len(elements)
            codes = ids * k + np.searchsorted(cum, u[:, col], side="right")
            col += 1
            if same and len(states) * k <= 2 * batch:
                # Rows for the states added since the last column.
                fresh = np.full(len(states) * k - len(table), -1, dtype=np.intp)
                table = np.concatenate([table, fresh])
                missing = np.unique(codes[table[codes] < 0])
                table[missing] = [
                    interned.setdefault(step(states[p // k], elements[p % k]), len(interned))
                    for p in missing.tolist()
                ]
                ids = table[codes]
            else:
                pairs, inverse = np.unique(codes, return_inverse=True)
                interned = {}
                new_ids = [
                    interned.setdefault(step(states[p // k], elements[p % k]), len(interned))
                    for p in pairs.tolist()
                ]
                ids = np.asarray(new_ids, dtype=np.intp)[inverse]
                table = np.empty(0, dtype=np.intp)
            states = list(interned)
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
        return Fraction(j)
    if isinstance(j, bool):
        raise ValueError("probability cannot be a boolean")
    if isinstance(j, int):
        return Fraction(j)
    if isinstance(j, float):
        return j
    raise ValueError(f"cannot parse probability {j!r}")


def sequence_to_config(seq: IndependentSequence) -> dict:
    """Serializable description: instance spec, atoms with exact probabilities,
    and basepoints.  Sampler-backed variables cannot be serialized."""
    inst = seq.instance
    variables = []
    for var in seq.variables:
        if not _variable_is_discrete(var):
            raise ValueError("cannot serialize sampler-backed variables")
        variables.append(
            {
                "atoms": [
                    [inst.element_to_json(e), _prob_to_json(p)] for e, p in var.atoms
                ]
            }
        )
    return {
        "instance": inst.spec,
        "variables": variables,
        "z0": inst.element_to_json(seq.z0),
        "z1": inst.element_to_json(seq.z1),
    }


def sequence_from_config(config: dict) -> IndependentSequence:
    """Inverse of `sequence_to_config`; rejects unknown keys.

    Engine preferences (engine/trials/seed) may ride along in the same file;
    they do not affect the sequence itself.
    """
    allowed = {"instance", "variables", "z0", "z1", "label", "engine", "trials", "seed"}
    unknown = set(config) - allowed
    if unknown:
        raise ValueError(f"unknown sequence config keys: {sorted(unknown)}")
    if "instance" not in config or "variables" not in config:
        raise ValueError("sequence config needs 'instance' and 'variables'")
    if config.get("engine") not in (None, "exact", "mc"):
        raise ValueError(f"unknown engine {config['engine']!r}")
    inst = parse_instance(config["instance"])
    variables = []
    for entry in config["variables"]:
        extra = set(entry) - {"atoms"}
        if extra:
            raise ValueError(f"unknown variable config keys: {sorted(extra)}")
        atoms = [
            (inst.element_from_json(e), _prob_from_json(p)) for e, p in entry["atoms"]
        ]
        variables.append(DiscreteDistribution.of(atoms, instance=inst))
    z0 = inst.element_from_json(config["z0"]) if "z0" in config else None
    z1 = inst.element_from_json(config["z1"]) if "z1" in config else None
    return IndependentSequence.build(
        inst, variables, z0=z0, z1=z1, label=config.get("label", "")
    )
