"""Reproducible randomized corpora of sequences for certification sweeps.

A corpus spec pins (count, length and support caps, instance mix, seed);
item i is generated from a child seed derived from (seed, i), so corpora are
byte-identical across runs and machines, and any prefix of a corpus is
itself reproducible.  `iter_corpus` yields the items one at a time, which is
how sweeps read them; `generate_corpus` collects them into a list.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .inequalities import HJParameters
from .laws import DiscreteDistribution, IndependentSequence, ScalarLaw, is_rational
from .reports import check_field_types
from .rng import derive_seed
from .semigroups import MetricSemigroup, parse_instance

DEFAULT_INSTANCES = ("cyclic:6", "sym:3", "graphgroup:3", "int", "posreal+1")


@dataclass(frozen=True)
class CorpusSpec:
    count: int = 10_000
    max_len: int = 5
    max_support: int = 3
    instances: tuple = DEFAULT_INSTANCES
    seed: int = 1

    def __post_init__(self):
        check_field_types(self)
        if self.count < 1:
            raise ValueError("corpus count must be >= 1")
        if self.max_len < 1 or self.max_support < 1:
            raise ValueError("length and support caps must be >= 1")
        if not self.instances:
            raise ValueError("corpus needs at least one instance kind")

    def to_jsonable(self) -> dict:
        return {
            "count": self.count,
            "max_len": self.max_len,
            "max_support": self.max_support,
            "instances": list(self.instances),
            "seed": self.seed,
        }

    @staticmethod
    def from_config(config: dict) -> "CorpusSpec":
        if not isinstance(config, dict):
            raise ValueError(f"corpus config must be an object, not {config!r}")
        allowed = {"count", "max_len", "max_support", "instances", "seed"}
        unknown = set(config) - allowed
        if unknown:
            raise ValueError(f"unknown corpus config keys: {sorted(unknown)}")
        cfg = dict(config)
        if isinstance(cfg.get("instances"), list):
            cfg["instances"] = tuple(cfg["instances"])
        return CorpusSpec(**cfg)


def _distinct_elements(inst: MetricSemigroup, rng: random.Random, count: int) -> list:
    elems: list = []
    attempts = 0
    while len(elems) < count:
        x = inst.random_element(rng)
        if all(not inst.elements_equal(x, e) for e in elems):
            elems.append(x)
        attempts += 1
        if attempts > 80 * count:
            # tiny carriers may not have `count` distinct elements to offer
            break
    return elems


def _random_distribution(
    inst: MetricSemigroup, rng: random.Random, max_support: int
) -> DiscreteDistribution:
    size = rng.randint(1, max_support)
    elems = _distinct_elements(inst, rng, size)
    return DiscreteDistribution.from_weights(elems, [rng.randint(1, 9) for _ in elems])


def generate_sequence(
    inst: MetricSemigroup, rng: random.Random, max_len: int, max_support: int, label: str
) -> IndependentSequence:
    """Random sequence with the default common basepoint.

    Corpus items deliberately keep z0 = z1: the block maximal inequality is
    a statement about walks observed from their own start; with separated
    basepoints and a threshold below their distance it admits one-step
    counterexamples, so certification sweeps stay in the common frame.
    """
    n = rng.randint(1, max_len)
    variables = [_random_distribution(inst, rng, max_support) for _ in range(n)]
    return IndependentSequence.build(inst, variables, label=label)


def iter_corpus(spec: CorpusSpec):
    """The sequences of the corpus one at a time, instance kinds in
    round-robin order; nothing keeps an item once the caller drops it."""
    instances = [parse_instance(s) for s in spec.instances]
    for index in range(spec.count):
        inst = instances[index % len(instances)]
        rng = random.Random(derive_seed(spec.seed, "corpus", index))
        label = f"{inst.spec}#{index}"
        yield generate_sequence(inst, rng, spec.max_len, spec.max_support, label)


def generate_corpus(spec: CorpusSpec) -> list:
    """All sequences of the corpus, as a list."""
    return list(iter_corpus(spec))


def threshold_candidates(law: ScalarLaw) -> list:
    """Natural exact threshold grid for a law: 0, the support, midpoints."""
    values = list(law.values)
    cands = {0 if law.is_rational else 0.0}
    cands.update(values)
    for a, b in zip(values, values[1:]):
        if is_rational(a) and is_rational(b):
            cands.add(Fraction(a + b, 2))
        else:
            cands.add((a + b) / 2)
    return sorted(cands)


def random_hj_parameters(
    rng: random.Random, seq: IndependentSequence, max_blocks: int = 3
) -> HJParameters:
    """Valid random block parameters: sizes summing to at most n+1 and
    thresholds drawn from the exact quantile grids of the sequence's laws."""
    n = seq.n
    k = rng.randint(1, min(max_blocks, n + 1))
    budget = (n + 1) - k
    sizes = []
    for _ in range(k):
        extra = rng.randint(0, budget)
        sizes.append(1 + extra)
        budget -= extra
    walk_cands = threshold_candidates(seq.walk_peak_law)
    step_cands = threshold_candidates(seq.step_peak_law)
    thresholds = tuple(rng.choice(walk_cands) for _ in range(k))
    shift = rng.choice(step_cands)
    return HJParameters(tuple(sizes), thresholds, shift)
