"""The state-merging push-forward against its references.

The exact engine is compared with `enumerate_outcomes`, a product over the
joint support, on the full default corpus and on random small sequences;
the Monte Carlo engine is compared with digests of the laws produced by the
engines it replaced, which must not move for an existing seed.
"""

import hashlib
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgverify import (
    DiscreteDistribution,
    IndependentSequence,
    IntegerAdditive,
    PositiveRationalsAdditive,
    TorusGroup,
    check_mogulskii,
    enumerate_outcomes,
    exact_functional_law,
    monte_carlo_law,
    parse_instance,
    sequence_from_config,
)
from sgverify.corpus import CorpusSpec, generate_corpus, generate_sequence
from sgverify.laws import DEFAULT_ENUMERATION_CAP
from sgverify.levy import UniformBoxSampler

F = Fraction

EXACT_SPECS = (
    "cyclic:5",
    "sym:3",
    "graphgroup:3",
    "int",
    "posreal",
    "posreal+1",
    "wordmetric:sym:3",
    "broken:mulreal",
    "broken:subint",
)


def _add(masses, key, prob):
    masses[key] = masses.get(key, 0) + prob


def oracle_laws(seq):
    """Walk-peak, end-distance and step-peak laws by outcome enumeration."""
    inst, z0, z1 = seq.instance, seq.z0, seq.z1
    walk, end, step = {}, {}, {}
    for outcome, prob in enumerate_outcomes(seq):
        position = z0
        peaks, mags = [], []
        for x in outcome:
            position = inst.compose(position, x)
            peaks.append(inst.distance(z1, position))
            mags.append(inst.distance(z0, inst.compose(z0, x)))
        _add(walk, max(peaks), prob)
        _add(end, inst.distance(z1, position), prob)
        _add(step, max(mags), prob)
    return walk, end, step


def oracle_mogulskii(seq, m, a, b):
    """(reach min, reach max, stay, end <= a+b, end >= a-b) by enumeration."""
    inst, z0, z1 = seq.instance, seq.z0, seq.z1
    reach_min = reach_max = end_le = end_ge = 0
    stay = [0] * (seq.n - m + 1)
    for outcome, prob in enumerate_outcomes(seq):
        products = [outcome[0]]
        for x in outcome[1:]:
            products.append(inst.compose(products[-1], x))
        window = products[m - 1 :]
        shifted = [inst.distance(z1, inst.compose(z0, s)) for s in window]
        reach_min += prob if min(shifted) <= a else 0
        reach_max += prob if max(shifted) >= a else 0
        end_le += prob if shifted[-1] <= a + b else 0
        end_ge += prob if shifted[-1] >= a - b else 0
        for i, s in enumerate(window):
            stay[i] += prob if inst.distance(s, products[-1]) <= b else 0
    return reach_min, reach_max, min(stay), end_le, end_ge


def law_masses(law):
    return dict(zip(law.values, law.probs))


def assert_matches_oracle(seq, m, a, b):
    walk, end, step = oracle_laws(seq)
    assert law_masses(exact_functional_law(seq, "walk_peak")) == walk
    assert law_masses(exact_functional_law(seq, "end_distance")) == end
    assert law_masses(exact_functional_law(seq, "step_peak")) == step
    low, high = check_mogulskii(seq, m, a, b)
    reach_min, reach_max, stay, end_le, end_ge = oracle_mogulskii(seq, m, a, b)
    assert low.components == {"reach_prob": reach_min, "stay_prob": stay}
    assert high.components == {"reach_prob": reach_max, "stay_prob": stay}
    assert (low.rhs, high.rhs) == (end_le, end_ge)


def test_exact_engine_matches_enumeration_on_default_corpus():
    for seq in generate_corpus(CorpusSpec(count=10_000, seed=1)):
        ends = seq.end_distance_law.values
        radius = ends[(len(ends) - 1) // 2]
        assert_matches_oracle(seq, (seq.n + 1) // 2, radius, radius)


@settings(max_examples=150, deadline=None)
@given(
    spec=st.sampled_from(EXACT_SPECS),
    seed=st.integers(0, 2**32),
    max_len=st.integers(1, 4),
    max_support=st.integers(1, 3),
    data=st.data(),
)
def test_exact_engine_matches_enumeration_on_random_sequences(
    spec, seed, max_len, max_support, data
):
    inst = parse_instance(spec)
    rng = random.Random(seed)
    seq = generate_sequence(inst, rng, max_len, max_support, "random")
    seq = seq.with_basepoints(inst.random_element(rng), inst.random_element(rng))
    m = data.draw(st.integers(1, seq.n), label="m")
    a = data.draw(st.sampled_from(seq.end_distance_law.values), label="a")
    b = data.draw(st.sampled_from(seq.walk_peak_law.values), label="b")
    assert_matches_oracle(seq, m, a, b)


def pm1_walk(n, up=F(1, 2), inst=None):
    var = DiscreteDistribution.of([(1, up), (-1, 1 - up)])
    return IndependentSequence.build(inst or IntegerAdditive(), [var] * n)


def test_exact_law_beyond_the_outcome_cap_agrees_with_monte_carlo():
    seq = pm1_walk(60)
    assert seq.outcome_count > DEFAULT_ENUMERATION_CAP
    exact = seq.walk_peak_law
    assert sum(exact.probs) == 1
    trials = 20_000
    empirical = monte_carlo_law(seq, "walk_peak", trials=trials, seed=60)
    for x in exact.values:
        p = float(exact.tail(x))
        se = math.sqrt(p * (1.0 - p) / trials)
        assert abs(float(empirical.tail(x)) - p) <= 3 * se


def golden_sequences():
    corpus = generate_corpus(CorpusSpec(count=10, seed=6))
    torus = TorusGroup(1)
    torus2 = TorusGroup(2, "sup")
    mixed = [
        DiscreteDistribution.of([((0.25, 0.5), F(1, 3)), ((0.75, 0.0), F(2, 3))]),
        UniformBoxSampler(torus2, 0.1),
        DiscreteDistribution.of([((0.5, 0.5), F(1, 2)), ((0.0, 0.125), F(1, 2))]),
    ]
    posreal = {
        "instance": "posreal",
        "variables": [
            {"atoms": [["1/2", "1/3"], ["3", "2/3"]]},
            {"atoms": [["5/4", "1"]]},
            {"atoms": [["1", "1/4"], ["2", "3/4"]]},
        ],
    }
    # Columns alternate between two element tuples; "A" and "C" have the
    # same elements with other probabilities.
    alt = {
        "A": DiscreteDistribution.of([(1, F(1, 2)), (-1, F(1, 2))]),
        "B": DiscreteDistribution.of([(2, F(1, 3)), (-1, F(2, 3))]),
        "C": DiscreteDistribution.of([(1, F(1, 5)), (-1, F(4, 5))]),
    }
    # Equal values of different types: int steps and Fraction steps.
    types = {
        "I": DiscreteDistribution.of([(1, F(1, 2)), (2, F(1, 2))]),
        "F": DiscreteDistribution.of([(F(1), F(1, 2)), (F(2), F(1, 2))]),
    }
    return {
        "corpus6-3": corpus[3],
        "corpus6-4": corpus[4],
        "corpus6-9": corpus[9],
        "posreal": sequence_from_config(posreal),
        "torus-sampler": IndependentSequence.build(
            torus, [UniformBoxSampler(torus, 0.5)] * 10
        ),
        "torus2-mixed": IndependentSequence.build(torus2, mixed),
        "pm1-200": pm1_walk(200),
        "pm1-60-skew": pm1_walk(60, F(3, 10)),
        "int-alternating": IndependentSequence.build(
            IntegerAdditive(), [alt[c] for c in "ACBACABBAB" * 3]
        ),
        # Float states that rarely repeat: the table outgrows its cap and
        # starts afresh.
        "torus-drift": IndependentSequence.build(
            torus, [DiscreteDistribution.uniform([(0.1234567,), (0.7654321,)])] * 40
        ),
        "posreal-types": IndependentSequence.build(
            PositiveRationalsAdditive(), [types[c] for c in "IIIIIIIIIF"]
        ),
    }


# (sequence, statistic, seed, trials, chunk size, digest of the law).  The
# rows up to pm1-200 were recorded with the per-trial loop, the rest with the
# per-column push-forward that predates the shared transition table.
GOLDEN_MC = (
    ("corpus6-3", "walk_peak", 11, 3000, 777, "9003843eef46f917"),
    ("corpus6-4", "end_distance", 11, 3000, 8192, "a11b72dfeb43c4a3"),
    ("corpus6-9", "step_peak", 11, 3000, 777, "f62d278c4755c512"),
    ("posreal", "walk_peak", 11, 3000, 777, "809b2fd2c80ad0f2"),
    ("posreal", "step_peak", 11, 3000, 8192, "478899bd6ef31f9a"),
    ("torus-sampler", "walk_peak", 11, 3000, 777, "338c63c3c73b9003"),
    ("torus-sampler", "step_peak", 11, 3000, 8192, "489c6204ca8c6297"),
    ("torus2-mixed", "end_distance", 11, 3000, 777, "8ded451c86df4296"),
    ("torus2-mixed", "walk_peak", 11, 3000, 8192, "dd101546b04b7671"),
    ("pm1-200", "walk_peak", 11, 3000, 777, "ef2e2a05d26618a9"),
    ("pm1-200", "walk_peak", 12, 10_000, 8192, "1717a3ada9f249ff"),
    ("pm1-60-skew", "end_distance", 13, 3000, 777, "87ef4d2d63d00f2a"),
    ("int-alternating", "walk_peak", 13, 3000, 777, "da72dc3fe4310e45"),
    ("int-alternating", "end_distance", 13, 3000, 8192, "f69f9bea3c2a05d6"),
    ("torus-drift", "end_distance", 13, 3000, 777, "30d7eb865c0af418"),
    ("torus-drift", "walk_peak", 13, 3000, 8192, "0f60ae147dec61a3"),
    ("posreal-types", "walk_peak", 13, 3000, 777, "e5ae6cde6b553219"),
    ("posreal-types", "step_peak", 13, 3000, 8192, "3f10976e5619634f"),
)


class CountingIntegers(IntegerAdditive):
    def __init__(self):
        super().__init__()
        self.compose_calls = 0

    def compose(self, a, b):
        self.compose_calls += 1
        return a + b


def test_monte_carlo_steps_each_transition_once_per_epoch():
    # 200 iid columns reach only a few thousand (state, atom) pairs; stepping
    # once per pair and column makes about 19 compose calls per trial.
    inst = CountingIntegers()
    monte_carlo_law(pm1_walk(200, inst=inst), "walk_peak", trials=10_000, seed=12)
    assert inst.compose_calls < 10_000


@pytest.mark.parametrize("chunk_size", [0, -1])
def test_monte_carlo_law_rejects_chunk_size_below_one(chunk_size):
    with pytest.raises(ValueError, match="chunk_size must be >= 1"):
        monte_carlo_law(pm1_walk(3), trials=10, chunk_size=chunk_size)


def law_digest(law):
    blob = repr((law.values, law.probs, law.kind, law.trials, law.seed))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def test_monte_carlo_laws_match_recorded_digests():
    seqs = golden_sequences()
    for name, statistic, seed, trials, chunk, digest in GOLDEN_MC:
        law = monte_carlo_law(
            seqs[name], statistic, trials=trials, seed=seed, chunk_size=chunk
        )
        assert law_digest(law) == digest, (name, statistic, seed, trials, chunk)


@settings(max_examples=60, deadline=None)
@given(
    spec=st.sampled_from(EXACT_SPECS),
    seed=st.integers(0, 2**32),
    trials=st.integers(1, 400),
    statistic=st.sampled_from(("walk_peak", "end_distance", "step_peak")),
    data=st.data(),
)
def test_monte_carlo_law_does_not_depend_on_chunk_size(spec, seed, trials, statistic, data):
    rng = random.Random(seed)
    torus = TorusGroup(1)
    columns = (
        UniformBoxSampler(torus, 0.5),
        DiscreteDistribution.uniform([torus.random_element(rng) for _ in range(2)]),
        DiscreteDistribution.uniform([torus.random_element(rng) for _ in range(3)]),
    )
    seqs = (
        generate_sequence(parse_instance(spec), rng, 5, 3, "random"),
        IndependentSequence.build(torus, [columns[0]] * rng.randint(1, 6)),
        IndependentSequence.build(
            torus, [rng.choice(columns) for _ in range(rng.randint(1, 8))]
        ),
    )
    chunk = data.draw(st.integers(1, trials), label="chunk_size")
    for seq in seqs:
        reference = monte_carlo_law(seq, statistic, trials=trials, seed=seed, chunk_size=8192)
        law = monte_carlo_law(seq, statistic, trials=trials, seed=seed, chunk_size=chunk)
        assert law == reference
