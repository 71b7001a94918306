"""The state-merging push-forward against its references.

The exact engine is compared with `enumerate_outcomes`, a product over the
joint support, on the full default corpus, on random small sequences and on
sequences that mix int and Fraction probabilities, in value and in repr;
every Mogulskii stay probability is also compared with `pair_pass_stay`,
the pass over pairs per window index that the suffix magnitudes replaced,
and a carrier that is not associative, or whose magnitude depends on the
base point, must be refused.  With float probabilities the engine is
compared with digests recorded before rational weights became integer
numerators, and the float stay probabilities with the exact ones.  The magnitude and step-peak laws, which the
same push-forward builds, are compared with the product of the magnitudes'
CDFs that built them before, in value, in repr and in their tail sums.  The Monte Carlo engine is compared with digests
of the laws produced by the engines it replaced, which must not move for an
existing seed, and with `reference_monte_carlo_law`, the column loop it
replaced, in law and in the number of steps taken.
"""

import hashlib
import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgverify import (
    DiscreteDistribution,
    IndependentSequence,
    IntegerAdditive,
    PositiveRationalsAdditive,
    ScalarLaw,
    TorusGroup,
    check_mogulskii,
    exact_functional_law,
    monte_carlo_law,
    parse_instance,
    sequence_from_config,
)
from sgverify import inequalities, laws
from sgverify.corpus import CorpusSpec, _distinct_elements, generate_corpus, generate_sequence
from sgverify.inequalities import _mogulskii_probabilities
from sgverify.laws import DEFAULT_ENUMERATION_CAP, MAX_THRESHOLD_ATOMS, _statistic
from sgverify.rng import derive_seed, uniform_block

from law_oracles import (
    enumerate_outcomes,
    pair_pass_stay,
    point_mass,
    product_magnitude_laws,
    product_step_peak_law,
    uniform,
)

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
# the carriers that Mogulskii accepts
METRIC_SEMIGROUP_SPECS = tuple(
    spec for spec in EXACT_SPECS
    if parse_instance(spec).is_associative and parse_instance(spec).is_magnitude_invariant
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
    """(reach min, reach max, end <= a+b, end >= a-b, [stay_k for k = m..n])
    by enumeration."""
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
    return reach_min, reach_max, end_le, end_ge, stay


def assert_same(value, oracle):
    """Equal, and equal in repr: an int 0 or a Fraction stays what it was."""
    assert value == oracle and repr(value) == repr(oracle), (value, oracle)


def assert_law_matches(law, masses):
    assert_same(list(zip(law.values, law.probs)), sorted(masses.items()))


def assert_matches_oracle(seq, m, a, b):
    walk, end, step = oracle_laws(seq)
    assert_law_matches(exact_functional_law(seq, "walk_peak"), walk)
    assert_law_matches(exact_functional_law(seq, "end_distance"), end)
    assert_law_matches(exact_functional_law(seq, "step_peak"), step)
    if not (seq.instance.is_associative and seq.instance.is_magnitude_invariant):
        with pytest.raises(ValueError, match="associative"):
            check_mogulskii(seq, m, a, b)
        return
    low, high = check_mogulskii(seq, m, a, b)
    oracle = oracle_mogulskii(seq, m, a, b)
    assert_same(_mogulskii_probabilities(seq, m, a, b), oracle)
    reach_min, reach_max, end_le, end_ge, stay = oracle
    assert_same(low.components, {"reach_prob": reach_min, "stay_prob": min(stay)})
    assert_same(high.components, {"reach_prob": reach_max, "stay_prob": min(stay)})
    assert_same((low.rhs, high.rhs), (end_le, end_ge))


def assert_stay_matches_pair_pass(seq, b):
    """Every stay_k, at every window start m, equals the pair pass's."""
    stay = pair_pass_stay(seq, 1, b)
    for m in range(1, seq.n + 1):
        assert_same(_mogulskii_probabilities(seq, m, b, b)[-1], stay[m - 1 :])


def test_exact_engine_matches_enumeration_on_default_corpus(fresh_corpus):
    for seq in fresh_corpus:
        ends = seq.end_distance_law.values
        radius = ends[(len(ends) - 1) // 2]
        assert_matches_oracle(seq, (seq.n + 1) // 2, radius, radius)
        assert_stay_matches_pair_pass(seq, radius)


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


@settings(max_examples=200, deadline=None)
@given(
    spec=st.sampled_from(METRIC_SEMIGROUP_SPECS),
    seed=st.integers(0, 2**32),
    max_len=st.integers(1, 6),
    max_support=st.integers(1, 3),
    data=st.data(),
)
def test_stay_probabilities_match_the_pair_pass(spec, seed, max_len, max_support, data):
    inst = parse_instance(spec)
    rng = random.Random(seed)
    seq = generate_sequence(inst, rng, max_len, max_support, "random")
    seq = seq.with_basepoints(inst.random_element(rng), inst.random_element(rng))
    radii = sorted(
        {0, *seq.end_distance_law.values, *seq.walk_peak_law.values, *seq.step_peak_law.values}
    )
    m = data.draw(st.integers(1, seq.n), label="m")
    a = data.draw(st.sampled_from(radii), label="a")
    b = data.draw(st.sampled_from(radii), label="b")
    probabilities = _mogulskii_probabilities(seq, m, a, b)
    assert_same(probabilities, oracle_mogulskii(seq, m, a, b))
    assert_same(probabilities[-1], pair_pass_stay(seq, m, b))


def test_exact_engine_matches_enumeration_with_int_and_fraction_probabilities():
    line = IntegerAdditive()
    sure = DiscreteDistribution.of([(2, 1)])
    coin = DiscreteDistribution.of([(1, F(1, 3)), (-1, F(2, 3))])
    mixed = DiscreteDistribution.of([(3, F(1, 2)), (-2, F(1, 4)), (0, F(1, 4))])
    posreal = PositiveRationalsAdditive()
    seqs = [
        IndependentSequence.build(line, [sure, sure, sure]),
        IndependentSequence.build(line, [sure, coin, mixed, sure, coin]),
        IndependentSequence.build(line, [coin, sure, mixed], z0=1, z1=-2),
        IndependentSequence.build(
            posreal,
            [
                DiscreteDistribution.of([(F(1, 2), 1)]),
                DiscreteDistribution.of([(F(3), F(3, 7)), (1, F(4, 7))]),
                DiscreteDistribution.of([(2, F(1, 2)), (F(5, 2), F(1, 2))]),
            ],
        ),
    ]
    for seq in seqs:
        ends = seq.end_distance_law.values
        for m in range(1, seq.n + 1):
            for radius in (0, ends[(len(ends) - 1) // 2], ends[-1]):
                assert_matches_oracle(seq, m, radius, radius)


def pm1_walk(n, up=F(1, 2), inst=None):
    var = DiscreteDistribution.of([(1, up), (-1, 1 - up)])
    return IndependentSequence.build(inst or IntegerAdditive(), [var] * n)


def seeded_pm1_walk(n, seed=1):
    """n independent +-1 steps, P(+1) drawn from {3/10, ..., 7/10}."""
    draws = random.Random(derive_seed(seed, "long-walk", n))
    steps = []
    for _ in range(n):
        up = F(draws.randint(3, 7), 10)
        steps.append(DiscreteDistribution.of([(1, up), (-1, 1 - up)]))
    return IndependentSequence.build(IntegerAdditive(), steps)


def median_end_distance(seq):
    ends = seq.end_distance_law.values
    return ends[(len(ends) - 1) // 2]


@pytest.mark.parametrize("m", [1, 50])
def test_mogulskii_on_a_long_walk_holds_exactly(m):
    seq = seeded_pm1_walk(100)
    radius = median_end_distance(seq)
    for report in check_mogulskii(seq, m, radius, radius):
        assert report.engine["arithmetic"] == "rational"
        assert report.slack >= 0, report.to_jsonable()


@pytest.mark.parametrize("m", [1, 15])
def test_mogulskii_on_a_30_step_walk_matches_the_pair_pass(m):
    seq = seeded_pm1_walk(30)
    radius = median_end_distance(seq)
    stay = pair_pass_stay(seq, m, radius)
    assert_same(_mogulskii_probabilities(seq, m, radius, radius)[-1], stay)
    for report in check_mogulskii(seq, m, radius, radius):
        assert_same(report.components["stay_prob"], min(stay))


def iid_walk(spec, n, seed=1):
    """n copies of one 3-atom step on `spec`, drawn from `seed`."""
    inst = parse_instance(spec)
    rng = random.Random(derive_seed(seed, "iid-walk", spec))
    elements = _distinct_elements(inst, rng, 3)
    step = DiscreteDistribution.from_weights(elements, [rng.randint(1, 9) for _ in elements])
    return IndependentSequence.build(inst, [step] * n)


@pytest.mark.parametrize(
    "spec, n", [(spec, 12 if "posreal" in spec else 30) for spec in METRIC_SEMIGROUP_SPECS]
)
def test_mogulskii_on_a_long_walk_of_each_carrier_matches_the_pair_pass(spec, n):
    seq = iid_walk(spec, n)
    radius = median_end_distance(seq)
    stay = pair_pass_stay(seq, 1, radius)
    for m in (1, n // 2):
        assert_same(_mogulskii_probabilities(seq, m, radius, radius)[-1], stay[m - 1 :])
        for report in check_mogulskii(seq, m, radius, radius):
            assert_same(report.components["stay_prob"], min(stay[m - 1 :]))


def test_mogulskii_needs_the_state_cap_for_each_layer_only(monkeypatch):
    # every layer of either pass stays within 100 (state, atom) pairs,
    # though 11 partial products at window index 10 times 11 suffix
    # products do not
    seq = pm1_walk(20)
    monkeypatch.setattr(inequalities, "DEFAULT_ENUMERATION_CAP", 100)
    assert_same(_mogulskii_probabilities(seq, 1, 10**6, 1)[-1], pair_pass_stay(seq, 1, 1))
    assert all(report.holds for report in check_mogulskii(seq, 1, 10**6, 1))


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
    # torus:2 columns of 2 and 4 atoms, the 4-atom one in runs of two
    torus2 = [
        DiscreteDistribution.of([((0.25, 0.5), F(1, 3)), ((0.75, 0.0), F(2, 3))]),
        uniform([(0.1, 0.9), (0.95, 0.05), (0.0, 0.1), (0.9, 0.0)]),
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
        "torus2": IndependentSequence.build(
            TorusGroup(2), [torus2[i] for i in (0, 1, 1, 2)] * 3
        ),
        "pm1-200": pm1_walk(200),
        "pm1-60-skew": pm1_walk(60, F(3, 10)),
        "int-alternating": IndependentSequence.build(
            IntegerAdditive(), [alt[c] for c in "ACBACABBAB" * 3]
        ),
        # Float states that rarely repeat: the table outgrows its cap and
        # starts afresh.
        "torus-drift": IndependentSequence.build(
            torus, [uniform([(0.1234567,), (0.7654321,)])] * 40
        ),
        "posreal-types": IndependentSequence.build(
            PositiveRationalsAdditive(), [types[c] for c in "IIIIIIIIIF"]
        ),
    }


# (sequence, statistic, seed, trials, chunk size, digest of the law).  The
# rows up to pm1-200 were recorded with the per-trial loop, the torus2 rows
# with the atom-matrix engine, and the rest with the per-column push-forward
# that predates the shared transition table.
GOLDEN_MC = (
    ("corpus6-3", "walk_peak", 11, 3000, 777, "9003843eef46f917"),
    ("corpus6-4", "end_distance", 11, 3000, 8192, "a11b72dfeb43c4a3"),
    ("corpus6-9", "step_peak", 11, 3000, 777, "f62d278c4755c512"),
    ("posreal", "walk_peak", 11, 3000, 777, "809b2fd2c80ad0f2"),
    ("posreal", "step_peak", 11, 3000, 8192, "478899bd6ef31f9a"),
    ("torus2", "end_distance", 11, 3000, 777, "e6f776bffcc5864f"),
    ("torus2", "walk_peak", 11, 3000, 8192, "2b9d7d6998063eb5"),
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


def floated(seq):
    """The sequence with each probability p replaced by float(p)."""
    return seq.with_variables(
        [DiscreteDistribution.of([(e, float(p)) for e, p in v.atoms]) for v in seq.variables]
    )


def float_sequences():
    """Sequences with float probabilities, whose exact laws multiply the
    probabilities themselves."""
    corpus = generate_corpus(CorpusSpec(count=10, seed=6))
    line = IntegerAdditive()
    return {
        "float-corpus6-3": floated(corpus[3]),
        "float-corpus6-4": floated(corpus[4]),
        "float-corpus6-9": floated(corpus[9]),
        "float-pm1-12": pm1_walk(12, 0.3),
        "float-int-mixed": IndependentSequence.build(
            line,
            [
                DiscreteDistribution.of([(1, F(1, 3)), (-1, F(2, 3))]),
                DiscreteDistribution.of([(2, 0.1), (-1, 0.9)]),
                DiscreteDistribution.of([(1, 1)]),
                DiscreteDistribution.of([(3, 0.25), (-2, 0.5), (0, 0.25)]),
            ],
        ),
        "float-torus": IndependentSequence.build(
            TorusGroup(1), [DiscreteDistribution.of([((0.125,), 0.3), ((0.75,), 0.7)])] * 8
        ),
    }


def float_digest(seq, what):
    if what == "mogulskii":
        ends = seq.end_distance_law.values
        radius = ends[(len(ends) - 1) // 2]
        blob = repr(check_mogulskii(seq, (seq.n + 1) // 2, radius, radius))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]
    return law_digest(exact_functional_law(seq, what))


# (sequence, statistic or "mogulskii", digest of the repr), recorded with the
# engine that multiplied Fraction and float probabilities directly; the
# Mogulskii rows of corpus6-4, corpus6-9 and pm1-12 were re-recorded when the
# stay probabilities came to be summed over the suffix products alone, which
# moved their floats in the last bits.
GOLDEN_FLOAT = (
    ("float-corpus6-3", "walk_peak", "04f5ab65cccce48f"),
    ("float-corpus6-3", "end_distance", "b697eaabb2e401f3"),
    ("float-corpus6-3", "step_peak", "46fe9d8526ab3744"),
    ("float-corpus6-3", "mogulskii", "aa65f623bec3a166"),
    ("float-corpus6-4", "walk_peak", "d017068002ffc780"),
    ("float-corpus6-4", "end_distance", "d017068002ffc780"),
    ("float-corpus6-4", "step_peak", "51cfc2a7097f6b91"),
    ("float-corpus6-4", "mogulskii", "a685a141176b4cdf"),
    ("float-corpus6-9", "walk_peak", "e217999c6fb84088"),
    ("float-corpus6-9", "end_distance", "e217999c6fb84088"),
    ("float-corpus6-9", "step_peak", "18ad6354456805da"),
    ("float-corpus6-9", "mogulskii", "c4636fd5369dd116"),
    ("float-pm1-12", "walk_peak", "559b59d80aa90ca3"),
    ("float-pm1-12", "end_distance", "47067682288269e3"),
    ("float-pm1-12", "step_peak", "6fcb729ca604f0e1"),
    ("float-pm1-12", "mogulskii", "541445b001e166e7"),
    ("float-int-mixed", "walk_peak", "524d3cbcd33e081c"),
    ("float-int-mixed", "end_distance", "e7dda7c571410e97"),
    ("float-int-mixed", "step_peak", "aa3856cf935aeb63"),
    ("float-int-mixed", "mogulskii", "669407ca9b6751ee"),
    ("float-torus", "walk_peak", "b1aa433710c52b40"),
    ("float-torus", "end_distance", "8e74adb555c81aa3"),
    ("float-torus", "step_peak", "8d6fa0216856a5d8"),
    ("float-torus", "mogulskii", "1118dd77479200a2"),
)


def test_float_probability_laws_match_recorded_digests():
    seqs = float_sequences()
    for name, what, digest in GOLDEN_FLOAT:
        assert float_digest(seqs[name], what) == digest, (name, what)


def exact_stay(seq, b):
    """[P(d(s_k, s_n) <= b) for k = 1..n] with each float probability p read
    as the exact Fraction(p), by enumeration."""
    inst = seq.instance
    stay = [Fraction(0)] * seq.n
    for combo in itertools.product(*(var.atoms for var in seq.variables)):
        products = list(itertools.accumulate((e for e, _ in combo), inst.compose))
        prob = math.prod(Fraction(p) for _, p in combo)
        for k, s in enumerate(products):
            if inst.distance(s, products[-1]) <= b:
                stay[k] += prob
    return stay


def test_float_stay_probabilities_are_within_8_ulps_of_the_exact_stays():
    for seq in map(floated, generate_corpus(CorpusSpec(count=2000, seed=6))):
        radius = median_end_distance(seq)
        stay = _mogulskii_probabilities(seq, 1, radius, radius)[-1]
        for value, exact in zip(stay, map(float, exact_stay(seq, radius)), strict=True):
            assert abs(value - exact) <= 8 * math.ulp(exact), (seq.label, value, exact)


def assert_same_scalar_law(law, reference):
    assert law.values == reference.values
    assert repr(law.probs) == repr(reference.probs)
    assert repr(law._suffix) == repr(reference._suffix)


def assert_matches_cdf_product(seq):
    for law, reference in zip(seq.magnitude_laws, product_magnitude_laws(seq), strict=True):
        assert_same_scalar_law(law, reference)
    assert_same_scalar_law(seq.step_peak_law, product_step_peak_law(seq))


def test_magnitude_and_step_peak_laws_match_the_cdf_product_on_default_corpus(fresh_corpus):
    for seq in fresh_corpus:
        assert_matches_cdf_product(seq)


@settings(max_examples=150, deadline=None)
@given(
    spec=st.sampled_from(EXACT_SPECS),
    seed=st.integers(0, 2**32),
    max_len=st.integers(1, 6),
    max_support=st.integers(1, 4),
)
def test_magnitude_and_step_peak_laws_match_the_cdf_product_on_random_sequences(
    spec, seed, max_len, max_support
):
    inst = parse_instance(spec)
    rng = random.Random(seed)
    seq = generate_sequence(inst, rng, max_len, max_support, "random")
    seq = seq.with_basepoints(inst.random_element(rng), inst.random_element(rng))
    assert_matches_cdf_product(seq)


def step_peak_error(law, seq):
    """Largest distance of the law's probabilities from the step-peak law
    of `seq` with each float probability p read as the exact Fraction(p)."""
    inst, z0 = seq.instance, seq.z0
    exact = {}
    for combo in itertools.product(*(var.atoms for var in seq.variables)):
        peak = max(inst.distance(z0, inst.compose(z0, e)) for e, _ in combo)
        _add(exact, peak, math.prod(Fraction(p) for _, p in combo))
    assert list(law.values) == sorted(exact)
    return max(abs(Fraction(p) - exact[v]) for v, p in zip(law.values, law.probs))


def test_float_step_peak_law_is_the_push_forward_and_no_less_accurate():
    for name, seq in float_sequences().items():
        law = seq.step_peak_law
        assert_same_scalar_law(law, exact_functional_law(seq, "step_peak"))
        product = product_step_peak_law(seq)
        assert step_peak_error(law, seq) <= step_peak_error(product, seq), name


def test_int_probabilities_give_fraction_laws():
    line = IntegerAdditive()
    sure = DiscreteDistribution.of([(2, 1)])
    coin = DiscreteDistribution.of([(1, F(1, 3)), (-1, F(2, 3))])
    for variables in ([sure], [sure, sure], [coin, sure, coin]):
        seq = IndependentSequence.build(line, variables)
        laws = (seq.walk_peak_law, seq.step_peak_law, seq.end_distance_law)
        for law in laws + seq.magnitude_laws:
            assert all(type(p) is Fraction for p in law.probs), law


def test_step_peak_magnitudes_are_computed_once_per_atom():
    line = CountingIntegers()
    variables = [
        DiscreteDistribution.of([(x, F(1, 4)) for x in (-700, 300 + i, 900, -900)])
        for i in range(5)
    ]
    seq = IndependentSequence.build(line, variables)
    atoms = {id(x) for var in variables for x in var.support}
    seq.magnitude_laws, seq.step_peak_law
    assert line.distance_calls == len(atoms) < 4 * len(variables)
    monte_carlo_law(seq, "step_peak", trials=500, seed=3)
    assert line.distance_calls == len(atoms)
    # a fresh sequence of the same variables computes them afresh
    fresh = seq.with_basepoints(seq.z0, seq.z1)
    assert fresh.step_peak_law == seq.step_peak_law
    assert line.distance_calls == 2 * len(atoms)


def test_step_peak_magnitudes_of_equal_atoms_of_different_types_stay_apart():
    # on posreal with z0 = 1, the atom 1 has magnitude |1 - 2| = 1 and the
    # atom Fraction(1) has magnitude Fraction(1)
    half = PositiveRationalsAdditive()
    variables = [DiscreteDistribution.of([(1, F(1))]), DiscreteDistribution.of([(F(1), F(1))])]
    seq = IndependentSequence.build(half, variables)
    mags = seq.magnitude_laws
    assert [type(law.values[0]) for law in mags] == [int, Fraction]
    assert repr(mags) == repr(product_magnitude_laws(seq))
    walk = monte_carlo_law(seq.with_variables(variables[::-1]), "step_peak", trials=10, seed=0)
    assert repr(walk.values) == repr((F(1),))



def reference_monte_carlo_law(seq, statistic, trials, seed, chunk_size=8192, sizes=None):
    """The column loop the engine replaced: each trial's atom by a binary
    search of the cumulative probabilities, distinct pairs by sorting, and
    the transition table grown by concatenation and the state list rebuilt
    at every column.  With a list `sizes`, each column appends
    (continues an epoch, states x atoms, trials in the chunk) to it."""
    start, step, value = _statistic(seq, statistic)
    columns = []
    previous = None
    for var in seq.variables:
        cum = np.cumsum([float(p) for _, p in var.atoms])
        cum[-1] = 1.0
        elements = [e for e, _ in var.atoms]
        same = elements == previous and repr(elements) == repr(previous)
        columns.append((cum, elements, same))
        previous = elements
    counts = {}
    done = 0
    while done < trials:
        batch = min(chunk_size, trials - done)
        u = uniform_block(seed, len(columns), done, batch)
        states = [start]
        ids = np.zeros(batch, dtype=np.intp)
        for col, (cum, elements, same) in enumerate(columns):
            k = len(elements)
            codes = ids * k + np.searchsorted(cum, u[:, col], side="right")
            if sizes is not None:
                sizes.append((same, len(states) * k, batch))
            if same and len(states) * k <= 2 * batch:
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


def assert_matches_reference(seq, statistic, trials, seed, chunk_size):
    law = monte_carlo_law(seq, statistic, trials=trials, seed=seed, chunk_size=chunk_size)
    reference = reference_monte_carlo_law(seq, statistic, trials, seed, chunk_size)
    assert_same(law, reference)


def test_monte_carlo_engine_matches_reference_on_default_corpus():
    # default-corpus columns have at most 3 atoms; the adversarial columns
    # below reach the wider ones
    corpus = generate_corpus(CorpusSpec(count=200))
    for index, seq in enumerate(corpus):
        trials = 2 + index % 29
        for statistic in ("walk_peak", "end_distance", "step_peak"):
            for chunk_size in (1, 7, 8192):
                assert_matches_reference(seq, statistic, trials, index, chunk_size)


def float_column(rng, k, tiny_last=0.0):
    """k distinct int atoms with float probabilities, the last `tiny_last`
    when it is positive."""
    weights = [rng.random() + 0.01 for _ in range(k - (tiny_last > 0))]
    total = sum(weights) / (1.0 - tiny_last)
    probs = [w / total for w in weights] + ([tiny_last] if tiny_last else [])
    return DiscreteDistribution.of(zip(rng.sample(range(-200, 200), k), probs))


def ints(k):
    return uniform(list(range(-(k // 2), k - k // 2)))


def adversarial_sequences():
    rng = random.Random(6)
    line = IntegerAdditive()
    torus = TorusGroup(1)

    # the float cumsum of the first two reaches 1.0 (or passes it) before
    # the last atom, which is then never drawn
    early = [
        DiscreteDistribution.of([(1, 0.5), (-1, 0.5), (3, 1e-17)]),
        DiscreteDistribution.of([(1, 0.6), (-1, 0.4 + 2e-13), (3, 1e-13)]),
    ]
    narrow = float_column(rng, MAX_THRESHOLD_ATOMS)
    wide = float_column(rng, MAX_THRESHOLD_ATOMS + 1)
    return {
        "8-atoms": IndependentSequence.build(line, [ints(MAX_THRESHOLD_ATOMS)] * 12),
        "9-atoms": IndependentSequence.build(line, [ints(MAX_THRESHOLD_ATOMS + 1)] * 12),
        "64-atoms": IndependentSequence.build(line, [ints(64)] * 6),
        "float-8-9": IndependentSequence.build(line, [narrow, narrow, wide, wide, narrow] * 3),
        "float-2-64": IndependentSequence.build(
            line, [float_column(rng, rng.randint(2, 64)) for _ in range(8)]
        ),
        "tiny-last": IndependentSequence.build(line, [float_column(rng, 5, 1e-17)] * 10),
        "cumsum-early": IndependentSequence.build(line, [early[0]] * 4 + [early[1]] * 4),
        # float states on the torus; point masses and wide columns break
        # the runs of equal elements
        "torus-interleaved": IndependentSequence.build(
            torus,
            [
                uniform([(i / 12,) for i in range(12)]),
                point_mass((0.25,)),
                uniform([(0.0,), (0.5,)]),
                uniform([(0.0,), (0.5,)]),
                point_mass((0.125,)),
                DiscreteDistribution.of([((0.0,), 0.3), ((0.75,), 0.7)]),
                uniform([((i - 4) / 16 % 1.0,) for i in range(9)]),
                DiscreteDistribution.of([((0.0,), 0.3), ((0.75,), 0.7)]),
            ],
        ),
    }


@pytest.mark.parametrize("name", sorted(adversarial_sequences()))
def test_monte_carlo_engine_matches_reference_on_adversarial_columns(name):
    seq = adversarial_sequences()[name]
    for statistic in ("walk_peak", "end_distance", "step_peak"):
        for chunk_size in (1, 7, 8192):
            trials = 40 if chunk_size == 1 else 3000
            assert_matches_reference(seq, statistic, trials, 17, chunk_size)


class CountingIntegers(IntegerAdditive):
    def __init__(self):
        super().__init__()
        self.compose_calls = self.distance_calls = 0

    def compose(self, a, b):
        self.compose_calls += 1
        return a + b

    def distance(self, a, b):
        self.distance_calls += 1
        return abs(a - b)


def test_monte_carlo_steps_each_transition_once_per_epoch():
    # 200 iid columns reach only a few thousand (state, atom) pairs; stepping
    # once per pair and column makes about 19 compose calls per trial.
    inst = CountingIntegers()
    monte_carlo_law(pm1_walk(200, inst=inst), "walk_peak", trials=10_000, seed=12)
    assert inst.compose_calls < 10_000


@pytest.mark.parametrize("chunk_size", [1, 7, 8192])
def test_monte_carlo_steps_as_often_as_the_reference(chunk_size):
    pm1 = DiscreteDistribution.of([(1, F(1, 2)), (-1, F(1, 2))])
    # the same atoms in the other order are other elements, and end a run
    sign = DiscreteDistribution.of([(-1, F(1, 2)), (1, F(1, 2))])
    skew = DiscreteDistribution.of([(2, 0.25), (-1, 0.75)])
    one = point_mass(1)
    mixed = [pm1, pm1, sign, pm1, one, skew, skew, pm1] * 5
    trials = 50 if chunk_size == 1 else 3000
    for columns in ([pm1] * 200, mixed):
        calls = []
        for engine in (monte_carlo_law, reference_monte_carlo_law):
            inst = CountingIntegers()
            engine(IndependentSequence.build(inst, columns), "walk_peak", trials, 12, chunk_size)
            calls.append(inst.compose_calls)
        assert calls[0] == calls[1], calls


def test_monte_carlo_pair_tables_at_their_size_limit():
    # Columns of 3 atoms, in an iid run (epoch columns) and alternating with
    # other elements (fresh columns).  With chunks of 3 trials, some column
    # has states x atoms = 6 = 2 * batch, the largest table; with chunks of
    # 4, some column has 9 = 2 * batch + 1 and sorts its pairs instead.
    three = uniform([-1, 0, 1])
    other = uniform([-2, 0, 3])
    reached = set()
    for columns in ([three] * 8, [three, other] * 4):
        for chunk_size in (3, 4):
            for statistic in ("walk_peak", "end_distance"):
                laws, calls, sizes = [], [], []
                for engine in (monte_carlo_law, reference_monte_carlo_law):
                    inst = CountingIntegers()
                    seq = IndependentSequence.build(inst, columns)
                    laws.append(engine(seq, statistic, 24, 5, chunk_size))
                    calls.append(inst.compose_calls)
                reference_monte_carlo_law(seq, statistic, 24, 5, chunk_size, sizes)
                assert_same(*laws)
                assert calls[0] == calls[1], calls
                reached |= {(same, size - 2 * batch) for same, size, batch in sizes}
    assert {(True, 0), (True, 1), (False, 0), (False, 1)} <= reached


def atom_matrix_columns():
    pm1 = DiscreteDistribution.of([(1, F(1, 2)), (-1, F(1, 2))])
    sign = DiscreteDistribution.of([(-1, F(1, 2)), (1, F(1, 2))])
    one = point_mass(3)
    eight = ints(MAX_THRESHOLD_ATOMS)
    return {
        "1-atom": [one, pm1, one, one, pm1, pm1, one],
        # atom indices up to 255 fit one byte; 300 atoms need two
        "256-atoms": [ints(256), pm1, ints(256), ints(3)],
        "300-atoms": [ints(300), pm1, ints(256), ints(3)],
        # runs of one column between columns of 1 to 9 atoms
        "interleaved": [
            pm1, sign, eight, sign, eight, one,
            point_mass(1), ints(MAX_THRESHOLD_ATOMS + 1), pm1, sign,
        ],
    }


def assert_steps_like_reference(columns, statistic, trials, seed, chunk_size=None):
    """The engine at `chunk_size` (its default when None) and the reference
    at the same chunk give the same law from the same number of steps."""
    results, calls = [], []
    for engine in (monte_carlo_law, reference_monte_carlo_law):
        inst = CountingIntegers()
        seq = IndependentSequence.build(inst, columns)
        if engine is monte_carlo_law and chunk_size is None:
            results.append(engine(seq, statistic, trials, seed))
        else:
            results.append(engine(seq, statistic, trials, seed, chunk_size or 65536))
        calls.append(inst.compose_calls)
    assert_same(*results)
    assert calls[0] == calls[1], calls


@pytest.mark.parametrize("name", sorted(atom_matrix_columns()))
def test_monte_carlo_atom_matrix_across_sub_blocks(monkeypatch, name):
    # sub-blocks of at most 64 uniforms: a chunk of 3,001 trials (a prime)
    # spans hundreds of them, the last one short
    monkeypatch.setattr(laws, "SUB_BLOCK_UNIFORMS", 64)
    columns = atom_matrix_columns()[name]
    for statistic in ("walk_peak", "end_distance", "step_peak"):
        for chunk_size in (None, 7):
            assert_steps_like_reference(columns, statistic, 3001, 23, chunk_size)


@pytest.mark.parametrize("trials", [10_000, 70_000])
def test_monte_carlo_default_chunk_matches_reference(trials):
    # 10,000 trials are one chunk, 70,000 two (65,536 and 4,464)
    pm1 = DiscreteDistribution.of([(1, F(1, 2)), (-1, F(1, 2))])
    walk = atom_matrix_columns()["interleaved"] + [pm1] * 30
    assert_steps_like_reference(walk, "walk_peak", trials, 31)


def test_monte_carlo_holds_no_float_block_per_chunk():
    # a chunk's 10,000 x 200 uniforms held as floats would take 15 MB; the
    # atom matrix takes 2 MB, and a sub-block with its copy 1 MB
    seq = pm1_walk(200)
    tracemalloc.start()
    try:
        monte_carlo_law(seq, trials=10_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2**20, peak


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
        uniform([torus.random_element(rng) for _ in range(12)]),
        uniform([torus.random_element(rng) for _ in range(2)]),
        uniform([torus.random_element(rng) for _ in range(3)]),
    )
    wide = [float_column(rng, rng.randint(MAX_THRESHOLD_ATOMS + 1, 64)) for _ in range(2)]
    seqs = (
        generate_sequence(parse_instance(spec), rng, 5, 3, "random"),
        IndependentSequence.build(torus, [columns[0]] * rng.randint(1, 6)),
        IndependentSequence.build(
            torus, [rng.choice(columns) for _ in range(rng.randint(1, 8))]
        ),
        IndependentSequence.build(
            IntegerAdditive(), [rng.choice(wide) for _ in range(rng.randint(1, 8))]
        ),
    )
    chunk = data.draw(st.integers(1, trials), label="chunk_size")
    for seq in seqs:
        reference = monte_carlo_law(seq, statistic, trials=trials, seed=seed, chunk_size=8192)
        law = monte_carlo_law(seq, statistic, trials=trials, seed=seed, chunk_size=chunk)
        assert law == reference
