import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgverify import (
    CyclicGroup,
    DiscreteDistribution,
    EnumerationCapError,
    IndependentSequence,
    IntegerAdditive,
    RealVectorGroup,
    ScalarLaw,
    TorusGroup,
    derive_seed,
    exact_functional_law,
    mc_tail_agreement,
    monte_carlo_law,
    sequence_from_config,
    sequence_to_config,
)
from sgverify.corpus import CorpusSpec, generate_corpus
from sgverify.levy import UniformBoxSampler

from law_oracles import enumerate_outcomes, path_trace, product_step_peak_law

F = Fraction


def rademacher():
    return DiscreteDistribution.of([(1, F(1, 2)), (-1, F(1, 2))])


def rademacher_seq(n):
    return IndependentSequence.build(IntegerAdditive(), [rademacher()] * n)


def test_path_trace_on_the_line():
    seq = rademacher_seq(2)
    trace = path_trace(seq, (1, -1))
    assert trace.products == (1, 0)
    assert trace.peaks == (1, 1)
    assert trace.steps == (1, 1)
    assert trace.step_peaks == (1, 1)
    trace = path_trace(seq, (1, 1))
    assert trace.peaks[-1] == 2
    assert trace.step_peaks[-1] == 1


def test_path_trace_cyclic_wraparound():
    cyc = CyclicGroup(6)
    var = DiscreteDistribution.point_mass(4)
    seq = IndependentSequence.build(cyc, [var, var])
    trace = path_trace(seq, (4, 4))
    assert trace.products == (4, 2)
    assert trace.peaks == (2, 2)


def test_path_trace_length_mismatch():
    with pytest.raises(ValueError):
        path_trace(rademacher_seq(2), (1,))


def test_exact_walk_peak_law_n2_and_n3():
    law = rademacher_seq(2).walk_peak_law
    assert list(zip(law.values, law.probs)) == [(1, F(1, 2)), (2, F(1, 2))]
    law3 = rademacher_seq(3).walk_peak_law
    assert list(zip(law3.values, law3.probs)) == [
        (1, F(1, 2)),
        (2, F(1, 4)),
        (3, F(1, 4)),
    ]


def test_step_peak_law_is_constant_for_unit_steps():
    law = rademacher_seq(2).step_peak_law
    assert list(zip(law.values, law.probs)) == [(1, F(1))]


def test_walk_peak_moments():
    law = rademacher_seq(2).walk_peak_law
    assert law.mean() == F(3, 2)
    assert law.moment(2) == F(5, 2)
    assert law.moment_root(2) == pytest.approx(math.sqrt(2.5))


def test_moment_helpers():
    law = ScalarLaw.from_pairs([(1, F(1, 2)), (2, F(1, 2))])
    assert law.moment(1) == F(3, 2)
    assert law.moment(2) == F(5, 2)
    assert law.moment_root(1) == F(3, 2)
    assert law.moment_root(2) == pytest.approx(math.sqrt(2.5))
    point = ScalarLaw.point_mass(F(3))
    assert point.moment(2) == 9


@settings(max_examples=200, deadline=None)
@given(
    atoms=st.lists(
        st.tuples(
            st.one_of(st.integers(0, 10**15), st.floats(0, 1e300)),
            st.integers(1, 1000),
        ),
        min_size=1,
        max_size=6,
    ),
    orders=st.lists(
        st.one_of(st.floats(0.5, 1e6), st.integers(1, 500)), min_size=2, max_size=4
    ),
)
def test_moment_root_is_finite_and_nondecreasing_in_the_order(atoms, orders):
    # E[X^p] leaves the float range for large or small values and large
    # orders; its root is at most the largest value and, by Lyapunov, grows
    # with p
    total = sum(w for _, w in atoms)
    law = ScalarLaw.from_pairs([(v, F(w, total)) for v, w in atoms])
    roots = [law.moment_root(p) for p in sorted(orders)]
    for root in roots:
        assert math.isfinite(root) and root <= float(law.max_value) * (1 + 1e-12)
    for low, high in zip(roots, roots[1:]):
        assert low <= high * (1 + 1e-12), roots


def test_single_variable_peak_equals_magnitude_law():
    seq = IndependentSequence.build(IntegerAdditive(), [rademacher()])
    assert seq.walk_peak_law.values == seq.magnitude_laws[0].values
    assert seq.walk_peak_law.probs == seq.magnitude_laws[0].probs


def test_law_mass_exact():
    corpus = generate_corpus(CorpusSpec(count=40, seed=3))
    for seq in corpus:
        law = seq.walk_peak_law
        assert sum(law.probs) == 1
        assert law.is_rational


def test_step_peak_law_matches_enumeration():
    corpus = generate_corpus(CorpusSpec(count=25, seed=9))
    for seq in corpus:
        direct = seq.step_peak_law
        product = product_step_peak_law(seq)
        assert direct.values == product.values
        assert direct.probs == product.probs


def test_pathwise_running_max_monotone_and_step_bound():
    # running peaks are nondecreasing and the step peak never beats twice the walk peak
    corpus = generate_corpus(CorpusSpec(count=30, seed=4))
    for seq in corpus:
        for outcome, _ in enumerate_outcomes(seq):
            trace = path_trace(seq, outcome)
            assert all(a <= b for a, b in zip(trace.peaks, trace.peaks[1:]))
            assert all(
                a <= b for a, b in zip(trace.step_peaks, trace.step_peaks[1:])
            )
            assert trace.step_peaks[-1] <= 2 * trace.peaks[-1]


def test_magnitude_law_ignores_basepoint():
    cyc = CyclicGroup(6)
    var = DiscreteDistribution.of([(1, F(1, 3)), (3, F(2, 3))])
    for z0 in (0, 2, 5):
        seq = IndependentSequence.build(cyc, [var], z0=z0, z1=z0)
        law = seq.magnitude_laws[0]
        assert list(zip(law.values, law.probs)) == [(1, F(1, 3)), (3, F(2, 3))]


def test_enumeration_cap():
    var = DiscreteDistribution.uniform([0, 1, 2])
    seq = IndependentSequence.build(IntegerAdditive(), [var] * 5)
    with pytest.raises(EnumerationCapError):
        list(enumerate_outcomes(seq, cap=100))


def test_state_cap_is_checked_before_expanding_a_layer():
    # +-1 steps from 0: 1, 2, 3, 6 (position, peak) states before steps 1..4
    seq = rademacher_seq(4)
    assert exact_functional_law(seq, "walk_peak", cap=12).values == (1, 2, 3, 4)
    with pytest.raises(EnumerationCapError) as err:
        exact_functional_law(seq, "walk_peak", cap=11)
    assert str(err.value) == (
        "6 states reached before step 4; its 2 atoms would exceed the state cap 11"
    )


def test_build_rejects_samplers():
    sampler = UniformBoxSampler(TorusGroup(1), 0.5)
    with pytest.raises(TypeError, match="is not a DiscreteDistribution"):
        IndependentSequence.build(TorusGroup(1), [sampler])


def test_monte_carlo_matches_exact_within_3se():
    seq = rademacher_seq(2)
    emp = monte_carlo_law(seq, "walk_peak", trials=100_000, seed=42)
    se = math.sqrt(0.25 / 100_000)
    assert abs(float(emp.tail(F(3, 2))) - 0.5) <= 3 * se


def test_monte_carlo_chunk_and_order_invariance():
    seq = rademacher_seq(3)
    a = monte_carlo_law(seq, "walk_peak", trials=4000, seed=5, chunk_size=13)
    b = monte_carlo_law(seq, "walk_peak", trials=4000, seed=5, chunk_size=4000)
    assert a.values == b.values and a.probs == b.probs


def test_point_mass_monte_carlo_is_exact():
    var = DiscreteDistribution.point_mass(3)
    seq = IndependentSequence.build(IntegerAdditive(), [var, var])
    emp = monte_carlo_law(seq, "walk_peak", trials=500, seed=1)
    exact = seq.walk_peak_law
    assert emp.values == exact.values
    assert emp.probs == (F(1),)


def test_torus_walk_respects_diameter():
    tor = TorusGroup(1)
    step = DiscreteDistribution.uniform([((i + 0.5) / 16,) for i in range(16)])
    seq = IndependentSequence.build(tor, [step] * 10)
    law = monte_carlo_law(seq, "walk_peak", trials=2000, seed=8)
    assert law.max_value <= 0.5


def test_mc_agreement_helper_on_small_corpus():
    corpus = generate_corpus(CorpusSpec(count=20, seed=6))
    checks = 0
    misses = 0
    for i, seq in enumerate(corpus):
        for rec in mc_tail_agreement(seq, trials=20_000, seed=derive_seed(6, i)):
            checks += 1
            if rec["z"] > 3.0:
                misses += 1
    assert misses <= max(1, checks // 100)


def test_scalar_law_tail_queries():
    law = ScalarLaw.from_pairs([(0, F(1, 4)), (2, F(1, 2)), (5, F(1, 4))])
    assert law.tail(-1) == 1
    assert law.tail(0) == F(3, 4)
    assert law.tail(2) == F(1, 4)
    assert law.prob_ge(2) == F(3, 4)
    assert law.prob_le(2) == F(3, 4)
    assert law.tail(5) == 0


def test_tail_function_is_a_nonincreasing_right_continuous_step():
    law = ScalarLaw.from_pairs([(1, F(1, 3)), (2, F(1, 3)), (4, F(1, 3))])
    grid = [F(k, 4) for k in range(-2, 20)]
    tails = [law.tail(x) for x in grid]
    assert all(a >= b for a, b in zip(tails, tails[1:]))
    for v in law.values:
        # constant immediately to the right of each step point
        assert law.tail(v) == law.tail(v + F(1, 1000))
        # and a genuine drop across it
        assert law.tail(v - F(1, 1000)) > law.tail(v)


def test_scalar_law_rejects_bad_input():
    with pytest.raises(ValueError):
        ScalarLaw.from_pairs([(-1, F(1))])
    with pytest.raises(ValueError):
        ScalarLaw.from_pairs([(1, F(1, 2))])
    with pytest.raises(ValueError):
        DiscreteDistribution.of([(1, F(1, 2)), (1, F(1, 2))])
    # a NaN probability is refused, not dropped with the zero probabilities
    with pytest.raises(ValueError, match="probability nan for atom 1 is not >= 0"):
        DiscreteDistribution.of([(1, math.nan), (2, 1.0)])
    with pytest.raises(ValueError, match="probability nan is not >= 0"):
        ScalarLaw.from_pairs([(1, math.nan), (2, 1.0)])


def assert_same_law(law, other):
    """Equal field by field, in value and in repr, including the tail sums."""
    for name in ("values", "probs", "_suffix", "kind", "trials", "seed"):
        mine, theirs = getattr(law, name), getattr(other, name)
        assert mine == theirs and repr(mine) == repr(theirs), name
    assert law == other and repr(law) == repr(other)


def from_weights_of(law):
    """`law` rebuilt by `from_weights`, from its atoms in reverse order."""
    denominator = math.lcm(*(p.denominator for p in law.probs))
    weights = [p.numerator * (denominator // p.denominator) for p in law.probs]
    return ScalarLaw.from_weights(
        law.values[::-1], weights[::-1], denominator, law.kind, law.trials, law.seed
    )


def test_from_weights_matches_from_pairs_on_default_corpus(fresh_corpus):
    for seq in fresh_corpus:
        for law in (seq.walk_peak_law, seq.end_distance_law, seq.step_peak_law):
            pairs = ScalarLaw.from_pairs(zip(law.values[::-1], law.probs[::-1]))
            assert_same_law(law, pairs)
            assert_same_law(from_weights_of(law), pairs)


@settings(max_examples=200, deadline=None)
@given(
    entries=st.lists(
        st.tuples(
            st.one_of(
                st.integers(0, 6),
                st.integers(0, 6).map(float),
                st.floats(0, 6, allow_nan=False),
            ),
            st.integers(0, 50),
        ),
        min_size=1,
        max_size=8,
    ),
    seed=st.one_of(st.none(), st.integers(0, 2**63 - 1)),
)
def test_from_counts_matches_from_pairs(entries, seed):
    # equal int and float keys share one count, under the first key seen
    counts = {}
    for value, count in entries:
        counts[value] = counts.get(value, 0) + count
    trials = sum(counts.values())
    if not trials:
        return
    law = ScalarLaw.from_counts(counts, trials, seed)
    pairs = [(v, F(c, trials)) for v, c in counts.items()]
    reference = ScalarLaw.from_pairs(pairs, kind="empirical", trials=trials, seed=seed)
    assert_same_law(law, reference)


def test_from_weights_rejects_bad_input():
    with pytest.raises(ValueError, match="law mass is 2/3, not 1"):
        ScalarLaw.from_weights([1, 2], [1, 1], 3)
    with pytest.raises(ValueError, match="nonnegative"):
        ScalarLaw.from_weights([2, -1], [1, 1], 2)
    with pytest.raises(ValueError, match="at least one value"):
        ScalarLaw.from_weights([], [], 1)
    with pytest.raises(ValueError, match="positive"):
        ScalarLaw.from_counts({1: 3, 2: -1}, 2, seed=0)


def test_sequence_config_round_trip():
    corpus = generate_corpus(CorpusSpec(count=15, seed=12))
    for seq in corpus:
        config = sequence_to_config(seq)
        back = sequence_from_config(config)
        assert sequence_to_config(back) == config
        assert back.walk_peak_law.values == seq.walk_peak_law.values


def test_sequence_config_rejects_unknown_keys():
    config = sequence_to_config(rademacher_seq(1))
    config["surprise"] = 1
    with pytest.raises(ValueError):
        sequence_from_config(config)


def test_sequence_config_checks_each_element_once_per_layer(monkeypatch):
    # once when read from JSON and once when the sequence is built
    config = sequence_to_config(rademacher_seq(3))
    calls = []
    original = IntegerAdditive.require_element

    def counting(self, x):
        calls.append(x)
        return original(self, x)

    monkeypatch.setattr(IntegerAdditive, "require_element", counting)
    sequence_from_config(config)
    atoms = 3 * 2
    assert len(calls) == 2 * atoms + 2 * 2


def test_default_basepoints():
    seq = rademacher_seq(2)
    assert seq.z0 == 0 and seq.z1 == 0
    pos = sequence_from_config(
        {"instance": "posreal", "variables": [{"atoms": [["1/2", "1"]]}]}
    )
    assert pos.z0 == F(1, 2)  # no identity: first atom is the default


def test_real_vector_sequence():
    real = RealVectorGroup(1)
    var = DiscreteDistribution.of([((1.0,), F(1, 2)), ((-1.0,), F(1, 2))])
    seq = IndependentSequence.build(real, [var, var])
    law = seq.walk_peak_law
    assert law.values == (1.0, 2.0)
