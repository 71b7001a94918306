import random
from fractions import Fraction

import pytest

from sgverify import ScalarLaw, canonical_json, sequence_to_config
from sgverify.corpus import (
    CorpusSpec,
    generate_corpus,
    random_hj_parameters,
    threshold_candidates,
)

F = Fraction


def test_same_seed_gives_byte_identical_corpora():
    spec = CorpusSpec(count=80, seed=1)
    one = canonical_json([sequence_to_config(s) for s in generate_corpus(spec)])
    two = canonical_json([sequence_to_config(s) for s in generate_corpus(spec)])
    assert one == two


def test_different_seeds_differ():
    a = generate_corpus(CorpusSpec(count=30, seed=1))
    b = generate_corpus(CorpusSpec(count=30, seed=2))
    assert canonical_json([sequence_to_config(s) for s in a]) != canonical_json(
        [sequence_to_config(s) for s in b]
    )


def test_round_robin_covers_every_instance_kind():
    spec = CorpusSpec(count=10, seed=5)
    kinds = {seq.instance.spec for seq in generate_corpus(spec)}
    assert kinds == set(spec.instances)


def test_corpus_respects_caps():
    for seq in generate_corpus(CorpusSpec(count=60, seed=7, max_len=4, max_support=2)):
        assert seq.n <= 4
        assert all(len(v.atoms) <= 2 for v in seq.variables)
        assert seq.outcome_count <= 2**4


def test_corpus_rejects_invalid_specs():
    # support^length is no limit: exact laws merge states, and a state cap
    # is a resource limit of the law, not of the spec
    assert CorpusSpec(count=10, max_len=30, max_support=3).max_len == 30
    with pytest.raises(ValueError):
        CorpusSpec(count=0)
    with pytest.raises(ValueError):
        CorpusSpec(max_len=0)
    with pytest.raises(ValueError):
        CorpusSpec(instances=())


def test_corpus_probabilities_are_exact():
    for seq in generate_corpus(CorpusSpec(count=40, seed=11)):
        for var in seq.variables:
            assert sum(p for _, p in var.atoms) == 1
            assert all(isinstance(p, F) for _, p in var.atoms)


def test_spec_config_round_trip():
    spec = CorpusSpec(count=12, seed=9, instances=("cyclic:6", "int"))
    back = CorpusSpec.from_config(spec.to_jsonable())
    assert back == spec
    with pytest.raises(ValueError):
        CorpusSpec.from_config({"count": 3, "mystery": 1})


def test_random_hj_parameters_are_valid():
    rng = random.Random(2)
    for seq in generate_corpus(CorpusSpec(count=50, seed=13)):
        for _ in range(4):
            params = random_hj_parameters(rng, seq)
            assert params.total_size <= seq.n + 1
            assert len(params.block_sizes) <= 3
            assert all(t >= 0 for t in params.thresholds)
            assert params.shift >= 0


def test_threshold_candidates_exact_and_sorted():
    law = ScalarLaw.from_pairs([(1, F(1, 2)), (4, F(1, 2))])
    cands = threshold_candidates(law)
    assert cands == sorted(cands)
    assert set(cands) == {0, 1, F(5, 2), 4}
    assert all(isinstance(c, (int, F)) for c in cands)
