import copy
import hashlib
import random
from fractions import Fraction

import pytest

from sgverify import DiscreteDistribution, ScalarLaw, canonical_json, sequence_to_config
from sgverify.corpus import (
    CorpusSpec,
    generate_corpus,
    random_hj_parameters,
    threshold_candidates,
)

from law_oracles import fraction_corpus_steps

F = Fraction

# SHA-256 of the canonical JSON of the configs of the first 3,000 items of
# the default corpus, recorded at commit d1b4d9b, whose corpus built its
# steps from Fraction probabilities.
CORPUS_DIGESTS = {
    1: "bd4e2d37c9ec0ed8f19cce64bb3c49b703ea86ac23142bd2704684a8f52bbef6",
    9973: "c6176a7b1f1d4a697d02f79197cd9d84cea5c3ed2e612f6603b9af8a8e5b5bcc",
}


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


@pytest.mark.parametrize("seed", sorted(CORPUS_DIGESTS))
def test_corpus_configs_keep_their_bytes(seed):
    configs = [sequence_to_config(s) for s in generate_corpus(CorpusSpec(count=3000, seed=seed))]
    digest = hashlib.sha256(canonical_json(configs).encode("utf-8")).hexdigest()
    assert digest == CORPUS_DIGESTS[seed]


def test_corpus_steps_equal_the_fraction_path_on_default_corpus(fresh_corpus):
    # copies, so that the atoms read here are not kept by the session corpus
    spec = CorpusSpec(count=10_000, seed=1)
    items = 0
    for seq, steps in zip(fresh_corpus, fraction_corpus_steps(spec)):
        assert len(steps) == seq.n
        for var, old in zip(seq.variables, steps):
            dist = copy.copy(var)
            assert dist.weights_over_lcm == old.weights_over_lcm
            assert dist.atoms == old.atoms and repr(dist.atoms) == repr(old.atoms)
            assert dist == DiscreteDistribution.of(old.atoms)
        items += 1
    assert items == spec.count


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
