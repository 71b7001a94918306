import dataclasses

import pytest
from hypothesis import settings

from sgverify.corpus import CorpusSpec, generate_corpus

# Property tests draw the same examples on every run.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


@pytest.fixture(scope="session")
def corpus():
    """The 10,000-item default corpus (seed 1), generated once per session;
    the acceptance criteria share its sequences and the laws they cache."""
    return generate_corpus(CorpusSpec(count=10_000, seed=1))


@pytest.fixture
def fresh_corpus(corpus):
    """The default corpus as new sequence objects with no cached laws, made
    one at a time, so that no law one test builds reaches another."""
    return (dataclasses.replace(seq) for seq in corpus)
