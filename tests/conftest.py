import pytest

from helpers import random_lsa_corpus, random_nonzero_lsa_corpus


@pytest.fixture(scope="session")
def lsa_corpus():
    return random_lsa_corpus()


@pytest.fixture(scope="session")
def nonzero_lsa_corpus():
    return random_nonzero_lsa_corpus()
