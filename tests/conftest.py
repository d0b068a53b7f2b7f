import numpy as np
import pytest

from lorenzlab import Analysis, Budgets, builtin_map, decompose


@pytest.fixture(scope="session")
def ex1():
    return builtin_map("paper-example")


@pytest.fixture(scope="session")
def ex2():
    return builtin_map("logistic4-embed")


@pytest.fixture(scope="session")
def ex3():
    return builtin_map("logistic3.4-embed")


# one Analysis per builtin at default budgets: the catalogs, the sequence
# and the decompositions below share its cached objects
@pytest.fixture(scope="session")
def an1(ex1):
    return Analysis(ex1, Budgets())


@pytest.fixture(scope="session")
def an2(ex2):
    return Analysis(ex2, Budgets())


@pytest.fixture(scope="session")
def an3(ex3):
    return Analysis(ex3, Budgets())


@pytest.fixture(scope="session")
def cat1(an1):
    return an1.catalog


@pytest.fixture(scope="session")
def cat2(an2):
    return an2.catalog


@pytest.fixture(scope="session")
def cat3(an3):
    return an3.catalog


@pytest.fixture(scope="session")
def seq3(an3):
    return an3.seq


@pytest.fixture(scope="session")
def dec1(an1):
    return decompose(an1)


@pytest.fixture(scope="session")
def dec2(an2):
    return decompose(an2)


@pytest.fixture(scope="session")
def dec3(an3):
    return decompose(an3)


@pytest.fixture()
def rng():
    return np.random.default_rng(20260810)
