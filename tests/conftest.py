import pytest

from mglue.morse_model import compute_constants, model_c1, model_e1


@pytest.fixture(scope="session")
def e1():
    return model_e1()


@pytest.fixture(scope="session")
def c1():
    return model_c1()


@pytest.fixture(scope="session")
def ce(e1):
    return compute_constants(e1)


@pytest.fixture(scope="session")
def cc(c1):
    return compute_constants(c1)
