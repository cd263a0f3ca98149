# qmflow first: it pins numpy's BLAS to 1 thread only if numpy is not loaded yet
import qmflow  # noqa: F401
import numpy as np
import pytest

from qmflow import (
    GlauberConfig,
    build_evans_hudson,
    build_extended_generator,
    build_glauber_structure_maps,
)


@pytest.fixture(scope="session")
def qubit_sm():
    """Amplitude-flip qubit model: H = 0, F = |0><1|, lowering weight 1."""
    f = np.array([[0.0, 1.0], [0.0, 0.0]])
    return build_evans_hudson(np.zeros((2, 2)), f, 1.0, 0.0)


@pytest.fixture(scope="session")
def glauber_cfg():
    return GlauberConfig.with_random_constants(sites=3, boundary="periodic", seed=42)


@pytest.fixture(scope="session")
def glauber_sm(glauber_cfg):
    return build_glauber_structure_maps(glauber_cfg)


@pytest.fixture(scope="session")
def qubit_gen_phys(qubit_sm):
    return build_extended_generator(qubit_sm, "physical")


@pytest.fixture(scope="session")
def qubit_gen_cons(qubit_sm):
    return build_extended_generator(qubit_sm, "conservative")


@pytest.fixture(scope="session")
def glauber_gen_phys(glauber_sm):
    return build_extended_generator(glauber_sm, "physical")


@pytest.fixture(scope="session")
def glauber_gen_cons(glauber_sm):
    return build_extended_generator(glauber_sm, "conservative")


def random_op(rng, d, unit=True):
    x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    if unit:
        x /= max(1.0, np.max(np.abs(x)))
    return x
