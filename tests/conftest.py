# qmflow first: it pins numpy's BLAS to 1 thread only if numpy is not loaded yet
import qmflow  # noqa: F401
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse
from scipy.sparse.csgraph import connected_components

from qmflow import (
    GlauberConfig,
    build_evans_hudson,
    build_extended_generator,
    build_glauber_structure_maps,
    max_abs,
    min_eig,
)
from qmflow.extended import _semigroup, _table_choi
from qmflow.linalg import _hermitian_choi, _labels_plan


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


def std_choi_min_eig(gen, t):
    """The oracle of extended_choi_min_eig, in the std basis: (the smallest
    eigenvalue of the table Choi matrix c placed in the zero-padded
    (2d)**2-side matrix, max|c|)."""
    d = gen.dim
    c = _hermitian_choi(_table_choi(_semigroup(gen, t), d))
    p, k = np.divmod(np.arange(d * d), d)
    rows = np.concatenate([(i * d + p) * (2 * d) + i * d + k for i in (0, 1)])
    full = np.zeros((4 * d * d, 4 * d * d), dtype=complex)
    full[rows[:, None], rows] = c
    return min_eig(full), max_abs(c)


def std_generator_cp_min_eig(gen):
    """The oracle of generator_cp_min_eig, in the std basis: (the smallest
    eigenvalue of the physical entries' table Choi matrix c projected away
    from the unit maximally entangled vector w, max|c|)."""
    gen = replace(gen, mode="physical")
    d, n = gen.dim, gen.dim ** 2
    c = _table_choi(gen.entries, d)
    scale = max_abs(c)
    w = np.zeros(2 * n)
    w[np.r_[0:n:d + 1, n:2 * n:d + 1]] = (2 * d) ** -0.5
    wc, cw = w @ c, c @ w
    c -= np.outer(w, wc) + np.outer(cw - (w @ cw) * w, w)
    return min_eig(c), scale


def strong_components_plan(n, rows, cols):
    """The oracle of ``linalg``'s component plan by another route: the
    strong components of the symmetrized CSR pattern of the positions
    (rows, cols), which for a symmetric pattern are its connected
    components, grouped as ``_labels_plan`` groups them."""
    keys = np.unique(np.concatenate([rows * n + cols, cols * n + rows]))
    indptr = np.searchsorted(keys, np.arange(n + 1) * n).astype(np.int32)
    pattern = scipy.sparse.csr_array(
        (np.ones(keys.size, np.uint8), (keys % n).astype(np.int32), indptr), shape=(n, n))
    return _labels_plan(connected_components(pattern, directed=True, connection="strong")[1])


def assert_same_plan(got, want):
    """Two plans hold the same index arrays, dtype included, in order."""
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and np.array_equal(a, b)
