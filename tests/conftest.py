# qmflow first: it pins numpy's BLAS to 1 thread only if numpy is not loaded yet
import qmflow  # noqa: F401
from dataclasses import replace

import mpmath
import numpy as np
import pytest
import scipy.sparse
from scipy.sparse.csgraph import connected_components

from qmflow import (
    GlauberConfig,
    build_evans_hudson,
    build_extended_generator,
    build_glauber_structure_maps,
    commutator_map,
    max_abs,
    min_eig,
)
from qmflow.extended import _semigroup
from qmflow.linalg import _block, _choi, _hermitian_choi, _labels_plan, _unblock
from qmflow.structure import _by_orbits


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


def table_choi(table, d):
    """The 2 d**2-side matrix whose (i, j) block is Choi(table[i][j])."""
    return np.block([[_choi(table[i][j], d) for j in (0, 1)] for i in (0, 1)])


def sector_apply(sectors, c):
    """c, in place, with the split components of ``sectors`` (a
    ``_ChoiSectors``) replaced by Q* c Q in the same rows: the character
    blocks, 0 between them."""
    rows, side = sectors.rows, sectors.rows.size
    m = _by_orbits(c[rows[:, None], rows], sectors.fourier, inverse=True)
    c[rows[:, None], rows] = _unblock([_block(m, idx) for idx in sectors.plan],
                                     sectors.plan, side)
    return c


def padded_rows(d):
    """The row of the zero-padded (2d)**2-side Choi matrix that each row
    p*d + k of block row i of the 2 d**2-side table Choi matrix is placed
    at: (i*d + p)*2d + i*d + k."""
    p, k = np.divmod(np.arange(d * d), d)
    return np.concatenate([(i * d + p) * (2 * d) + i * d + k for i in (0, 1)])


def padded_bands(c, d, band=256):
    """The table Choi matrix c placed in the zero (2d)**2-side matrix,
    ``band`` rows at a time."""
    rows, side = padded_rows(d), 4 * d * d
    source = np.full(side, -1)
    source[rows] = np.arange(rows.size)
    for start in range(0, side, band):
        part = source[start:start + band]
        out = np.zeros((part.size, side), dtype=complex)
        placed = np.flatnonzero(part >= 0)
        out[placed[:, None], rows] = c[part[placed]]
        yield out


def padded(c, d):
    """The table Choi matrix c placed in the zero (2d)**2-side matrix."""
    return np.concatenate(list(padded_bands(c, d)))


def dense_sector_choi(gen, t):
    """The oracle of extended_choi_min_eig's matrix before it is padded,
    by the dense composition: the table Choi matrix (``table_choi``),
    checked Hermitian (``_hermitian_choi``) and written in its symmetry
    sectors (``sector_apply``)."""
    return sector_apply(gen._choi_sectors,
                        _hermitian_choi(table_choi(_semigroup(gen, t), gen.dim)))


def same_bytes_as_padded(h, c, d, band=256):
    """h has the dtype, shape and bytes (so signed zeros count) of the
    table Choi matrix c padded (``padded``), compared ``band`` rows at a
    time, so that the padded matrix is never whole."""
    side = 4 * d * d
    return h.dtype == complex and h.shape == (side, side) and all(
        h[start:start + band].tobytes() == part.tobytes()
        for start, part in zip(range(0, side, band), padded_bands(c, d, band)))


def std_choi_min_eig(gen, t):
    """The oracle of extended_choi_min_eig, in the std basis: (the smallest
    eigenvalue of the table Choi matrix c placed in the zero-padded
    (2d)**2-side matrix, max|c|)."""
    c = _hermitian_choi(table_choi(_semigroup(gen, t), gen.dim))
    return min_eig(padded(c, gen.dim)), max_abs(c)


def projected_generator_choi(gen):
    """(the physical entries' table Choi matrix c projected away from the
    unit maximally entangled vector w, max|c| before the projection), by the
    dense composition. The rank-two update C - w(w*C) - (Cw)w* + (w*Cw)ww*
    takes its products on the 2d rows w is nonzero on, ascending, as
    generator_cp_min_eig takes them: w is 0 off them."""
    gen = replace(gen, mode="physical")
    d, n = gen.dim, gen.dim ** 2
    c = table_choi(gen.entries, d)
    scale = max_abs(c)
    pos = np.r_[0:n:d + 1, n:2 * n:d + 1]
    wp = np.full(pos.size, (2 * d) ** -0.5)
    w = np.zeros(2 * n)
    w[pos] = wp
    wc, cw = wp @ c[pos], c[:, pos] @ wp
    c -= np.outer(w, wc) + np.outer(cw - (wp @ cw[pos]) * w, w)
    return c, scale


def std_generator_cp_min_eig(gen):
    """The oracle of generator_cp_min_eig, in the std basis: (the smallest
    eigenvalue of the projected table Choi matrix
    (``projected_generator_choi``), max|c|)."""
    c, scale = projected_generator_choi(gen)
    return min_eig(c), scale


def exact_generator_cp_min_eig(gen, dps=40):
    """The oracle of generator_cp_min_eig at dps digits: (the smallest
    eigenvalue of the physical entries' table Choi matrix c projected away
    from the unit maximally entangled vector w, max|c|), from the dense
    entries. c is split into the components of its pattern with w's rows
    joined (scipy.sparse.csgraph, no code of ``_ChoiSectors``); the one
    holding w is projected by the rank-two update in mpmath, and each is
    solved by mpmath's Hermitian eigensolver."""
    gen = replace(gen, mode="physical")
    d, n = gen.dim, gen.dim ** 2
    c = table_choi(gen.entries, d)
    unit = np.r_[0:n:d + 1, n:2 * n:d + 1]
    link = scipy.sparse.coo_array((np.ones(unit.size), (np.full(unit.size, unit[0]), unit)),
                                  shape=c.shape)
    count, labels = connected_components(scipy.sparse.coo_array(c != 0) + link, directed=False)
    worst = mpmath.inf
    with mpmath.workdps(dps):
        for idx in (np.flatnonzero(labels == label) for label in range(count)):
            m = mpmath.matrix([[mpmath.mpc(x) for x in row] for row in c[np.ix_(idx, idx)].tolist()])
            on = np.isin(idx, unit)
            if on.any():
                w = mpmath.matrix([1 / mpmath.sqrt(2 * d) if o else 0 for o in on])
                wm, mw = w.T * m, m * w
                m = m - w * wm - mw * w.T + (w.T * mw)[0, 0] * (w * w.T)
            eigvals = mpmath.eighe(m, eigvals_only=True) if idx.size > 1 else [m[0, 0]]
            worst = min([worst, *(mpmath.re(e) for e in eigvals)])
    return worst, max_abs(c)


def site_z_breaker(sm):
    """sm with -i [., sigma_z on site 1] added to theta_0: a Hermitian
    commutator term, so the set stays valid, on one site only."""
    n = sm.dim.bit_length() - 1
    z = np.kron(np.diag([1.0, -1.0]), np.eye(2 ** (n - 1)))
    return replace(sm, theta_zero=sm.theta_zero + commutator_map(z))


def one_ulp_off(sm):
    """sm with one stored entry of theta_0 moved by one ulp: the pattern is
    still invariant under the shift and the flip, the values are not."""
    tz = sm.theta_zero.copy()
    r, c = np.argwhere(tz != 0)[5]
    tz[r, c] = np.nextafter(tz[r, c].real, np.inf) + 1j * tz[r, c].imag
    return replace(sm, theta_zero=tz)


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
