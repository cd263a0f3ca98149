"""Structure maps of a quantum stochastic flow.

A flow is described by three linear maps on the system algebra, written
here as superoperator matrices (see :mod:`qmflow.linalg` for the stacking
convention):

* ``theta_plus``   couples to the creation noise,
* ``theta_minus``  couples to the annihilation noise,
* ``theta_zero``   is the drift.

The maps must kill the identity, satisfy the conjugation rule
``theta_minus(x*) = theta_plus(x)*`` and ``theta_zero(x*) = theta_zero(x)*``,
and obey a product rule: the noise maps are plain derivations, while the
drift picks up a quadratic correction

    theta_zero(xy) = theta_zero(x) y + x theta_zero(y)
                     + c_mp theta_minus(x) theta_plus(y)
                     + c_pm theta_plus(x) theta_minus(y).

The correction constants form the Ito table of the driving noise. For
drifts assembled from dissipators the constants are not free: they are
pinned by the maps themselves, so :func:`build_evans_hudson` measures them
(least squares over random operator pairs) and stores the calibrated
values, warning when a supplied table disagrees.

A :class:`StructureMapSet` keeps its maps as dense matrices (file output
and the report's model digest read them) and one ``scipy.sparse`` CSR view
of each. The checks in this module (unitality, conjugation, the product
rule and the Ito calibration) apply the maps through those views, one
product per map on all of its operands: the maps of chain models are a few
percent nonzero or less (0.24-1.1% at 5 sites). :func:`build_evans_hudson`
builds the maps CSR first, from the nonzero products of their Kronecker
factors (``linalg._csr_commutator`` and ``linalg._csr_dissipator``),
calibrates on those views and then makes each dense map once from its
view, with the bytes of the public dense builders. A set built from dense
maps (a structure-map file) makes its views from them.

One constructor, ``_sector_basis``, builds on first use, from the views
alone, the two bases in which the maps are block diagonal: each is the
character basis Q of a symmetry group of the maps (a ``_Sectors``).
``StructureMapSet.blocks`` is the trivial group's: Q is the identity and
the blocks are the connected components of the maps' union pattern. The
sector basis ``StructureMapSet._sectors`` is found from the maps: when
d = 2**n, the cyclic shift of the n index bits and the flip of all bits
are candidate symmetries, each accepted only if conjugation by it moves
every map onto itself exactly, entry for entry. The character basis of
the group they generate splits each orbit of vec indices into one column
per character (Buca and Prosen, New J. Phys. 14, 073007, 2012), and its
blocks are the components of the orbit coupling within each character.
It must split the largest component (at 4 periodic sites 40 blocks of at
most 22 rows against one of 144), or it is ``blocks`` itself: the open
chain (its flip leaves 9 rows), the qubit, file models. The flow layer
works in ``blocks``, the extended layer in the sector basis.
"""

import warnings
from dataclasses import InitVar, dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse

from .linalg import (
    _apply_each,
    _block,
    _csr_commutator,
    _csr_dissipator,
    _draw_op,
    _pattern_plan,
    _superop_dim,
    _todense,
    _transpose_perm,
    _unblock,
    hermitian_part,
    max_abs,
)

__all__ = [
    "ItoTable", "StructureMapSet", "check_unital", "check_conjugation",
    "leibnitz_residual", "build_evans_hudson",
]

# Unitality must hold at construction time; anything looser than this is
# not a structure-map set but a bug in the caller.
UNITAL_TOL = 1e-10

_CALIBRATION_PAIRS = 8
_CALIBRATION_SEED = 0x1707


@dataclass(frozen=True)
class ItoTable:
    """Correction constants of the drift product rule.

    c_mp multiplies theta_minus(x) theta_plus(y), c_pm the mirrored
    product. Real parts must be nonnegative: they are the weights of the
    two noise channels and negative weights have no positive semigroup.
    """

    c_mp: complex = 0.0
    c_pm: complex = 0.0

    def __post_init__(self):
        object.__setattr__(self, "c_mp", complex(self.c_mp))
        object.__setattr__(self, "c_pm", complex(self.c_pm))
        for name in ("c_mp", "c_pm"):
            v = getattr(self, name)
            if not (np.isfinite(v.real) and np.isfinite(v.imag)):
                raise ValueError(f"Ito constant {name} must be finite")
            if v.real < -1e-12:
                raise ValueError(
                    f"Ito constant {name} has negative real part {v.real:.3e}")


@dataclass(frozen=True)
class StructureMapSet:
    """The three maps of a flow plus the Ito table they were built for.

    Fields hold dense superoperator matrices of shape (dim**2, dim**2).
    Construction checks shapes, finiteness and unitality (each map must
    kill the identity to within ``UNITAL_TOL``) and builds ``csr``, one
    CSR view of each map keyed like :meth:`maps`; products of a map with
    operators go through its view, unchecked. The deeper product-rule and
    positivity properties are checked by the verification suite.
    """

    dim: int
    theta_minus: np.ndarray
    theta_zero: np.ndarray
    theta_plus: np.ndarray
    ito: ItoTable = field(default_factory=ItoTable)
    csr: dict = field(init=False, repr=False, compare=False)
    # views already built from these very maps (build_evans_hudson's)
    _views: InitVar[dict] = None

    def __post_init__(self, _views):
        d = int(self.dim)
        if d < 1:
            raise ValueError(f"dimension must be positive, got {d}")
        object.__setattr__(self, "dim", d)
        for name in ("theta_minus", "theta_zero", "theta_plus"):
            m = np.asarray(getattr(self, name), dtype=complex)
            if m.shape != (d * d, d * d):
                raise ValueError(
                    f"{name} must have shape {(d * d, d * d)}, got {m.shape}")
            object.__setattr__(self, name, m)
        if _views is None:
            _views = _csr_views(self.theta_minus, self.theta_zero, self.theta_plus)
        # a view stores every entry of its map that is not 0, NaN included
        for alpha, name in ((-1, "theta_minus"), (0, "theta_zero"), (1, "theta_plus")):
            if not np.all(np.isfinite(_views[alpha].data)):
                raise ValueError(f"{name} contains non-finite entries")
        object.__setattr__(self, "csr", _views)
        resid = check_unital(self)
        if resid > UNITAL_TOL:
            raise ValueError(
                f"structure maps must kill the identity; residual {resid:.3e}")

    def maps(self):
        """The three maps keyed by their noise index -1, 0, +1."""
        return {-1: self.theta_minus, 0: self.theta_zero, 1: self.theta_plus}

    @cached_property
    def blocks(self):
        """The block basis of every point generator, built on first use:
        the trivial group's ``_Sectors``, with Q the identity.

        Its plan's rows are the connected components of the union nonzero
        pattern of the three maps and the identity (which adds only
        diagonal entries); together they cover every index, and a set with
        one component has the plan (arange(dim**2)[None],). Its stacks are
        the maps' diagonal blocks, read from the CSR views. Every point
        generator, its exponentials and their products are block diagonal
        in this basis; ``flows.point_generator`` assembles each K(f0, g0)
        from these stacks, for the flow factors and the extended entries
        alike.
        """
        return _sector_basis(self, [])

    @cached_property
    def _sectors(self):
        """The character basis of the maps' symmetries (``_Sectors``), built
        on first use; ``blocks`` itself when the set has none that splits
        its largest block. The extended layer works in it."""
        found = _symmetries(self)
        return _sector_basis(self, found) if found else self.blocks


def _cyclic_shift(n):
    """The basis-index permutation of n sites that moves each site's spin
    one slot to the right, cyclically: index i goes to shift[i]. Slot k
    (k = 0 the leftmost) is bit n - 1 - k of the index."""
    idx = np.arange(2 ** n)
    return (idx >> 1) | ((idx & 1) << (n - 1))


def _symmetries(sm):
    """The index permutations among the cyclic bit shift and the flip of
    every bit (for dim = 2**n, n >= 1) that sm's maps are invariant under,
    as (order, permutation) pairs; the trivial shift of one bit is not a
    candidate. A permutation p of the basis indices acts on vec indices
    as (i, j) -> (p[i], p[j]); it is accepted when it moves every view's
    stored entries onto the same positions with the same values, exactly.
    """
    d = sm.dim
    n = d.bit_length() - 1
    if n < 1 or d != 1 << n:
        return []
    candidates = [(n, _cyclic_shift(n)), (2, np.arange(d) ^ (d - 1))]
    views = _stored_entries(sm)

    def invariant(vec):
        for rows, cols, data in views:
            keys, moved = rows * d * d + cols, vec[rows] * d * d + vec[cols]
            a, b = np.argsort(keys), np.argsort(moved)
            if not (np.array_equal(keys[a], moved[b]) and np.array_equal(data[a], data[b])):
                return False
        return True

    return [(order, perm) for order, perm in candidates
            if order > 1 and invariant(_vec_permutation(perm))]


def _vec_permutation(perm):
    """The vec-index permutation of X -> U X U* for the basis permutation
    U e_i = e_perm[i]: vec index j*d + i goes to perm[j]*d + perm[i]."""
    d = perm.size
    return (perm[:, None] * d + perm[None, :]).ravel()


@dataclass(frozen=True)
class _Sectors:
    """The character basis Q of a symmetry group G of a structure-map set;
    for the trivial group Q is the identity.

    Its columns are indexed by layout positions: the orbits of the vec
    indices under G one after another, smaller orbits first, and within
    an orbit O of size s its s characters chi that are trivial on O's
    stabilizer. Column (O, chi) is the sum over w in O of
    conj(chi(g_w)) e_w / sqrt(s), with g_w taking O's least index to w, so
    Q is block diagonal in orbits; ``fourier`` holds its unitary s x s
    blocks as (first position, (k, s, s) stack) per orbit size, rows in
    ascending std order, and ``position`` the layout position of each std
    index's row.

    ``plan`` holds the sector blocks in layout positions, one (k, s) index
    array per block size s, and ``stacks[alpha]`` the (k, s, s) stacks
    Q_b* theta_alpha Q_b, one per plan entry. The
    ``unit_*`` fields are the sector blocks that vec(1) lies in, all of
    trivial character: their plan and stacks in local positions, vec(1)
    in them, and for each std index its trivial column's local position
    (-1 outside them) and 1 / sqrt of its orbit size.
    """

    plan: tuple
    stacks: dict
    position: np.ndarray
    fourier: tuple
    unit_plan: tuple
    unit_stacks: dict
    unit_one: np.ndarray
    unit_local: np.ndarray
    unit_scale: np.ndarray

    def to_standard(self, m, plan):
        """Q m Q* for an n x n array m in layout positions, 0 off the
        diagonal blocks of the std plan. Each product with Q is one
        batched product per orbit size, on a copy of m; an orbit of size 1
        has the Fourier block 1, so its rows and columns are kept."""
        n, out = m.shape[0], m.copy()
        for start, f in self.fourier:
            k, s, _ = f.shape
            if s > 1:
                rows = slice(start, start + k * s)
                out[rows] = (f @ out[rows].reshape(k, s, n)).reshape(k * s, n)
        for start, f in self.fourier:
            k, s, _ = f.shape
            if s > 1:
                cols = slice(start, start + k * s)
                part = out[:, cols].reshape(n, k, s).transpose(1, 0, 2) @ f.conj().transpose(0, 2, 1)
                out[:, cols] = part.transpose(1, 0, 2).reshape(n, k * s)
        return _unblock([_block(out, self.position[idx]) for idx in plan], plan, n)

    def unit_image(self, e):
        """The operator exp(t L)(1), for e = exp(t L) on the unit blocks."""
        vec = np.where(self.unit_local >= 0, (e @ self.unit_one)[self.unit_local], 0)
        d = int(round(np.sqrt(vec.size)))
        return (vec * self.unit_scale).reshape((d, d), order="F")


def _sector_basis(sm, found):
    """The character basis of the group generated by found, (order,
    permutation) pairs from ``_symmetries``; for found = [] the trivial
    group's. A found group whose plan does not split the largest block of
    ``sm.blocks`` gives ``sm.blocks``, before Q or a stack is built."""
    d, n = sm.dim, sm.dim ** 2
    rows, cols = _union_pattern(sm)
    # element a of G is prod_l g_l**a_l, kept as its vec permutation; the
    # character a takes the value exp(2 pi i phase[a, b] / period) on b
    orders = np.array([order for order, _ in found], dtype=int)
    period = int(np.prod(orders))
    coords = np.array(list(np.ndindex(*orders)), dtype=int)
    steps = [_vec_permutation(perm) for _, perm in found]
    images = []
    for a in coords:
        vec = np.arange(n)
        for step, power in zip(steps, a):
            for _ in range(power):
                vec = step[vec]
        images.append(vec)
    images = np.array(images)
    phase = (coords * (period // orders)) @ coords.T % period

    # orbits, the element taking each one's least index to each member,
    # and the characters trivial on each one's stabilizer
    least, orbit = np.unique(images.min(axis=0), return_inverse=True)
    size = np.bincount(orbit)
    element = np.argmax(images[:, least[orbit]] == np.arange(n), axis=0)
    stabilizer = images[:, least] == least
    allowed = ~np.any(stabilizer.T[:, None, :] & (phase != 0)[None], axis=2)

    # layout: orbits by size, then by least index; columns by character
    order = np.argsort(size, kind="stable")
    layout = np.lexsort((np.arange(n), np.argsort(order)[orbit]))
    col_orbit, col_char = np.nonzero(allowed[order])
    col_orbit = order[col_orbit]
    column = np.full(allowed.shape, -1)
    column[col_orbit, col_char] = np.arange(n)

    # sector blocks: orbits coupled by a map, within each character
    pairs = np.unique(orbit[rows] * size.size + orbit[cols])
    o1, o2 = np.divmod(pairs, size.size)
    pair, char = np.nonzero(allowed[o1] & allowed[o2])
    plan = _pattern_plan(n, column[o1[pair], char], column[o2[pair], char])
    if found and plan[-1].shape[1] >= sm.blocks.plan[-1].shape[1]:
        return sm.blocks

    roots = np.exp(-2j * np.pi * np.arange(period) / period)
    fourier, q_rows, q_cols = [], [], []
    for s in np.unique(size):
        span = np.flatnonzero(size[col_orbit] == s)
        k = span.size // s
        g = element[layout[span]].reshape(k, s, 1)
        f = roots[phase[col_char[span].reshape(k, 1, s), g]] / np.sqrt(s)
        fourier.append((int(span[0]), f))
        q_rows.append(np.broadcast_to(layout[span].reshape(k, s, 1), f.shape).ravel())
        q_cols.append(np.broadcast_to(span.reshape(k, 1, s), f.shape).ravel())
    q = scipy.sparse.csr_array(
        (np.concatenate([f.ravel() for _, f in fourier]),
         (np.concatenate(q_rows), np.concatenate(q_cols))), shape=(n, n))
    qh = q.conj().T.tocsr()

    # each layout position's plan group, row in the group, slot in the row
    group, row, slot = (np.empty(n, int) for _ in range(3))
    for i, idx in enumerate(plan):
        group[idx] = i
        row[idx] = np.arange(idx.shape[0])[:, None]
        slot[idx] = np.arange(idx.shape[1])
    block = np.cumsum([0] + [idx.shape[0] for idx in plan])[group] + row
    stacks = {}
    for alpha, view in sm.csr.items():
        sec = (qh @ view @ q).tocoo()
        # entries between blocks are rounding on an exact 0: dropped
        inside = block[sec.row] == block[sec.col]
        r, c, v = sec.row[inside], sec.col[inside], sec.data[inside]
        stacks[alpha] = tuple(np.zeros((idx.shape[0], idx.shape[1], idx.shape[1]), complex)
                              for idx in plan)
        for i, stack in enumerate(stacks[alpha]):
            mine = group[r] == i
            stack[row[r[mine]], slot[r[mine]], slot[c[mine]]] = v[mine]

    # the unit blocks: those holding the trivial columns of diagonal orbits
    diagonal = np.unique(orbit[np.arange(d) * (d + 1)])
    trivial = column[diagonal, 0]
    held = np.isin(block, block[trivial])
    local = np.full(n, -1)
    local[held] = np.arange(np.count_nonzero(held))
    keep = [held[idx[:, 0]] for idx in plan]
    unit_plan = tuple(local[idx[k]] for idx, k in zip(plan, keep) if k.any())
    unit_stacks = {alpha: tuple(stack[k] for stack, k in zip(group_, keep) if k.any())
                   for alpha, group_ in stacks.items()}
    unit_one = np.zeros(np.count_nonzero(held))
    unit_one[local[trivial]] = np.sqrt(size[diagonal])

    sectors = _Sectors(plan=plan, stacks=stacks, position=np.argsort(layout),
                       fourier=tuple(fourier), unit_plan=unit_plan, unit_stacks=unit_stacks,
                       unit_one=unit_one, unit_local=local[column[orbit, 0]],
                       unit_scale=1.0 / np.sqrt(size[orbit]))
    for array in (sectors.position, *plan, *unit_plan, *(f for _, f in fourier),
                  *(s for group_ in (*stacks.values(), *unit_stacks.values()) for s in group_),
                  sectors.unit_one, sectors.unit_local, sectors.unit_scale):
        array.flags.writeable = False
    return sectors


def _stored_entries(sm):
    """(rows, cols, values) of the nonzero entries each CSR view stores."""
    out = []
    for view in sm.csr.values():
        rows = np.repeat(np.arange(view.shape[0]), np.diff(view.indptr))
        nonzero = view.data != 0
        out.append((rows[nonzero], view.indices[nonzero], view.data[nonzero]))
    return out


def _union_pattern(sm):
    """(rows, cols) of every position at which some map of sm is nonzero,
    each once, read from the CSR views."""
    n = sm.dim ** 2
    keys = np.unique(np.concatenate([rows * n + cols for rows, cols, _ in _stored_entries(sm)]))
    return keys // n, keys % n


def _csr_views(theta_minus, theta_zero, theta_plus):
    """CSR views of three dense maps, keyed by their noise index -1, 0, +1."""
    return {alpha: scipy.sparse.csr_array(m)
            for alpha, m in ((-1, theta_minus), (0, theta_zero), (1, theta_plus))}


def check_unital(sm):
    """max over the three maps of ||theta(identity)|| (max-abs norm)."""
    eye = np.eye(sm.dim, dtype=complex)
    return max(max_abs(_apply_each(m, [eye])) for m in sm.csr.values())


def check_conjugation(sm):
    """Residual of the conjugation rule, maximized over an operator basis.

    Returns max(||theta_minus - C(theta_plus)||, ||theta_zero - C(theta_zero)||)
    in the max-abs norm, where C is the matrix transform realizing
    x -> theta(x*)* (see ``adjoint_superop_matrix``). Vanishing residual is
    equivalent to the rule holding for every operator, not just sampled
    ones. C is conjugation plus a permutation, and each view stores at
    most one entry per position, so the residual computed from the stored
    entries of the CSR views is the dense formula's value bit for bit.
    """
    n = sm.dim ** 2
    p = _transpose_perm(sm.dim)

    def residual(m, partner):
        # stored entries keyed by flat position; C moves the partner's
        # entry (r, c) to (p[r], p[c]) and conjugates it
        rows_m, rows_q = (np.repeat(np.arange(n), np.diff(s.indptr)) for s in (m, partner))
        keys = np.concatenate([rows_m * n + m.indices, p[rows_q] * n + p[partner.indices]])
        vals = np.concatenate([m.data, -partner.data.conj()])
        order = np.argsort(keys)
        keys, vals = keys[order], vals[order]
        # a position held by both: a + (-conj b) is a - conj b exactly
        both = np.flatnonzero(keys[1:] == keys[:-1])
        vals[both] += vals[both + 1]
        vals[both + 1] = 0
        return max_abs(vals)

    return max(residual(sm.csr[0], sm.csr[0]), residual(sm.csr[-1], sm.csr[1]))


def leibnitz_residual(sm, x, y):
    """Product-rule residuals of the three maps on a pair of operators.

    Returns a dict keyed by -1, 0, +1. The noise maps must be exact
    derivations; the drift residual is taken against the stored Ito table.
    Each map is applied to xy, x and y in one product (three in all); the
    drift correction reuses the noise maps' images.
    """
    x = np.asarray(x, dtype=complex)
    y = np.asarray(y, dtype=complex)
    if x.shape != (sm.dim, sm.dim) or y.shape != (sm.dim, sm.dim):
        raise ValueError(
            f"operands must be {sm.dim}x{sm.dim} operators, got {x.shape} and {y.shape}")
    xy = x @ y
    for name, op in (("x", x), ("y", y), ("x @ y", xy)):
        if not np.all(np.isfinite(op)):
            raise ValueError(f"operand {name} contains non-finite entries")
    # image[alpha] = (theta_alpha(xy), theta_alpha(x), theta_alpha(y))
    image = {alpha: _apply_each(m, (xy, x, y)) for alpha, m in sm.csr.items()}

    def defect(alpha):
        txy, tx, ty = image[alpha]
        return txy - tx @ y - x @ ty

    out = {alpha: max_abs(defect(alpha)) for alpha in (-1, 1)}
    corr = (sm.ito.c_mp * image[-1][1] @ image[1][2]
            + sm.ito.c_pm * image[1][1] @ image[-1][2])
    out[0] = max_abs(defect(0) - corr)
    return out


def calibrate_ito(theta_minus, theta_zero, theta_plus, dim):
    """Measure the drift's correction constants by least squares.

    Draws a fixed set of random operator pairs, computes the drift's
    product-rule defect and fits it to the two quadratic correction
    candidates. Returns (ItoTable, fit_residual). Raises when the defect
    is not spanned by the two products, i.e. the maps do not satisfy a
    two-constant product rule at all. The maps are validated here and
    applied through CSR views, one product per map on all of its operands.
    """
    checked = []
    for name, m in (("theta_minus", theta_minus), ("theta_zero", theta_zero),
                    ("theta_plus", theta_plus)):
        m, d = _superop_dim(m, name)
        if d != dim:
            raise ValueError(f"{name} acts on {d}x{d} operators, expected {dim}x{dim}")
        checked.append(m)
    return _calibrate_ito(_csr_views(*checked), dim)


def _calibrate_ito(views, dim):
    """``calibrate_ito`` without checks, on the CSR views (keyed -1, 0, +1)
    of maps on dim x dim operators computed from validated operands."""
    rng = np.random.default_rng([_CALIBRATION_SEED, dim])
    n = _CALIBRATION_PAIRS
    draws = np.asarray([_draw_op(rng, dim) for _ in range(2 * n)])
    xs, ys = draws[0::2], draws[1::2]
    # images of x_1..x_n then y_1..y_n; the drift's come after those of x_k y_k
    tm = _apply_each(views[-1], np.concatenate([xs, ys]))
    tp = _apply_each(views[1], np.concatenate([xs, ys]))
    t0 = _apply_each(views[0], np.concatenate([xs @ ys, xs, ys]))
    a = np.stack([(tm[:n] @ tp[n:]).ravel(), (tp[:n] @ tm[n:]).ravel()], axis=1)
    b = (t0[:n] - t0[n:2 * n] @ ys - xs @ t0[2 * n:]).ravel()
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise ValueError("structure maps contain non-finite or overflowing entries")
    scale = max(max_abs(a), max_abs(b))
    if scale < 1e-13:
        # No quadratic content at all (e.g. zero noise maps): any table works.
        return ItoTable(0.0, 0.0), 0.0
    coeffs, *_ = np.linalg.lstsq(a, b, rcond=None)
    resid = max_abs(a @ coeffs - b)
    if resid > 1e-8 * max(1.0, scale):
        raise ValueError(
            "drift defect is not a two-constant combination of the noise-map "
            f"products (fit residual {resid:.3e})")
    return ItoTable(coeffs[0], coeffs[1]), float(resid)


def build_evans_hudson(h, f, w_minus, w_plus, ito=None):
    """Structure maps of a Hamiltonian-plus-dissipator drift.

    theta_plus  = -i [., F]
    theta_minus = -i [., F*]
    theta_zero  = -i [., H] + w_minus (2 F* . F - {., F*F})
                            + w_plus  (2 F . F* - {., FF*})

    Parameters
    ----------
    h : array, shape (d, d)
        Hamiltonian. Must be Hermitian to 1e-12 relative; slight
        asymmetry is symmetrized away with a warning.
    f : array, shape (d, d)
        Coupling operator.
    w_minus, w_plus : float
        Finite, nonnegative dissipation weights.
    ito : ItoTable, optional
        Declared Ito table. The constants actually stored are always the
        calibrated ones; a disagreeing declaration triggers a warning.
    """
    h = np.asarray(h, dtype=complex)
    f = np.asarray(f, dtype=complex)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError(f"hamiltonian must be square, got shape {h.shape}")
    if f.shape != h.shape:
        raise ValueError(
            f"coupling operator shape {f.shape} does not match hamiltonian {h.shape}")
    asym = max_abs(h - h.conj().T)
    if asym > 1e-12 * max(1.0, max_abs(h)):
        raise ValueError(f"hamiltonian is not Hermitian (asymmetry {asym:.3e})")
    if asym > 0:
        warnings.warn("hamiltonian symmetrized (tiny asymmetry within tolerance)")
        h = hermitian_part(h)
    d = h.shape[0]

    views = {-1: _csr_commutator(f.conj().T),
             0: (_csr_commutator(h)
                 + _csr_dissipator(f, w_minus)
                 + _csr_dissipator(f, w_plus, mirrored=True)),
             1: _csr_commutator(f)}
    calibrated, _ = _calibrate_ito(views, d)
    if ito is not None:
        dev = max(abs(ito.c_mp - calibrated.c_mp), abs(ito.c_pm - calibrated.c_pm))
        if dev > 1e-8:
            warnings.warn(
                f"declared Ito constants ({ito.c_mp:.6g}, {ito.c_pm:.6g}) disagree "
                f"with calibrated ({calibrated.c_mp:.6g}, {calibrated.c_pm:.6g}); "
                "storing the calibrated values")
    # Each dense map once, from its view; the set validates them. One
    # allocation holds all three: a process that frees a model then frees
    # one block of 3 d**4 entries, and glibc raises its heap trim threshold
    # to twice that, so the d**2-row temporaries of later flow factors are
    # reused from the heap instead of page-faulted in afresh.
    zero = -1j * 0j   # a commutator map's entries off its view
    theta_minus, theta_zero, theta_plus = _todense(
        [views[-1], views[0], views[1]], [zero, None, zero])
    return StructureMapSet(dim=d, theta_minus=theta_minus, theta_zero=theta_zero,
                           theta_plus=theta_plus, ito=calibrated, _views=views)
