"""The extended semigroup on 2x2 block operators.

A Markov flow restricted to number vectors is described by four operator
semigroups at once. They fit into a single semigroup acting entrywise on
2x2 block matrices over the system algebra. The four generator entries
are the flow's point generators (``flows.point_generator``) at the
corners of the unit square, L_ij = K(f0=i, g0=j):

    L = [ theta_0                 theta_0 + theta_minus              ]
        [ theta_0 + theta_plus    theta_0 + theta_plus + theta_minus ]

in conservative normalization; the physical normalization adds the
identity map to the bottom-right entry, which makes the evolved identity
block grow like e^t instead of staying flat. One generator object serves
both normalizations: ``dataclasses.replace(gen, mode=...)`` switches
between them without validating the structure maps again.

Everything here acts blockwise, so properties of the big map (complete
positivity, dissipativity against the block derivation delta) reduce to
joint properties of the four entries. The diagnostics in this module are
the numerical versions of those properties, and every one of them acts
through the one 2x2 table, never a (2d)**2-side superoperator: ``_table``
builds a table entry by entry, ``_semigroup`` is the table of time-t maps
exp(t L_ij) (``_time`` is the one place a non-finite or negative time is
refused), ``linalg._apply_grid`` applies a table to the blocks of an
operator, ``_ChoiSectors.gather`` reads the entries of a table's Choi
matrix that can be nonzero straight from the maps, and
``_unit_deviation`` measures how far a table's images of the identity
(``_unit_images``) are from fixed multiples of it. The entries L_ij =
K(i, j) are the flow's point generators, so exponentials and resolvents
are computed in the symmetry-reduced basis of the flow factors
(``StructureMapSet._sectors``, the representatives' stabilizer-character
blocks): ``_semigroup`` exponentiates each entry there in one call and
maps it back onto L_ij's own plan (``_entry_plan``, read from its CSR
sum), ``_unit_images`` only the blocks that hold vec(1), and
``resolvent_generator`` solves each entry block by block. The entries are
stored once, as CSR sums (``_sums``); a check that needs them dense
converts them per call and keeps no copy. ``generator_cp_min_eig`` decides
complete positivity for every t, and the dissipativity form at every
ampliation, from one eigenvalue of the generator with no exponential.

Both Choi tests split the table Choi matrix by the characters of the
source's symmetry group (``_ChoiSectors``, built once per generator from
the entries' plans or CSR sums, with no exponential): its components of
more than one row are written in the basis of their stabilizers'
characters, and the eigensolve sees one block per component and
character (``structure._characters``, the rule of the flow factors'
basis too). At 4 periodic sites the largest block is 46 rows, not 296. A
model with a trivial group takes the same path: Q is the identity and the
blocks are the components, so its eigenvalues have the std basis's bits.
Neither test builds a dense table Choi matrix. Each reads the rows of
the multi-row components and the diagonal of the others from its maps,
the time-t maps or the CSR sums of the generator's entries (whose rows
are then projected away from the maximally entangled vector), and
``_ChoiSectors.min_eig`` places each character block into one zero
matrix for the one eigensolve: the padded (2d)**2-side Choi matrix of
the time-t map, or the 2 d**2-side table Choi matrix of the generator.
Either has the bytes the dense composition gives.
"""

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .flows import MODES, _factor, _generator_blocks, _generator_csr
from .linalg import (
    _apply,
    _apply_grid,
    _block,
    _component_labels,
    _draw_op,
    _check_hermitian,
    _labels_plan,
    _unblock,
    matrix_exponential,
    max_abs,
    min_eig,
)
from .structure import (
    StructureMapSet,
    _by_orbits,
    _characters,
    _group_elements,
    check_conjugation,
    leibnitz_residual,
)

__all__ = [
    "BlockOp2", "ExtendedGenerator", "build_extended_generator", "apply_extended",
    "extended_choi_min_eig", "conservativity_residual", "normalization_residual",
    "kappa_residual", "generator_cp_min_eig", "dissipativity_residual_min_eig",
    "delta_map", "delta_sq_map", "delta_sq_semigroup", "commutation_residual",
    "resolvent_generator",
]

# The time-t test builds the padded Choi matrix, dense with side (2d)**2,
# so it takes 16 (2d)**4 bytes: 256 MiB at block dimension 32 and 4 GiB at
# 64; the generator test builds the 2 d**2-side table Choi matrix, a
# quarter of that. Each eigensolve is split into diagonal blocks
# (linalg.min_eig), so memory, not solve time, sets this bar.
MAX_CHOI_BLOCK_DIM = 32


def _table(fn):
    """The 2x2 table ((fn(0, 0), fn(0, 1)), (fn(1, 0), fn(1, 1)))."""
    return tuple(tuple(fn(i, j) for j in (0, 1)) for i in (0, 1))


@dataclass(frozen=True)
class BlockOp2:
    """A 2x2 block matrix with d x d operator entries."""

    x00: np.ndarray
    x01: np.ndarray
    x10: np.ndarray
    x11: np.ndarray

    def __post_init__(self):
        shape = np.shape(self.x00)
        for name in ("x00", "x01", "x10", "x11"):
            b = np.asarray(getattr(self, name), dtype=complex)
            if b.ndim != 2 or b.shape[0] != b.shape[1]:
                raise ValueError(f"block {name} must be square, got shape {b.shape}")
            if b.shape != shape:
                raise ValueError(f"block {name} has shape {b.shape}, expected {shape}")
            object.__setattr__(self, name, b)

    @property
    def dim(self):
        return self.x00.shape[0]

    def block(self, i, j):
        return getattr(self, f"x{i}{j}")

    def as_full(self):
        """Assemble the 2d x 2d matrix."""
        return np.block([[self.x00, self.x01], [self.x10, self.x11]])

    @classmethod
    def from_full(cls, m):
        m = np.asarray(m, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] % 2:
            raise ValueError(f"expected an even-dimensional square matrix, got {m.shape}")
        d = m.shape[0] // 2
        return cls(m[:d, :d], m[:d, d:], m[d:, :d], m[d:, d:])

    @classmethod
    def identity_pattern(cls, d):
        """All four blocks equal to the identity (the order unit J)."""
        eye = np.eye(d)
        return cls(eye, eye, eye, eye)

    def adjoint(self):
        return BlockOp2(self.x00.conj().T, self.x10.conj().T,
                        self.x01.conj().T, self.x11.conj().T)

    def __sub__(self, other):
        return BlockOp2(self.x00 - other.x00, self.x01 - other.x01,
                        self.x10 - other.x10, self.x11 - other.x11)

    def max_abs(self):
        return max(max_abs(self.block(i, j)) for i in (0, 1) for j in (0, 1))


@dataclass(frozen=True)
class ExtendedGenerator:
    """The structure maps viewed as the 2x2 generator table of one mode.

    Entry (i, j) is ``point_generator(source, i, j, mode)``, stored once as
    a CSR sum of the source's views (``_sums``, cached with the block plans
    on first use); ``block`` and ``entries`` convert to dense on each read.
    """

    source: StructureMapSet
    mode: str

    @property
    def dim(self):
        return self.source.dim

    @cached_property
    def _sums(self):
        """The entries as CSR matrices (``flows._generator_csr``)."""
        return _table(lambda i, j: _generator_csr(self.source, i, j, self.mode))

    @cached_property
    def _plans(self):
        """The entries' plans (``_entry_plan``), found on first use."""
        return _table(lambda i, j: _entry_plan(self, i, j))

    @cached_property
    def _choi_sectors(self):
        """The sector transform of the table Choi matrix of every exp(t L)
        (``_ChoiSectors``), whose entry (i, j) lies on L_ij's plan blocks."""
        return _choi_sectors(self, lambda i, j: _plan_positions(self._plans[i][j]))

    @cached_property
    def _generator_choi_sectors(self):
        """The sector transform of the table Choi matrix of the entries,
        from the positions of their CSR sums, with the rows of the unit
        maximally entangled vector joined."""
        return _choi_sectors(self, lambda i, j: self._sums[i][j].nonzero(), unit=True)

    def block(self, i, j):
        return self._sums[i][j].toarray()

    @property
    def entries(self):
        return _table(self.block)


def _in_mode(gen, mode):
    return gen if gen.mode == mode else replace(gen, mode=mode)


def build_extended_generator(sm, mode="physical"):
    """The 2x2 generator table of a structure-map set in one normalization.

    The set must pass the structural axioms (unitality, checked when the
    set is constructed, conjugation, and the derivation rule for the noise
    maps); sets failing them produce a generator with no meaning, so they
    are rejected with a diagnostic. The drift's calibrated product rule is
    a soft property checked by the suite, not a construction precondition.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if not isinstance(sm, StructureMapSet):
        raise ValueError("expected a StructureMapSet")

    r_conj = check_conjugation(sm)
    if r_conj > 1e-10:
        raise ValueError(f"axiom failure: conjugation rule violated ({r_conj:.3e})")
    rng = np.random.default_rng([0xD1CE, sm.dim])
    # the view stores every nonzero entry of theta_plus
    bar = 1e-9 * max(1.0, max_abs(sm.csr[1].data) ** 2)
    for _ in range(4):
        res = leibnitz_residual(sm, _draw_op(rng, sm.dim), _draw_op(rng, sm.dim))
        if max(res[-1], res[1]) > bar:
            raise ValueError(
                f"axiom failure: noise maps are not derivations "
                f"(residual {max(res[-1], res[1]):.3e})")
    return ExtendedGenerator(source=sm, mode=mode)


def _time(t):
    """t as a float; refuses non-finite and negative times."""
    t = float(t)
    if not np.isfinite(t):
        raise ValueError(f"evolution time must be finite, got {t}")
    if t < 0:
        raise ValueError(f"evolution time must be nonnegative, got {t}")
    return t


def _entry_plan(gen, i, j):
    """The plan of L_ij (``_diagonal_blocks`` of the dense entry, bit for
    bit), from the positions of its nonzero entries in ``gen._sums``."""
    return _labels_plan(_component_labels(gen.dim ** 2, *gen._sums[i][j].nonzero()))


def _semigroup(gen, t):
    """The table of time-t maps exp(t L_ij).

    Each entry is the flow factor exp(t K(i, j)) (``flows._factor``, one
    exponential on the compact matrix of the distinct blocks of the
    source's ``_Sectors``), mapped back to the std basis with every copy
    restored, 0 off L_ij's diagonal blocks as the exact map is.
    """
    sm, t = gen.source, _time(t)
    return _table(lambda i, j: sm._sectors.to_standard(_factor(sm, i, j, t, gen.mode),
                                                       gen._plans[i][j]))


def _unit_images(gen, t):
    """The table of exp(t L_ij)(1): only the blocks that vec(1) lies in
    are exponentiated, one call per entry."""
    sectors, t = gen.source._sectors, _time(t)
    n = sectors.unit_one.size

    def entry(i, j):
        m = _unblock(_generator_blocks(sectors.unit_stacks, i, j, gen.mode),
                     sectors.unit_plan, n)
        return sectors.unit_image(matrix_exponential(m, t))

    return _table(entry)


def _unit_deviation(images, scale, d):
    """Worst relative deviation of a table of images of the identity from
    a profile of identities.

    max over (i, j) of max_abs(images_ij - c_ij 1) / max(1, |c_ij|) with
    c = scale: how far map_ij is from sending the identity to c_ij times it.
    """
    eye = np.eye(d)
    return max(max_abs(images[i][j] - scale[i][j] * eye)
               / max(1.0, abs(scale[i][j])) for i in (0, 1) for j in (0, 1))


def apply_extended(gen, t, x):
    """Evolve a block operator: entry (i, j) goes through exp(t L_ij)
    (``_semigroup``)."""
    if not isinstance(x, BlockOp2):
        x = BlockOp2.from_full(x)
    if x.dim != gen.dim:
        raise ValueError(f"block dimension {x.dim} does not match generator dimension {gen.dim}")
    return BlockOp2.from_full(_apply_grid(_semigroup(gen, t), gen.dim, x.block))


def _plan_positions(plan):
    """(rows, cols) of every position within the diagonal blocks of a plan,
    as 32-bit indices."""
    blocks = [(idx.astype(np.int32), idx.shape + idx.shape[-1:]) for idx in plan]
    return (np.concatenate([np.broadcast_to(idx[:, :, None], shape).ravel() for idx, shape in blocks]),
            np.concatenate([np.broadcast_to(idx[:, None, :], shape).ravel() for idx, shape in blocks]))


def _read(m, rows, cols):
    """m[rows, cols] for index arrays of one shape, read at flat (row, col)
    pairs: m may be a dense array or a ``csr_array``, which gives a sparse
    result for no pair."""
    if not rows.size:
        return np.zeros(rows.shape, dtype=complex)
    return m[rows.ravel(), cols.ravel()].reshape(rows.shape)


@dataclass(frozen=True)
class _ChoiSectors:
    """The 2 d**2-side table Choi matrix's symmetry-sector basis.

    The source's group G (``StructureMapSet._group``) acts on row
    (i, a d + b) as (i, p[a] d + p[b]). Each table entry commutes with
    X -> U X U* for the basis permutation U of p, and
    C[(i, k), (j, l)] = S[(l, k), (j, i)], so the Choi matrix is invariant
    under that action (Choi, Linear Algebra Appl. 10, 1975). Its components
    of more than one row (``rows``, in layout order) are split by the
    characters of their stabilizers as ``structure._characters`` splits
    them, with the Fourier blocks ``fourier``; ``plan`` holds the character
    blocks in layout positions, one per (component, character). For a
    trivial group every Fourier block is 1 and the blocks are the
    components. A component of one row (``singles``, ascending) is left in
    place: its diagonal entry is its eigenvalue. Both Choi tests read the
    matrix with ``gather`` and end in ``min_eig``.
    """

    rows: np.ndarray
    singles: np.ndarray
    fourier: tuple
    plan: tuple

    def gather(self, table, d):
        """(c[rows][:, rows], c's diagonal at singles) for the table Choi
        matrix c of table, the 2 d**2-side matrix whose (i, j) block is
        Choi(table[i][j]), read straight from the maps, one quadrant (i, j)
        at a time: C[i n + a d + b, j n + e d + f] = S_ij[f d + b, e d + a]
        with n = d**2. c is 0 everywhere else: there it lies between two
        components. Each map may be a dense array or a ``csr_array``
        (``_read``)."""
        n = d * d
        quadrant, rest = np.divmod(self.rows, n)
        a, b = np.divmod(rest, d)
        held = np.empty((self.rows.size, self.rows.size), dtype=complex)
        for i in (0, 1):
            x = np.flatnonzero(quadrant == i)[:, None]
            for j in (0, 1):
                y = np.flatnonzero(quadrant == j)
                held[x, y] = _read(table[i][j], b[y] * d + b[x], a[y] * d + a[x])
        quadrant, rest = np.divmod(self.singles, n)
        a, b = np.divmod(rest, d)
        diagonal = np.empty(self.singles.size, dtype=complex)
        for i in (0, 1):
            x = quadrant == i
            diagonal[x] = _read(table[i][i], b[x] * (d + 1), a[x] * (d + 1))
        return held, diagonal

    def min_eig(self, held, diagonal, at, side):
        """The smallest eigenvalue of the table Choi matrix's held rows
        (rows by rows, as ``gather`` reads them) and its diagonal at
        singles, with std row r placed at row at[r] of a zero side x side
        matrix. held is written in the sectors, Q* held Q in place, and
        each plan block is placed on its own, so the rounding between
        characters is dropped; the one ``min_eig`` call solves the blocks."""
        held = _by_orbits(held, self.fourier, inverse=True)
        full = np.zeros((side, side), dtype=complex)
        rows = at[self.rows]
        for idx in self.plan:
            full[rows[idx][:, :, None], rows[idx][:, None, :]] = _block(held, idx)
        singles = at[self.singles]
        full[singles, singles] = diagonal
        return min_eig(full)


def _unit_rows(d):
    """The rows i d**2 + k (d + 1) of the table Choi matrix, ascending: the
    2d rows on which the unit maximally entangled vector is nonzero."""
    return np.r_[0:d * d:d + 1, d * d:2 * d * d:d + 1]


def _choi_sectors(gen, support, unit=False):
    """The ``_ChoiSectors`` of the table Choi matrix whose block (i, j) is
    Choi of a map with nonzero entries at most at support(i, j), (rows,
    cols); with unit, the rows of the unit maximally entangled vector are
    also joined. Its blocks are ``structure._characters``' plan, one per
    (component, character); for a trivial group they are the components,
    and Q is the identity."""
    d, n = gen.dim, gen.dim ** 2
    rows, cols = [], []
    for i in (0, 1):
        for j in (0, 1):
            r, c = support(i, j)
            # C[i d + k, j d + l] = S[l d + k, j d + i]
            rows.append((c % d) * d + r % d + i * n)
            cols.append((c // d) * d + r // d + j * n)
    if unit:
        rows.append(np.zeros(2 * d, dtype=int))
        cols.append(_unit_rows(d))
    comp = _component_labels(2 * n, np.concatenate(rows), np.concatenate(cols))
    sizes = np.bincount(comp)[comp]
    held = np.flatnonzero(sizes > 1)

    orders, coords, act = _group_elements(gen.source._group)
    images = np.array([act(a, np.arange(n)) for a in coords])
    images = np.concatenate([images, images + n], axis=1)
    _, _, layout, _, fourier, plan = _characters(orders, coords, images, comp, held)
    sectors = _ChoiSectors(rows=held[layout], singles=np.flatnonzero(sizes == 1),
                           fourier=tuple(fourier), plan=plan)
    for array in (sectors.rows, sectors.singles, *(f for _, f in fourier)):
        array.flags.writeable = False
    return sectors


def extended_choi_min_eig(gen, t):
    """Smallest Choi eigenvalue of the time-t extended map.

    Nonnegative (to tolerance) iff the extended map is completely
    positive. Its Choi matrix (side (2d)**2, guarded) is the table Choi
    matrix c of the time-t maps with row p*d + k of block row i moved to
    (i*d + p)*2d + i*d + k, 0 else. c is never built: the held rows of its
    components of more than one row and the diagonal of the others, the
    only entries that can be nonzero, are gathered from the time-t maps
    (``_ChoiSectors.gather``) and checked Hermitian as ``_hermitian_choi``
    checks c. The held rows are written in the symmetry sectors, a unitary
    change of basis within each component, and each character block is
    placed straight into the padded matrix with the rounding between
    characters dropped (``_ChoiSectors.min_eig``), so the one ``min_eig``
    call solves the character blocks. The maps are dropped before the
    padded matrix is made.
    """
    _choi_guard(gen)
    # built before the table, so that its transients do not add to it
    sectors = gen._choi_sectors
    held, diagonal = sectors.gather(_semigroup(gen, t), gen.dim)
    # c is 0 off these two parts, so their maxima are those of c - c* and c
    _check_hermitian(np.max([max_abs(held - held.conj().T), max_abs(diagonal - diagonal.conj())]),
                     np.max([max_abs(held), max_abs(diagonal)]))
    d = gen.dim
    i, p, k = np.unravel_index(np.arange(2 * d * d), (2, d, d))
    return sectors.min_eig(held, diagonal, (i * d + p) * (2 * d) + i * d + k, 4 * d * d)


def _choi_guard(gen):
    if gen.dim > MAX_CHOI_BLOCK_DIM:
        raise ValueError(
            f"block dimension {gen.dim} exceeds the Choi diagnostic guard "
            f"({MAX_CHOI_BLOCK_DIM})")


def conservativity_residual(gen, t):
    """Deviation of the conservative evolution from fixing the unit block.

    Applies the conservative-normalization entries to the all-identity
    block operator and returns the max-abs deviation from it.
    """
    return _unit_deviation(_unit_images(_in_mode(gen, "conservative"), t),
                           ((1.0, 1.0), (1.0, 1.0)), gen.dim)


def normalization_residual(gen, t):
    """Relative deviation of the physical evolution from its unit profile.

    The physical entries send the identity to (1, 1, 1, e^t) times the
    identity; returns the worst blockwise max-abs deviation divided by
    max(1, |target|).
    """
    return _unit_deviation(_unit_images(_in_mode(gen, "physical"), t),
                           ((1.0, 1.0), (1.0, float(np.exp(t)))), gen.dim)


def kappa_residual(gen):
    """Domain condition on the unit block: physical L(J) = diag(0, 1) blocks.

    Returns the max-abs deviation of the physical generator applied to the
    all-identity block operator from [[0, 0], [0, identity]].
    """
    sums, eye = _in_mode(gen, "physical")._sums, np.eye(gen.dim)
    return _unit_deviation(_table(lambda i, j: _apply(sums[i][j], eye)),
                           ((0.0, 0.0), (0.0, 1.0)), gen.dim)


def generator_cp_min_eig(gen):
    """Smallest eigenvalue of the physical generator's Choi matrix C
    projected away from the unit maximally entangled vector w.

    The semigroup is completely positive for all t >= 0 iff its generator
    preserves hermiticity (the conjugation axiom, checked at build) and
    this is >= 0 (Lindblad 1976; Wolf and Cirac 2008). C is 0 off the
    rows whose two block indices agree; what is left has side 2 d**2 and
    (i, j) block Choi(L_ij), the table Choi matrix of the entries. Its
    sectors (``ExtendedGenerator._generator_choi_sectors``) join the 2d
    rows w lies on into one component, so the projection, the rank-two
    update C - w(w*C) - (Cw)w* + (w*Cw)ww*, changes only the held rows
    that ``_ChoiSectors.gather`` reads from the entries' CSR sums, with no
    dense entry; its products are taken on w's rows alone, as w is 0 off
    them. w itself gives the eigenvalue 0. w has the trivial character, so
    the projected rows are split by the same symmetry sectors and placed
    in the zero 2 d**2-side matrix for the one eigensolve
    (``_ChoiSectors.min_eig``). The conservative generator plus
    delta^2 / 2 differs from the physical one by a term the projection
    removes, so this also decides the dissipativity form at every block
    operator and ampliation level.
    """
    _choi_guard(gen)
    gen = _in_mode(gen, "physical")
    d, n, sectors = gen.dim, gen.dim ** 2, gen._generator_choi_sectors
    held, diagonal = sectors.gather(gen._sums, d)
    # the positions in held of w's rows, in ascending std order
    at = np.empty(2 * n, dtype=int)
    at[sectors.rows] = np.arange(sectors.rows.size)
    pos = at[_unit_rows(d)]
    wp = np.full(pos.size, (2 * d) ** -0.5)
    w = np.zeros(sectors.rows.size)
    w[pos] = wp
    wc, cw = wp @ held[pos], held[:, pos] @ wp
    held -= np.outer(w, wc) + np.outer(cw - (wp @ cw[pos]) * w, w)
    return sectors.min_eig(held, diagonal, np.arange(2 * n), 2 * n)


def delta_map(x):
    """The block derivation delta(x) = i [x, E] with E = diag(0, identity)."""
    if not isinstance(x, BlockOp2):
        x = BlockOp2.from_full(x)
    z = np.zeros_like(x.x00)
    return BlockOp2(z, 1j * x.x01, -1j * x.x10, z)


def delta_sq_map(x):
    """delta applied twice: kills the diagonal blocks' complement.

    Closed form: delta^2(x) = [[0, -x01], [-x10, 0]].
    """
    if not isinstance(x, BlockOp2):
        x = BlockOp2.from_full(x)
    z = np.zeros_like(x.x00)
    return BlockOp2(z, -x.x01, -x.x10, z)


def delta_sq_semigroup(t, x):
    """exp(t delta^2 / 2): leaves diagonal blocks alone, damps the
    off-diagonal ones by e^(-t/2)."""
    t = _time(t)
    if not isinstance(x, BlockOp2):
        x = BlockOp2.from_full(x)
    s = np.exp(-t / 2.0)
    return BlockOp2(x.x00, s * x.x01, s * x.x10, x.x11)


def commutation_residual(gen):
    """Worst over seeded block operators x of max(||L delta^2 x - delta^2 L x||,
    ||T x - L x||) / max(1, ||L x||) (max-abs), T the table and L the generator
    from the structure maps: L(x) = Theta_0(x) + Theta_minus(xE) + Theta_plus(Ex)
    (+ ExE when physical), delta^2(x) = -(xE + Ex - 2ExE), E = diag(0, 1). The
    first gap is 0 for any entrywise L; the second flags a table that is not L.
    """
    sm, d = gen.source, gen.dim
    e = np.kron(np.diag([0.0, 1.0]), np.eye(d))

    def generator(x):
        lx = sum(_apply_grid(((s, s), (s, s)), d, BlockOp2.from_full(y).block)
                 for s, y in ((sm.csr[0], x), (sm.csr[-1], x @ e), (sm.csr[1], e @ x)))
        return lx + e @ x @ e if gen.mode == "physical" else lx

    def delta_sq(x):
        return -(x @ e + e @ x - 2 * e @ x @ e)

    rng = np.random.default_rng([0xC0DE, d])
    worst = 0.0
    for x in (_draw_op(rng, 2 * d) for _ in range(4)):
        lx = generator(x)
        gap = max(max_abs(generator(delta_sq(x)) - delta_sq(lx)),
                  max_abs(_apply_grid(gen._sums, d, BlockOp2.from_full(x).block) - lx))
        worst = max(worst, gap / max(1.0, max_abs(lx)))
    return worst


def dissipativity_residual_min_eig(gen, x):
    """Smallest eigenvalue of the dissipativity form at a block operator.

    R = L(x*x) - L(x*)x - x*L(x) + delta(x)*delta(x)

    with L the conservative generator acting blockwise. Complete
    positivity of the semigroup forces R >= 0 for every x; a negative
    eigenvalue is a constructive witness against it. This is the
    pointwise form; ``generator_cp_min_eig`` decides the same property
    for every x and every ampliation at once.
    """
    if gen.mode != "conservative":
        raise ValueError("dissipativity form is defined for the conservative mode")
    d = gen.dim
    xs = x.as_full() if isinstance(x, BlockOp2) else np.asarray(x, dtype=complex)
    if xs.shape != (2 * d, 2 * d):
        raise ValueError(f"element must have shape {(2 * d, 2 * d)}, got {xs.shape}")

    entries = gen.entries

    def lift(m):
        return _apply_grid(entries, d, BlockOp2.from_full(m).block)

    e = np.kron(np.diag([0.0, 1.0]), np.eye(d))
    xstar = xs.conj().T
    r = lift(xstar @ xs) - lift(xstar) @ xs - xstar @ lift(xs)
    dx = 1j * (xs @ e - e @ xs)
    return min_eig(r + dx.conj().T @ dx)


def resolvent_generator(gen, eps):
    """Bounded regularization L_eps = L (1 - eps L)^(-1), entrywise.

    Returns the regularized entries as ((r00, r01), (r10, r11)); they are
    not point generators, so they are not an ExtendedGenerator. They
    converge to the originals as eps -> 0 with first-order error in eps.
    Each entry is solved block by block in the source's ``_Sectors``.
    Raises when 1 - eps L_ij is numerically singular: its largest singular
    value over its smallest, across the blocks, exceeds 1e12.
    """
    eps = float(eps)
    if not np.isfinite(eps):
        raise ValueError(f"resolvent parameter must be finite, got {eps}")
    if eps <= 0:
        raise ValueError(f"resolvent parameter must be positive, got {eps}")
    sectors = gen.source._sectors

    def regularize(i, j):
        blocks = _generator_blocks(sectors.stacks, i, j, gen.mode)
        a = [np.eye(b.shape[-1]) - eps * b for b in blocks]
        sv = np.concatenate([np.linalg.svd(x, compute_uv=False).ravel() for x in a])
        if sv.max() > 1e12 * sv.min():
            raise ValueError(f"resolvent parameter too large for entry ({i}, {j})")
        return sectors.to_standard([np.linalg.solve(x, b) for x, b in zip(a, blocks)],
                                   gen._plans[i][j])

    return _table(regularize)
