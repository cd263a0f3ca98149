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

A :class:`StructureMapSet` holds one ``scipy.sparse`` CSR view of each
map. The checks in this module (unitality, conjugation, the product rule
and the Ito calibration) apply the maps through those views, one product
per map on all of its operands: the maps of chain models are a few percent
nonzero or less (0.24-1.1% at 5 sites). The report's model digest reads
the views too. :func:`build_evans_hudson` builds the maps CSR first, from
the nonzero products of their Kronecker factors
(``linalg._csr_commutator`` and ``linalg._csr_dissipator``), calibrates on
those views and makes a set of the views alone: its dense maps are built
on first read (file output, ``maps()``), all three in one allocation, with
the bytes of the public dense builders. A set built from dense maps (a
structure-map file) keeps them and makes its views from them.

Every map, every point generator K(f0, g0) and its exponentials are block
diagonal in the connected components of the maps' union pattern
(``StructureMapSet._plan``, read from the views). One constructor,
``_sector_basis``, builds on first use, from the views alone, the one
basis in which the flow factors and the extended layer work
(``StructureMapSet._sectors``, a ``_Sectors``). It is reduced by the
maps' symmetries: when d = 2**n, the cyclic shift of the n index bits and
the flip of all bits are candidate symmetries, each accepted only if
conjugation by it moves every map onto itself exactly, entry for entry
(``StructureMapSet._group``, detected once per set). The group G they
generate permutes the components. Outside, each orbit of components keeps
one representative, and every other member is indexed by the image of
its representative's indices, so that its blocks are exact copies.
Inside, each representative is split by the characters of its stabilizer
in G (Buca and Prosen, New J. Phys. 14, 073007, 2012); a trivial
stabilizer leaves it whole. One rule, stated in ``_characters``, cuts the
sector blocks: one block per (component, character), for this basis and
for the extended layer's Choi sectors alike. Only the representatives'
sector blocks are held, in a compact layout: at 4 periodic sites 7 of
25 components, 172 of 256 rows in blocks of at most 22 (the 144-row
component, fixed by all 8 elements, split by their characters); at 5
periodic sites 512 of 1024 rows in blocks of at most 52; on the open
chain (the flip fixes no component) half the rows, unsplit. A set
without a symmetry has the trivial group's basis: the components
themselves, with Q the identity. Last, the sector blocks of one size
whose three maps' blocks have the same bytes are held once: the others
are equal-block copies, and the flow factors exponentiate the held
blocks alone (at 4 open sites 15 of 32 blocks, 91 of 128 rows).
"""

import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse

from .linalg import (
    _apply_each,
    _block,
    _component_labels,
    _csr_commutator,
    _csr_dissipator,
    _draw_op,
    _labels_plan,
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


_DENSE = ("theta_minus", "theta_zero", "theta_plus")


@dataclass(frozen=True)
class StructureMapSet:
    """The three maps of a flow plus the Ito table they were built for.

    The maps are superoperator matrices of shape (dim**2, dim**2), held as
    ``csr``, one CSR view of each keyed like :meth:`maps`: products of a
    map with operators go through its view, unchecked, and the report's
    model digest reads the views. The dense fields hold the maps the
    constructor was given. A set that :func:`build_evans_hudson` makes
    from its views builds all three dense maps, in one allocation, on the
    first read of any of them (``maps()``, file output) and keeps them;
    the suite never reads them. Construction checks that ``dim`` is a
    positive integer, shapes, finiteness and unitality (each map must kill
    the identity to within ``UNITAL_TOL``).
    The deeper product-rule and positivity properties are checked by the
    verification suite.
    """

    dim: int
    # not in the repr, which would build them
    theta_minus: np.ndarray = field(repr=False)
    theta_zero: np.ndarray = field(repr=False)
    theta_plus: np.ndarray = field(repr=False)
    ito: ItoTable = field(default_factory=ItoTable)
    csr: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        d = self.dim
        if isinstance(d, bool) or not isinstance(d, (int, np.integer)) or d < 1:
            raise ValueError(f"dimension must be a positive integer, got {d!r}")
        d = int(d)   # a numpy integer too
        object.__setattr__(self, "dim", d)
        for name in _DENSE:
            m = np.asarray(getattr(self, name), dtype=complex)
            if m.shape != (d * d, d * d):
                raise ValueError(
                    f"{name} must have shape {(d * d, d * d)}, got {m.shape}")
            object.__setattr__(self, name, m)
        object.__setattr__(self, "csr", _csr_views(self.theta_minus, self.theta_zero,
                                                   self.theta_plus))
        self._check()

    @classmethod
    def _from_views(cls, dim, views, ito, fills):
        """The set of the canonical CSR views keyed -1, 0, +1 of maps on
        dim x dim operators, with no dense map: ``fills[i]`` (None for 0)
        is the entry of dense map i off its view's stored entries."""
        sm = object.__new__(cls)
        for name, value in (("dim", dim), ("ito", ito), ("csr", views), ("_fills", fills)):
            object.__setattr__(sm, name, value)
        sm._check()
        return sm

    def _check(self):
        # a view stores every entry of its map that is not 0, NaN included
        for alpha, name in zip((-1, 0, 1), _DENSE):
            if not np.all(np.isfinite(self.csr[alpha].data)):
                raise ValueError(f"{name} contains non-finite entries")
        resid = check_unital(self)
        if resid > UNITAL_TOL:
            raise ValueError(
                f"structure maps must kill the identity; residual {resid:.3e}")

    def __getattr__(self, name):
        # called only for an attribute not found: here, a dense map of a
        # ``_from_views`` set that was not read yet
        if name not in _DENSE:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        dense = _todense([self.csr[-1], self.csr[0], self.csr[1]], self._fills)
        for key, m in zip(_DENSE, dense):
            object.__setattr__(self, key, m)
        return self.__dict__[name]

    def maps(self):
        """The three maps keyed by their noise index -1, 0, +1."""
        return {-1: self.theta_minus, 0: self.theta_zero, 1: self.theta_plus}

    @cached_property
    def _sectors(self):
        """The symmetry-reduced basis of the maps' symmetries (``_Sectors``,
        the trivial group's when there are none), built on first use. The
        flow factors and the extended layer work in it."""
        return _sector_basis(self, self._group)

    @cached_property
    def _group(self):
        """The symmetries ``_symmetries`` finds, detected once per set."""
        return _symmetries(self)

    @cached_property
    def _plan(self):
        """The plan of the connected components of the maps' union pattern,
        bit for bit ``_diagonal_blocks`` of it, read from the positions the
        views store; found once per set. Every point generator is block
        diagonal in it."""
        rows, cols, _ = (np.concatenate(part) for part in zip(*_stored_entries(self)))
        return _labels_plan(_component_labels(self.dim ** 2, rows, cols))


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


def _group_elements(found):
    """The group generated by found, (order, permutation) pairs from
    ``_symmetries``: the orders, the elements as the rows of coords (row a
    is prod_l g_l**a_l) and ``act(a, x)``, the image of the vec indices x
    under element a. The trivial group (found = []) has one element, the
    identity."""
    orders = np.array([order for order, _ in found], dtype=int)
    coords = np.array(list(np.ndindex(*orders)), dtype=int)
    steps = [_vec_permutation(perm) for _, perm in found]

    def act(a, x):
        for step, power in zip(steps, a):
            for _ in range(power):
                x = step[x]
        return x

    return orders, coords, act


@dataclass(frozen=True)
class _Sectors:
    """A block basis of the point generators, reduced by a symmetry group G
    of a structure-map set (``StructureMapSet._group``); for the trivial
    group it is the components of the maps' union pattern themselves.

    Orbit copies outside: G permutes the components, and each orbit keeps
    one representative, its least component in plan order. A member that
    an element g of G reaches from it has the index array g(rep), so the
    maps, every point generator and its exponentials hold exact copies of
    the representative's blocks there; ``source`` holds, for each std
    index, the representative index it copies (itself on a
    representative).

    Stabilizer characters inside: a representative C is split by the
    characters of its stabilizer H = {g : g(C) = C} (Buca and Prosen, New
    J. Phys. 14, 073007, 2012). Column (O, chi), for an H-orbit O of size s
    of vec indices in C and a character chi of H trivial on O's
    stabilizer, is the sum over w in O of conj(chi(h_w)) e_w / sqrt(s),
    h_w in H taking O's least index to w. A trivial H leaves C whole.

    Only the representatives are held, in a compact layout of ``side``
    positions: their H-orbits one after another, smaller orbits first,
    each followed by its characters. ``fourier`` holds the unitary s x s
    blocks of Q as (first position, (k, s, s) stack) per orbit size, rows
    in ascending std order, and ``position`` the layout position of each
    std index's source. ``plan`` holds the sector blocks in layout positions,
    one per (component, character) (``_characters``), as one (k, s) index
    array per block size s, and ``stacks[alpha]`` the stacks
    Q_b* theta_alpha Q_b of their distinct blocks (below), one per plan
    entry. The ``unit_*`` fields are the representatives' sector blocks
    that hold vec(1), all of trivial character: their plan and stacks in
    local positions, vec(1) in them, and for each std index the local
    position of its source's trivial column (-1 outside them) and 1 /
    sqrt of that column's orbit size.

    Equal-block copies beside the orbit copies: in each plan entry, the
    blocks whose theta_-, theta_0 and theta_+ blocks have the same bytes
    as an earlier block's copy it, and ``stacks[alpha]`` holds only the
    first block of each group, in plan order. ``copies`` holds, per plan
    entry, the stack row that each block reads, and ``distinct_plan`` the
    held blocks in the positions of their own compact matrix of
    ``distinct_side`` rows (the layout's positions, renumbered in order).
    Equal maps' blocks give equal blocks of every point generator, and of
    its exponential, so the flow factors and the resolvent work on the
    held blocks; ``expand`` (and so ``to_standard``) restores the copies.
    With no equal blocks ``copies`` is None and ``distinct_plan`` is
    ``plan``.
    """

    plan: tuple
    stacks: dict
    side: int
    distinct_plan: tuple
    distinct_side: int
    copies: tuple
    source: np.ndarray
    position: np.ndarray
    fourier: tuple
    unit_plan: tuple
    unit_stacks: dict
    unit_one: np.ndarray
    unit_local: np.ndarray
    unit_scale: np.ndarray

    def to_standard(self, stacks, plan):
        """The n x n matrix Q m Q* of the stacks m on this basis's plan,
        each component holding its representative's block, 0 off the
        diagonal blocks of the std plan (whose blocks lie within
        components), each block read from the compact matrix (``compact``)."""
        m = self.compact(stacks)
        return _unblock([_block(m, self.position[idx]) for idx in plan], plan, self.position.size)

    def compact(self, stacks):
        """Q m Q* on the compact side, for the stacks m of the distinct
        blocks (``distinct_plan``), expanded first: the std matrix's entry
        (r, c) within a diagonal block of the std plan is the entry
        (position[r], position[c]) of this side x side matrix. The
        products with Q are batched per orbit size (``_by_orbits``)."""
        return _by_orbits(_unblock(self.expand(stacks), self.plan, self.side), self.fourier)

    def expand(self, stacks):
        """The stacks on ``plan`` of stacks on ``distinct_plan``: each
        copy gathered from the block it copies."""
        if self.copies is None:
            return stacks
        return [stack[rows] for stack, rows in zip(stacks, self.copies)]

    def unit_image(self, e):
        """The operator exp(t L)(1), for e = exp(t L) on the unit blocks."""
        vec = np.where(self.unit_local >= 0, (e @ self.unit_one)[self.unit_local], 0)
        d = int(round(np.sqrt(vec.size)))
        return (vec * self.unit_scale).reshape((d, d), order="F")


def _by_orbits(m, fourier, inverse=False):
    """Q m Q* in place (Q* m Q when inverse) for the unitary Q whose Fourier
    blocks ``fourier`` holds (``_characters``): one batched product per
    orbit size on each side. An orbit of size 1 has the Fourier block 1,
    so its rows and columns are kept."""
    side = m.shape[0]
    for start, f in fourier:
        k, s, _ = f.shape
        if s > 1:
            rows = slice(start, start + k * s)
            left = f.conj().transpose(0, 2, 1) if inverse else f
            m[rows] = (left @ m[rows].reshape(k, s, side)).reshape(k * s, side)
    for start, f in fourier:
        k, s, _ = f.shape
        if s > 1:
            cols = slice(start, start + k * s)
            right = f if inverse else f.conj().transpose(0, 2, 1)
            part = m[:, cols].reshape(side, k, s).transpose(1, 0, 2) @ right
            m[:, cols] = part.transpose(1, 0, 2).reshape(side, k * s)
    return m


def _sector_basis(sm, found):
    """The ``_Sectors`` of the group generated by found, (order,
    permutation) pairs from ``_symmetries``; for found = [] the trivial
    group's, whose plan is the components of the union pattern. The
    sector blocks are ``_characters``' plan, one per (component,
    character); each map's blocks are gathered from its sector matrix."""
    d, n = sm.dim, sm.dim ** 2
    # each element of G kept as its vec permutation
    orders, coords, act = _group_elements(found)
    images = np.array([act(a, np.arange(n)) for a in coords])

    # components numbered in plan order; the component each element moves
    # each one to, the representative of its orbit (the least) and the
    # element taking that to it
    components = sm._plan
    start = np.cumsum([0] + [idx.shape[0] for idx in components])
    comp = np.empty(n, int)
    for idx, first in zip(components, start):
        comp[idx] = first + np.arange(idx.shape[0])[:, None]
    moved = comp[images[:, np.concatenate([idx[:, 0] for idx in components])]]
    rep = moved.min(axis=0)
    element = np.argmax(moved[:, rep] == np.arange(rep.size), axis=0)
    source = np.empty(n, int)
    for idx, first in zip(components, start):
        mine = slice(first, first + idx.shape[0])
        src = idx[rep[mine] - first]
        source[images[element[mine, None], src]] = src

    # the representatives' indices in ascending std order: the compact side
    held = np.flatnonzero(source == np.arange(n))
    side = held.size
    local = np.full(n, -1)
    local[held] = np.arange(side)
    orbit, size, layout, column, fourier, plan = _characters(orders, coords, images, comp, held)

    split = size.max() > 1
    if split:
        # each orbit's members sit at layout[span], its columns at span
        q_rows, q_cols = [], []
        for first, f in fourier:
            k, s, _ = f.shape
            span = np.arange(first, first + k * s).reshape(k, s)
            q_rows.append(np.broadcast_to(layout[span][:, :, None], f.shape).ravel())
            q_cols.append(np.broadcast_to(span[:, None, :], f.shape).ravel())
        q = scipy.sparse.csr_array(
            (np.concatenate([f.ravel() for _, f in fourier]),
             (np.concatenate(q_rows), np.concatenate(q_cols))), shape=(side, side))
        qh = q.conj().T.tocsr()

    stacks = {}
    for alpha, view in sm.csr.items():
        view = view[held][:, held] if side < n else view
        # without a split Q is the identity: the view's own entries
        sec = (qh @ view @ q if split else view).tocoo()
        # assigned, not summed, so that a -0.0 keeps its sign; the entries
        # between blocks are rounding on an exact 0, and are not gathered
        m = np.zeros((side, side), complex)
        m[sec.row, sec.col] = sec.data
        stacks[alpha] = tuple(_block(m, idx) for idx in plan)

    # the unit blocks: the plan rows that hold the trivial column of a
    # diagonal orbit
    diagonal = np.unique(orbit[local[np.intersect1d(np.arange(d) * (d + 1), held)]])
    trivial = column[diagonal, 0]
    keep = [np.isin(idx, trivial).any(axis=1) for idx in plan]
    unit = np.isin(np.arange(side), np.concatenate([idx[k].ravel() for idx, k in zip(plan, keep)]))
    unit_pos = np.full(side, -1)
    unit_pos[unit] = np.arange(np.count_nonzero(unit))
    unit_plan = tuple(unit_pos[idx[k]] for idx, k in zip(plan, keep) if k.any())
    unit_stacks = {alpha: tuple(stack[k] for stack, k in zip(group_, keep) if k.any())
                   for alpha, group_ in stacks.items()}
    unit_one = np.zeros(np.count_nonzero(unit))
    unit_one[unit_pos[trivial]] = np.sqrt(size[diagonal])
    source_orbit = orbit[local[source]]

    # equal blocks: in each plan entry, the blocks whose three map blocks
    # have the same bytes copy the first of them, and only the first of
    # each is held, in plan order
    kept, copies = [], []
    for i, idx in enumerate(plan):
        keys = np.concatenate([stacks[alpha][i].reshape(idx.shape[0], -1)
                               for alpha in (-1, 0, 1)], axis=1)
        rank = {}
        copies.append(np.array([rank.setdefault(key.tobytes(), len(rank)) for key in keys]))
        kept.append(np.unique(copies[-1], return_index=True)[1])
    if any(rows.size < idx.shape[0] for idx, rows in zip(plan, kept)):
        stacks = {alpha: tuple(stack[rows] for stack, rows in zip(group_, kept))
                  for alpha, group_ in stacks.items()}
        held_pos = np.zeros(side, bool)
        for idx, rows in zip(plan, kept):
            held_pos[idx[rows]] = True
        renumber = np.cumsum(held_pos) - 1
        distinct_plan = tuple(renumber[idx[rows]] for idx, rows in zip(plan, kept))
        copies = tuple(copies)
    else:
        distinct_plan, copies = plan, None

    sectors = _Sectors(plan=plan, stacks=stacks, side=side, distinct_plan=distinct_plan,
                       distinct_side=sum(idx.size for idx in distinct_plan), copies=copies,
                       source=source, position=np.argsort(layout)[local[source]],
                       fourier=tuple(fourier), unit_plan=unit_plan, unit_stacks=unit_stacks,
                       unit_one=unit_one, unit_local=unit_pos[column[source_orbit, 0]],
                       unit_scale=1.0 / np.sqrt(size[source_orbit]))
    for array in (sectors.source, sectors.position, *plan, *distinct_plan, *(copies or ()),
                  *unit_plan, *(f for _, f in fourier),
                  *(s for group_ in (*stacks.values(), *unit_stacks.values()) for s in group_),
                  sectors.unit_one, sectors.unit_local, sectors.unit_scale):
        array.flags.writeable = False
    return sectors


def _characters(orders, coords, images, comp, held):
    """The stabilizer-character columns of the indices held (ascending),
    for the group G of ``_group_elements``' orders and coords, whose
    element a (row a of coords) moves index x to images[a, x], and for
    components labelled comp that G permutes.

    Each held index's stabilizer H is that of its component, and its
    H-orbit O is found with the element of H taking O's least index to each
    member. Column (O, chi) is kept for each character chi of H trivial on
    the least index's own stabilizer; H's characters are the distinct
    restrictions of G's, each kept as the least character a that restricts
    to it, and the character a takes the value exp(2 pi i phase[a, b] /
    period) on the element b. This is the one block rule of both sector
    bases: one block per (component, character), holding the component's
    columns of that character; the blocks are numbered by component, then
    by character. With a trivial G every held index is its own orbit with
    the one character, and the blocks are the components. The maps commute
    with G, so they couple no two blocks; a block is held whole even where
    no map couples two of its columns.

    Returns, over the held indices' local positions: each one's orbit,
    each orbit's size, the layout (held positions ordered by orbit size,
    then by orbit, then ascending), the layout position of each allowed
    (orbit, a) column (-1 for the others), the unitary Fourier blocks as
    (first position, (k, s, s) stack) per orbit size s, rows the members
    in layout order and columns the characters: entry conj(chi(h_w)) /
    sqrt(s), and the plan of the blocks in layout positions.
    """
    period = int(np.prod(orders))
    phase = (coords * (period // orders)) @ coords.T % period
    n, side = images.shape[1], held.size
    local = np.full(n, -1)
    local[held] = np.arange(side)
    fixes = comp[images[:, held]] == comp[held]
    reach = np.where(fixes, images[:, held], n)
    least, orbit = np.unique(reach.min(axis=0), return_inverse=True)
    size = np.bincount(orbit)
    step = np.argmax(reach[:, local[least[orbit]]] == held, axis=0)
    fixes = fixes[:, local[least]]
    kinds, kind = np.unique(fixes.T, axis=0, return_inverse=True)
    canonical = np.zeros((kinds.shape[0], coords.shape[0]), bool)
    for i, h in enumerate(kinds):
        canonical[i, np.unique(phase[:, h], axis=0, return_index=True)[1]] = True
    stabilizer = fixes & (images[:, least] == least)
    allowed = canonical[kind] & ~np.any(stabilizer.T[:, None, :] & (phase != 0)[None], axis=2)

    # layout: orbits by size, then by least index; columns by character
    order = np.argsort(size, kind="stable")
    layout = np.lexsort((np.arange(side), np.argsort(order)[orbit]))
    col_orbit, col_char = np.nonzero(allowed[order])
    col_orbit = order[col_orbit]
    column = np.full(allowed.shape, -1)
    column[col_orbit, col_char] = np.arange(side)

    roots = np.exp(-2j * np.pi * np.arange(period) / period)
    fourier = []
    for s in np.unique(size):
        span = np.flatnonzero(size[col_orbit] == s)
        k = span.size // s
        g = step[layout[span]].reshape(k, s, 1)
        fourier.append((int(span[0]),
                        roots[phase[col_char[span].reshape(k, 1, s), g]] / np.sqrt(s)))

    # column j is (col_orbit[j], col_char[j]): its block is (the orbit's
    # component, col_char[j])
    key = comp[least[col_orbit]] * coords.shape[0] + col_char
    plan = _labels_plan(np.unique(key, return_inverse=True)[1])
    return orbit, size, layout, column, fourier, plan


def _stored_entries(sm):
    """(rows, cols, values) of the nonzero entries each CSR view stores."""
    out = []
    for view in sm.csr.values():
        rows = np.repeat(np.arange(view.shape[0]), np.diff(view.indptr))
        nonzero = view.data != 0
        out.append((rows[nonzero], view.indices[nonzero], view.data[nonzero]))
    return out


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
    # No dense map is made here, so freeing a model frees no 3 d**4 block
    # that would raise glibc's trim threshold. The flow factors' temporaries
    # do not need it: flow-4o's op_p50_s read 7.61 ms with the dense maps
    # built and 7.15 ms without (medians of 10 alternating pairs of 30 s
    # runs; per-pair ratio 1.002 in the median of 34 pairs; 2-vCPU VM, one
    # BLAS thread), with the same minor page faults per op.
    zero = -1j * 0j   # a commutator map's entries off its view
    return StructureMapSet._from_views(d, views, calibrated, [zero, None, zero])
