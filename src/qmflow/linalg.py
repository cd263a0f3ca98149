"""Dense operator and superoperator tools.

Conventions used throughout the package:

* Operators on a d-dimensional space are complex numpy arrays of shape
  (d, d).
* Superoperators (linear maps on operators) are stored as matrices of
  shape (d**2, d**2) acting on column-stacked vectorizations:
  ``vec(X)[j*d + i] = X[i, j]``, i.e. ``vec(X) = X.flatten(order='F')``.
  Under this convention ``vec(A @ X @ B) = kron(B.T, A) @ vec(X)``.
* Choi matrices are ``sum_ij e_ij (x) Phi(e_ij)`` with e_ij the matrix
  units; complete positivity of Phi is equivalent to the Choi matrix
  being positive semidefinite.

Validation boundary: every public function checks its arguments (shape,
finiteness) on each call. ``_apply`` is the one unchecked matvec, for
superoperators validated once when they were built (the maps of a
``StructureMapSet``) or computed from such maps (exponentials and their
products), applied to operators of matching, known-good shape. It takes
the map as a dense array or as a ``scipy.sparse`` CSR matrix (the views a
``StructureMapSet`` builds of its maps); ``_apply_each`` applies one map
to several operators in one product on their column-stacked block.
``apply_superop`` is the dense validation followed by ``_apply``.
``_apply_grid`` applies a whole table of computed maps to a grid of
operator blocks (the extended semigroup and the dissipativity lift).

CSR builders: the public map builders (``sandwich_map``, ``commutator_map``,
``dissipator_map``, ...) are dense ``np.kron`` products and stay the
reference. ``_csr_commutator`` and ``_csr_dissipator`` build the same maps
as canonical CSR matrices with no stored zeros: ``_coo_kron`` lists the
nonzero products of each Kronecker factor pair with numpy, and
``_csr_combine`` evaluates the dense formula on the union of their
positions and converts once. Each stored entry is computed as the dense
builder computes it; ``_todense`` makes the dense map from the CSR matrix,
with the value the dense builder leaves off the stored entries (0, or
``-1j * 0j`` for a commutator map).

Block-diagonal solves: the chain's generators and Choi matrices are block
diagonal once their rows are permuted by the connected components of the
nonzero pattern (at 4 sites L_11 has 25 blocks, the largest 144 of 256
rows). ``matrix_exponential``, ``min_eig`` and ``is_psd`` find those
components (``_diagonal_blocks``, memoized per exact raw pattern) and solve
each group of equal-size blocks in one stacked ``expm`` or ``eigvalsh``
call. An input that is one block (any dense matrix) is a stack of one,
which gives the same bits as the unstacked call. The eigensolves take the
Hermitian part of each gathered block, not of the whole matrix.
``_expm_stacks`` is the body of ``matrix_exponential``: it scales the
gathered stacks by t, exponentiates each in one stacked call and refuses
an overflow of either with the time in the message. The flow layer calls
it directly on stacks it assembled itself (a window's image of the
identity, on the sector blocks that hold vec(1), with one time per
segment).
``_block`` gathers a group of diagonal blocks into a (k, s, s) stack and
``_unblock`` scatters stacks back into a dense matrix that is 0 off the
blocks. Every plan comes from one component routine:
``_labels_plan(_component_labels(n, rows, cols))``, the weak components
of a list of nonzero positions that may repeat and need not be
symmetric, in one sparse pass. ``_diagonal_blocks`` reads the positions
from the dense pattern; the structure maps' plan, each extended entry's
plan (from the positions of its CSR sum) and the Choi sectors read them
with no dense pass. The flow factors, the window products
and the extended exponentials work in one symmetry-reduced basis
(``StructureMapSet._sectors``, which ``structure._sector_basis`` builds
from the maps' CSR views): only its compact matrices and each map mapped
back to the std basis are dense.
"""

import functools

import numpy as np
import scipy.linalg
import scipy.sparse
from scipy.sparse.csgraph import connected_components

__all__ = [
    "vectorize", "devectorize", "apply_superop", "sandwich_map",
    "left_mul_map", "right_mul_map", "commutator_map", "dissipator_map",
    "matrix_exponential", "choi_of_map", "min_eig", "is_psd",
    "hermitian_part", "max_abs", "adjoint_superop_matrix",
]


def _as_square(x, name="operator"):
    x = np.asarray(x, dtype=complex)
    if x.ndim != 2 or x.shape[0] != x.shape[1]:
        raise ValueError(f"{name} must be a square matrix, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError(f"{name} contains non-finite entries")
    return x


def _superop_dim(s, name="superoperator"):
    """Check that s is a valid superoperator matrix and return the operator dim."""
    s = _as_square(s, name)
    d = int(round(np.sqrt(s.shape[0])))
    if d * d != s.shape[0]:
        raise ValueError(f"{name} dimension {s.shape[0]} is not a perfect square")
    return s, d


def max_abs(x):
    """Largest entry magnitude; the residual norm used by the checks."""
    x = np.asarray(x)
    return float(np.max(np.abs(x))) if x.size else 0.0


def hermitian_part(x):
    x = np.asarray(x, dtype=complex)
    return 0.5 * (x + x.conj().T)


def vectorize(x):
    """Column-stack an operator into a vector of length d**2."""
    x = _as_square(x)
    return x.flatten(order="F")


def devectorize(v, dim=None):
    """Inverse of :func:`vectorize`.

    Parameters
    ----------
    v : array, shape (d**2,)
    dim : int, optional
        Operator dimension d. Inferred as sqrt(len(v)) when omitted.
    """
    v = np.asarray(v, dtype=complex).ravel()
    if dim is None:
        dim = int(round(np.sqrt(v.size)))
    if dim * dim != v.size:
        raise ValueError(f"vector of length {v.size} is not a stacked {dim}x{dim} operator")
    return v.reshape((dim, dim), order="F")


def _apply(s, x):
    """devec(S @ vec(X)) without checks: S a complex (d**2, d**2) array or
    CSR matrix validated when it was built or computed from such maps, X a
    (d, d) array."""
    return devectorize(s @ x.flatten(order="F"), x.shape[0])


def _apply_each(s, xs):
    """The images ``_apply(s, x)`` of a sequence (or stack) of (d, d)
    arrays, stacked along the first axis, from one product of S with the
    block whose columns are the vec(X). For a CSR S each image is bitwise
    the one ``_apply`` gives, in the same (column-major) layout."""
    k, d = len(xs), xs[0].shape[0]
    # block[j*d + i, n] = xs[n][i, j]
    block = np.asarray(xs).transpose(2, 1, 0).reshape(d * d, k)
    return np.ascontiguousarray((s @ block).T).reshape(k, d, d).transpose(0, 2, 1)


def _apply_grid(maps, d, operand):
    """(n d) x (n d) matrix whose d x d block (j, k) is ``_apply(maps[j][k],
    operand(j, k))``, for an n x n table of maps."""
    n = len(maps)
    out = np.zeros((n * d, n * d), dtype=complex)
    for j in range(n):
        for k in range(n):
            out[j * d:(j + 1) * d, k * d:(k + 1) * d] = _apply(maps[j][k], operand(j, k))
    return out


def _draw_op(rng, d):
    """A seeded random complex d x d operator, scaled to max-abs at most 1."""
    x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return x / max(1.0, max_abs(x))


def _as_operator(x, d):
    """x checked as an operator that a d**2 x d**2 superoperator acts on."""
    x = _as_square(x)
    if x.shape[0] != d:
        raise ValueError(f"operator dimension {x.shape[0]} does not match superoperator dimension {d}")
    return x


def apply_superop(s, x):
    """Apply a superoperator matrix to an operator: devec(S @ vec(X))."""
    s, d = _superop_dim(s)
    return _apply(s, _as_operator(x, d))


def _kron(a, b):
    """np.kron(a, b) on C-contiguous copies: the same bits, several times
    faster than on transposed views such as b.T."""
    return np.kron(np.ascontiguousarray(a), np.ascontiguousarray(b))


def sandwich_map(a, b):
    """Matrix of X -> A @ X @ B.  Column stacking gives kron(B.T, A)."""
    a = _as_square(a, "a")
    b = _as_square(b, "b")
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch between a {a.shape} and b {b.shape}")
    return _kron(b.T, a)


def left_mul_map(a):
    """Matrix of X -> A @ X."""
    a = _as_square(a)
    return _kron(np.eye(a.shape[0]), a)


def right_mul_map(b):
    """Matrix of X -> X @ B."""
    b = _as_square(b)
    return _kron(b.T, np.eye(b.shape[0]))


def commutator_map(a):
    """Matrix of the Heisenberg drift X -> -i [X, A] = -i (X A - A X).

    Applied to the identity this vanishes identically, so generators
    assembled from commutator maps are automatically unital.
    """
    a = _as_square(a)
    return -1j * (right_mul_map(a) - left_mul_map(a))


def dissipator_map(l, w=1.0, mirrored=False):
    """Matrix of the weighted Lindblad dissipator in Heisenberg form.

    X -> w * (2 L* X L - {X, L* L})        (default)
    X -> w * (2 L X L* - {X, L L*})        (mirrored=True)

    Parameters
    ----------
    l : array, shape (d, d)
        Jump operator.
    w : float
        Finite, nonnegative weight. Negative weights are rejected: they
        flip the sign of the dissipation and destroy positivity.
    mirrored : bool
        Exchange the roles of L and L*.
    """
    l = _as_square(l, "jump operator")
    w = float(w)
    if not 0 <= w < np.inf:
        raise ValueError(f"dissipator weight must be finite and nonnegative, got {w}")
    if mirrored:
        l = l.conj().T
    lsl = l.conj().T @ l
    gain = 2.0 * sandwich_map(l.conj().T, l)
    loss = left_mul_map(lsl) + right_mul_map(lsl)
    return w * (gain - loss)


# --- CSR builders: the maps above as canonical CSR matrices -------------------

def _coo_kron(a, b):
    """The nonzero products of ``np.kron(a, b)`` for square a and b: their
    flat positions ``row * n + col`` in the n x n result and their values,
    computed elementwise as kron computes them."""
    ra, ca = np.nonzero(a)
    rb, cb = np.nonzero(b)
    m, n = b.shape[0], a.shape[0] * b.shape[0]
    keys = ((ra * m)[:, None] + rb) * n + (ca * m)[:, None] + cb
    return keys.ravel(), np.multiply.outer(a[ra, ca], b[rb, cb]).ravel()


def _csr_combine(n, terms, combine):
    """The canonical n x n CSR matrix of ``combine(*values)`` on the union
    of the terms' positions, for terms (positions, values) as ``_coo_kron``
    returns them. Each term's values are aligned to the union with 0 where
    it has no entry, so combine is the dense formula of the terms, applied
    where any of them is nonzero; entries equal to 0 are not stored."""
    keys = np.unique(np.concatenate([k for k, _ in terms]))
    aligned = []
    for k, v in terms:
        full = np.zeros(keys.size, dtype=complex)
        full[np.searchsorted(keys, k)] = v
        aligned.append(full)
    values = combine(*aligned)
    keep = values != 0
    keys, values = keys[keep], values[keep]
    # the union is sorted by row, then by column
    indptr = np.searchsorted(keys, np.arange(n + 1) * n).astype(np.int32)
    return scipy.sparse.csr_array((values, (keys % n).astype(np.int32), indptr),
                                  shape=(n, n))


def _csr_commutator(a):
    """``commutator_map(a)`` as a canonical CSR matrix: its stored entries
    are -1j * (R - L) with R = kron(a.T, 1) and L = kron(1, a), as the
    dense builder computes them. Off them the dense builder leaves
    -1j * (R - L) = ``-1j * 0j`` = (0, -0) wherever R - L is 0j, as it is
    for a real a with no negative entry; ``_todense`` with that fill gives
    those bits."""
    a = _as_square(a)
    eye = np.eye(a.shape[0])
    return _csr_combine(a.size, [_coo_kron(a.T, eye), _coo_kron(eye, a)],
                        lambda r, l: -1j * (r - l))


def _csr_dissipator(l, w=1.0, mirrored=False):
    """``dissipator_map(l, w, mirrored)`` as a canonical CSR matrix, its
    stored entries computed as the dense builder computes them."""
    l = _as_square(l, "jump operator")
    w = float(w)
    if not 0 <= w < np.inf:
        raise ValueError(f"dissipator weight must be finite and nonnegative, got {w}")
    if mirrored:
        l = l.conj().T
    lsl = l.conj().T @ l
    eye = np.eye(l.shape[0])
    # gain kron(L.T, L*) (twice X -> L* X L), loss kron(1, L*L) + kron((L*L).T, 1)
    terms = [_coo_kron(l.T, l.conj().T), _coo_kron(eye, lsl), _coo_kron(lsl.T, eye)]
    return _csr_combine(l.size, terms, lambda g, a, b: w * (2.0 * g - (a + b)))


def _todense(csrs, fills):
    """The complex (k, n, n) stack of the dense forms of k n x n CSR
    matrices, in one allocation: layer i holds ``csrs[i]``'s stored
    entries and ``fills[i]`` (None for 0) off them."""
    n = csrs[0].shape[0]
    out = np.zeros((len(csrs), n, n), dtype=complex)
    for layer, csr, fill in zip(out, csrs, fills):
        if fill is not None:
            layer.fill(fill)
        rows = np.repeat(np.arange(n), np.diff(csr.indptr))
        layer[rows, csr.indices] = csr.data
    return out


def _diagonal_blocks(m):
    """The diagonal blocks of the square array m.

    The blocks are the connected components of the nonzero pattern, each
    entry joining its row and its column: permuted by them, m is block
    diagonal. Returns a tuple of read-only index arrays, one of shape
    (k, s) per block size s (ascending), whose rows are the k blocks of
    that size; a matrix that is one block has the plan
    ``(arange(n)[None],)``. Plans are memoized under the exact packed
    pattern.
    """
    return _block_plan(m.shape[0], np.packbits(m != 0).tobytes())


@functools.lru_cache(maxsize=32)
def _block_plan(n, packed):
    """``_diagonal_blocks`` of the n x n pattern packed in bytes."""
    pattern = np.unpackbits(np.frombuffer(packed, np.uint8), count=n * n).reshape(n, n)
    return _labels_plan(_component_labels(n, *np.nonzero(pattern)))


def _component_labels(n, rows, cols):
    """The connected component of each index of an n x n array whose
    nonzero entries sit at (rows, cols), repeats allowed, numbered 0, ...,
    k - 1 in the order of their least indices; the pattern need not be
    symmetric."""
    pattern = scipy.sparse.coo_array((np.ones(rows.size, np.int32), (rows, cols)), shape=(n, n))
    return connected_components(pattern, directed=True, connection="weak")[1]


def _labels_plan(labels):
    """The plan of the groups of indices with equal labels, for labels
    0, ..., k - 1 that are each used: one (k, s) index array per group
    size s (ascending), each row a group in ascending index order, the
    groups of a size in label order."""
    sizes = np.bincount(labels)
    members = np.argsort(labels, kind="stable")   # grouped by component
    starts = np.cumsum(sizes) - sizes
    plan = tuple(members[starts[sizes == s, None] + np.arange(s)]
                 for s in np.unique(sizes))
    for idx in plan:
        idx.flags.writeable = False
    return plan


def _block(m, idx):
    """The (k, s, s) stack of diagonal blocks of m indexed by idx, (k, s)."""
    return m[idx[:, :, None], idx[:, None, :]]


def _unblock(stacks, plan, n):
    """The complex n x n array whose diagonal blocks indexed by the plan's
    index arrays are the matching stacks, and whose other entries are 0."""
    out = np.zeros((n, n), dtype=complex)
    for idx, stack in zip(plan, stacks):
        out[idx[:, :, None], idx[:, None, :]] = stack
    return out


def matrix_exponential(m, t=1.0):
    """exp(t * M) by scaling-and-squaring (scipy.linalg.expm).

    Each group of equal-size diagonal blocks of M is scaled by t and
    exponentiated in one stacked call (scipy scales each block on its
    own); the entries off the blocks are exactly 0.

    Rejects non-square or non-finite input and non-finite t, and refuses
    with a ValueError naming t when t * M or exp(t * M) overflows, in
    place of numpy's overflow warning.
    """
    m = _as_square(m, "generator")
    t = float(t)
    if not np.isfinite(t):
        raise ValueError(f"time parameter must be finite, got {t}")
    blocks = _diagonal_blocks(m)
    # each block is gathered, scaled and dropped in turn
    return _unblock(_expm_stacks((_block(m, idx) for idx in blocks), t), blocks, m.shape[0])


def _expm_stacks(stacks, t):
    """The list of exp(t * S) for each (k, s, s) stack S of an iterable,
    in one stacked ``scipy.linalg.expm`` call per stack, for a finite
    float t, or a sequence of N finite times for stacks whose rows fall
    into N equal runs, run j taken at t[j]. The overflow of t * S or of its
    exponential is refused as ``matrix_exponential`` refuses it, naming
    the time of the earliest run where either occurs."""
    times = np.asarray(t, float).reshape(-1)
    with np.errstate(over="ignore", invalid="ignore"):
        # the blocks of t * M, entry for entry t * m[i, j]
        stacks = [np.repeat(times, len(s) // times.size)[:, None, None] * s for s in stacks]
        scaled = _first_overflow(stacks, times.size)
        # only the runs before the first overflow of t * M are exponentiated
        stacks = [scipy.linalg.expm(s[:len(s) // times.size * scaled]) for s in stacks]
    grown = _first_overflow(stacks, scaled)
    if grown < scaled:
        raise ValueError(f"exp(t * M) overflows at t = {float(times[grown])!r}: the "
                         "semigroup is not finite at this time")
    if scaled < times.size:
        raise ValueError(f"t * M overflows at t = {float(times[scaled])!r}: the "
                         "generator is too large for this time")
    return stacks


def _first_overflow(stacks, runs):
    """The earliest of the stacks' ``runs`` equal runs of rows that holds
    an entry that is not finite, or runs when every entry is finite."""
    first = runs
    for s in stacks:
        if not np.isfinite(s).all():
            first = min(first, int(np.argmin(np.isfinite(s).all(axis=(1, 2)))) * runs // len(s))
    return first


def _choi(s, d):
    """Unchecked Choi reshuffle: C[i*d + k, j*d + l] = S[l*d + k, j*d + i]."""
    return s.reshape(d, d, d, d).transpose(3, 1, 2, 0).reshape(d * d, d * d)


def choi_of_map(s):
    """Choi matrix of a superoperator given as a d**2 x d**2 matrix.

    Returns C = sum_ij e_ij (x) Phi(e_ij), shape (d**2, d**2). The map is
    completely positive iff C >= 0. The Choi matrix is required to be
    Hermitian up to 1e-10 relative to its largest entry (i.e. the map must
    be hermiticity preserving), since eigenvalue diagnostics are
    meaningless otherwise.
    """
    s, d = _superop_dim(s)
    return _hermitian_choi(_choi(s, d))


def _hermitian_choi(c):
    """The Choi matrix c, checked Hermitian as ``choi_of_map`` states."""
    _check_hermitian(max_abs(c - c.conj().T), max_abs(c))
    return c


def _check_hermitian(dev, scale):
    """Refuses a Choi matrix whose largest |c - c*| entry, dev, exceeds
    1e-10 max(1, scale), scale its largest |c| entry."""
    if dev > 1e-10 * max(1.0, scale):
        raise ValueError(
            f"map not hermiticity-preserving: Choi asymmetry {dev:.3e}")


def _hermitian_eigvals(h):
    """Ascending eigenvalues of the Hermitian part of the square array h,
    from one stacked ``eigvalsh`` per group of equal-size diagonal blocks."""
    if not h.size:
        raise ValueError("h is an empty (0x0) matrix: it has no eigenvalues")
    # the Hermitian part of each block is the block of hermitian_part(h),
    # formed without a dense copy of h
    stacks = (_block(h, idx) for idx in _diagonal_blocks(h))
    return np.sort(np.concatenate(
        [np.linalg.eigvalsh(0.5 * (s + s.conj().transpose(0, 2, 1))).ravel()
         for s in stacks]))


def min_eig(h):
    """Smallest eigenvalue of the Hermitian part of h."""
    h = _as_square(h)
    return float(_hermitian_eigvals(h)[0])


def is_psd(h):
    """Positive-semidefinite test with a relative tolerance floor.

    Accepts h when min_eig(h) >= -1e-9 * max(1, ||h||), with ||h|| the
    spectral norm of the Hermitian part.
    """
    h = _as_square(h)
    evals = _hermitian_eigvals(h)
    scale = max(1.0, float(np.max(np.abs(evals))))
    return bool(evals[0] >= -1e-9 * scale)


def _transpose_perm(d):
    # vec index of (i, j) is j*d + i; transposition sends it to i*d + j
    idx = np.arange(d * d)
    i, j = idx % d, idx // d
    return i * d + j


def adjoint_superop_matrix(s):
    """Matrix of X -> S(X*)* for a superoperator matrix S.

    A map Theta satisfies the conjugation rule Theta'(x*) = Theta(x)* for
    all x exactly when matrix(Theta') equals this transform of
    matrix(Theta).
    """
    s, d = _superop_dim(s)
    p = _transpose_perm(d)
    return s.conj()[np.ix_(p, p)]
