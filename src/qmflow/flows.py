"""Matrix elements of the flow between exponential vectors of step functions.

On step-function arguments the flow's two-sided matrix element over a time
window factorizes into an ordered product of single-exponential maps: one
factor per subinterval on which both step functions are constant, each
generated by

    K(f0, g0) = theta_0 + g0 theta_minus + conj(f0) theta_plus
                [+ conj(f0) g0 id   in physical normalization].

The full matrix element carries an extra scalar weight
exp(<f, g> restricted to the window's complement), so that pieces of the
step functions outside the window contribute a pure phase-and-scale
factor.

Composition convention: for r <= s <= t the window [r, t] map is the
window [r, s] map composed with the window [s, t] map acting first, i.e.
matrix(r, t) = matrix(r, s) @ matrix(s, t).

Windows are evaluated in batches: a factor is keyed by the exact bits of
(f0, g0, length), is exponentiated once for the whole batch and is freed
after its last use. A batch's maps are bit for bit the maps computed one
window at a time.

Generators, factors and products are computed in the model's block basis
(``StructureMapSet.blocks``, a ``structure._Sectors`` built from the CSR
views): the connected components of the union nonzero pattern of theta_0,
theta_minus, theta_plus and the identity. Every K(f0, g0) is block
diagonal in it, and so are its exponentials and their products.
``point_generator`` is the one place that assembles K: it builds each
diagonal block from the maps' stacks and scatters the blocks once into a
d**2 x d**2 matrix. The extended semigroup's four entries, the suite's
norm bound and every factor of a window map take it from there. A factor
hands that matrix to ``matrix_exponential`` and gathers the exponential
straight back into stacks. A window's product starts from its first
factor and multiplies stack by stack; it is scattered into a dense matrix
once, at the end. At 4 open sites the 256 rows split into blocks of 1, 3
and 9 rows, so a product is three batched products of small blocks
instead of one 256 x 256 product. A model with one component (such as the
qubit) has one block covering every index.

A window's image of the identity needs no window map: the generators keep
the sector blocks that vec(1) lies in (``_Sectors.unit_stacks``, the
blocks the extended layer's unit images use), so ``_unit_window_image``
assembles each factor's generator on those blocks alone, exponentiates
them with ``linalg._expm_stacks`` and multiplies the factors there. At 3
periodic sites that is one block of 6 rows, at 4 periodic sites 23 of
256 rows and at 5 periodic sites 52 of 1024. Both routines plan a
window's segments with ``_window_plan``.
"""

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .linalg import (
    _apply_grid,
    _as_operator,
    _block,
    _expm_stacks,
    _unblock,
    apply_superop,
    matrix_exponential,
    min_eig,
)

__all__ = [
    "StepFunction", "step_inner_product", "point_generator", "evolution_map",
    "flow_matrix_element", "block_form", "q_bound_check", "kernel_cp_residual",
    "schur_product_check",
]

MODES = ("conservative", "physical")

# Breakpoints closer than this are one point; intervals shorter than this
# would be numerically empty anyway.
MERGE_TOL = 1e-12


@dataclass(frozen=True)
class StepFunction:
    """A complex step function with finitely many pieces.

    pieces is a tuple of (start, end, value) with start < end; the pieces
    must not overlap (touching endpoints are fine). The function is zero
    outside its pieces.
    """

    pieces: tuple

    def __post_init__(self):
        norm = []
        for k, piece in enumerate(self.pieces):
            if len(piece) != 3:
                raise ValueError(f"piece {k} must be (start, end, value)")
            a, b, v = float(piece[0]), float(piece[1]), complex(piece[2])
            if not (np.isfinite(a) and np.isfinite(b)) or not np.isfinite(v):
                raise ValueError(f"piece {k} has non-finite data")
            if a >= b:
                raise ValueError(f"piece {k} is empty or reversed: [{a}, {b}]")
            norm.append((a, b, v))
        norm.sort(key=lambda p: p[0])
        for (a0, b0, _), (a1, _, _) in zip(norm, norm[1:]):
            if a1 < b0 - MERGE_TOL:
                raise ValueError(
                    f"pieces overlap: [{a0}, {b0}] and one starting at {a1}")
        object.__setattr__(self, "pieces", tuple(norm))

    @classmethod
    def indicator(cls, start, end, value=1.0):
        return cls(((start, end, value),))

    @classmethod
    def zero(cls):
        return cls(())

    def value_at(self, t):
        for a, b, v in self.pieces:
            if a <= t < b:
                return v
        return 0.0 + 0.0j

    def breakpoints(self):
        pts = []
        for a, b, _ in self.pieces:
            pts.extend((a, b))
        return pts


def _merged_grid(points):
    """Sorted deduplicated points, merging anything closer than MERGE_TOL."""
    pts = sorted(points)
    out = []
    for p in pts:
        if not out or p - out[-1] > MERGE_TOL:
            out.append(p)
    return out


def _segments(f, g, start, end):
    """Common refinement of [start, end] by both functions' breakpoints."""
    pts = [p for p in f.breakpoints() + g.breakpoints() if start < p < end]
    grid = _merged_grid([start] + pts + [end])
    return list(zip(grid, grid[1:]))


def step_inner_product(f, g, window=None, complement=False):
    """Integral of conj(f) g, over the line or a window or its complement.

    Parameters
    ----------
    f, g : StepFunction
    window : (s, t), optional
        Restrict the integral to [s, t]; with ``complement`` the integral
        runs over everything outside [s, t] instead.
    """
    if complement and window is None:
        raise ValueError("complement restriction requires a window")
    if window is not None:
        s, t = _window_ends(window[0], window[1])
    total = 0.0 + 0.0j
    pts = f.breakpoints() + g.breakpoints()
    if not pts:
        return total
    lo, hi = min(pts), max(pts)
    if window is not None:
        pts = pts + [s, t]
        lo, hi = min(lo, s), max(hi, t)
    grid = _merged_grid([p for p in pts if lo <= p <= hi] + [lo, hi])
    for a, b in zip(grid, grid[1:]):
        mid = 0.5 * (a + b)
        if window is not None:
            inside = s <= mid <= t
            if complement == inside:
                continue
        total += np.conj(f.value_at(mid)) * g.value_at(mid) * (b - a)
    return total


def _window_ends(start, end):
    """The window's ends as floats, refused unless finite and ordered."""
    start, end = float(start), float(end)
    if not (np.isfinite(start) and np.isfinite(end)):
        raise ValueError(f"window ends must be finite, got [{start}, {end}]")
    if start > end:
        raise ValueError(f"window is reversed: [{start}, {end}]")
    return start, end


def point_generator(sm, f0, g0, mode="physical"):
    """K(f0, g0) for constant test-function values, as a d**2 x d**2 matrix.

    Each diagonal block is assembled from the maps' stacks in sm's block
    basis (the identity is each block's identity) and the blocks are
    scattered once; the entries off the blocks are 0, as they are in every
    map.
    """
    _check_mode(mode)
    basis = sm.blocks
    return _unblock(_generator_blocks(basis.stacks, f0, g0, mode), basis.plan, sm.dim ** 2)


def _check_mode(mode):
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")


def _generator_blocks(stacks, f0, g0, mode):
    """The diagonal blocks of K(f0, g0) from the maps' stacks in one basis."""
    f0, g0 = complex(f0), complex(g0)
    blocks = [zero + g0 * minus + np.conj(f0) * plus
              for zero, minus, plus in zip(stacks[0], stacks[-1], stacks[1])]
    if mode == "physical":
        blocks = [k + (np.conj(f0) * g0) * np.eye(k.shape[-1]) for k in blocks]
    return blocks


def _factor(sm, f0, g0, length, mode):
    """exp(length K(f0, g0)) as stacks in sm's block basis; the dense
    exponential is dropped as soon as it is gathered."""
    m = matrix_exponential(point_generator(sm, f0, g0, mode), length)
    return tuple(_block(m, idx) for idx in sm.blocks.plan)


def evolution_map(sm, f, g, start, end, mode="physical"):
    """Ordered product of single-exponential factors over [start, end].

    The window is refined by the breakpoints of both step functions; each
    subinterval contributes exp(length * K(f0, g0)) with the functions'
    values there. Earlier subintervals act later (outermost), so the
    matrices multiply left to right in time order. Returns the d**2 x d**2
    matrix of the product. A factor that recurs in the window is computed
    once and freed after its last use.
    """
    return _evolution_maps(sm, [(f, g, start, end)], mode)[0]


def _window_plan(f, g, start, end):
    """The segments of the window [start, end] in time order, as
    (key, f0, g0, length): the functions' values on the segment and its
    length, keyed by their exact bits."""
    plan = []
    for a, b in _segments(f, g, *_window_ends(start, end)):
        mid = 0.5 * (a + b)
        f0, g0 = f.value_at(mid), g.value_at(mid)
        plan.append((np.array([f0, g0, b - a]).tobytes(), f0, g0, b - a))
    return plan


def _evolution_maps(sm, windows, mode="physical"):
    """evolution_map of each (f, g, start, end) window, as one batch.

    Every segment is planned first (``_window_plan``), so equal keys give
    bit-identical factors. Each distinct factor is then exponentiated
    once, multiplied in each window's time order in the block basis and
    dropped after its last use. A window's first factor is its running
    product until the second is multiplied in; an empty window is the
    identity.
    """
    _check_mode(mode)
    plans = [_window_plan(*window) for window in windows]
    uses = Counter(key for plan in plans for key, *_ in plan)
    d2 = sm.dim ** 2
    factors, maps = {}, []
    for plan in plans:
        total = None
        for key, f0, g0, length in plan:
            if key not in factors:
                factors[key] = _factor(sm, f0, g0, length, mode)
            total = factors[key] if total is None else tuple(
                a @ b for a, b in zip(total, factors[key]))
            uses[key] -= 1
            if not uses[key]:
                del factors[key]
        maps.append(np.eye(d2, dtype=complex) if total is None
                    else _unblock(total, sm.blocks.plan, d2))
    return maps


def _unit_window_image(sm, f, g, start, end, mode="physical"):
    """The window's image of the identity, the operator
    ``_apply(evolution_map(sm, f, g, start, end, mode), 1)``, computed on
    the sector blocks that vec(1) lies in (``_Sectors.unit_stacks``).

    The window is planned as in ``_evolution_maps``; each segment's factor
    is exponentiated on those blocks alone and the factors multiply in
    time order. An empty window gives the identity.
    """
    _check_mode(mode)
    sectors = sm._sectors
    total = None
    for _, f0, g0, length in _window_plan(f, g, start, end):
        factor = _expm_stacks(_generator_blocks(sectors.unit_stacks, f0, g0, mode), length)
        total = factor if total is None else [a @ b for a, b in zip(total, factor)]
    if total is None:
        return np.eye(sm.dim, dtype=complex)
    return sectors.unit_image(_unblock(total, sectors.unit_plan, sectors.unit_one.size))


def flow_matrix_element(sm, f, g, start, end, x, mode="physical"):
    """Two-sided matrix element of the evolved observable.

    Equals exp(<f, g> outside the window) times the ordered-product map
    applied to x. With x the identity this collapses to
    exp(<f, g>) * identity in physical normalization. Plain scalars are
    accepted for f and g and mean constant values on the window.
    """
    f, g = _as_step(f, (start, end)), _as_step(g, (start, end))
    weight = np.exp(step_inner_product(f, g, window=(start, end), complement=True))
    return weight * apply_superop(evolution_map(sm, f, g, start, end, mode), x)


def _as_step(f, window):
    """f itself, or the scalar f as a constant on the window (zero when the
    window is empty)."""
    if isinstance(f, StepFunction):
        return f
    start, end = window
    return StepFunction.indicator(start, end, f) if f != 0 and end > start else StepFunction.zero()


def _window_maps(sm, fs, *ts):
    """For each t, the table [j][k] of the physical window [0, t] maps
    between the test functions fs[j] and fs[k], taken as step functions on
    [0, max(ts)]; all tables come from one batch."""
    for t in ts:
        if not np.isfinite(t):
            raise ValueError(f"window length must be finite, got {t}")
        if t < 0:
            raise ValueError(f"window length must be nonnegative, got {t}")
    steps = [_as_step(f, (0.0, max(ts))) for f in fs]
    if not steps:
        raise ValueError("fs is empty: a Gram kernel needs at least one test function")
    maps = iter(_evolution_maps(sm, [(fj, fk, 0.0, t)
                                     for t in ts for fj in steps for fk in steps]))
    return [[[next(maps) for _ in steps] for _ in steps] for _ in ts]


def _pair_products(xs, n, d):
    """operand(j, k) = x_j* x_k for the Gram kernels."""
    if len(xs) != n:
        raise ValueError(f"need as many operators as test functions, "
                         f"got {len(xs)} and {n}")
    xs = [_as_operator(x, d) for x in xs]
    return lambda j, k: xs[j].conj().T @ xs[k]


def block_form(sm, fs, t, x):
    """Gram-type block matrix [P_{f_j, f_k}(x)] over the window [0, t].

    fs may contain step functions or plain scalars (treated as constant
    values on [0, t]). Returns an (n d) x (n d) matrix of d x d blocks.
    """
    t = float(t)
    x = _as_operator(x, sm.dim)
    maps, = _window_maps(sm, fs, t)
    return _apply_grid(maps, sm.dim, lambda j, k: x)


def q_bound_check(sm, fs, t, x):
    """Smallest eigenvalue of ||x|| [P(1)] - [P(x)].

    Nonnegative when the kernel respects the operator bound of x; the
    norm is the spectral norm. One table of window maps serves both
    block forms.
    """
    t = float(t)
    x = _as_operator(x, sm.dim)
    eye = np.eye(sm.dim)
    bound = float(np.linalg.norm(x, 2))
    maps, = _window_maps(sm, fs, t)
    big = (bound * _apply_grid(maps, sm.dim, lambda j, k: eye)
           - _apply_grid(maps, sm.dim, lambda j, k: x))
    return min_eig(big)


def kernel_cp_residual(sm, fs, xs, t):
    """Smallest eigenvalue of the kernel's Gram matrix [P_{jk}(x_j* x_k)].

    Complete positivity of the kernel makes this matrix PSD for every
    choice of test functions and operators.
    """
    operand = _pair_products(xs, len(fs), sm.dim)
    maps, = _window_maps(sm, fs, float(t))
    return min_eig(_apply_grid(maps, sm.dim, operand))


def schur_product_check(sm, fs, xs, t1, t2):
    """Smallest eigenvalue of the entrywise-composed kernel Gram matrix.

    Composes the window [0, t1] and [0, t2] maps entry by entry before
    evaluating on x_j* x_k; closure of the kernel family under this Schur
    composition keeps the matrix PSD.
    """
    operand = _pair_products(xs, len(fs), sm.dim)
    maps1, maps2 = _window_maps(sm, fs, t1, t2)
    maps = [[m1 @ m2 for m1, m2 in zip(r1, r2)] for r1, r2 in zip(maps1, maps2)]
    return min_eig(_apply_grid(maps, sm.dim, operand))
