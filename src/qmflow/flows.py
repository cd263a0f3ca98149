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
window at a time, and are made one at a time as they are taken.

The Gram kernels (``block_form``, ``q_bound_check``, ``kernel_cp_residual``,
``schur_product_check``) are one routine, ``_gram``: every window [0, t]
between two test functions is one batch, taken pair by pair, and each map
is applied to the pair's operands and dropped before the next is made, so
no table of window maps is held.

``point_generator`` is the dense d**2 x d**2 K(f0, g0), the sum of the
maps' CSR views (``_generator_csr``); the extended generator keeps the
sums of its four entries.

A window's factors do not use the sum. They are assembled and exponentiated
in the model's one symmetry-reduced basis (``StructureMapSet._sectors``):
one representative component per orbit of the maps' shift and flip, split
by the characters of its stabilizer. ``_factor`` assembles K on its blocks
alone (``_generator_blocks``), makes one ``matrix_exponential`` call on
their compact matrix and gathers the result into stacks. A window's
product multiplies stack by stack and is mapped back once, at the end
(``_Sectors.to_standard``), each component receiving its
representative's block. The compact side is 128 of 256 rows at 4 open
sites, 172 of 256 at 4 periodic (blocks of at most 22 rows) and 512 of
1024 at 5 periodic (at most 52). A model with no symmetry (such as the
qubit) has the trivial group's basis, the components of the maps' union
pattern, and the compact matrix is K.

A window's image of the identity needs no window map: ``_unit_window_image``
assembles each factor on the blocks of that basis that hold vec(1)
(``_Sectors.unit_stacks``, which the extended layer's unit images use),
exponentiates them with ``linalg._expm_stacks`` and multiplies the
factors there: one block of 6 rows at 3 periodic sites, 23 of 256 rows
at 4 periodic sites.

One segment walk, ``_window_plan``, cuts a window into the common
refinement of both functions' breakpoints and reads their values there.
The batch, the unit image and ``step_inner_product`` all plan with it: the
inner product sums conj(f0) g0 length over the window's plan, or over the
plans of the spans before and after it, so a matrix element's weight and
its factors come from one refinement.
"""

from collections import Counter
from dataclasses import dataclass

import numpy as np
import scipy.sparse

from .linalg import (
    _apply,
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


def _segments(f, g, start, end):
    """Common refinement of [start, end] by both functions' breakpoints,
    a point closer than MERGE_TOL to the last one kept merged into it."""
    grid = [start]
    for p in sorted(p for p in f.breakpoints() + g.breakpoints() if start < p < end) + [end]:
        if p - grid[-1] > MERGE_TOL:
            grid.append(p)
    return list(zip(grid, grid[1:]))


def step_inner_product(f, g, window=None, complement=False):
    """Integral of conj(f) g, over the line or a window or its complement,
    summed over the segments of ``_window_plan``.

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
    spans = ([(lo, hi)] if window is None
             else [(min(lo, s), s), (t, max(hi, t))] if complement else [(s, t)])
    for a, b in spans:
        for _, f0, g0, length in _window_plan(f, g, a, b):
            total += np.conj(f0) * g0 * length
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
    """K(f0, g0) for constant test-function values, as a d**2 x d**2 matrix:
    the dense form of ``_generator_csr``. A non-finite f0 or g0 is refused
    before any assembly."""
    _check_mode(mode)
    for name, value in (("f0", f0), ("g0", g0)):
        if not np.isfinite(complex(value)):
            raise ValueError(f"{name} must be finite, got {value!r}")
    return _generator_csr(sm, f0, g0, mode).toarray()


def _generator_csr(sm, f0, g0, mode):
    """K(f0, g0) as the CSR sum of sm's views, each entry computed as the
    stacks' formula (``_generator_blocks``) computes it; no entry off the
    maps' union pattern and the diagonal is stored."""
    f0, g0 = complex(f0), complex(g0)
    k = sm.csr[0] + g0 * sm.csr[-1] + np.conj(f0) * sm.csr[1]
    if mode == "physical":
        k = k + (np.conj(f0) * g0) * scipy.sparse.eye_array(sm.dim ** 2)
    return k


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
    """exp(length K(f0, g0)) as stacks on the plan of sm's symmetry-reduced
    basis (``sm._sectors``). K is assembled on its blocks alone and
    scattered into their compact matrix; its exponential is dropped as
    soon as it is gathered."""
    sectors = sm._sectors
    k = _unblock(_generator_blocks(sectors.stacks, f0, g0, mode), sectors.plan, sectors.side)
    m = matrix_exponential(k, length)
    return tuple(_block(m, idx) for idx in sectors.plan)


def evolution_map(sm, f, g, start, end, mode="physical"):
    """Ordered product of single-exponential factors over [start, end].

    The window is refined by the breakpoints of both step functions; each
    subinterval contributes exp(length * K(f0, g0)) with the functions'
    values there. Earlier subintervals act later (outermost), so the
    matrices multiply left to right in time order. Returns the d**2 x d**2
    matrix of the product. A factor that recurs in the window is computed
    once and freed after its last use.
    """
    return next(_evolution_maps(sm, [(f, g, start, end)], mode))


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
    """evolution_map of each (f, g, start, end) window, as one batch: an
    iterator that makes each map as it is taken and holds none it gave out.

    The mode and every segment are checked and planned at the call
    (``_window_plan``), so equal keys give bit-identical factors. Each distinct
    factor is exponentiated once, multiplied in each window's time order on
    the blocks of ``sm._sectors`` and dropped after its last use. A window's
    first factor is its running product until the second is multiplied in;
    each finished product is mapped back once (``_Sectors.to_standard``), and
    an empty window is the identity.
    """
    _check_mode(mode)
    plans = [_window_plan(*window) for window in windows]
    uses = Counter(key for plan in plans for key, *_ in plan)

    def maps():
        factors = {}
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
            yield (np.eye(sm.dim ** 2, dtype=complex) if total is None
                   else sm._sectors.to_standard(total, sm._plan))

    return maps()


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
    accepted for f and g and mean constant values on the window. The
    operator x and a non-finite weight are refused before any exponential.
    """
    x = _as_operator(x, sm.dim)
    # the window before the functions: a scalar f would be made a step
    # function on it
    start, end = _window_ends(start, end)
    f, g = _as_step(f, (start, end)), _as_step(g, (start, end))
    with np.errstate(over="ignore", invalid="ignore"):
        outside = step_inner_product(f, g, window=(start, end), complement=True)
        weight = np.exp(outside)
    if not np.isfinite(weight):
        raise ValueError(f"the weight exp(<f, g> outside the window) is not finite: "
                         f"<f, g> there is {outside}")
    return weight * apply_superop(evolution_map(sm, f, g, start, end, mode), x)


def _as_step(f, window):
    """f itself, or the scalar f as a constant on the window (zero when the
    window is empty)."""
    if isinstance(f, StepFunction):
        return f
    start, end = window
    return StepFunction.indicator(start, end, f) if f != 0 and end > start else StepFunction.zero()


def _gram(sm, fs, ts, *operands):
    """For each operand, the (n d)-side matrix whose d x d block (j, k) is
    operand(j, k) sent through the physical [0, t] map between fs[j] and
    fs[k] (step functions on [0, max(ts)]) for each t in ts, last t first:
    one batch, each map dropped once its blocks are written."""
    ts = [float(t) for t in ts]
    for t in ts:
        if not np.isfinite(t):
            raise ValueError(f"window length must be finite, got {t}")
        if t < 0:
            raise ValueError(f"window length must be nonnegative, got {t}")
    steps = [_as_step(f, (0.0, max(ts))) for f in fs]
    if not steps:
        raise ValueError("fs is empty: a Gram kernel needs at least one test function")
    n, d = len(steps), sm.dim
    maps = _evolution_maps(sm, [(fj, fk, 0.0, t) for fj in steps for fk in steps
                                for t in reversed(ts)])
    grams = [np.zeros((n * d, n * d), dtype=complex) for _ in operands]
    for j in range(n):
        for k in range(n):
            blocks = [operand(j, k) for operand in operands]
            for _ in ts:  # the map lives only in the comprehension
                blocks = [_apply(window, x) for window in [next(maps)] for x in blocks]
            for gram, x in zip(grams, blocks):
                gram[j * d:(j + 1) * d, k * d:(k + 1) * d] = x
    return grams


def _pair_products(xs, n, d):
    """operand(j, k) = x_j* x_k for the Gram kernels."""
    if len(xs) != n:
        raise ValueError(f"need as many operators as test functions, "
                         f"got {len(xs)} and {n}")
    xs = [_as_operator(x, d) for x in xs]
    return lambda j, k: xs[j].conj().T @ xs[k]


def _norm_gap(x):
    """operand(j, k) = ||x|| 1 - x for ``q_bound_check``, for a checked x."""
    gap = float(np.linalg.norm(x, 2)) * np.eye(len(x)) - x
    return lambda j, k: gap


def block_form(sm, fs, t, x):
    """Gram-type block matrix [P_{f_j, f_k}(x)] over the window [0, t].

    fs may contain step functions or plain scalars (treated as constant
    values on [0, t]). Returns an (n d) x (n d) matrix of d x d blocks.
    """
    x = _as_operator(x, sm.dim)
    return _gram(sm, fs, (t,), lambda j, k: x)[0]


def q_bound_check(sm, fs, t, x):
    """Smallest eigenvalue of ||x|| [P(1)] - [P(x)].

    Nonnegative when the kernel respects the operator bound of x; the
    norm is the spectral norm. The window maps are linear, so this is
    the one block form [P(||x|| 1 - x)].
    """
    return min_eig(_gram(sm, fs, (t,), _norm_gap(_as_operator(x, sm.dim)))[0])


def kernel_cp_residual(sm, fs, xs, t):
    """Smallest eigenvalue of the kernel's Gram matrix [P_{jk}(x_j* x_k)].

    Complete positivity of the kernel makes this matrix PSD for every
    choice of test functions and operators.
    """
    return min_eig(_gram(sm, fs, (t,), _pair_products(xs, len(fs), sm.dim))[0])


def schur_product_check(sm, fs, xs, t1, t2):
    """Smallest eigenvalue of the entrywise-composed kernel Gram matrix.

    Composes the window [0, t1] and [0, t2] maps entry by entry on
    x_j* x_k: the [0, t2] map acts first, then the [0, t1] map; closure of
    the kernel family under this Schur composition keeps the matrix PSD.
    """
    return min_eig(_gram(sm, fs, (t1, t2), _pair_products(xs, len(fs), sm.dim))[0])
