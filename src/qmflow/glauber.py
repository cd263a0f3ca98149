"""A spin-chain flip model with neighbor-conditioned jump operators.

Sites 1..n carry spin-1/2 degrees of freedom; basis index bit 0 means
spin up (+1), bit 1 means spin down (-1), with site 1 on the leftmost
tensor slot. For each orientation pair (eps, mu) in {+1, -1}^2 the site-r
jump operator flips the center spin and projects the neighbors relative
to the POST-FLIP center value s:

    F(eps, mu)_r = sum over s in {+1, -1} of
                   P(eps * s)_(r-1)  (x)  |s><-s|_r  (x)  P(mu * s)_(r+1)

where P(+1), P(-1) project onto up/down. The relative convention makes
the adjoint identity exact: F(eps, mu)* = F(-eps, -mu). Labels use
'p' for +1 and 'm' for -1, so "pp" means both neighbors aligned with the
new center value, "mm" both opposed.

The chain operator F(eps, mu) sums the site operators (periodic: all
sites, wrapping; open: interior sites only). Structure maps take the
aligned-aligned operator F("pp") as the noise coupling; the remaining
orientation channels and the imaginary parts of the noise covariances
enter through an effective Hamiltonian.
"""

from dataclasses import dataclass, field

import numpy as np

from .linalg import hermitian_part
from .structure import _cyclic_shift, build_evans_hudson

__all__ = [
    "LABELS", "GlauberConfig", "default_constants",
    "build_site_operator", "build_F_lambda", "build_spin_operators",
    "shift_matrix", "build_glauber_structure_maps",
]

LABELS = ("pp", "pm", "mp", "mm")

_SIGN = {"p": +1, "m": -1}

# 6 sites cannot run (d = 64): only the 4 GiB padded Choi matrix, over
# MAX_CHOI_BLOCK_DIM (32), stops them
MIN_SITES = 3
MAX_SITES = 5

def _label_signs(label):
    if label not in LABELS:
        raise ValueError(f"orientation label must be one of {LABELS}, got {label!r}")
    return _SIGN[label[0]], _SIGN[label[1]]


def default_constants(seed):
    """Seeded random noise covariances, one complex number per channel.

    Real parts are drawn from [1/2, 3/2]; keeping them at
    least 1/2 keeps the calibrated Ito constants at or above 1, which is
    exactly the regime where the dissipativity form and the extended
    map's complete positivity hold (below it they provably fail).
    Imaginary parts are drawn from [-1/2, 1/2].
    """
    rng = np.random.default_rng([int(seed), 0x61AB])
    out = {}
    for kind in ("plus", "minus"):
        out[kind] = {
            lab: complex(1.0 + 0.5 * (2.0 * rng.random() - 1.0),
                         rng.random() - 0.5)
            for lab in LABELS
        }
    return out["plus"], out["minus"]


@dataclass(frozen=True)
class GlauberConfig:
    """Chain geometry plus the noise covariance constants.

    gg_plus and gg_minus map orientation labels to complex constants; the
    real parts (channel weights) must be nonnegative.
    """

    sites: int
    boundary: str = "periodic"
    gg_plus: dict = field(default_factory=dict)
    gg_minus: dict = field(default_factory=dict)

    def __post_init__(self):
        n = self.sites
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
            raise ValueError(f"sites must be an integer, got {n!r}")
        n = int(n)
        if not MIN_SITES <= n <= MAX_SITES:
            raise ValueError(
                f"sites must lie in [{MIN_SITES}, {MAX_SITES}], got {n}")
        object.__setattr__(self, "sites", n)
        if self.boundary not in ("periodic", "open"):
            raise ValueError(
                f"boundary must be 'periodic' or 'open', got {self.boundary!r}")
        for name in ("gg_plus", "gg_minus"):
            table = dict(getattr(self, name))
            if set(table) != set(LABELS):
                raise ValueError(
                    f"{name} must have exactly the labels {LABELS}, got {sorted(table)}")
            for lab, v in table.items():
                v = complex(v)
                if not (np.isfinite(v.real) and np.isfinite(v.imag)):
                    raise ValueError(f"{name}[{lab!r}] is not finite")
                if v.real < 0:
                    raise ValueError(
                        f"{name}[{lab!r}] has negative real part {v.real}")
                table[lab] = v
            object.__setattr__(self, name, table)

    @property
    def dim(self):
        return 2 ** self.sites

    @classmethod
    def with_random_constants(cls, sites=3, boundary="periodic", seed=0):
        plus, minus = default_constants(seed)
        return cls(sites=sites, boundary=boundary, gg_plus=plus, gg_minus=minus)


def _check_orientations(eps, mu):
    if eps not in (1, -1) or mu not in (1, -1):
        raise ValueError(f"orientations must be +1 or -1, got ({eps}, {mu})")


def _flip_entries(cfg, r, eps, mu):
    """Rows and columns of the 1.0 entries of the site-r flip term.

    Computed from the basis-index bits (bit value 1 is spin down): a
    column's site-r bit flips, and the column is kept when its neighbor
    bits read eps and mu relative to the flipped bit.
    """
    n = cfg.sites
    slot = r - 1
    idx = np.arange(cfg.dim)

    def bit(k):
        return (idx >> (n - 1 - k)) & 1

    flipped = 1 - bit(slot)   # the spin at r after the flip
    keep = ((bit((slot - 1) % n) == flipped ^ (eps < 0))
            & (bit((slot + 1) % n) == flipped ^ (mu < 0)))
    cols = idx[keep]
    return cols ^ (1 << (n - 1 - slot)), cols


def build_site_operator(cfg, r, eps, mu):
    """Site-r jump operator for neighbor orientations (eps, mu).

    r is 1-based. For the open chain, r must have both neighbors
    (boundary sites contribute no flip term and are rejected here).
    """
    n = cfg.sites
    if not 1 <= r <= n:
        raise ValueError(f"site index must lie in [1, {n}], got {r}")
    _check_orientations(eps, mu)
    if cfg.boundary == "open" and (r == 1 or r == n):
        raise ValueError(
            f"site {r} of the open chain has no flip term (missing a neighbor)")
    out = np.zeros((cfg.dim, cfg.dim))
    out[_flip_entries(cfg, r, eps, mu)] = 1.0
    return out


def build_F_lambda(cfg, eps, mu):
    """Chain jump operator: the sum of the site terms.

    Each site's term flips its own bit, so no two terms share an entry
    and the sum is their 1.0 entries placed into one zero matrix.
    """
    _check_orientations(eps, mu)
    if cfg.boundary == "periodic":
        sites = range(1, cfg.sites + 1)
    else:
        sites = range(2, cfg.sites)
    total = np.zeros((cfg.dim, cfg.dim))
    for r in sites:
        total[_flip_entries(cfg, r, eps, mu)] = 1.0
    return total


def build_spin_operators(cfg):
    """The chain operators {label: F(label)} for the four orientation labels."""
    return {lab: build_F_lambda(cfg, *_label_signs(lab)) for lab in LABELS}


def shift_matrix(n):
    """Permutation moving each site's spin one slot to the right (cyclic).

    Conjugating a site operator by this matrix advances its site index by
    one, modulo the chain length. Its permutation of the basis indices is
    the one the sector basis of periodic chains is built from.
    """
    dim = 2 ** n
    u = np.zeros((dim, dim))
    u[_cyclic_shift(n), np.arange(dim)] = 1.0
    return u


def build_glauber_structure_maps(cfg):
    """Structure maps of the chain model.

    The noise coupling is the aligned-aligned chain operator F("pp"); the
    channel weights are the real parts of the (pp) covariances, and all
    four orientation channels contribute commutator terms through the
    effective Hamiltonian

        H = sum over labels of Im(gg_minus) F*F - Im(gg_plus) F F*.

    Returns a StructureMapSet whose Ito table holds the calibrated
    constants (twice the channel weights).
    """
    ops = build_spin_operators(cfg)
    h = np.zeros((cfg.dim, cfg.dim), dtype=complex)
    for lab in LABELS:
        f = ops[lab]
        h = h + cfg.gg_minus[lab].imag * (f.conj().T @ f)
        h = h - cfg.gg_plus[lab].imag * (f @ f.conj().T)
    h = hermitian_part(h)
    return build_evans_hudson(
        h, ops["pp"],
        w_minus=cfg.gg_minus["pp"].real,
        w_plus=cfg.gg_plus["pp"].real,
    )
