"""Analytic catalog of conformal immersion patches and their
first/second-order geometry.

Each catalog factory returns its analytic jet (position plus first and
second derivatives, all m ambient components) on the grid's nodes,
evaluated once by ``make_surface``; the patch carries that value.
Finite-difference jets are the fallback for perturbed patches and are
tested against the analytic ones.  All quantities follow the
conformal-frame conventions:

    e^lambda = |d1 Phi|,   e_i = e^-lambda d_i Phi,   e_z = (e_1 - i e_2)/2,
    h^a_ij   = e^-2lambda  n_a . d_ij Phi,
    H        = 1/2 sum_a (h^a_11 + h^a_22) n_a,
    H0       = 1/2 sum_a (h^a_11 - h^a_22 + 2 i h^a_12) n_a,
    K        = -e^-2lambda Laplace(lambda)   (and via the Gauss equation).

``GeometryBundle`` is the one geometry record, the fields every reader
shares: ``make_bundle`` builds it from the fields ``frames`` returns with
the whole jet and those ``second_fundamental`` forms from that jet.  Any
value of fields (the Gauss map, the conformality defect, H0, the complex
frame, both curvature routes, |H|^2, |B|^2) is an entry formed where it is
read, as ``bundle.derived(fn)``: once per bundle, and never stale.

The normal frame is deterministic: constant ambient seed vectors are
Gram-Schmidt-projected when they stay uniformly transverse, and the
final normal is the Hodge dual of the wedge of everything accepted so
far, which makes the full frame {t1, t2, n_1, ..., n_{m-2}} positively
oriented by construction (so star(n ^ e1) = e2 holds on the nose).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field, replace
from inspect import unwrap
from numbers import Integral, Real
from typing import Any, Callable

import numpy as np

from . import diskgrid as dg
from . import multivec as mv
from .diskgrid import Grid

__all__ = [
    "DegenerateImmersionError",
    "FrameError",
    "ImmersionPatch",
    "GeometryBundle",
    "Jet",
    "Surface",
    "make_surface",
    "perturb_normal",
    "frames",
    "second_fundamental",
    "make_bundle",
    "gauss_map",
    "conformal_defect",
    "tracefree_H0",
    "complex_frame",
    "gaussian_curvature",
    "norm_H2",
    "norm_B2",
    "willmore_energy",
    "CATALOG",
]


class DegenerateImmersionError(ValueError):
    """The sampled immersion degenerates (|dPhi| ~ 0) somewhere; a ValueError: unusable input."""


class FrameError(ValueError):
    """No admissible seed vector spans the normal bundle over the patch; a ValueError: unusable input."""


@dataclass(frozen=True)
class Jet:
    """Position and first and second derivatives of Phi at the grid nodes, each (n, n, m).
    A bundle keeps phi, d1 and d2 of it; ``make_bundle`` reads the second order once, to form h."""

    phi: np.ndarray
    d1: np.ndarray
    d2: np.ndarray
    d11: np.ndarray
    d12: np.ndarray
    d22: np.ndarray


@dataclass(frozen=True)
class ImmersionPatch:
    """Sampled conformal immersion of the grid square into R^m, m = phi.shape[-1]; jets is
    the catalog's analytic jet on the grid's nodes (None off the catalog)."""

    grid: Grid
    phi: np.ndarray
    jets: Jet | None = None
    label: str = "surface"

    def jet(self) -> Jet:
        """The analytic jet the patch carries, else the second-order FD jet."""
        return self.jets if self.jets is not None else fd_jet(self.grid, self.phi)

    def with_phi(self, phi: np.ndarray, label: str | None = None) -> "ImmersionPatch":
        """Same patch with replaced samples; analytic jets are dropped."""
        return replace(self, phi=phi, jets=None, label=label or self.label)


def _fd_d11(grid: Grid, f: np.ndarray) -> np.ndarray:
    h2 = grid.h**2
    out = np.empty_like(f)
    mid = out[1:-1]  # (f[2:] - 2.0 * f[1:-1] + f[:-2]) / h2, formed in place in that order
    np.multiply(2.0, f[1:-1], out=mid)
    np.subtract(f[2:], mid, out=mid)
    mid += f[:-2]
    mid /= h2
    out[0] = (2.0 * f[0] - 5.0 * f[1] + 4.0 * f[2] - f[3]) / h2
    out[-1] = (2.0 * f[-1] - 5.0 * f[-2] + 4.0 * f[-3] - f[-4]) / h2
    return out


def fd_jet(grid: Grid, phi: np.ndarray) -> Jet:
    """Finite-difference jet: centered interior, one-sided edges."""
    d1p = dg.d1(grid, phi)
    d2p = dg.d2(grid, phi)
    return Jet(
        phi=phi,
        d1=d1p,
        d2=d2p,
        d11=_fd_d11(grid, phi),
        d12=dg.d2(grid, d1p),
        d22=np.swapaxes(_fd_d11(grid, np.swapaxes(phi, 0, 1)), 0, 1),
    )


# ---------------------------------------------------------------------------
# Catalog surfaces
# ---------------------------------------------------------------------------

def _zero_fields(grid: Grid, m: int) -> list[np.ndarray]:
    """Six fresh +0.0 (n, n, m) arrays in Jet field order: an R^3 jet fills
    components 0..2 and leaves the rest zero."""
    return [np.zeros((grid.n, grid.n, m)) for _ in range(6)]


def _plane_jets(grid: Grid, m: int) -> Jet:
    X1, X2 = grid.nodes()
    phi, d1, d2, d11, d12, d22 = _zero_fields(grid, m)
    phi[..., 0], phi[..., 1] = X1, X2
    d1[..., 0] = 1.0
    d2[..., 1] = 1.0
    return Jet(phi, d1, d2, d11, d12, d22)


def _sphere_jets(grid: Grid, m: int, rho: float) -> Jet:
    # inverse stereographic projection, e^lambda = 2 rho / (1 + |x|^2)
    X1, X2 = grid.nodes()
    X1sq, X2sq = X1**2, X2**2
    x3 = grid.axis() ** 3  # X1**3 and X2**3, same bits, from n values: numpy's pow is slow on negative bases
    u = 1.0 + X1sq + X2sq
    u2, u3 = u**2, u**3
    phi, d1, d2, d11, d12, d22 = _zero_fields(grid, m)
    phi[..., 0] = 2.0 * rho * X1 / u
    phi[..., 1] = 2.0 * rho * X2 / u
    phi[..., 2] = rho * (1.0 - 2.0 / u)
    d1[..., 0] = 2.0 * rho * (u - 2.0 * X1sq) / u2
    d1[..., 1] = -4.0 * rho * X1 * X2 / u2
    d1[..., 2] = 4.0 * rho * X1 / u2
    d2[..., 0] = -4.0 * rho * X1 * X2 / u2
    d2[..., 1] = 2.0 * rho * (u - 2.0 * X2sq) / u2
    d2[..., 2] = 4.0 * rho * X2 / u2
    d11[..., 0] = 2.0 * rho * (8.0 * x3[:, None] - 6.0 * X1 * u) / u3
    d11[..., 1] = -4.0 * rho * X2 * (u - 4.0 * X1sq) / u3
    d11[..., 2] = 4.0 * rho * (u - 4.0 * X1sq) / u3
    d22[..., 0] = -4.0 * rho * X1 * (u - 4.0 * X2sq) / u3
    d22[..., 1] = 2.0 * rho * (8.0 * x3 - 6.0 * X2 * u) / u3
    d22[..., 2] = 4.0 * rho * (u - 4.0 * X2sq) / u3
    d12[..., 0] = 4.0 * rho * X2 * (4.0 * X1sq - u) / u3
    d12[..., 1] = 4.0 * rho * X1 * (4.0 * X2sq - u) / u3
    d12[..., 2] = -16.0 * rho * X1 * X2 / u3
    return Jet(phi, d1, d2, d11, d12, d22)


def _cylinder_jets(grid: Grid, m: int, rho: float) -> Jet:
    X1, X2 = grid.nodes()
    t = X1 / rho
    c, s = np.cos(t), np.sin(t)
    phi, d1, d2, d11, d12, d22 = _zero_fields(grid, m)
    phi[..., 0], phi[..., 1], phi[..., 2] = rho * c, rho * s, X2
    d1[..., 0], d1[..., 1] = -s, c
    d2[..., 2] = 1.0
    d11[..., 0], d11[..., 1] = -c / rho, -s / rho
    return Jet(phi, d1, d2, d11, d12, d22)


def _catenoid_jets(grid: Grid, m: int) -> Jet:
    X1, X2 = grid.nodes()
    c1, s1 = np.cos(X1), np.sin(X1)
    ch, sh = np.cosh(X2), np.sinh(X2)
    phi, d1, d2, d11, d12, d22 = _zero_fields(grid, m)
    phi[..., 0], phi[..., 1], phi[..., 2] = ch * c1, ch * s1, X2
    d1[..., 0], d1[..., 1] = -ch * s1, ch * c1
    d2[..., 0], d2[..., 1], d2[..., 2] = sh * c1, sh * s1, 1.0
    d11[..., 0], d11[..., 1] = -ch * c1, -ch * s1
    d12[..., 0], d12[..., 1] = -sh * s1, sh * c1
    d22[..., 0], d22[..., 1] = ch * c1, ch * s1
    return Jet(phi, d1, d2, d11, d12, d22)


def _enneper_jets(grid: Grid, m: int) -> Jet:
    # Phi = (u - u^3/3 + u v^2, -(v - v^3/3 + v u^2), u^2 - v^2), e^lambda = 1 + u^2 + v^2
    U, V = grid.nodes()
    U2, V2 = U**2, V**2
    x3 = grid.axis() ** 3  # U**3 and V**3 with their bits, as in _sphere_jets
    phi, d1, d2, d11, d12, d22 = _zero_fields(grid, m)
    phi[..., 0] = U - x3[:, None] / 3.0 + U * V2
    phi[..., 1] = -(V - x3 / 3.0 + V * U2)
    phi[..., 2] = U2 - V2
    d1[..., 0] = 1.0 - U2 + V2
    d1[..., 1] = -2.0 * U * V
    d1[..., 2] = 2.0 * U
    d2[..., 0] = 2.0 * U * V
    d2[..., 1] = -(1.0 - V2 + U2)
    d2[..., 2] = -2.0 * V
    d11[..., 0] = -2.0 * U
    d11[..., 1] = -2.0 * V
    d11[..., 2] = 2.0
    d12[..., 0] = 2.0 * V
    d12[..., 1] = -2.0 * U
    d22[..., 0] = 2.0 * U
    d22[..., 1] = 2.0 * V
    d22[..., 2] = -2.0
    return Jet(phi, d1, d2, d11, d12, d22)


_SQRT2 = np.sqrt(2.0)


def _clifford_jets(grid: Grid, m: int) -> Jet:
    # Torus of revolution with radii (sqrt 2, 1); the profile coordinate is
    # reparametrized by arc length of the conformal structure,
    # v(t) = 2 atan((sqrt 2 + 1) tan(t/2)), which integrates dv/dt = sqrt 2 + cos v
    # in closed form.  e^lambda = sqrt 2 + cos v.
    X1, X2 = grid.nodes()
    v = 2.0 * np.arctan((_SQRT2 + 1.0) * np.tan(X2 / 2.0))
    cv, sv = np.cos(v), np.sin(v)
    vp = _SQRT2 + cv           # dv/dt
    vpp = -sv * vp             # d2v/dt2
    c1, s1 = np.cos(X1), np.sin(X1)
    r = _SQRT2 + cv
    phi, d1, d2, d11, d12, d22 = _zero_fields(grid, m)
    phi[..., 0], phi[..., 1], phi[..., 2] = r * c1, r * s1, sv
    d1[..., 0], d1[..., 1] = -r * s1, r * c1
    d2[..., 0] = -sv * vp * c1
    d2[..., 1] = -sv * vp * s1
    d2[..., 2] = cv * vp
    d11[..., 0], d11[..., 1] = -r * c1, -r * s1
    d12[..., 0], d12[..., 1] = sv * vp * s1, -sv * vp * c1
    d22[..., 0] = -(cv * vp**2 + sv * vpp) * c1
    d22[..., 1] = -(cv * vp**2 + sv * vpp) * s1
    d22[..., 2] = cv * vpp - sv * vp**2
    return Jet(phi, d1, d2, d11, d12, d22)


def _graph_jets(grid: Grid, m: int, seed: int, amplitude: float) -> Jet:
    """Plane plus seeded smooth Gaussian bumps in each normal coordinate."""
    jet = _plane_jets(grid, m)
    X1, X2 = grid.nodes()
    rng = np.random.default_rng(seed)
    for comp in range(2, m):
        for _ in range(rng.integers(2, 4)):
            c = rng.uniform(0.5, 1.0) * rng.choice([-1.0, 1.0])
            p1, p2 = rng.uniform(-0.5 * grid.s, 0.5 * grid.s, size=2)
            w = rng.uniform(grid.s / 3.0, grid.s / 2.0)
            u1, u2 = (X1 - p1) / w, (X2 - p2) / w
            g = amplitude * c * np.exp(-(u1**2) - u2**2)
            jet.phi[..., comp] += g
            jet.d1[..., comp] += -2.0 * u1 / w * g
            jet.d2[..., comp] += -2.0 * u2 / w * g
            jet.d11[..., comp] += (4.0 * u1**2 - 2.0) / w**2 * g
            jet.d22[..., comp] += (4.0 * u2**2 - 2.0) / w**2 * g
            jet.d12[..., comp] += 4.0 * u1 * u2 / w**2 * g
    return jet


@dataclass(frozen=True)
class Surface:
    """Catalog record: the factory jets(grid, m, **params) returning the Jet on the
    grid's nodes, the parameter defaults
    (whose types fix the accepted values: int >= 0, float finite > 0) and the report
    keys verify does not threshold (None: no key)."""

    jets: Callable[..., Jet]
    params: dict[str, Any] = field(default_factory=dict)
    exempt: frozenset[str] | None = frozenset()


def _check_surface(kind: str, m: int, params: dict) -> Surface:
    """The catalog record of kind; ValueError unless m and params fit it."""
    if kind not in CATALOG:
        raise ValueError(f"unknown surface {kind!r}; have {sorted(CATALOG)}")
    if not 3 <= m <= mv.MAX_DIM:
        raise ValueError(f"ambient dimension m={m} outside 3..{mv.MAX_DIM}")
    record = CATALOG[kind]
    for name, value in params.items():
        if name not in record.params:
            raise ValueError(f"surface {kind} has no parameter {name!r}; it takes {sorted(record.params)}")
        _check_value(kind, name, record.params[name], value)
    return record


def _check_value(kind: str, name: str, default: Any, value: Any) -> None:
    """ValueError unless value has the type of default: int >= 0, or float finite > 0.
    A bool is neither, although Python counts it as an Integral and a Real."""
    if isinstance(value, bool):
        raise ValueError(f"surface {kind} parameter {name} must be a number, got {value!r}")
    if isinstance(default, int):
        if not isinstance(value, Integral) or value < 0:
            raise ValueError(f"surface {kind} parameter {name} must be a non-negative integer, got {value!r}")
    elif not isinstance(value, Real) or not 0.0 < value < np.inf:
        raise ValueError(f"surface {kind} parameter {name} must be finite and positive, got {value!r}")


def _metric(label: str, phi: np.ndarray, d1: np.ndarray, d2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """g11 = |d1 Phi|^2 and g22 = |d2 Phi|^2 at the nodes, by the one rule that admits a sampled immersion:
    DegenerateImmersionError unless phi and the metric are finite, the metric is normal (not zero or
    subnormal) at every node, and no |d_i Phi| is at most 1e-12 of its largest value on the patch."""
    with np.errstate(all="ignore"):  # an overflow or underflow is reported below
        g11, g22 = (dg.component_sum(d * d) for d in (d1, d2))
    if not all(np.all(np.isfinite(x)) for x in (phi, g11, g22)):
        raise DegenerateImmersionError(f"{label} is not finite on this grid: "
                                       "its samples or its metric |d_i Phi|^2 overflow")
    low = min(np.min(g11), np.min(g22))
    if low < np.finfo(float).tiny:
        raise DegenerateImmersionError(f"{label} degenerates on this grid: its metric |d_i Phi|^2 is zero or subnormal")
    if np.sqrt(low) <= 1e-12 * np.sqrt(max(np.max(g11), np.max(g22))):  # sqrt is monotone: min/max |d_i Phi|
        i, j = np.unravel_index(int(np.argmin(np.minimum(g11, g22))), g11.shape)
        raise DegenerateImmersionError(f"{label} degenerates near node ({i}, {j})")
    return g11, g22


def make_surface(kind: str, grid: Grid, m: int = 3, **params) -> ImmersionPatch:
    """Construct the ``CATALOG`` surface ``kind`` on the given grid; parameters
    left out take their defaults, the others are checked by _check_surface.
    DegenerateImmersionError unless the jet meets the one metric rule that
    ``frames`` applies to every bundle (``_metric``)."""
    kind = kind.replace("-", "_")
    record = _check_surface(kind, m, params)
    with np.errstate(all="ignore"):  # an overflow is reported by _metric
        jet = record.jets(grid, m, **{**record.params, **params})
    _metric(f"surface {kind}", jet.phi, jet.d1, jet.d2)
    label = kind if not params else kind + "(" + ",".join(f"{k}={v}" for k, v in sorted(params.items())) + ")"
    return ImmersionPatch(grid=grid, phi=jet.phi, jets=jet, label=label)


CATALOG: dict[str, Surface] = {
    "plane": Surface(_plane_jets),
    "sphere": Surface(_sphere_jets, {"rho": 1.0}),
    "cylinder": Surface(_cylinder_jets, {"rho": 1.0}, frozenset({"divQ_inf", "L_defect"})),
    "catenoid": Surface(_catenoid_jets),
    "enneper": Surface(_enneper_jets),
    "clifford_torus_patch": Surface(_clifford_jets),
    # negative control: only approximately conformal, so every identity has
    # a conformality-defect floor and nothing is thresholded
    "graph_perturbation": Surface(_graph_jets, {"seed": 0, "amplitude": 0.05}, exempt=None),
}


def perturb_normal(patch: ImmersionPatch, seed: int = 0, amplitude: float = 0.05) -> ImmersionPatch:
    """Add a seeded smooth normal bump, windowed to vanish at the boundary.

    The result has no analytic jets; geometry falls back to FD.  Used to
    produce off-critical starting points for the descent flow.  seed and
    amplitude are checked like the catalog parameters, and the result like a
    catalog surface, with its finite-difference metric (``_metric``).
    """
    _check_value(f"perturbed-{patch.label}", "seed", 0, seed)
    _check_value(f"perturbed-{patch.label}", "amplitude", 0.05, amplitude)
    normal = frames(patch)["normal_frame"][0]
    grid = patch.grid
    X1, X2 = grid.nodes()
    window = np.cos(np.pi * X1 / (2 * grid.s)) ** 2 * np.cos(np.pi * X2 / (2 * grid.s)) ** 2
    rng = np.random.default_rng(seed)
    g = np.zeros_like(X1)
    for _ in range(3):
        p1, p2 = rng.uniform(-0.4 * grid.s, 0.4 * grid.s, size=2)
        w = rng.uniform(grid.s / 3.0, grid.s / 2.0)
        c = rng.uniform(0.5, 1.0) * rng.choice([-1.0, 1.0])
        g += c * np.exp(-((X1 - p1) ** 2 + (X2 - p2) ** 2) / w**2)
    label = f"perturbed-{patch.label}(seed={seed},amp={amplitude})"
    with np.errstate(all="ignore"):  # an overflow is reported by _metric
        bump = amplitude * window * g
        phi = patch.phi + bump[..., None] * normal
        d1, d2 = dg.d1(grid, phi), dg.d2(grid, phi)
    _metric(f"surface {label}", phi, d1, d2)
    return patch.with_phi(phi, label=label)


# ---------------------------------------------------------------------------
# Geometry bundle
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GeometryBundle:
    """Conformal-frame geometry of an immersion patch: the fields ``frames``
    and ``second_fundamental`` build (``make_bundle``).  Of the jet it keeps
    phi, d1 = d1 Phi and d2 = d2 Phi; m is the ambient dimension phi.shape[-1].

    normal_frame has shape (m-2, n, n, m).  t1/t2 are the exactly
    orthonormalized tangents used for projections (they agree with
    e_i = e^-lambda d_i Phi up to the conformality defect).  h has shape
    (n, n, m-2, 2, 2), and area_density = e^{2 lambda}.  ``H0``, the Gauss
    map n = n_1 ^ ... ^ n_{m-2} (``gauss_map``) and the conformality defect
    (``conformal_defect``) are no fields: a bundle that never reads them (a
    rejected flow trial's) never forms them, and one with a replaced h or
    normal frame forms them anew.

    ``derived(fn)`` evaluates fn(bundle) once per bundle (H0, the complex frame,
    K, |H|^2, Q, grad n, L, the surface scale, ...), also when several
    threads ask for it at once: the first computes it and the others wait.
    The key is ``inspect.unwrap(fn)``: a ``functools.wraps`` wrapper shares fn's entry.
    ``dataclasses.replace`` starts an empty memo; memoized arrays are shared
    and must not be mutated.  ``drop(fn)`` forgets an entry: on the bundle it
    builds, ``reports.residual_report`` drops each one no stage left reads.
    """

    grid: Grid
    m: int
    phi: np.ndarray
    d1: np.ndarray
    d2: np.ndarray
    lam: np.ndarray
    elam: np.ndarray
    t1: np.ndarray
    t2: np.ndarray
    normal_frame: np.ndarray
    h: np.ndarray
    H: np.ndarray
    area_density: np.ndarray
    _memo: dict = field(init=False, repr=False, compare=False, default_factory=dict)
    _locks: dict = field(init=False, repr=False, compare=False, default_factory=dict)

    @property
    def H0(self) -> np.ndarray:
        return self.derived(tracefree_H0)

    def project_normal(self, X: np.ndarray) -> np.ndarray:
        """pi_n(X) of an ambient (possibly complex) vector field, or of a stack of them such as a
        gradient (..., n, n, m): X minus its parts along t1, t2."""
        tang = np.zeros_like(X)
        for t in (self.t1, self.t2):
            tang += dg.component_sum(X * t)[..., None] * t
        return X - tang

    def project_normal_frame(self, X: np.ndarray) -> np.ndarray:
        """pi_n(X) via expansion over the normal frame (cross-check route)."""
        out = np.zeros_like(X)
        for na in self.normal_frame:
            out = out + np.sum(X * na, axis=-1)[..., None] * na
        return out

    def derived(self, fn: Callable[["GeometryBundle"], Any]) -> Any:
        """fn(self), computed once per bundle; the unwrapped function is the key."""
        key = unwrap(fn)
        if key not in self._memo:
            # one lock per key (setdefault is atomic), so an entry that reads
            # another entry never waits on an unrelated computation
            with self._locks.setdefault(key, threading.Lock()):
                if key not in self._memo:
                    self._memo[key] = fn(self)
        return self._memo[key]

    def drop(self, fn: Callable[["GeometryBundle"], Any]) -> None:
        """Forget fn's entry, if held; a later ``derived(fn)`` computes it again."""
        self._memo.pop(unwrap(fn), None)


def _orthonormal_tangents(jet: Jet, n1: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """t1 = d1 Phi / n1 with n1 = |d1 Phi|, and t2 the unit part of d2 Phi orthogonal to t1."""
    t1 = jet.d1 / n1[..., None]
    t2 = jet.d2 - dg.component_sum(jet.d2 * t1)[..., None] * t1
    t2 /= np.sqrt(dg.component_sum(t2 * t2))[..., None]
    return t1, t2


_SEED_ACCEPT = 0.35


def frames(patch: ImmersionPatch) -> dict[str, Any]:
    """First-order geometry, keyed by ``GeometryBundle`` field (grid, m = phi.shape[-1], lam,
    elam, t1, t2 and normal_frame, which ``gauss_map`` and ``conformal_defect`` read), and the
    patch's whole jet (``patch.jet()``) under "jet", for ``make_bundle``.  lam = log n1 and
    t1 = d1 Phi / n1 take n1 = |d1 Phi| from the one metric rule (``_metric``), so a jet that
    fails it raises DegenerateImmersionError; exp(lam) can differ from n1 in the last bit."""
    jet = patch.jet()
    m = patch.phi.shape[-1]
    n1 = np.sqrt(_metric("immersion", jet.phi, jet.d1, jet.d2)[0])
    lam = np.log(n1)
    elam = np.exp(lam)
    t1, t2 = _orthonormal_tangents(jet, n1)

    accepted: list[np.ndarray] = []
    for comp in range(2, m):
        if len(accepted) == m - 3:
            break
        seed = np.zeros(patch.phi.shape)
        seed[..., comp] = 1.0
        r = seed - dg.component_sum(seed * t1)[..., None] * t1
        r -= dg.component_sum(r * t2)[..., None] * t2
        for na in accepted:
            r -= dg.component_sum(r * na)[..., None] * na
        norms = np.sqrt(dg.component_sum(r * r))
        if np.min(norms) < _SEED_ACCEPT:
            continue
        accepted.append(r / norms[..., None])
    if len(accepted) != m - 3:
        raise FrameError(
            f"only {len(accepted)} of {m - 3} seeded normals stay transverse on {patch.label}"
        )

    # last normal is the Hodge dual of everything so far; this fixes the
    # orientation so that star(n ^ e1) = e2 without any sign fix-up
    n_last = mv.field_cross(t1, t2, *accepted)
    n_last /= np.sqrt(dg.component_sum(n_last * n_last))[..., None]

    normal_frame = np.stack(accepted + [n_last])
    return dict(grid=patch.grid, m=m, jet=jet, lam=lam, elam=elam, t1=t1, t2=t2, normal_frame=normal_frame)


def second_fundamental(jet: Jet, elam: np.ndarray, normal_frame: np.ndarray) -> dict[str, np.ndarray]:
    """h, H and area_density = e^{2 lambda} of jet in the conformal frame
    (elam, normal_frame) that ``frames`` builds; H0 is formed from h and the
    normal frame on first read (``tracefree_H0``)."""
    e2lam = elam**2
    second = ((jet.d11, jet.d12), (jet.d12, jet.d22))
    h = np.empty(elam.shape + (len(normal_frame), 2, 2))
    for a, na in enumerate(normal_frame):
        for i, j in ((0, 0), (0, 1), (1, 1)):
            h[..., a, i, j] = dg.component_sum(na * second[i][j]) / e2lam
        h[..., a, 1, 0] = h[..., a, 0, 1]
    Hcoef = 0.5 * (h[..., 0, 0] + h[..., 1, 1])
    H = np.einsum("...a,a...k->...k", Hcoef, normal_frame)
    return dict(h=h, H=H, area_density=e2lam)


def make_bundle(patch: ImmersionPatch) -> GeometryBundle:
    """The geometry bundle of patch: ``frames``, then ``second_fundamental`` of the whole jet that ``frames``
    hands over.  The bundle keeps phi, d1 and d2 of that jet, not the patch, so the second order goes with it.
    The Gauss map and the conformality defect are formed where they are read (``gauss_map``, ``conformal_defect``)."""
    first = frames(patch)
    jet = first.pop("jet")
    second = second_fundamental(jet, first["elam"], first["normal_frame"])
    return GeometryBundle(phi=jet.phi, d1=jet.d1, d2=jet.d2, **first, **second)


def gauss_map(bundle: GeometryBundle) -> mv.BladeRows:
    """The Gauss map n = n_1 ^ ... ^ n_{m-2} of the normal frame, as blade rows over (n, n)."""
    return mv.field_wedge_vectors(*bundle.normal_frame)


def conformal_defect(bundle: GeometryBundle) -> float:
    """Interior max of ||d1 Phi|-|d2 Phi|| / |d1 Phi| and |d1 Phi.d2 Phi| / |d1 Phi|^2, |d_i Phi| as in ``_metric``."""
    win = bundle.grid.interior()
    n1, n2 = (np.sqrt(dg.component_sum(d * d))[win] for d in (bundle.d1, bundle.d2))
    cross = np.abs(dg.component_sum(bundle.d1 * bundle.d2))[win]
    return float(max(np.max(np.abs(n1 - n2) / n1), np.max(cross / n1**2)))


def tracefree_H0(bundle: GeometryBundle) -> np.ndarray:
    """H0 = 1/2 sum_a (h^a_11 - h^a_22 + 2 i h^a_12) n_a, complex, (n, n, m), as ``bundle.H0``; the n_a stay real."""
    h = bundle.h
    H0coef = 0.5 * (h[..., 0, 0] - h[..., 1, 1] + 2j * h[..., 0, 1])
    return np.einsum("...a,a...k->...k", H0coef, bundle.normal_frame)


def complex_frame(bundle: GeometryBundle) -> tuple[np.ndarray, np.ndarray]:
    """(e_z, e_{z*}) = ((e_1 - i e_2)/2, (e_1 + i e_2)/2) with e_i = e^-lambda d_i Phi."""
    e1 = bundle.d1 / bundle.elam[..., None]
    e2 = bundle.d2 / bundle.elam[..., None]
    return 0.5 * (e1 - 1j * e2), 0.5 * (e1 + 1j * e2)


def norm_H2(bundle: GeometryBundle) -> np.ndarray:
    """|H|^2, shape (n, n)."""
    return dg.component_sum(bundle.H * bundle.H)


def norm_B2(bundle: GeometryBundle) -> np.ndarray:
    """|B|^2 = sum_a,i,j (h^a_ij)^2, shape (n, n)."""
    return np.sum(bundle.h**2, axis=(-1, -2, -3))


def gaussian_curvature(bundle: GeometryBundle) -> tuple[np.ndarray, np.ndarray]:
    """Both curvature routes (K_lambda, K_gauss): K_lambda = -e^-2lambda Laplace(lambda)
    and, by the Gauss equation, K_gauss = 2 |H|^2 - |B|^2 / 2."""
    K_lambda = -dg.laplace(bundle.grid, bundle.lam) / bundle.area_density
    return K_lambda, 2.0 * bundle.derived(norm_H2) - 0.5 * bundle.derived(norm_B2)


def willmore_energy(bundle: GeometryBundle) -> float:
    """Trapezoidal quadrature of |H|^2 e^{2 lambda} over the grid square."""
    density = bundle.derived(norm_H2) * bundle.area_density
    return float(dg.integrate(bundle.grid, density))
