"""willmore_lab: verification toolkit for the divergence-form Willmore
equation, its conservation laws, the conformal Willmore equation with
holomorphic quadratic differential, and the supporting Lorentz-space /
Wente machinery, on analytic conformal surface patches and discrete
Willmore-energy descent sequences."""

from .diskgrid import Grid
from .immersion import (
    GeometryBundle,
    ImmersionPatch,
    make_bundle,
    make_surface,
    perturb_normal,
    willmore_energy,
)

__all__ = [
    "Grid",
    "GeometryBundle",
    "ImmersionPatch",
    "make_bundle",
    "make_surface",
    "perturb_normal",
    "willmore_energy",
]

__version__ = "0.1.0"
