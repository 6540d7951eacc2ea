"""In-memory span tracer for the benchmark.

The tracer wraps the public functions of each willmore_lab module (the
layers) and records one span per call: name, start, end, the span that
caused it, the thread, and the bytes crossing the call boundary.  Every
binding a caller can resolve is replaced, not only the defining
module's attribute: ``from .conservation import assemble_Q`` leaves a
second reference in ``confwillmore`` and ``flow``, and each module
namespace of the package is scanned for it.

A span started on a thread with no open span (a CLI worker thread) gets
the current ``cli.main`` span as its parent, so the self time of
``cli.main`` excludes the union of its children's intervals, and what is
left is parsing, thread dispatch and file I/O.

Spans stay in memory until the run ends; ``write_csv`` dumps them.
"""

from __future__ import annotations

import csv
import functools
import itertools
import sys
import threading
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import NamedTuple

# (span name, module, functions reported under that name)
LAYERS: tuple[tuple[str, str, tuple[str, ...]], ...] = (
    ("diskgrid.poisson_dirichlet", "diskgrid", ("poisson_dirichlet",)),
    ("diskgrid.poisson_neumann", "diskgrid", ("poisson_neumann",)),
    ("diskgrid.grad_potential", "diskgrid", ("grad_potential",)),
    ("diskgrid.curl_potential", "diskgrid", ("curl_potential",)),
    ("diskgrid.fd", "diskgrid",
     ("d1", "d2", "grad", "grad_perp", "div", "curl", "laplace", "dz", "dzstar")),
    ("multivec.field_wedge", "multivec", ("field_wedge",)),
    ("multivec.field_bullet", "multivec", ("field_bullet",)),
    ("multivec.field_hodge", "multivec", ("field_hodge",)),
    ("multivec.field_inner", "multivec", ("field_inner",)),
    ("multivec.embed", "multivec", ("vector_field_to_mv", "mv_field_vector_part")),
    ("immersion.make_surface", "immersion", ("make_surface",)),
    ("immersion.perturb_normal", "immersion", ("perturb_normal",)),
    ("immersion.make_bundle", "immersion", ("make_bundle",)),
    ("immersion.frames", "immersion", ("frames",)),
    ("immersion.second_fundamental", "immersion", ("second_fundamental",)),
    ("immersion.willmore_energy", "immersion", ("willmore_energy",)),
    ("conservation.surface_scale", "conservation", ("surface_scale",)),
    ("conservation.assemble_Q", "conservation", ("assemble_Q",)),
    ("conservation.willmore_residual", "conservation", ("willmore_residual",)),
    ("conservation.tangency_identities", "conservation", ("tangency_identities",)),
    ("conservation.recover_L", "conservation", ("recover_L",)),
    ("conservation.assemble_L0", "conservation", ("assemble_L0",)),
    ("conservation.dz_L0_closed_form", "conservation", ("dz_L0_closed_form",)),
    ("conservation.build_S_R", "conservation", ("build_S_R",)),
    ("conservation.sr_system_residual", "conservation", ("sr_system_residual",)),
    ("conservation.phi_identity_residual", "conservation", ("phi_identity_residual",)),
    ("confwillmore.extract_A_f", "confwillmore", ("extract_A_f",)),
    ("confwillmore.conformal_willmore_residual", "confwillmore", ("conformal_willmore_residual",)),
    ("confwillmore.eq13_residual", "confwillmore", ("eq13_residual",)),
    ("confwillmore.frame_derivative_residuals", "confwillmore", ("frame_derivative_residuals",)),
    ("confwillmore.codazzi_residual", "confwillmore", ("codazzi_residual",)),
    ("confwillmore.gauss_map_energy", "confwillmore", ("gauss_map_energy",)),
    ("lorentz.random_band_limited", "lorentz", ("random_band_limited",)),
    ("lorentz.rearrange", "lorentz", ("rearrange",)),
    ("lorentz.lorentz_norm", "lorentz", ("lorentz_norm",)),
    ("lorentz.wente_solve", "lorentz", ("wente_solve",)),
    ("flow.run", "flow", ("run",)),
    ("flow.step", "flow", ("step",)),
    ("flow.ps_norm", "flow", ("ps_norm",)),
    ("flow.descent_velocity", "flow", ("descent_velocity",)),
    ("reports.residual_report", "reports", ("residual_report",)),
    ("reports.check_report", "reports", ("check_report",)),
    ("cli.main", "cli", ("main",)),
)

SPAN_NAMES = tuple(name for name, _, _ in LAYERS)

# kernels whose bytes in + out are recorded at the call boundary
BYTE_SPANS = frozenset(
    {"diskgrid.poisson_dirichlet", "diskgrid.poisson_neumann",
     "multivec.field_wedge", "multivec.field_bullet"}
)

ROOT_SPAN = "cli.main"


def _nbytes(obj) -> int:
    if hasattr(obj, "nbytes") and hasattr(obj, "dtype"):
        return int(obj.nbytes)
    if isinstance(obj, (tuple, list)):
        return sum(_nbytes(x) for x in obj)
    return 0


class Span(NamedTuple):
    id: int
    parent: int | None
    name: str
    thread: int
    start: float
    end: float
    nbytes: int


class Tracer:
    """Collects spans from the wrapped layer functions of one process."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root: int | None = None

    def _wrap(self, name: str, fn):
        count_bytes = name in BYTE_SPANS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            sid = next(self._ids)
            parent = stack[-1] if stack else (None if name == ROOT_SPAN else self._root)
            if name == ROOT_SPAN and not stack:
                self._root = sid
            stack.append(sid)
            nbytes = 0
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
                if count_bytes:
                    nbytes = _nbytes(args) + _nbytes(tuple(kwargs.values())) + _nbytes(out)
                return out
            finally:
                end = perf_counter()
                stack.pop()
                self.spans.append(Span(sid, parent, name, threading.get_ident(), start, end, nbytes))

        return wrapper

    @contextmanager
    def installed(self, package: str = "willmore_lab"):
        """Wrap every layer function and every binding of it in the package.

        Yields {"module.attribute": span name} for each replaced binding;
        restores the originals on exit.
        """
        modules = {n: m for n, m in sys.modules.items()
                   if (n == package or n.startswith(package + ".")) and m is not None}
        wrappers = {}
        for name, module, functions in LAYERS:
            mod = modules[f"{package}.{module}"]
            for fn_name in functions:
                fn = getattr(mod, fn_name)
                wrappers[id(fn)] = (fn, self._wrap(name, fn), name)
        replaced = []
        bindings = {}
        for mod_name, mod in modules.items():
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    replaced.append((mod, attr, value))
                    bindings[f"{mod_name.removeprefix(package + '.')}.{attr}"] = hit[2]
        try:
            yield bindings
        finally:
            for mod, attr, value in replaced:
                setattr(mod, attr, value)

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the part covered by its child spans."""
        children = defaultdict(list)
        for s in self.spans:
            if s.parent is not None:
                children[s.parent].append((s.start, s.end))
        out = {}
        for s in self.spans:
            covered = 0.0
            cursor = s.start
            for a, b in sorted(children.get(s.id, ())):
                a, b = max(a, cursor), min(b, s.end)
                if b > a:
                    covered += b - a
                    cursor = b
            out[s.id] = (s.end - s.start) - covered
        return out

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["id", "parent", "name", "thread", "start", "end", "bytes"])
            for s in self.spans:
                writer.writerow([s.id, "" if s.parent is None else s.parent, s.name, s.thread,
                                 f"{s.start:.9f}", f"{s.end:.9f}", s.nbytes])
