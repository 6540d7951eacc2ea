"""Exact exterior algebra over R^m (3 <= m <= 6).

Basis blades are encoded as bitmasks: bit i set means the unit vector
e_{i+1} participates, and a blade's factors are always ordered by
increasing index.  The orientation is fixed once and for all by
declaring e_1 ^ ... ^ e_m = +1; every sign in the library derives from
permutation parity against that ordering.

Operations provided, with the conventions used throughout the package:

* ``wedge``      -- exterior product, graded-anticommutative.
* ``inner``      -- blade-orthonormal inner product (Gram/determinant
                    extension of the Euclidean dot product).
* ``hodge``      -- Hodge star, ``star(blade) = sign * complementary blade``.
* ``interior``   -- interior multiplication, the adjoint of wedge:
                    ``<g interior b, a> = <g, b ^ a>`` for all a.
* ``bullet``     -- first-order contraction, defined inductively:
                    ``a . b = a interior b`` for 1-vector b, and
                    ``a . (b ^ c) = (a . b) ^ c + (-1)^{pq} (a . c) ^ b``.

Each operation is one per-blade rule (``_wedge_rule``, ``_interior_rule``,
``_bullet_rule``) that maps a pair of basis blades to its signed blade
expansion; ``_entries(m, rule)`` builds the multiplication table of any
rule over R^m once, and the tables are cached and shared.  Everything is
immutable and pure.

Fields carry dense blade slots at the API, shape (..., 2**m); the work
runs on live blade rows (``BladeRows``: one contiguous array per slot that
is nonzero somewhere).  A bilinear product is three steps: gather the live
slots of each operand into rows, run the kept table entries in table order
on the rows (the plan for a pair of live slot sets is cached), and scatter
the product rows into a zeroed dense field.  Every product slot adds the
same terms in the same order as a loop over the whole table, so the result
is the same to the bit.  ``field_wedge_vectors`` wedges vector fields
(..., m) from their m component rows and keeps the chain in rows;
``field_cross`` is the vector part of the star of such a wedge, and
``field_slotwise`` takes a finite difference on the live slots only.  The
Hodge star maps blade k to blade ``full ^ k = full - k``: it is the blade
axis reversed and signed, one elementwise pass.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

import numpy as np

__all__ = [
    "DimensionMismatchError",
    "GradeError",
    "MultiVector",
    "basis_vector",
    "blade",
    "from_vector",
    "field_wedge",
    "field_interior",
    "field_bullet",
    "field_hodge",
    "field_inner",
    "field_wedge_vectors",
    "field_cross",
    "field_slotwise",
    "BladeRows",
    "vector_field_to_mv",
    "mv_field_vector_part",
]

MAX_DIM = 6


class DimensionMismatchError(ValueError):
    """Operands live in exterior algebras of different ambient dimension."""


class GradeError(ValueError):
    """Requested contraction with a higher-grade second argument."""


def _popcount(mask: int) -> int:
    return bin(mask).count("1")


def _merge_sign(a: int, b: int) -> int:
    """Parity sign of sorting e_a ^ e_b into the ascending blade e_{a|b}.

    Assumes a and b are disjoint masks.  Each bit of b must hop over the
    bits of a that lie above it.
    """
    sign = 1
    bits = b
    while bits:
        j = (bits & -bits).bit_length() - 1
        swaps = _popcount(a >> (j + 1))
        if swaps & 1:
            sign = -sign
        bits &= bits - 1
    return sign


def _wedge_rule(a: int, b: int) -> dict[int, float]:
    """blade_a ^ blade_b as {blade mask: sign}."""
    return {} if a & b else {a | b: float(_merge_sign(a, b))}


def _interior_rule(g: int, b: int) -> dict[int, float]:
    """blade_g interior blade_b = merge_sign(b, g^b) * blade_{g^b} for b subset g, else 0."""
    return {} if b & ~g else {g ^ b: float(_merge_sign(b, g ^ b))}


@lru_cache(maxsize=None)
def _bullet_rule(a: int, b: int) -> dict[int, float]:
    """Signed blade expansion of blade_a . blade_b."""
    if _popcount(b) <= 1:
        return _interior_rule(a, b)
    lo = b & -b          # lowest factor e_i, so blade_b = e_i ^ rest
    rest = b ^ lo
    q = _popcount(rest)
    out: dict[int, float] = {}
    # a . (e_i ^ rest) = (a . e_i) ^ rest + (-1)^q (a . rest) ^ e_i
    for mask, coeff in _bullet_rule(a, lo).items():
        if mask & rest:
            continue
        out[mask | rest] = out.get(mask | rest, 0.0) + coeff * _merge_sign(mask, rest)
    sign = -1.0 if q & 1 else 1.0
    for mask, coeff in _bullet_rule(a, rest).items():
        if mask & lo:
            continue
        out[mask | lo] = out.get(mask | lo, 0.0) + sign * coeff * _merge_sign(mask, lo)
    return {k: v for k, v in out.items() if v != 0.0}


@lru_cache(maxsize=None)
def _entries(m: int, rule) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Table (left blade, right blade, product blade, sign) of a per-blade rule over R^m."""
    ia, ib, iout, sg = zip(*[(a, b, mask, coeff) for a in range(1 << m) for b in range(1 << m)
                             for mask, coeff in rule(a, b).items()])
    return np.array(ia), np.array(ib), np.array(iout), np.array(sg, dtype=float)


@lru_cache(maxsize=None)
def _hodge_signs(m: int) -> np.ndarray:
    """Per slot j, the sign with which star(blade_{full ^ j}) lands on blade_j."""
    full = (1 << m) - 1
    return np.array([float(_merge_sign(full ^ j, j)) for j in range(1 << m)])


def _check_dim(m: int) -> None:
    if not 1 <= m <= MAX_DIM:
        raise DimensionMismatchError(f"ambient dimension {m} outside 1..{MAX_DIM}")


# ---------------------------------------------------------------------------
# Field-level operations: arrays of blade coefficients with shape (..., 2**m).
# Geometry modules use these; the MultiVector class below wraps single points.
# ---------------------------------------------------------------------------

@lru_cache(maxsize=1024)
def _plan(m: int, rule, slots_a: bytes, slots_b: bytes):
    """Live-slot program of a rule's table for operands whose live blade slots
    are slots_a, slots_b (increasing masks as intp bytes): the product's live
    slots and, per kept table entry in table order, (row of a, row of b,
    product row, sign)."""
    ia, ib, iout, sg = _entries(m, rule)
    sa, sb = (np.frombuffer(s, dtype=np.intp) for s in (slots_a, slots_b))
    live_a, live_b = np.zeros(1 << m, dtype=bool), np.zeros(1 << m, dtype=bool)
    live_a[sa] = live_b[sb] = True
    keep = np.flatnonzero(live_a[ia] & live_b[ib])
    slots_out, ro = np.unique(iout[keep], return_inverse=True)
    ra, rb = np.searchsorted(sa, ia[keep]), np.searchsorted(sb, ib[keep])
    return slots_out, tuple(zip(ra.tolist(), rb.tolist(), ro.tolist(), sg[keep]))


def _live(a: np.ndarray) -> np.ndarray:
    """Mask of the blade slots of a that are nonzero somewhere.

    The rows of ``a != 0`` are or-folded in halves; numpy's reduction over
    the leading axes runs its inner loop along the short blade axis only and
    is 2-7x slower here.
    """
    rows = (a != 0).reshape(-1, a.shape[-1])
    while len(rows) > 1:
        half = len(rows) // 2
        folded = rows[:half] | rows[half:2 * half]
        if len(rows) % 2:
            folded[0] |= rows[-1]
        rows = folded
    return rows.any(axis=0)


class BladeRows(NamedTuple):
    """A blade-coefficient field held as rows: ``rows[i]`` is the coefficient
    of blade mask ``slots[i]`` (increasing), every other slot is +0."""

    m: int
    slots: np.ndarray
    rows: np.ndarray

    def dense(self) -> np.ndarray:
        """The (..., 2**m) coefficient field."""
        out = np.zeros(self.rows.shape[1:] + (1 << self.m,), dtype=self.rows.dtype)
        out[..., self.slots] = np.moveaxis(self.rows, 0, -1)
        return out

    def part(self, blades: np.ndarray) -> np.ndarray:
        """Rows of the given increasing blade masks, shape (len(blades), ...); +0 where not held."""
        out = np.zeros((len(blades),) + self.rows.shape[1:], dtype=self.rows.dtype)
        held = np.isin(blades, self.slots)
        out[held] = self.rows[np.searchsorted(self.slots, blades[held])]
        return out


def _gather(m: int, a: np.ndarray) -> BladeRows:
    """The live slots of a dense field, each copied once into a contiguous row."""
    slots = np.flatnonzero(_live(a))
    return BladeRows(m, slots, np.moveaxis(a, -1, 0)[slots])


def _live_rows(x: BladeRows) -> BladeRows:
    """x without the rows that are zero everywhere (the slots _live would not see)."""
    keep = np.any(x.rows != 0, axis=tuple(range(1, x.rows.ndim)))
    return x if keep.all() else BladeRows(x.m, x.slots[keep], x.rows[keep])


def _product(rule, a: BladeRows, b: BladeRows) -> BladeRows:
    """Pointwise bilinear product of live rows by a rule's table.

    Every kept table entry adds sign * a_row * b_row onto its product row,
    in table order, so each product slot sums the same terms in the same
    order as a loop over the whole table.
    """
    slots_out, program = _plan(a.m, rule, a.slots.tobytes(), b.slots.tobytes())
    lead = np.broadcast_shapes(a.rows.shape[1:], b.rows.shape[1:])
    dtype = np.result_type(a.rows.dtype, b.rows.dtype)
    acc = np.zeros((len(slots_out),) + lead, dtype=dtype)
    term = np.empty(lead, dtype=dtype)
    for i, j, k, sign in program:
        np.multiply(sign, a.rows[i], out=term)
        np.multiply(term, b.rows[j], out=term)
        acc[k] += term
    return BladeRows(a.m, slots_out, acc)


def _apply_bilinear(m: int, rule, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pointwise bilinear product of dense blade-coefficient fields: gather
    the live rows, take the product on rows, scatter back."""
    return _product(rule, _gather(m, a), _gather(m, b)).dense()


def field_wedge(m: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pointwise wedge of two blade-coefficient fields."""
    _check_dim(m)
    return _apply_bilinear(m, _wedge_rule, a, b)


def field_interior(m: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pointwise interior multiplication a interior b."""
    _check_dim(m)
    return _apply_bilinear(m, _interior_rule, a, b)


def field_bullet(m: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pointwise first-order contraction a . b."""
    _check_dim(m)
    return _apply_bilinear(m, _bullet_rule, a, b)


def field_hodge(m: int, a: np.ndarray) -> np.ndarray:
    """Pointwise Hodge star of a blade-coefficient field.

    star(blade_k) = sign * blade_{full ^ k} and full ^ k = full - k, so the
    star is the blade axis reversed and signed: one elementwise pass.
    """
    _check_dim(m)
    return a[..., ::-1] * _hodge_signs(m)


def field_wedge_vectors(*vectors: np.ndarray) -> BladeRows:
    """Pointwise wedge v_1 ^ ... ^ v_k of R^m-valued fields (..., m), as rows.

    Each vector enters as its m component rows, with no 2**m embedding, and
    the chain stays in rows from step to step; the live rows of each operand
    are found as ``field_wedge`` finds them, so ``.dense()`` is bit for bit
    the chain of ``field_wedge`` over ``vector_field_to_mv`` operands.
    """
    m = vectors[0].shape[-1]
    _check_dim(m)
    if any(v.shape[-1] != m for v in vectors):
        raise DimensionMismatchError("vector fields of different ambient dimensions")
    basis = np.left_shift(1, np.arange(m, dtype=np.intp))
    if len(vectors) == 1:  # the embedding itself, signed zeros included
        return BladeRows(m, basis, np.moveaxis(vectors[0], -1, 0))
    out = None
    for v in vectors:
        live = np.flatnonzero(_live(v))
        rows = BladeRows(m, basis[live], np.moveaxis(v, -1, 0)[live])
        out = rows if out is None else _product(_wedge_rule, _live_rows(out), rows)
    return out


def field_cross(*vectors: np.ndarray) -> np.ndarray:
    """Generalized cross product: the vector part of star(v_1 ^ ... ^ v_{m-1})
    of m - 1 fields (..., m), bit for bit ``mv_field_vector_part(field_hodge(...))``
    of the dense wedge: component k is sign_k times the coefficient of the blade
    full ^ e_k, and 0.0 * sign_k (a signed zero) where that blade is not held."""
    w = field_wedge_vectors(*vectors)
    if len(vectors) != w.m - 1:
        raise GradeError(f"a cross product in R^{w.m} takes {w.m - 1} vectors, got {len(vectors)}")
    full, signs = (1 << w.m) - 1, _hodge_signs(w.m)
    row = dict(zip(w.slots.tolist(), w.rows))
    out = np.empty(w.rows.shape[1:] + (w.m,), dtype=w.rows.dtype)
    for k in range(w.m):
        out[..., k] = row.get(full ^ (1 << k), 0.0) * signs[1 << k]
    return out


def field_slotwise(fn, a: np.ndarray) -> np.ndarray:
    """fn(a) for a linear map fn that acts on each blade slot of a alone (a
    finite difference of diskgrid), evaluated on the live slots only.

    fn must send a slot that is +0 or -0 everywhere to one field, as every
    difference does (x - x = +0); the dead slots share fn of one of them.
    The result has fn's shape and is C-ordered, like ``np.stack`` output.
    """
    live = _live(a)
    slots, dead = np.flatnonzero(live), np.flatnonzero(~live)
    part = fn(np.take(a, np.append(slots, dead[:1]), axis=-1))
    source = np.full(a.shape[-1], len(slots))  # each slot's column of part: dead ones the last
    source[slots] = np.arange(len(slots))
    return np.take(part, source, axis=-1)


def field_inner(m: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pointwise blade-orthonormal inner product <a, b>."""
    _check_dim(m)
    return np.sum(a * b, axis=-1)


def vector_field_to_mv(v: np.ndarray) -> np.ndarray:
    """Embed an R^m-valued field (..., m) as grade-1 coefficients (..., 2**m)."""
    return field_wedge_vectors(v).dense()


def mv_field_vector_part(a: np.ndarray) -> np.ndarray:
    """Extract the grade-1 part of a coefficient field as an (..., m) array."""
    m = (a.shape[-1]).bit_length() - 1
    return np.stack([a[..., 1 << k] for k in range(m)], axis=-1)


@lru_cache(maxsize=None)
def grade_masks(m: int, k: int) -> np.ndarray:
    """Blade masks of grade k, in increasing mask order."""
    return np.array([mask for mask in range(1 << m) if _popcount(mask) == k])


# ---------------------------------------------------------------------------
# Point-value wrapper
# ---------------------------------------------------------------------------

class MultiVector:
    """Immutable multivector over an orthonormal basis of R^m.

    Coefficients are stored densely, one slot per blade mask, so the
    grade-k component occupies C(m, k) of the 2**m slots.
    """

    __slots__ = ("m", "coeffs")

    def __init__(self, m: int, coeffs: np.ndarray):
        _check_dim(m)
        coeffs = np.array(coeffs, dtype=float)
        if coeffs.shape != (1 << m,):
            raise ValueError(f"expected {1 << m} blade coefficients, got {coeffs.shape}")
        if not np.all(np.isfinite(coeffs)):
            raise ValueError("multivector coefficients must be finite")
        coeffs.setflags(write=False)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name, value):
        raise AttributeError("MultiVector is immutable")

    # -- constructors -------------------------------------------------------

    @staticmethod
    def scalar(m: int, value: float) -> "MultiVector":
        c = np.zeros(1 << m)
        c[0] = value
        return MultiVector(m, c)

    # -- structure ----------------------------------------------------------

    def grades(self) -> list[int]:
        return sorted({_popcount(i) for i in np.nonzero(self.coeffs)[0]})

    def norm(self) -> float:
        return float(np.sqrt(np.sum(self.coeffs**2)))

    # -- algebra -------------------------------------------------------------

    def _binary(self, other: "MultiVector", rule) -> "MultiVector":
        if not isinstance(other, MultiVector):
            raise TypeError("expected a MultiVector")
        if other.m != self.m:
            raise DimensionMismatchError(f"ambient dimensions differ: {self.m} vs {other.m}")
        return MultiVector(self.m, _apply_bilinear(self.m, rule, self.coeffs, other.coeffs))

    def wedge(self, other: "MultiVector") -> "MultiVector":
        return self._binary(other, _wedge_rule)

    def interior(self, other: "MultiVector") -> "MultiVector":
        """Interior multiplication self interior other (grades q, p -> q - p).

        Contracting a homogeneous q-vector by a strictly higher-grade
        p-vector is a grade error; mixed-grade arguments extend
        bilinearly (blades that cannot absorb the contraction give 0).
        """
        if isinstance(other, MultiVector) and other.m == self.m:
            gq = self.grades()
            gp = other.grades()
            if len(gq) == 1 and len(gp) == 1 and gp[0] > gq[0]:
                raise GradeError(f"cannot contract grade {gq[0]} by grade {gp[0]}")
        return self._binary(other, _interior_rule)

    def bullet(self, other: "MultiVector") -> "MultiVector":
        return self._binary(other, _bullet_rule)

    def hodge(self) -> "MultiVector":
        return MultiVector(self.m, field_hodge(self.m, self.coeffs))

    def inner(self, other: "MultiVector") -> float:
        if other.m != self.m:
            raise DimensionMismatchError(f"ambient dimensions differ: {self.m} vs {other.m}")
        return float(np.dot(self.coeffs, other.coeffs))

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "MultiVector") -> "MultiVector":
        if other.m != self.m:
            raise DimensionMismatchError("ambient dimensions differ")
        return MultiVector(self.m, self.coeffs + other.coeffs)

    def __sub__(self, other: "MultiVector") -> "MultiVector":
        if other.m != self.m:
            raise DimensionMismatchError("ambient dimensions differ")
        return MultiVector(self.m, self.coeffs - other.coeffs)

    def __mul__(self, c: float) -> "MultiVector":
        return MultiVector(self.m, self.coeffs * float(c))

    __rmul__ = __mul__

    def __neg__(self) -> "MultiVector":
        return MultiVector(self.m, -self.coeffs)

    def allclose(self, other: "MultiVector", tol: float = 1e-12) -> bool:
        return self.m == other.m and bool(np.allclose(self.coeffs, other.coeffs, atol=tol, rtol=0.0))

    def __repr__(self) -> str:
        terms = []
        for mask in np.nonzero(self.coeffs)[0]:
            name = "1" if mask == 0 else "e" + "".join(str(i + 1) for i in range(self.m) if mask >> i & 1)
            terms.append(f"{self.coeffs[mask]:+g}*{name}")
        return f"MultiVector(m={self.m}, {' '.join(terms) or '0'})"


def basis_vector(m: int, index: int) -> MultiVector:
    """Unit 1-vector e_{index} with 1-based index."""
    if not 1 <= index <= m:
        raise ValueError(f"basis index {index} outside 1..{m}")
    c = np.zeros(1 << m)
    c[1 << (index - 1)] = 1.0
    return MultiVector(m, c)


def blade(m: int, indices: tuple[int, ...], coeff: float = 1.0) -> MultiVector:
    """Blade e_{i1} ^ ... ^ e_{ik} from strictly increasing 1-based indices."""
    if list(indices) != sorted(set(indices)):
        raise ValueError("blade indices must be strictly increasing")
    mask = 0
    for i in indices:
        if not 1 <= i <= m:
            raise ValueError(f"blade index {i} outside 1..{m}")
        mask |= 1 << (i - 1)
    c = np.zeros(1 << m)
    c[mask] = coeff
    return MultiVector(m, c)


def from_vector(v) -> MultiVector:
    """1-vector with the given Euclidean components."""
    v = np.asarray(v, dtype=float)
    return MultiVector(v.size, vector_field_to_mv(v))
