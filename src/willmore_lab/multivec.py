"""Exact exterior algebra over R^m (3 <= m <= 6).

Basis blades are encoded as bitmasks: bit i set means the unit vector
e_{i+1} participates, and a blade's factors are always ordered by
increasing index.  The orientation is fixed once and for all by
declaring e_1 ^ ... ^ e_m = +1; every sign in the library derives from
permutation parity against that ordering.

Operations provided, with the conventions used throughout the package:

* ``field_wedge``    -- exterior product, graded-anticommutative.
* ``field_inner``    -- blade-orthonormal inner product (Gram/determinant
                        extension of the Euclidean dot product).
* ``field_hodge``    -- Hodge star, ``star(blade) = sign * complementary blade``.
* ``field_interior`` -- interior multiplication, the adjoint of wedge:
                        ``<g interior b, a> = <g, b ^ a>`` for all a.
* ``field_bullet``   -- first-order contraction, defined inductively:
                        ``a . b = a interior b`` for 1-vector b, and
                        ``a . (b ^ c) = (a . b) ^ c + (-1)^{pq} (a . c) ^ b``.

Each operation is one per-blade rule (``_wedge_rule``, ``_interior_rule``,
``_bullet_rule``) that maps a pair of basis blades to its signed blade
expansion; a product's plan is its rule evaluated on the held slot pairs
only, cached per pair of slot sets.  Everything is immutable and pure.

Fields are ``BladeRows``: one contiguous row per held blade slot, every
other slot +0.  Every field operation takes and returns rows; dense
(..., 2**m) arrays appear only in ``BladeRows.dense()`` and in
``BladeRows.from_dense``; a single point is a 0-d field.  A bilinear
product runs its plan's terms in plan order (left slot increasing, then
right slot increasing: the whole multiplication table's order restricted
to the held slots), so each product slot sums the same terms in the same
order as a loop over the whole table: the same bits.
``blade_sum`` sums over the blade axis in numpy's own order.
``field_wedge_vectors`` wedges vector fields (..., m) from their component
rows, ``field_cross`` is the vector part of the star of such a wedge (a
field's vector part, ``mv_field_vector_part``, writes its held grade-1 rows
straight into one zeroed (..., m) array), and ``field_slotwise`` takes a
finite difference of the held slots.  The Hodge star maps blade k to blade
``full ^ k = full - k``: the held slots reversed and signed.
"""

from __future__ import annotations

from functools import lru_cache, partial, reduce
from typing import NamedTuple

import numpy as np

__all__ = [
    "DimensionMismatchError",
    "GradeError",
    "field_wedge",
    "field_interior",
    "field_bullet",
    "field_hodge",
    "field_inner",
    "field_wedge_vectors",
    "field_cross",
    "field_slotwise",
    "BladeRows",
    "blade_sum",
    "vector_field_to_mv",
    "mv_field_vector_part",
]

MAX_DIM = 6


class DimensionMismatchError(ValueError):
    """Operands live in exterior algebras of different ambient dimension."""


class GradeError(ValueError):
    """A product given operands of the wrong grade: ``field_cross`` of other than m - 1 vectors."""


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
def _hodge_signs(m: int) -> np.ndarray:
    """Per slot j, the sign with which star(blade_{full ^ j}) lands on blade_j."""
    full = (1 << m) - 1
    return np.array([float(_merge_sign(full ^ j, j)) for j in range(1 << m)])


def _check_dim(m: int) -> None:
    if not 1 <= m <= MAX_DIM:
        raise DimensionMismatchError(f"ambient dimension {m} outside 1..{MAX_DIM}")


# ---------------------------------------------------------------------------
# Field-level operations on blade rows.
# ---------------------------------------------------------------------------

@lru_cache(maxsize=1024)
def _plan(rule, slots_a: bytes, slots_b: bytes):
    """Program of a rule for operands holding slots_a, slots_b (increasing
    masks as intp bytes): the product's slots and, per term of the rule on a
    held slot pair in plan order (a's slot increasing, then b's), (row of a,
    row of b, product row, sign)."""
    sa, sb = (np.frombuffer(s, dtype=np.intp).tolist() for s in (slots_a, slots_b))
    terms = [(i, j, mask, coeff) for i, a in enumerate(sa) for j, b in enumerate(sb)
             for mask, coeff in rule(a, b).items()]
    slots_out = sorted({mask for _, _, mask, _ in terms})
    row = {mask: k for k, mask in enumerate(slots_out)}
    return np.array(slots_out, dtype=np.intp), tuple((i, j, row[mask], coeff) for i, j, mask, coeff in terms)


def _live(a: np.ndarray) -> np.ndarray:
    """Mask of the trailing slots of a that are nonzero somewhere: ``a != 0``
    reduced one leading axis at a time (an any over all leading axes at once
    loops over the short trailing axis only, slower here)."""
    live = a != 0
    while live.ndim > 1:
        live = live.any(axis=0)
    return live


class BladeRows(NamedTuple):
    """A blade-coefficient field held as rows: ``rows[i]`` is the coefficient
    of blade mask ``slots[i]`` (increasing) over the field shape
    ``rows.shape[1:]``, and every other slot is +0."""

    m: int
    slots: np.ndarray
    rows: np.ndarray

    @classmethod
    def from_dense(cls, a: np.ndarray) -> "BladeRows":
        """The slots of a (..., 2**m) field that are nonzero somewhere, each copied once into a row."""
        m = a.shape[-1].bit_length() - 1
        if a.shape[-1] != 1 << m:
            raise DimensionMismatchError(f"{a.shape[-1]} blade slots is no power of two")
        _check_dim(m)
        slots = np.flatnonzero(_live(a))
        return cls(m, slots, np.moveaxis(a, -1, 0)[slots])

    def dense(self) -> np.ndarray:
        """The (..., 2**m) coefficient field."""
        out = np.zeros(self.rows.shape[1:] + (1 << self.m,), dtype=self.rows.dtype)
        out[..., self.slots] = np.moveaxis(self.rows, 0, -1)
        return out

    def _find(self, blades: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(i, r): blades[i] is held, in rows[r]; the other blades are not held."""
        r = np.searchsorted(self.slots, blades)
        i = np.flatnonzero(np.append(self.slots, -1)[r] == blades)  # -1: no blade, where r is past every slot
        return i, r[i]

    def part(self, blades: np.ndarray) -> np.ndarray:
        """Rows of the given blade masks, shape (len(blades), ...); +0 where not held.  Exactly the held
        slots give the held rows themselves: a caller writes into the result only if it owns this BladeRows."""
        if np.array_equal(self.slots, blades):
            return self.rows
        out = np.zeros((len(blades),) + self.rows.shape[1:], dtype=self.rows.dtype)
        i, r = self._find(blades)
        out[i] = self.rows[r]
        return out


def _check_pair(a: BladeRows, b: BladeRows) -> None:
    if a.m != b.m:
        raise DimensionMismatchError(f"ambient dimensions differ: {a.m} vs {b.m}")


def _product(rule, a: BladeRows, b: BladeRows) -> BladeRows:
    """Pointwise bilinear product of blade rows by a rule's plan: every term
    adds sign * a_row * b_row onto its product row, in plan order.  A row
    that is zero everywhere adds zeros to sums that start at +0 and changes
    no bit."""
    _check_pair(a, b)
    slots_out, program = _plan(rule, a.slots.tobytes(), b.slots.tobytes())
    lead = np.broadcast_shapes(a.rows.shape[1:], b.rows.shape[1:])
    dtype = np.result_type(a.rows.dtype, b.rows.dtype)
    acc = np.zeros((len(slots_out),) + lead, dtype=dtype)
    term = np.empty(lead, dtype=dtype)
    for i, j, k, sign in program:
        np.multiply(sign, a.rows[i], out=term)
        np.multiply(term, b.rows[j], out=term)
        acc[k] += term
    return BladeRows(a.m, slots_out, acc)


def field_wedge(a: BladeRows, b: BladeRows) -> BladeRows:
    """Pointwise wedge of two blade fields."""
    return _product(_wedge_rule, a, b)


def field_interior(a: BladeRows, b: BladeRows) -> BladeRows:
    """Pointwise interior multiplication a interior b."""
    return _product(_interior_rule, a, b)


def field_bullet(a: BladeRows, b: BladeRows) -> BladeRows:
    """Pointwise first-order contraction a . b."""
    return _product(_bullet_rule, a, b)


def field_hodge(a: BladeRows) -> BladeRows:
    """Pointwise Hodge star: star(blade_k) = sign * blade_{full ^ k} and
    full ^ k = full - k, so the held slots reverse and each row takes its
    sign.  A slot not held stays +0 (a dense star writes 0.0 * sign)."""
    slots = ((1 << a.m) - 1) ^ a.slots[::-1]
    signs = _hodge_signs(a.m)[slots].reshape((-1,) + (1,) * (a.rows.ndim - 1))
    return BladeRows(a.m, slots, a.rows[::-1] * signs)


def _fold8(shape: tuple[int, ...], slot_rows) -> np.ndarray:
    """Sum of the rows of (slot, row) pairs, taken in slot order, as numpy sums
    a (..., 2**m) axis with 2**m >= 8: slot j goes into accumulator j % 8 and
    ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)) lands on a +0 start."""
    r = [0.0] * 8
    for slot, row in slot_rows:
        r[slot & 7] = r[slot & 7] + row
    return np.zeros(shape) + (((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7])))


def blade_sum(x: BladeRows) -> np.ndarray:
    """Sum over the blade axis, ``np.sum(x.dense(), axis=-1)`` bit for bit for
    real rows: a slot not held would add +0, which moves no value (only the
    sign of a zero, and the +0 start fixes that), so it is skipped."""
    return _fold8(x.rows.shape[1:], zip(x.slots.tolist(), x.rows))


def field_inner(a: BladeRows, b: BladeRows) -> np.ndarray:
    """Pointwise blade-orthonormal inner product <a, b>: the blade sum of the
    products of the slots both fields hold (field shapes broadcast), each
    product added into its accumulator as soon as it is formed."""
    _check_pair(a, b)
    common, ia, ib = np.intersect1d(a.slots, b.slots, assume_unique=True, return_indices=True)
    shape = np.broadcast_shapes(a.rows.shape[1:], b.rows.shape[1:])
    return _fold8(shape, ((slot, a.rows[i] * b.rows[j]) for slot, i, j in zip(common.tolist(), ia, ib)))


def field_wedge_vectors(*vectors: np.ndarray) -> BladeRows:
    """Pointwise wedge v_1 ^ ... ^ v_k of R^m-valued fields (..., m), as rows.

    Each vector enters as the rows of its components that are nonzero
    somewhere, with no 2**m embedding; ``.dense()`` is bit for bit the dense
    chain.  A single vector is the embedding: every component a row, signed
    zeros kept.
    """
    m = vectors[0].shape[-1]
    _check_dim(m)
    if any(v.shape[-1] != m for v in vectors):
        raise DimensionMismatchError("vector fields of different ambient dimensions")
    basis = np.left_shift(1, np.arange(m, dtype=np.intp))
    if len(vectors) == 1:
        return BladeRows(m, basis, np.moveaxis(vectors[0], -1, 0))
    live = [np.flatnonzero(_live(v)) for v in vectors]
    return reduce(partial(_product, _wedge_rule),
                  (BladeRows(m, basis[s], np.moveaxis(v, -1, 0)[s]) for v, s in zip(vectors, live)))


def field_cross(*vectors: np.ndarray) -> np.ndarray:
    """Generalized cross product: the vector part of star(v_1 ^ ... ^ v_{m-1})
    of m - 1 fields (..., m), bit for bit the dense star of the dense wedge.
    A wedge that lacks an (m-1)-blade gets a +0 row for it, so its star is
    0.0 * sign, a signed zero, as in the dense star."""
    w = field_wedge_vectors(*vectors)
    if len(vectors) != w.m - 1:
        raise GradeError(f"a cross product in R^{w.m} takes {w.m - 1} vectors, got {len(vectors)}")
    blades = grade_masks(w.m, w.m - 1)
    return mv_field_vector_part(field_hodge(BladeRows(w.m, blades, w.part(blades))))


def field_slotwise(fn, a: BladeRows) -> BladeRows:
    """fn of the held slots of a, for a finite difference of diskgrid with its
    grid bound (``partial(grad, grid)``), which acts on each trailing slot
    alone.  fn runs once, on the rows seen as one (n, n, k) field, and its
    field shape ((2, n, n) for a gradient) becomes the rows'.  A slot not
    held stays +0; fn of a slot that is +0 or -0 everywhere is a zero too
    (-0 under grad_perp's sign)."""
    return BladeRows(a.m, a.slots, np.moveaxis(fn(np.moveaxis(a.rows, 0, -1)), -1, 0))


def vector_field_to_mv(v: np.ndarray) -> BladeRows:
    """Embed an R^m-valued field (..., m) as grade-1 rows."""
    return field_wedge_vectors(v)


def mv_field_vector_part(a: BladeRows) -> np.ndarray:
    """The grade-1 part of a blade field as a C-ordered (..., m) array: each
    held grade-1 row is written into its component of one zeroed array."""
    out = np.zeros(a.rows.shape[1:] + (a.m,), dtype=a.rows.dtype)
    i, r = a._find(np.left_shift(1, np.arange(a.m)))
    for k, row in zip(i.tolist(), r.tolist()):
        out[..., k] = a.rows[row]
    return out


@lru_cache(maxsize=None)
def grade_masks(m: int, k: int) -> np.ndarray:
    """Blade masks of grade k, in increasing mask order."""
    return np.array([mask for mask in range(1 << m) if _popcount(mask) == k])

