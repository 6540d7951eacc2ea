"""Exterior algebra kernel: exact identities against brute-force oracles.

A single multivector is a 0-d field: its (2**m,) coefficients enter the
kernel through ``rows`` and leave it through ``.dense()``."""

from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from willmore_lab import multivec as mv


def rows(a):
    """Blade rows of a dense field: the one dense -> rows constructor."""
    return mv.BladeRows.from_dense(a)


def same_bits(x, y):
    """Equal dtype, shape and bytes: signed zeros count."""
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


def dense_op(op, *fields):
    """A field op on dense operands: each gathered into rows, the result scattered back."""
    return op(*map(rows, fields)).dense()


def close(x, y, tol=1e-12):
    """Same shape and equal to within an absolute tolerance."""
    return x.shape == y.shape and np.allclose(x, y, atol=tol, rtol=0.0)


def blade(m, *indices, coeff=1.0):
    """Dense coefficients of coeff * e_{i1} ^ ... ^ e_{ik}, 1-based increasing indices (none: the scalar)."""
    c = np.zeros(1 << m)
    c[sum(1 << (i - 1) for i in indices)] = coeff
    return c


def random_mv(m, rng, grade=None):
    c = rng.normal(size=1 << m)
    if grade is not None:
        keep = mv.grade_masks(m, grade)
        mask = np.zeros(1 << m, bool)
        mask[keep] = True
        c[~mask] = 0.0
    return c


def brute_force_wedge(m, a, b):
    """Shuffle-sum expansion of the wedge over all blade index pairs."""
    out = np.zeros(1 << m)
    for i in range(1 << m):
        if a[i] == 0.0:
            continue
        for j in range(1 << m):
            if b[j] == 0.0 or (i & j):
                continue
            sign = 1.0
            for bit in range(m):
                if j >> bit & 1:
                    sign *= (-1.0) ** bin(i >> (bit + 1)).count("1")
            out[i | j] += sign * a[i] * b[j]
    return out


class TestWedge:
    def test_self_wedge_vanishes(self):
        e1 = blade(3, 1)
        assert not np.any(dense_op(mv.field_wedge, e1, e1))

    def test_basis_wedge(self):
        e1, e2 = blade(3, 1), blade(3, 2)
        assert close(dense_op(mv.field_wedge, e1, e2), blade(3, 1, 2))
        assert close(dense_op(mv.field_wedge, e2, e1), blade(3, 1, 2, coeff=-1.0))

    def test_matches_brute_force_shuffle_sum(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            a, b = random_mv(4, rng), random_mv(4, rng)
            assert close(dense_op(mv.field_wedge, a, b), brute_force_wedge(4, a, b), tol=1e-10)

    def test_graded_anticommutativity(self):
        rng = np.random.default_rng(1)
        for m in (3, 4, 5):
            for k in range(m + 1):
                for l in range(m + 1 - k):
                    a, b = random_mv(m, rng, k), random_mv(m, rng, l)
                    lhs = dense_op(mv.field_wedge, a, b)
                    rhs = (-1.0) ** (k * l) * dense_op(mv.field_wedge, b, a)
                    assert close(lhs, rhs, tol=1e-10)

    def test_associativity(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            a, b, c = (rows(random_mv(5, rng)) for _ in range(3))
            lhs = mv.field_wedge(mv.field_wedge(a, b), c).dense()
            assert close(lhs, mv.field_wedge(a, mv.field_wedge(b, c)).dense(), tol=1e-8)

    def test_dimension_mismatch(self):
        with pytest.raises(mv.DimensionMismatchError):
            mv.field_wedge(rows(blade(3, 1)), rows(blade(4, 1)))


class TestHodge:
    def test_basic_m3(self):
        assert close(dense_op(mv.field_hodge, blade(3, 1)), blade(3, 2, 3))

    def test_oriented_frame_identity(self):
        # positively oriented orthonormal {e1, e2, n1}: star(n1 ^ e1) = e2
        rng = np.random.default_rng(3)
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        if np.linalg.det(q) < 0:
            q[:, 2] *= -1.0
        e1, e2, n1 = (rows(loop_embed(q[:, k])) for k in range(3))
        assert close(mv.field_hodge(mv.field_wedge(n1, e1)).dense(), e2.dense())
        assert close(mv.field_hodge(mv.field_wedge(n1, e2)).dense(), -1.0 * e1.dense())

    @pytest.mark.parametrize("m", [3, 4, 5, 6])
    def test_double_star_sign_law_all_blades(self, m):
        for mask in range(1 << m):
            k = bin(mask).count("1")
            b = np.eye(1 << m)[mask]
            expect = b if (k * (m - k)) % 2 == 0 else -1.0 * b
            assert np.array_equal(mv.field_hodge(mv.field_hodge(rows(b))).dense(), expect)

    @pytest.mark.parametrize("m", [3, 4, 5, 6])
    def test_isometry(self, m):
        rng = np.random.default_rng(m)
        a, b = rows(random_mv(m, rng)), rows(random_mv(m, rng))
        starred = float(mv.field_inner(mv.field_hodge(a), mv.field_hodge(b)))
        assert starred == pytest.approx(float(mv.field_inner(a, b)), abs=1e-12)


class TestInterior:
    def test_vectors_reduce_to_dot(self):
        rng = np.random.default_rng(4)
        u, v = rng.normal(size=(2, 5))
        got = dense_op(mv.field_interior, loop_embed(u), loop_embed(v))
        assert got[0] == pytest.approx(float(u @ v), abs=1e-12)
        assert not np.any(got[1:])

    @pytest.mark.parametrize("m", [3, 4, 5])
    def test_adjointness_random(self, m):
        # <g interior b, a> = <g, b ^ a> on 200 random triples
        rng = np.random.default_rng(m * 11)
        for _ in range(200):
            g, b, a = (rows(random_mv(m, rng)) for _ in range(3))
            lhs = float(mv.field_inner(mv.field_interior(g, b), a))
            assert lhs == pytest.approx(float(mv.field_inner(g, mv.field_wedge(b, a))), abs=1e-9)

    def test_wedge_vector_contraction(self):
        # (a ^ e_j) interior e_i = (a . e_i) e_j - delta_ij a
        m = 4
        rng = np.random.default_rng(5)
        a = rng.normal(size=m)
        A = loop_embed(a)
        for i in range(1, m + 1):
            for j in range(1, m + 1):
                lhs = dense_op(mv.field_interior, dense_op(mv.field_wedge, A, blade(m, j)), blade(m, i))
                rhs = a[i - 1] * blade(m, j) - (1.0 if i == j else 0.0) * A
                assert close(lhs, rhs), (i, j)

    @pytest.mark.parametrize("m", [3, 4, 5, 6])
    def test_star_n_contract_H(self, m):
        # star(n interior H) = (-1)^(m-1) e1 ^ e2 ^ H for an orthonormal
        # positively oriented frame and a normal vector H
        rng = np.random.default_rng(m + 17)
        q, _ = np.linalg.qr(rng.normal(size=(m, m)))
        if np.linalg.det(q) < 0:
            q[:, -1] *= -1.0
        e1, e2 = rows(loop_embed(q[:, 0])), rows(loop_embed(q[:, 1]))
        n = rows(loop_embed(q[:, 2]))
        for k in range(3, m):
            n = mv.field_wedge(n, rows(loop_embed(q[:, k])))
        H = rows(loop_embed(q[:, 2:] @ rng.normal(size=m - 2)))
        lhs = mv.field_hodge(mv.field_interior(n, H)).dense()
        rhs = (-1.0) ** (m - 1) * mv.field_wedge(mv.field_wedge(e1, e2), H).dense()
        assert close(lhs, rhs, tol=1e-10)


class TestBullet:
    def test_one_vector_equals_interior(self):
        rng = np.random.default_rng(6)
        for m in (3, 5):
            for _ in range(20):
                alpha = random_mv(m, rng)
                v = loop_embed(rng.normal(size=m))
                assert close(dense_op(mv.field_bullet, alpha, v), dense_op(mv.field_interior, alpha, v))

    def test_recursion_against_hand_expansion(self):
        # for a 1-vector alpha: alpha . (x ^ y) = (alpha.x) y - (alpha.y) x,
        # the hand expansion of the defining recursion
        m = 5
        rng = np.random.default_rng(7)
        for _ in range(30):
            av, xv, yv = rng.normal(size=(3, m))
            lhs = dense_op(mv.field_bullet, loop_embed(av), dense_op(mv.field_wedge, loop_embed(xv), loop_embed(yv)))
            rhs = float(av @ xv) * loop_embed(yv) - float(av @ yv) * loop_embed(xv)
            assert close(lhs, rhs)

    def test_recursion_identity_general_grades(self):
        # alpha . (beta ^ gamma) = (alpha . beta) ^ gamma + (-1)^{pq} (alpha . gamma) ^ beta
        rng = np.random.default_rng(8)
        for m in (4, 5, 6):
            for p in (1, 2):
                for q in (1, 2):
                    alpha = rows(random_mv(m, rng))
                    beta = rows(random_mv(m, rng, p))
                    gamma = rows(random_mv(m, rng, q))
                    lhs = mv.field_bullet(alpha, mv.field_wedge(beta, gamma)).dense()
                    rhs = (mv.field_wedge(mv.field_bullet(alpha, beta), gamma).dense()
                           + (-1.0) ** (p * q) * mv.field_wedge(mv.field_bullet(alpha, gamma), beta).dense())
                    assert close(lhs, rhs, tol=1e-9), (m, p, q)

    def test_differs_from_symmetric_contraction(self):
        # the contraction is an antiderivation: (a ^ e_1) . e_1 = -a + (a.e1) e1,
        # not the sign-free expansion (a.e1) e1 + a
        a = loop_embed(np.array([0.0, 1.0, 2.0]))
        e1 = blade(3, 1)
        got = dense_op(mv.field_bullet, dense_op(mv.field_wedge, a, e1), e1)
        assert close(got, -1.0 * a)


class TestGradeMasks:
    def test_grade_slots(self):
        from math import comb

        for m in (3, 6):
            total = sum(len(mv.grade_masks(m, k)) for k in range(m + 1))
            assert total == 1 << m
            for k in range(m + 1):
                assert len(mv.grade_masks(m, k)) == comb(m, k)


@settings(max_examples=60, deadline=None)
@given(
    m=st.integers(min_value=3, max_value=5),
    data=st.data(),
)
def test_property_adjointness_and_isometry(m, data):
    coeffs = data.draw(
        st.lists(
            st.floats(min_value=-10, max_value=10, allow_nan=False),
            min_size=3 * (1 << m),
            max_size=3 * (1 << m),
        )
    )
    arr = np.array(coeffs).reshape(3, 1 << m)
    ng, nb, na = np.linalg.norm(arr, axis=-1)
    g, b, a = (rows(row) for row in arr)
    lhs = float(mv.field_inner(mv.field_interior(g, b), a))
    assert lhs == pytest.approx(float(mv.field_inner(g, mv.field_wedge(b, a))), abs=1e-8 * (1 + ng * nb * na))
    starred = float(mv.field_inner(mv.field_hodge(g), mv.field_hodge(b)))
    assert starred == pytest.approx(float(mv.field_inner(g, b)), abs=1e-8 * (1 + ng * nb))


def test_field_ops_match_pointwise():
    # a (5, 5) field equals its 0-d fields node by node, bit for bit
    rng = np.random.default_rng(9)
    m = 4
    A = rng.normal(size=(5, 5, 1 << m))
    B = rng.normal(size=(5, 5, 1 << m))
    fields = {op: dense_op(op, A, B) for op in (mv.field_wedge, mv.field_interior, mv.field_bullet)}
    H, I = dense_op(mv.field_hodge, A), mv.field_inner(rows(A), rows(B))
    for i, j in np.ndindex(5, 5):
        for op, F in fields.items():
            assert same_bits(F[i, j], dense_op(op, A[i, j], B[i, j])), (op.__name__, i, j)
        assert same_bits(H[i, j], dense_op(mv.field_hodge, A[i, j])), (i, j)
        assert same_bits(I[i, j], mv.field_inner(rows(A[i, j]), rows(B[i, j]))), (i, j)


def test_vector_embedding_roundtrip():
    rng = np.random.default_rng(10)
    v = rng.normal(size=(4, 4, 5))
    assert np.allclose(mv.mv_field_vector_part(mv.vector_field_to_mv(v)), v)



def loop_bilinear(m, rule, a, b):
    """Reference: the per-entry loop over the whole table that the live-slot kernel replaced."""
    ia, ib, iout, sg = map(np.array, zip(*[(p, q, mask, coeff) for p in range(1 << m) for q in range(1 << m)
                                           for mask, coeff in rule(p, q).items()]))
    out = np.zeros(np.broadcast_shapes(a.shape[:-1], b.shape[:-1]) + (a.shape[-1],),
                   dtype=np.result_type(a.dtype, b.dtype))
    live_a = np.any(a != 0, axis=tuple(range(a.ndim - 1))) if a.ndim > 1 else (a != 0)
    live_b = np.any(b != 0, axis=tuple(range(b.ndim - 1))) if b.ndim > 1 else (b != 0)
    for t in np.flatnonzero(live_a[ia] & live_b[ib]):
        out[..., iout[t]] += sg[t] * a[..., ia[t]] * b[..., ib[t]]
    return out


def dense_star(m, a):
    """Reference: the dense Hodge star, the blade axis reversed and signed (0.0 * sign in dead slots)."""
    return a[..., ::-1] * mv._hodge_signs(m)


class TestLiveSlotKernel:
    """The live-slot kernel sums the loop's terms in the loop's order: bit-identical results."""

    RULES = {"wedge": (mv.field_wedge, mv._wedge_rule), "interior": (mv.field_interior, mv._interior_rule),
             "bullet": (mv.field_bullet, mv._bullet_rule)}

    @staticmethod
    def graded_field(m, grade, rng, lead, complex_data=False):
        out = np.zeros(lead + (1 << m,), dtype=complex if complex_data else float)
        slots = mv.grade_masks(m, grade)
        vals = rng.normal(size=lead + (len(slots),)) * np.exp(rng.uniform(-5, 5, lead + (len(slots),)))
        if complex_data:
            vals = vals + 1j * rng.normal(size=vals.shape)
        out[..., slots] = vals
        if len(slots) > 1:
            out[..., slots[-1]] = 0.0  # one dead slot inside the grade
        return out

    @pytest.mark.parametrize("m", [3, 4, 5, 6])
    def test_every_grade_pair_matches_the_loop(self, m):
        rng = np.random.default_rng(m)
        for name, (op, rule) in self.RULES.items():
            for p in range(m + 1):
                for q in range(m + 1):
                    A, B = (self.graded_field(m, k, rng, (3, 3)) for k in (p, q))
                    Ac, Bc = (self.graded_field(m, k, rng, (3, 3), complex_data=True) for k in (p, q))
                    a, b = (self.graded_field(m, k, rng, ()) for k in (p, q))
                    for x, y in ((A, B), (Ac, Bc), (A, Bc), (Ac, B), (a, b), (A, b)):
                        assert same_bits(dense_op(op, x, y), loop_bilinear(m, rule, x, y)), (name, p, q)

    @pytest.mark.parametrize("m", [3, 6])
    def test_mixed_grades_and_zero_operand(self, m):
        rng = np.random.default_rng(10 + m)
        A = sum(self.graded_field(m, k, rng, (5, 5)) for k in range(m + 1))
        B = sum(self.graded_field(m, k, rng, (5, 5), complex_data=True) for k in (0, 1, 3))
        Z = np.zeros_like(A)
        # slots live at a single node only: the last node, and one in the middle
        S = np.zeros_like(A)
        S[-1, -1, 1], S[2, 3, 3], S[-1, -1, 6] = 2.0, -1.5, 0.25
        for name, (op, rule) in self.RULES.items():
            for x, y in ((A, B), (B, A), (A, A), (A, Z), (Z, B), (S, A), (B, S)):
                assert same_bits(dense_op(op, x, y), loop_bilinear(m, rule, x, y)), name
            assert not np.any(dense_op(op, A, Z))

    def test_plan_calls_its_rule_once_per_held_slot_pair(self, monkeypatch):
        """The wedge rule, not the recursive bullet rule: a wrapper around that would count its recursion."""
        rule, calls = mv._wedge_rule, []

        def counting(a, b):
            calls.append((a, b))
            return rule(a, b)

        monkeypatch.setattr(mv, "_wedge_rule", counting)
        rng = np.random.default_rng(20)
        two, one = (rows(random_mv(6, rng, grade=k)) for k in (2, 1))
        assert (len(two.slots), len(one.slots)) == (15, 6)
        mv.field_wedge(two, one)
        assert len(calls) == 15 * 6

    @pytest.mark.parametrize("m", [3, 4, 5, 6])
    def test_hodge_matches_its_definition(self, m):
        """star(blade_k) = merge_sign(k, full ^ k) * blade_{full ^ k} on the held
        slots; a slot that is not held stays +0."""
        rng = np.random.default_rng(30 + m)
        full = (1 << m) - 1
        for lead, complex_data in (((5, 5), False), ((5, 5), True), ((), False)):
            A = sum(self.graded_field(m, k, rng, lead, complex_data) for k in (1, m - 1, m))
            expect = np.zeros_like(A)
            for k in rows(A).slots.tolist():
                expect[..., full ^ k] = mv._merge_sign(k, full ^ k) * A[..., k]
            assert same_bits(dense_op(mv.field_hodge, A), expect)


def loop_embed(v):
    """Reference: the component loop that embedded vectors before blade rows."""
    out = np.zeros(v.shape[:-1] + (1 << v.shape[-1],), dtype=v.dtype)
    for k in range(v.shape[-1]):
        out[..., 1 << k] = v[..., k]
    return out


def dense_wedge_chain(vectors):
    """Reference: the dense chain of field_wedge over embedded vectors."""
    m = vectors[0].shape[-1]
    out = loop_embed(vectors[0])
    for v in vectors[1:]:
        out = dense_op(mv.field_wedge, out, loop_embed(v))
    return out


class TestVectorRows:
    """Wedges of vector fields on component rows match the dense chains bit for bit."""

    @staticmethod
    def vectors(m, k, rng, n=6):
        vs = rng.normal(size=(k, n, n, m)) * np.exp(rng.uniform(-4, 4, (k, n, n, m)))
        vs[0, ..., m - 1] = 0.0            # a component that is zero everywhere
        vs[-1, ..., 0] = -0.0               # ... and one that is -0 everywhere
        if k > 2:
            vs[1, ..., 1] = 0.0
            vs[1, 2, 3, 1] = 1.75           # a component live at a single node
        return list(vs)

    @pytest.mark.parametrize("m", [3, 4, 5, 6])
    def test_wedge_of_k_vectors_matches_the_dense_chain(self, m):
        rng = np.random.default_rng(40 + m)
        for k in range(1, m + 1):
            vs = self.vectors(m, k, rng)
            w = mv.field_wedge_vectors(*vs)
            assert same_bits(w.dense(), dense_wedge_chain(vs)), k
            blades = mv.grade_masks(m, k)
            assert same_bits(w.part(blades), np.moveaxis(dense_wedge_chain(vs)[..., blades], -1, 0)), k

    @pytest.mark.parametrize("m", [3, 4, 5, 6])
    def test_cross_product_matches_the_dense_star(self, m):
        rng = np.random.default_rng(50 + m)
        for vs in (self.vectors(m, m - 1, rng), list(np.zeros((m - 1, 4, 4, m)))):
            expect = dense_star(m, dense_wedge_chain(vs))[..., 1 << np.arange(m)]
            assert same_bits(mv.field_cross(*vs), expect)
        with pytest.raises(mv.GradeError):
            mv.field_cross(*self.vectors(m, m - 2, rng))

    def test_zero_and_single_node_operands(self):
        m = 6
        zero = np.zeros((5, 5, m))
        spot = np.zeros((5, 5, m))
        spot[4, 4, 2], spot[0, 3, 5] = -2.5, 1e-300
        rng = np.random.default_rng(60)
        full = rng.normal(size=(5, 5, m))
        for vs in ([zero, full], [full, zero, full], [spot, full], [full, spot, spot], [spot, full, full, full]):
            assert same_bits(mv.field_wedge_vectors(*vs).dense(), dense_wedge_chain(vs))

    def test_embedding_keeps_signed_zeros(self):
        v = np.random.default_rng(61).normal(size=(4, 4, 5))
        v[..., 2] = -0.0
        assert same_bits(mv.vector_field_to_mv(v).dense(), loop_embed(v))
        assert same_bits(mv.vector_field_to_mv(v[0, 0]).dense(), loop_embed(v[0, 0]))

    def test_dimension_mismatch(self):
        with pytest.raises(mv.DimensionMismatchError):
            mv.field_wedge_vectors(np.ones((3, 3, 4)), np.ones((3, 3, 5)))


class TestLive:
    """The liveness scan marks the trailing slots nonzero somewhere: numpy's any over every leading axis."""

    @pytest.mark.parametrize("shape", [(8,), (64,), (9, 9, 6), (2, 9, 9, 6), (5, 5, 64)])
    def test_matches_any_over_the_leading_axes(self, shape):
        rng = np.random.default_rng(len(shape) + shape[-1])
        a = rng.normal(size=shape)
        a[..., rng.random(shape[-1]) < 0.3] = 0.0
        a[..., 1:5] = 0.0
        a[..., 1] = -0.0                                               # only -0.0: dead
        a[tuple(s // 2 for s in shape[:-1]) + (2,)] = np.nan           # a single NaN: live
        a[(-1,) * (len(shape) - 1) + (3,)] = 1e-300                    # one corner node: live
        expect = np.any(a != 0, axis=tuple(range(a.ndim - 1)))
        assert expect[2] and expect[3] and not expect[1] and not expect[4]
        live = mv._live(a)
        assert live.dtype == bool and np.array_equal(live, expect)


def isin_part(a, blades):
    """Reference: ``BladeRows.part`` as np.isin found the held slots."""
    out = np.zeros((len(blades),) + a.rows.shape[1:], dtype=a.rows.dtype)
    held = np.isin(blades, a.slots)
    out[held] = a.rows[np.searchsorted(a.slots, blades[held])]
    return out


def stacked_vector_part(a):
    """Reference: the grade-1 rows of ``isin_part`` stacked on a trailing axis."""
    return np.stack(list(isin_part(a, np.left_shift(1, np.arange(a.m)))), axis=-1)


class TestPartLookup:
    """``part`` and ``mv_field_vector_part`` look held slots up by searchsorted and write the vector
    part into one zeroed array: bit for bit the np.isin + np.stack route, layout included."""

    @staticmethod
    def fields(m, rng):
        """Blade rows over (4, 3) and over a 0-d field, real and complex, for assorted slot sets: some
        grade-1 slots not held, slots only below or above the vectors, none held, a dead row (+0
        everywhere) and a row that is -0 everywhere."""
        full = (1 << m) - 1
        for slots in ([1, 3, 6], [0, 1, 2, 4], [0, 3], [full], list(range(1 << m)), [], [2, full - 1, full]):
            slots = np.array(slots, dtype=np.intp)
            for lead in ((4, 3), ()):
                for dtype in (float, complex):
                    rows = rng.normal(size=(len(slots),) + lead).astype(dtype)
                    if dtype is complex:
                        rows += 1j * rng.normal(size=rows.shape)
                    if len(slots) > 1:
                        rows[0] = 0.0
                        rows[-1] = -0.0
                    yield mv.BladeRows(m, slots, rows)

    @pytest.mark.parametrize("m", [3, 4, 6])
    def test_part_matches_the_isin_route(self, m):
        rng = np.random.default_rng(80 + m)
        everything = np.arange(1 << m)
        for a in self.fields(m, rng):
            assert a.part(a.slots) is a.rows  # exactly the held slots: the rows themselves
            for blades in (everything, mv.grade_masks(m, 1), mv.grade_masks(m, m - 1), everything[::-1],
                           np.array([(1 << m) - 1]), np.array([0, 0, 5]), everything[:0], a.slots):
                assert same_bits(a.part(blades), isin_part(a, blades)), (a.slots, blades)

    @pytest.mark.parametrize("m", [3, 4, 6])
    def test_vector_part_matches_the_stacked_rows(self, m):
        rng = np.random.default_rng(90 + m)
        for a in self.fields(m, rng):
            got, expect = mv.mv_field_vector_part(a), stacked_vector_part(a)
            assert same_bits(got, expect) and got.strides == expect.strides, a.slots
            assert got.flags.c_contiguous


class TestSlotwise:
    """Finite differences of the held slots match the dense ones bit for bit, signed zeros included;
    every other slot is a zero of the dense difference (-0 under grad_perp's sign) and +0 in rows."""

    @staticmethod
    def fields(m, rng, n=9):
        g = np.zeros((n, n, 1 << m))
        g[..., mv.grade_masks(m, 2)] = rng.normal(size=(n, n, len(mv.grade_masks(m, 2))))
        g[..., 3] = 0.0
        g[4, 5, 3] = 0.5                     # a slot live at one node only
        return g, dense_star(m, g)           # the dense star writes -0 into dead slots

    @pytest.mark.parametrize("m", [3, 4, 5, 6])
    def test_matches_dense_differences(self, m):
        from willmore_lab import diskgrid as dg

        grid = dg.Grid(0.5, 9)
        rng = np.random.default_rng(70 + m)
        g, star = self.fields(m, rng)
        assert np.signbit(star[..., mv._live(star) == 0]).any()
        for a in (g, star, np.zeros_like(g), -np.zeros_like(g)):
            # the live slots only, and every slot held (rows that are +0 or -0 everywhere)
            for x in (rows(a), mv.BladeRows(m, np.arange(1 << m), np.moveaxis(a, -1, 0))):
                for op in (dg.grad, dg.grad_perp, dg.laplace):
                    dense = np.moveaxis(op(grid, a), -1, 0)
                    live = mv.field_slotwise(partial(op, grid), x)
                    assert same_bits(live.rows, dense[x.slots]), op.__name__
                    assert not np.any(np.delete(dense, x.slots, axis=0))


class TestBladeSum:
    """blade_sum repeats numpy's own order over the blade axis, so a numpy whose order moves fails here."""

    @staticmethod
    def field(shape, rng, live_fraction):
        a = rng.normal(size=shape) * np.exp(rng.uniform(-5, 5, shape))
        a[..., rng.random(shape[-1]) > live_fraction] = 0.0
        return a

    @pytest.mark.parametrize("shape", [(65, 65, 8), (65, 65, 16), (65, 65, 32), (65, 65, 64),
                                       (129, 129, 64), (2, 65, 65, 64)])
    def test_matches_numpy_sum_and_norm(self, shape):
        rng = np.random.default_rng(len(shape) * 1000 + shape[0] + shape[-1])
        for live_fraction in (1.0, 0.5, 0.15):
            a = self.field(shape, rng, live_fraction)
            x = rows(a)
            squares = x._replace(rows=x.rows * x.rows)
            assert same_bits(mv.blade_sum(x), np.sum(a, axis=-1)), live_fraction
            assert same_bits(mv.blade_sum(squares), np.sum(a * a, axis=-1)), live_fraction
            assert same_bits(np.sqrt(mv.blade_sum(squares)), np.linalg.norm(a, axis=-1)), live_fraction

    @pytest.mark.parametrize("m", [3, 4, 5, 6])
    def test_signed_zeros(self, m):
        rng = np.random.default_rng(80 + m)
        a = rng.normal(size=(7, 7, 1 << m))
        a[..., 3::8] = -0.0              # an accumulator that holds -0 rows only
        a[..., 5::8] = 0.0               # an accumulator that holds dead slots only
        a[2, 4] = -0.0                   # a node where every slot is -0
        a[3, 3, :] = 0.0
        a[3, 3, 1], a[3, 3, 2] = 1.5, -1.5   # a node whose terms cancel
        held = mv.BladeRows(m, np.arange(1 << m), np.moveaxis(a, -1, 0))
        for x in (rows(a), held):
            assert same_bits(mv.blade_sum(x), np.sum(a, axis=-1))
        assert not np.signbit(mv.blade_sum(held)[2, 4])

    def test_inner_product_is_the_dense_sum(self):
        rng = np.random.default_rng(90)
        a, b = (self.field((2, 9, 9, 64), rng, 0.4) for _ in range(2))
        assert same_bits(mv.field_inner(rows(a), rows(b)), np.sum(a * b, axis=-1))
        assert same_bits(mv.field_inner(rows(a), rows(b[1])), np.sum(a * b[1], axis=-1))  # field shapes broadcast

    @staticmethod
    def product_stack_inner(a, b):
        """The product-stack route: every common slot's product stacked, then blade_sum."""
        common, ia, ib = np.intersect1d(a.slots, b.slots, assume_unique=True, return_indices=True)
        products = np.moveaxis(a.rows[ia], 0, -1) * np.moveaxis(b.rows[ib], 0, -1)
        return mv.blade_sum(mv.BladeRows(a.m, common, np.moveaxis(products, -1, 0)))

    @pytest.mark.parametrize("m", [3, 4, 5, 6])
    def test_inner_matches_the_product_stack(self, m):
        rng = np.random.default_rng(100 + m)
        for lead_a, lead_b in (((2, 9, 9), (2, 9, 9)), ((2, 9, 9), (9, 9)), ((9, 1), (1, 7)), ((5,), (5,))):
            for fa, fb in ((1.0, 1.0), (0.5, 0.7), (0.2, 1.0), (0.0, 0.6)):
                a = self.field(lead_a + (1 << m,), rng, fa)
                b = self.field(lead_b + (1 << m,), rng, fb)
                a[..., 1::4] = -0.0                  # held -0 rows meet live and dead slots of b
                b[..., 2::5] *= -1.0
                b[(0,) * len(lead_b)] = -0.0         # a node of b with -0 in every slot
                x = mv.BladeRows(m, np.flatnonzero(rng.random(1 << m) < 0.8), None)
                x = x._replace(rows=np.moveaxis(a, -1, 0)[x.slots])  # partial slot set, -0 rows kept
                for left, right in ((x, rows(b)), (rows(a), rows(b)), (x, x)):
                    assert same_bits(mv.field_inner(left, right), self.product_stack_inner(left, right)), (
                        lead_a, lead_b, fa, fb)
