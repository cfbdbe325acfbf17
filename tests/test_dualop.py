import itertools
from fractions import Fraction

import pytest

import rsmorse.dualop as dualop
from rsmorse.combinatorics import _Lazy, dominance_leq, eval_E_l, ideal, monomial_eval, partitions_max_weight
from rsmorse.dualop import (
    DualMatrix,
    InvariantPolynomial,
    apply_Hhat_l,
    apply_dual_h_pointwise,
    commutator_on_monomial,
    dual_matrix,
    generic_points,
    uhat_coeff,
    vhat,
    vhat_signed,
)
from rsmorse.errors import ParamDomainError, PoleError, StructureError

from conftest import PARAM_SETS


def _one_literal(u, p):
    num = Fraction(1)
    for th in p.that:
        num *= 1 - th * u
    return num / ((1 - u * u) * (1 - p.q * u * u))


def _pt_literal(w, p):
    return (1 - p.t * w) / (1 - w)


def _vhat_literal(j, z, p):
    zj = z[j - 1]
    out = _one_literal(zj, p)
    for k in range(1, len(z) + 1):
        if k != j:
            out *= _pt_literal(zj * z[k - 1], p) * _pt_literal(zj / z[k - 1], p)
    return out


def _pointwise_sum(l, peval, z, p):
    """(Hhat_l p)(z), summed term by term over dual_terms_at_point."""
    return sum(c * peval(zz) for zz, c in dualop.dual_terms_at_point(l, z, p))


def _dense(l, root, p, seed=0):
    """Matrix of Hhat_l on the monomials of ideal(root), read off the shared rows."""
    mat = dual_matrix(l, len(root), p, seed)
    mat.grow(sum(root))
    basis = ideal(root)
    return [[mat.rows[mu].get(nu, 0) for nu in basis] for mu in basis]


def _row(mu, p):
    """Row mu of the shared Hhat_1 matrix at seed 0."""
    mat = dual_matrix(1, len(mu), p, 0)
    mat.grow(sum(mu))
    return mat.rows[mu]


class TestInvariantPolynomial:
    def test_monomial_and_pruning(self):
        p = InvariantPolynomial(2, {(1, 0): Fraction(2), (1, 1): Fraction(0)})
        assert p.support() == [(1, 0)]
        assert InvariantPolynomial.monomial((2, 1)).coeffs == {(2, 1): 1}

    def test_algebra(self):
        a = InvariantPolynomial.monomial((1, 0))
        b = InvariantPolynomial.monomial((1, 0), Fraction(-1)).plus(
            InvariantPolynomial.monomial((1, 1), Fraction(3))
        )
        s = a.plus(b)
        assert s.coeffs == {(1, 1): 3}
        assert a.minus(a).is_zero()
        assert a.scaled(Fraction(5)).coeffs == {(1, 0): 5}

    def test_evaluate_matches_monomials(self):
        poly = InvariantPolynomial(2, {(1, 0): Fraction(2), (0, 0): Fraction(-1)})
        z = (Fraction(2), Fraction(3))
        expected = 2 * monomial_eval((1, 0), z) - 1
        assert poly.evaluate(z) == expected
        assert poly.evaluate(z, _Lazy(lambda *mu: monomial_eval(mu, z))) == expected

    def test_to_json_rows(self):
        # the coefficient rows `rsmorse poly` writes: graded-lex order, exact strings
        poly = InvariantPolynomial(
            2, {(2, 1): Fraction(-7, 3), (2, 0): Fraction(5), (0, 0): Fraction(1, 2), (1, 1): Fraction(-1)}
        )
        assert poly.to_json() == [
            {"mu": [0, 0], "value": "1/2"},
            {"mu": [1, 1], "value": "-1"},
            {"mu": [2, 0], "value": "5"},
            {"mu": [2, 1], "value": "-7/3"},
        ]

    def test_invalid_label(self):
        with pytest.raises(ParamDomainError):
            InvariantPolynomial(2, {(0, 1): Fraction(1)})


class TestVhat:
    def test_single_variable_formula(self):
        for p in PARAM_SETS:
            z = (Fraction(3),)
            assert vhat(1, z, p) == _vhat_literal(1, z, p)

    def test_two_variable_formula(self):
        for p in PARAM_SETS:
            z = (Fraction(3), Fraction(5))
            for j in (1, 2):
                assert vhat(j, z, p) == _vhat_literal(j, z, p)

    def test_vanishing_factor(self):
        for p in PARAM_SETS:
            z = (1 / p.that1,)
            assert vhat(1, z, p) == 0

    def test_poles(self):
        p = PARAM_SETS[0]
        with pytest.raises(PoleError):
            vhat(1, (Fraction(1),), p)
        with pytest.raises(PoleError):
            vhat(1, (Fraction(2), Fraction(1, 2)), p)

    def test_index_out_of_range(self):
        with pytest.raises(ParamDomainError):
            vhat(3, (Fraction(2), Fraction(3)), PARAM_SETS[0])


class TestPointwiseRoutes:
    def test_level_one_routes_agree(self):
        poly = InvariantPolynomial(2, {(1, 1): Fraction(1), (1, 0): Fraction(-2)})

        def peval(z, cache=None):
            return poly.evaluate(z)

        for p in PARAM_SETS:
            z = generic_points(2, 1, p, seed=5)[0]
            lhs = apply_dual_h_pointwise(peval, z, p)
            rhs = _pointwise_sum(1, peval, z, p)
            assert lhs == rhs

    def test_uhat_conventions(self):
        p = PARAM_SETS[0]
        z = (Fraction(2), Fraction(3))
        # U_{K,0} = 1, U_{K,p} = 0 for p > |K|, and the empty hop has V = 1, all as Fractions
        values = [(uhat_coeff((1, 2), 0, z, p), 1), (uhat_coeff((1,), 2, z, p), 0), (vhat_signed((), (), z, p), 1)]
        for value, expected in values:
            assert value == expected and type(value) is Fraction
        with pytest.raises(ParamDomainError):
            uhat_coeff((1,), -1, z, p)


class TestSiteValidation:
    """Bad sites or signs are refused before any factor is read."""

    Z = (Fraction(2), Fraction(3))

    @pytest.mark.parametrize(
        "J, eps",
        [((0,), (1,)), ((3,), (1,)), ((1,), (5,)), ((1, 1), (1, 1)), ((1,), (1, -1)), ((1, 2), (1,))],
        ids=["site-0", "site-above-n", "sign-5", "repeated-site", "extra-sign", "missing-sign"],
    )
    def test_vhat_signed_rejects(self, J, eps):
        with pytest.raises(ParamDomainError):
            vhat_signed(J, eps, self.Z, PARAM_SETS[0])

    @pytest.mark.parametrize("K", [(0, 1), (1, 3), (2, 2)], ids=["site-0", "site-above-n", "repeated-site"])
    def test_uhat_coeff_rejects(self, K):
        with pytest.raises(ParamDomainError):
            uhat_coeff(K, 1, self.Z, PARAM_SETS[0])


class TestClosedForms:
    """Coefficients with two moved coordinates against formulas written out here."""

    POINTS = [(Fraction(5, 2), Fraction(3, 7)), (Fraction(5, 3), Fraction(-2, 11), Fraction(7, 13))]

    def test_vhat_signed_pairs(self):
        for p in PARAM_SETS:
            for z in self.POINTS:
                n = len(z)
                for j, k in itertools.combinations(range(1, n + 1), 2):
                    for ej, ek in itertools.product((1, -1), repeat=2):
                        uj, uk = z[j - 1] ** ej, z[k - 1] ** ek
                        w = uj * uk
                        expected = _one_literal(uj, p) * _one_literal(uk, p)
                        for m in range(1, n + 1):
                            if m not in (j, k):
                                zm = z[m - 1]
                                for u in (uj, uk):
                                    expected *= _pt_literal(u * zm, p) * _pt_literal(u / zm, p)
                        expected *= _pt_literal(w, p) * (1 - p.t * p.q * w) / (1 - p.q * w)
                        assert vhat_signed((j, k), (ej, ek), z, p) == expected

    def test_uhat_first_order(self):
        for p in PARAM_SETS:
            for z in self.POINTS:
                n = len(z)
                for size in range(1, n + 1):
                    for K in itertools.combinations(range(1, n + 1), size):
                        expected = 0
                        for j in K:
                            for e in (1, -1):
                                u = z[j - 1] ** e
                                term = _one_literal(u, p)
                                for m in K:
                                    if m != j:
                                        term *= _pt_literal(u * z[m - 1], p) * _pt_literal(u / z[m - 1], p)
                                expected += term
                        assert uhat_coeff(K, 1, z, p) == -expected


class TestFactorTable:
    def test_each_factor_evaluated_once_per_point(self, monkeypatch):
        counts = {"_one_body": 0, "_pair_t": 0, "_pair_tq": 0}
        for name in counts:
            real = getattr(dualop, name)

            def counting(*args, name=name, real=real):
                counts[name] += 1
                return real(*args)

            monkeypatch.setattr(dualop, name, counting)
        # count from a cold table, whatever an earlier test evaluated here
        dual_matrix.cache_clear()
        p = PARAM_SETS[0]
        z = generic_points(3, 1, p, seed=5)[0]
        terms = dualop.dual_terms_at_point(3, z, p)
        assert len(terms) == 27
        # 2n one-body arguments z_j^(+-1); 2n(n-1) mixed and 4 n(n-1)/2
        # in-pair products, the latter in a U and a V form
        assert counts["_one_body"] == 6
        assert counts["_pair_t"] <= 48
        assert counts["_pair_tq"] <= 24


class TestGenericPoints:
    def test_deterministic(self):
        p = PARAM_SETS[0]
        a = generic_points(2, 4, p, seed=3)
        b = generic_points(2, 4, p, seed=3)
        assert a == b
        assert len(a) == 4
        assert len(set(a)) == 4

    def test_points_are_prefixes(self):
        # a growth step reuses the points of the step before
        for p in PARAM_SETS:
            for n in (1, 2, 3):
                for seed in (0, 1, 7, 1009):
                    for k in (1, 4, 10):
                        assert generic_points(n, k, p, seed) == generic_points(n, k + 5, p, seed)[:k]

    def test_pole_conditions(self):
        p = PARAM_SETS[0]
        for z in generic_points(3, 6, p, seed=1):
            for i, v in enumerate(z):
                assert v != 0
                assert v * v != 1 and p.q * v * v != 1
                for w in z[i + 1 :]:
                    assert v != w
                    assert v * w != 1
                    assert p.q * v * w != 1


class TestApplyHhat:
    def test_constant_is_annihilated(self):
        p = PARAM_SETS[0]
        one = InvariantPolynomial(2, {(0, 0): Fraction(1)})
        assert apply_Hhat_l(1, one, p).is_zero()
        assert apply_Hhat_l(2, one, p).is_zero()

    def test_single_variable_image(self):
        for p in PARAM_SETS:
            img = apply_Hhat_l(1, InvariantPolynomial.monomial((1,)), p)
            assert img.coeffs[(1,)] == 1 / p.q - 1
            assert set(img.support()) <= {(0,), (1,)}

    def test_seed_independence(self):
        # the exact image cannot depend on which interpolation points were drawn
        p = PARAM_SETS[1]
        poly = InvariantPolynomial(2, {(2, 1): Fraction(1), (1, 0): Fraction(1, 3)})
        a = apply_Hhat_l(2, poly, p, seed=0)
        b = apply_Hhat_l(2, poly, p, seed=7)
        assert a.coeffs == b.coeffs

    def test_image_at_held_out_point_matches_pointwise_sum(self):
        p = PARAM_SETS[2]
        poly = InvariantPolynomial(2, {(2, 0): Fraction(1)})
        img = apply_Hhat_l(1, poly, p)
        z = generic_points(2, 9, p, seed=99)[-1]
        direct = _pointwise_sum(1, poly.evaluate, z, p)
        assert img.evaluate(z) == direct

    def test_corrupted_operator_is_caught(self, monkeypatch):
        # break W-invariance of the hop coefficients; the held-out
        # interpolation check must refuse the fitted image
        p = PARAM_SETS[0]
        real = dualop.dual_terms_at_point

        def crooked(l, z, params):
            z = tuple(z)
            return [(zz, c * (1 + z[0]) if zz != z else c) for zz, c in real(l, z, params)]

        monkeypatch.setattr(dualop, "dual_terms_at_point", crooked)
        # a matrix already held would answer without fitting anything
        dual_matrix.cache_clear()
        try:
            with pytest.raises(StructureError):
                apply_Hhat_l(1, InvariantPolynomial.monomial((1,)), p)
        finally:
            # rows fitted on the crooked operator must not reach other tests
            dual_matrix.cache_clear()


class TestMatrix:
    def test_trivial_root(self):
        p = PARAM_SETS[0]
        mat = _dense(1, (0,), p)
        assert mat == [[0]]

    def test_single_variable_diagonal(self):
        p = PARAM_SETS[0]
        mat = _dense(1, (2,), p)
        # ideal((2,)) is (0,), (1,), (2,)
        assert mat[0][0] == 0
        assert mat[1][1] == 1 / p.q - 1
        assert mat[2][2] == p.q**-2 - 1

    def test_triangular_support(self):
        p = PARAM_SETS[1]
        basis = ideal((2, 1))
        mat = _dense(1, (2, 1), p)
        for mu, row in zip(basis, mat):
            for nu, c in zip(basis, row):
                if not dominance_leq(nu, mu):
                    assert c == 0
        # every entry the shared rows hold, also outside the ideal, is
        # nonzero and dominated by its row label
        rows = dual_matrix(1, 2, p, 0).rows
        for mu in basis:
            for nu, c in rows[mu].items():
                assert c != 0
                assert dominance_leq(nu, mu)

    def test_top_level_diagonal(self):
        p = PARAM_SETS[0]
        mat = _dense(2, (1, 1), p)
        for i, mu in enumerate(ideal((1, 1))):
            assert mat[i][i] == eval_E_l(mu, 2, p)

    def test_one_fit_per_matrix(self, monkeypatch):
        # the matrix grows to |root| at once, not one weight per label
        p = PARAM_SETS[0]
        calls = []
        real = dualop.solve_exact

        def spy(A, B):
            calls.append(len(A))
            return real(A, B)

        monkeypatch.setattr(dualop, "solve_exact", spy)
        dual_matrix.cache_clear()
        _dense(1, (2, 1), p)
        assert calls == [len(partitions_max_weight(2, 3))]


class TestCommutator:
    def test_levels_commute_on_monomials(self):
        for p in PARAM_SETS:
            for l, m in [(1, 2), (1, 3), (2, 3)]:
                for mu in ideal((2, 1, 0)):
                    assert commutator_on_monomial(l, m, mu, p).is_zero(), (p, l, m, mu)

    def test_scaled_row_is_caught(self):
        # a wrong row of Hhat_2 must show in the commutator, so the check is not vacuous
        p = PARAM_SETS[0]
        mu = (2, 1, 0)
        dual_matrix.cache_clear()
        try:
            mat = dual_matrix(2, 3, p, 0)
            mat.grow(sum(mu))
            mat.rows[mu] = {nu: 2 * c for nu, c in mat.rows[mu].items()}
            assert not commutator_on_monomial(1, 2, mu, p).is_zero()
        finally:
            # the scaled row must not reach other tests
            dual_matrix.cache_clear()


class TestDualMatrix:
    def test_repeated_apply_adds_hits_only(self):
        p = PARAM_SETS[1]
        poly = InvariantPolynomial(2, {(2, 1): Fraction(1), (1, 0): Fraction(-2, 3)})
        first = apply_Hhat_l(2, poly, p, seed=5)
        before = dual_matrix.cache_info()
        again = apply_Hhat_l(2, poly, p, seed=5)
        after = dual_matrix.cache_info()
        assert again.coeffs == first.coeffs
        assert after.misses == before.misses
        assert after.hits > before.hits

    def test_growth_solves_only_new_rows(self, monkeypatch):
        p = PARAM_SETS[0]
        mat = DualMatrix(1, 2, p, seed=0)
        mat.grow(2)
        held = dict(mat.rows)
        shapes = []
        real = dualop.solve_exact

        def spy(A, B):
            shapes.append((len(A), len(B[0])))
            return real(A, B)

        monkeypatch.setattr(dualop, "solve_exact", spy)
        mat.grow(3)
        mat.grow(3)
        box = partitions_max_weight(2, 3)
        new = [mu for mu in box if sum(mu) == 3]
        assert shapes == [(len(box), len(new))]
        assert set(mat.rows) == set(box)
        assert all(mat.rows[mu] is row for mu, row in held.items())

    def test_box_rows_equal_per_ideal_interpolation(self):
        # the same rows, fitted over one ideal at points of another seed
        for p in PARAM_SETS:
            for l, root in [(1, (3, 1)), (2, (2, 1)), (2, (2, 1, 0))]:
                members = ideal(root)
                rows = dualop._interpolate(l, len(root), members, members, p, seed=12345)
                mat = dual_matrix(l, len(root), p, 0)
                mat.grow(sum(root))
                assert list(rows) == list(members)
                for mu in members:
                    assert mat.rows[mu] == rows[mu]

    def test_level_out_of_range(self):
        with pytest.raises(ParamDomainError):
            dual_matrix(3, 2, PARAM_SETS[0])


def _count_calls(monkeypatch, name):
    calls = []
    real = getattr(dualop, name)

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(dualop, name, spy)
    return calls


class TestPointMemo:
    """One record per interpolation point, shared by growth steps and levels."""

    def test_growth_evaluates_only_new_points(self, monkeypatch):
        p = PARAM_SETS[0]
        dual_matrix.cache_clear()
        mat = DualMatrix(1, 2, p, seed=0)
        mat.grow(2)
        calls = _count_calls(monkeypatch, "dual_terms_at_point")
        mat.grow(3)
        assert len(calls) == len(partitions_max_weight(2, 3)) - len(partitions_max_weight(2, 2))

    def test_levels_share_the_factor_table(self, monkeypatch):
        p = PARAM_SETS[1]
        dual_matrix.cache_clear()
        dual_matrix(1, 2, p, 3).grow(3)
        one_body = _count_calls(monkeypatch, "_one_body")
        terms = _count_calls(monkeypatch, "dual_terms_at_point")
        dual_matrix(2, 2, p, 3).grow(3)
        assert len(terms) == len(partitions_max_weight(2, 3)) + 1
        assert one_body == []

    def test_coefficient_helpers_read_the_point_record(self, monkeypatch):
        p = PARAM_SETS[0]
        dual_matrix.cache_clear()
        z = generic_points(3, 1, p, seed=5)[0]
        dualop.dual_terms_at_point(3, z, p)
        one_body = _count_calls(monkeypatch, "_one_body")
        vhat_signed((1, 2), (1, -1), z, p)
        uhat_coeff((1, 2, 3), 1, z, p)
        assert one_body == []

    def test_cache_clear_forgets_patched_terms(self, monkeypatch):
        p = PARAM_SETS[0]
        dual_matrix.cache_clear()
        before = dict(_row((1,), p))
        real = dualop.dual_terms_at_point

        def crooked(l, z, params):
            return [(zz, 2 * c) for zz, c in real(l, z, params)]

        monkeypatch.setattr(dualop, "dual_terms_at_point", crooked)
        dual_matrix.cache_clear()
        try:
            assert _row((1,), p) != before
        finally:
            monkeypatch.undo()
            dual_matrix.cache_clear()
        assert _dense(1, (0,), p) == [[0]]
        assert _row((1,), p) == before
