import cmath
import random
from fractions import Fraction

import pytest

import rsmorse.dualop as dualop
import rsmorse.polynomials as polynomials
from rsmorse.combinatorics import eval_E, ideal, partitions_max_weight
from rsmorse.dualop import apply_Hhat_l, dual_matrix, generic_points
from rsmorse.errors import DegeneracyError
from rsmorse.polynomials import PolynomialFamily, build_P, leading_coeff, normalization_point, pieri_residual
from rsmorse.qcore import params_from_hat, qpoch_finite

from conftest import PARAM_SETS, family_for


class TestLeadingCoeff:
    def test_empty_label(self):
        for p in PARAM_SETS:
            assert leading_coeff((0, 0), p) == 1

    def test_single_variable(self):
        for p in PARAM_SETS:
            a0, a1, a2 = p.that
            expected = a0 / ((1 - a0 * a1) * (1 - a0 * a2))
            assert leading_coeff((1,), p) == expected

    def test_two_variable_cross_factor(self):
        for p in PARAM_SETS:
            a0, a1, a2 = p.that
            q, t = p.q, p.t
            one_body = (
                a0 * t / (qpoch_finite(a0 * a1 * t, 1, q) * qpoch_finite(a0 * a2 * t, 1, q))
            )
            cross = qpoch_finite(t, 1, q) / qpoch_finite(t**2, 1, q)
            assert leading_coeff((1, 0), p) == one_body * cross


class TestBuildP:
    def test_constant(self):
        for p in PARAM_SETS:
            poly = family_for(p).P((0, 0))
            assert poly.coeffs == {(0, 0): 1}

    def test_single_variable_eigen_equation(self):
        for p in PARAM_SETS:
            poly = family_for(p).P((1,))
            image = apply_Hhat_l(1, poly, p)
            assert image.minus(poly.scaled(eval_E((1,), p))).is_zero()

    def test_leading_term(self):
        for p in PARAM_SETS:
            fam = family_for(p)
            for lam in [(1,), (2,), (1, 0), (1, 1), (2, 1)]:
                assert fam.P(lam).coeffs[lam] == leading_coeff(lam, p)

    def test_normalization_point_value(self):
        for p in PARAM_SETS:
            fam = family_for(p)
            for lam in [(0,), (2,), (1, 0), (2, 1), (1, 1, 0)]:
                z = normalization_point(len(lam), p)
                assert fam.P(lam).evaluate(z) == 1

    def test_support_in_ideal(self):
        p = PARAM_SETS[0]
        poly = family_for(p).P((2, 1))
        members = set(ideal((2, 1)))
        assert set(poly.support()) <= members

    def test_real_even_on_torus(self):
        p = PARAM_SETS[2]
        poly = family_for(p).P((2, 1))
        for xi in [(0.7, 0.3), (2.1, 1.1)]:
            z = tuple(cmath.exp(1j * v) for v in xi)
            zbar = tuple(cmath.exp(-1j * v) for v in xi)
            val = poly.evaluate(z)
            assert abs(val.imag) < 1e-12
            assert abs(val - poly.evaluate(zbar)) < 1e-12

    def test_eigenvalue_collision_reported(self, monkeypatch):
        class FakeMatrix:
            rows = {
                (1,): {(1,): Fraction(5), (0,): Fraction(3)},
                (0,): {(0,): Fraction(5)},
            }

            def grow(self, weight):
                pass

        monkeypatch.setattr(polynomials, "dual_matrix", lambda l, n, params, seed: FakeMatrix())
        with pytest.raises(DegeneracyError, match="collision"):
            build_P((1,), PARAM_SETS[0])


def _dual_q_hahn(m, z, p):
    """3phi2(q^-m, a z, a/z; a b, a c; q, q) with (a, b, c) = (that0, that1, that2).

    The continuous dual q-Hahn polynomial of degree m, scaled to 1 at
    z = 1/a (Koekoek, Lesky & Swarttouw, Hypergeometric Orthogonal
    Polynomials and Their q-Analogues, section 14.3).
    """
    a, b, c = p.that
    q = p.q
    return sum(
        qpoch_finite(q**-m, k, q) * qpoch_finite(a * z, k, q) * qpoch_finite(a / z, k, q)
        / (qpoch_finite(a * b, k, q) * qpoch_finite(a * c, k, q) * qpoch_finite(q, k, q))
        * q**k
        for k in range(m + 1)
    )


def _det(rows):
    """Determinant by expansion along the first row (n <= 3 here)."""
    if len(rows) == 1:
        return rows[0][0]
    return sum(
        (-1) ** c * rows[0][c] * _det([r[:c] + r[c + 1 :] for r in rows[1:]]) for c in range(len(rows))
    )


def _bialternant(lam, z, p):
    """det[p_{lam_j + n - j}(z_k)] / det[p_{n - j}(z_k)] over the n = 1 polynomials p_m."""
    n = len(lam)
    top = _det([[_dual_q_hahn(lam[j] + n - 1 - j, zk, p) for zk in z] for j in range(n)])
    bottom = _det([[_dual_q_hahn(n - 1 - j, zk, p) for zk in z] for j in range(n)])
    return top / bottom


class TestClosedForms:
    """P_lambda against formulas that do not go through the dual-operator fit."""

    # each test draws its points at a seed no other check uses
    def test_single_variable_is_dual_q_hahn(self):
        for p in PARAM_SETS:
            points = generic_points(1, 4, p, seed=4241)
            for m in range(9):
                poly = build_P((m,), p)
                for (z,) in points:
                    assert poly.evaluate((z,)) == _dual_q_hahn(m, z, p)

    def test_q_equal_t_is_a_determinant(self):
        # at t = q, P_lambda(z) = R_lambda(z) / R_lambda(z*) with R_lambda the bialternant:
        # the determinant form of Koornwinder-type polynomials at t = q (Koornwinder,
        # Contemp. Math. 138, 1992), a slice no identity check of the lattice side reaches
        for base in PARAM_SETS:
            p = params_from_hat(base.q, base.q, base.that)
            for n, cap in ((2, 4), (3, 3)):
                points = generic_points(n, 3, p, seed=4243)
                star = normalization_point(n, p)
                for lam in partitions_max_weight(n, cap):
                    poly = build_P(lam, p)
                    at_star = _bialternant(lam, star, p)
                    for z in points:
                        assert poly.evaluate(z) == _bialternant(lam, z, p) / at_star


class TestPieri:
    def test_residual_zero_samples(self):
        rng = random.Random(2)
        for p in PARAM_SETS:
            fam = family_for(p)
            for n, lam in [(1, (2,)), (2, (1, 1)), (2, (2, 0))]:
                z = generic_points(n, 1, p, seed=rng.randint(0, 10**6))[0]
                for l in range(1, n + 1):
                    assert pieri_residual(l, lam, z, fam) == 0

    def test_residual_detects_wrong_coefficients(self, monkeypatch):
        # doubling one family of hop coefficients must break the recurrence
        p = PARAM_SETS[0]
        fam = family_for(p)
        real = polynomials.hop_terms

        def crooked(l, lam, params):
            # double the terms that move two sites up (|J+| = 2)
            return [
                (target, 2 * c if sum(b > a for a, b in zip(lam, target)) == 2 else c)
                for target, c in real(l, lam, params)
            ]

        monkeypatch.setattr(polynomials, "hop_terms", crooked)
        z = generic_points(2, 1, p, seed=77)[0]
        assert pieri_residual(2, (1, 0), z, fam) != 0

    def test_list_point_accepted(self):
        # a point given as a list is read like the tuple, not used as a memo key
        p = PARAM_SETS[1]
        fam = family_for(p)
        z = [Fraction(2)]
        assert pieri_residual(1, (1,), z, fam) == 0

    def test_float_point_evaluates(self):
        # a point that is not rational is evaluated in floats, not by the integer kernel
        p = PARAM_SETS[0]
        fam = family_for(p)
        for l in (1, 2):
            residual = pieri_residual(l, (2, 1), (0.37, 2.9), fam)
            assert isinstance(residual, float)
            assert abs(residual) < 1e-9


def test_family_rows_are_shared(monkeypatch):
    p = PARAM_SETS[0]
    fam = family_for(p)
    fam.P((2, 1))
    dual_matrix(1, 2, p, fam.seed).grow(3)
    other = PolynomialFamily(params=p, seed=fam.seed)
    fits = []
    monkeypatch.setattr(dualop, "_interpolate", lambda *args: fits.append(args))
    before = dual_matrix.cache_info()
    assert other.P((2, 1)).coeffs == fam.P((2, 1)).coeffs
    after = dual_matrix.cache_info()
    assert after.misses == before.misses
    # the second family reads the rows the first one grew, with no fit of its own
    assert fits == []


def test_check_seed_is_its_own_matrix():
    # the dual eigen-check runs at the family seed + 1, apart from the fit
    p = PARAM_SETS[2]
    fam = PolynomialFamily(params=p, seed=41)
    poly = fam.P((1, 0))
    before = dual_matrix.cache_info()
    image = apply_Hhat_l(1, poly, p, seed=fam.seed + 1)
    after = dual_matrix.cache_info()
    assert after.misses == before.misses + 1
    fit = dual_matrix(1, 2, p, fam.seed)
    check = dual_matrix(1, 2, p, fam.seed + 1)
    assert fit is not check
    assert check.rows[(1, 0)] is not fit.rows[(1, 0)]
    assert check.rows[(1, 0)] == fit.rows[(1, 0)]
    assert image.minus(poly.scaled(eval_E((1, 0), p))).is_zero()
