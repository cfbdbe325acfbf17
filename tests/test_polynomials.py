import cmath
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rsmorse.dualop as dualop
import rsmorse.polynomials as polynomials
from rsmorse.combinatorics import (
    _times_elementary,
    check_partition,
    eval_E,
    eval_E_l,
    eval_Ehat_l,
    ideal,
    partitions_max_weight,
    total_order_key,
)
from rsmorse.dualop import (
    InvariantPolynomial,
    apply_dual_h_pointwise,
    apply_Hhat_l,
    dual_matrix,
    generic_points,
)
from rsmorse.errors import DegeneracyError, ParamDomainError, RSMorseError
from rsmorse.polynomials import (
    FittedFamily,
    PolynomialFamily,
    build_P,
    leading_coeff,
    normalization_point,
    pieri_P,
    pieri_residual,
    pieri_residuals,
)
from rsmorse.qcore import params_from_hat, qpoch_finite

from conftest import BOUNDARY_SETS, PARAM_SETS, family_for, fitted_family_for, in_domain_params


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
    """P_lambda against formulas that do not go through the dual-operator fit.

    Each form is checked on the eigen-solve build_P and on the Pieri
    recursion of PolynomialFamily.
    """

    # each form draws its points at a seed no other check uses
    @staticmethod
    def _dual_q_hahn_holds(construction):
        for p in PARAM_SETS:
            P = construction(p)
            points = generic_points(1, 4, p, seed=4241)
            for m in range(9):
                poly = P((m,))
                for (z,) in points:
                    assert poly.evaluate((z,)) == _dual_q_hahn(m, z, p)

    @staticmethod
    def _determinant_holds(construction):
        # at t = q, P_lambda(z) = R_lambda(z) / R_lambda(z*) with R_lambda the bialternant:
        # the determinant form of Koornwinder-type polynomials at t = q (Koornwinder,
        # Contemp. Math. 138, 1992), a slice no identity check of the lattice side reaches
        for base in PARAM_SETS:
            p = params_from_hat(base.q, base.q, base.that)
            P = construction(p)
            for n, cap in ((2, 4), (3, 3)):
                points = generic_points(n, 3, p, seed=4243)
                star = normalization_point(n, p)
                for lam in partitions_max_weight(n, cap):
                    poly = P(lam)
                    at_star = _bialternant(lam, star, p)
                    for z in points:
                        assert poly.evaluate(z) == _bialternant(lam, z, p) / at_star

    def test_single_variable_is_dual_q_hahn(self):
        self._dual_q_hahn_holds(lambda p: lambda lam: build_P(lam, p))

    def test_q_equal_t_is_a_determinant(self):
        self._determinant_holds(lambda p: lambda lam: build_P(lam, p))

    def test_family_single_variable_is_dual_q_hahn(self):
        self._dual_q_hahn_holds(lambda p: PolynomialFamily(params=p).P)

    def test_family_q_equal_t_is_a_determinant(self):
        # at q = t the levels l >= 2 have poles, so these labels take the fallback
        self._determinant_holds(lambda p: PolynomialFamily(params=p).P)


def _spy_on_fits(monkeypatch):
    """The labels the family builds by build_P, in order."""
    fits = []
    real = polynomials.build_P

    def spy(label, params, seed=0):
        fits.append(label)
        return real(label, params, seed)

    monkeypatch.setattr(polynomials, "build_P", spy)
    return fits


class TestPieriRecursion:
    @settings(deadline=None, max_examples=25)
    @given(in_domain_params(), st.integers(1, 3), st.integers(0, 3), st.integers(0, 99))
    def test_family_equals_eigen_solve(self, p, n, cap, seed):
        # a third of the draws put q = t^k, where H_l (l >= 2) has poles and the family fits
        family = PolynomialFamily(params=p, seed=seed)
        for lam in partitions_max_weight(n, cap):
            try:
                want = build_P(lam, p, seed)
            except RSMorseError:
                continue
            got = family.P(lam).coeffs
            assert got == want.coeffs, lam
            # the same key order too, so float sums over the coefficients run alike
            assert list(got) == list(want.coeffs), lam

    def test_box_makes_no_solve(self, monkeypatch):
        calls = []
        real = dualop.solve_exact

        def spy(A, B):
            calls.append(len(A))
            return real(A, B)

        monkeypatch.setattr(dualop, "solve_exact", spy)
        # no shared rows to read: a fit anywhere below would have to solve
        dual_matrix.cache_clear()
        for p in PARAM_SETS:
            family = PolynomialFamily(params=p, seed=7)
            for n, cap in ((1, 5), (2, 5), (3, 4)):
                for lam in partitions_max_weight(n, cap):
                    family.P(lam)
        assert calls == []

    def test_vanishing_top_coefficient_falls_back(self, monkeypatch):
        p = PARAM_SETS[1]
        mu, lam = (2, 1, 0), (1, 0, 0)
        real = polynomials.hop_terms

        def top_zero(l, at, params):
            terms = real(l, at, params)
            if (l, tuple(at)) == (2, lam):
                terms = [(target, 0 if target == mu else c) for target, c in terms]
            return terms

        monkeypatch.setattr(polynomials, "hop_terms", top_zero)
        fits = _spy_on_fits(monkeypatch)
        family = PolynomialFamily(params=p)
        assert family.P(mu).coeffs == build_P(mu, p).coeffs
        assert fits == [mu]
        with pytest.raises(DegeneracyError, match=r"\(2, 1, 0\)"):
            pieri_P(mu, family)

    def test_pole_slice_falls_back_per_label(self, monkeypatch):
        # at q = t, H_2 has a pole at the equal parts of (0, 0), so (1, 1) alone is fitted
        base = PARAM_SETS[0]
        p = params_from_hat(base.t, base.t, base.that)
        fits = _spy_on_fits(monkeypatch)
        family = PolynomialFamily(params=p)
        for lam in partitions_max_weight(2, 3):
            assert family.P(lam).coeffs == build_P(lam, p).coeffs
        assert fits == [(1, 1)]


class TestFamilyLookup:
    """P validates a label only when the family does not hold it."""

    def _counted(self, monkeypatch):
        calls = []
        real = polynomials.check_partition

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(polynomials, "check_partition", counted)
        return calls

    def test_held_labels_are_not_validated_again(self, monkeypatch):
        family = PolynomialFamily(params=PARAM_SETS[1])
        family.P((2, 1, 0))
        held = list(family._polys)
        z = (Fraction(2, 3), Fraction(-5, 7), Fraction(3, 2))
        pieri_residual(2, (1, 1, 0), z, family)
        calls = self._counted(monkeypatch)
        for lam in held:
            assert family.P(lam) is family._polys[lam]
        assert calls == []
        # a residual checks its own label once; each hop target read inside is held already
        pieri_residual(2, (1, 1, 0), z, family)
        assert calls == [((1, 1, 0),)]
        # a miss is validated once by P, then once by pieri_P, which builds it
        family.P((3, 0, 0))
        assert calls[1:] == [((3, 0, 0),)] * 2

    def test_other_labels_still_validated(self, monkeypatch):
        family = PolynomialFamily(params=PARAM_SETS[0])
        family.P((1, 0))
        calls = self._counted(monkeypatch)
        # equal to a held label: the held polynomial, as check_partition normalizes it
        assert family.P((1.0, 0)) is family.P([1, 0]) is family.P((1, 0))
        assert calls == [([1, 0],)]
        for bad in ([1, -1], (1, -1), (0, 1), [0, 1], (1.5, 0), (float("nan"), 0)):
            with pytest.raises(ParamDomainError) as want:
                check_partition(bad)
            with pytest.raises(ParamDomainError) as got:
                family.P(bad)
            assert str(got.value) == str(want.value)
        assert len(calls) == 7


class TestPieri:
    # the residual checks read the eigen-solve P: the family's P are built from this identity

    def test_residual_zero_samples(self):
        rng = random.Random(2)
        for p in PARAM_SETS:
            fam = fitted_family_for(p)
            for n, lam in [(1, (2,)), (2, (1, 1)), (2, (2, 0))]:
                z = generic_points(n, 1, p, seed=rng.randint(0, 10**6))[0]
                for l in range(1, n + 1):
                    assert pieri_residual(l, lam, z, fam) == 0

    def test_residual_detects_wrong_coefficients(self, monkeypatch):
        # doubling one family of hop coefficients must break the recurrence
        p = PARAM_SETS[0]
        fam = fitted_family_for(p)
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
        fam = fitted_family_for(p)
        z = [Fraction(2)]
        assert pieri_residual(1, (1,), z, fam) == 0

    def test_int_point_stays_exact(self):
        # int coordinates are rational: 1/z_j and z_j/z_k must not turn into float division
        p = PARAM_SETS[0]
        fam = fitted_family_for(p)
        lam = (1, 0)
        P = fam.P(lam)

        def values(z):
            image = apply_dual_h_pointwise(P.evaluate, z, p)
            identity = image - eval_E(lam, p) * P.evaluate(z)
            return [pieri_residual(l, lam, z, fam) for l in (1, 2)] + [identity, image]

        at_ints = values((3, 5))
        assert at_ints[:3] == [0, 0, 0]
        assert all(type(v) is Fraction for v in at_ints)
        assert at_ints == values((Fraction(3), Fraction(5)))

    def _refused(self, monkeypatch, z):
        # refused before any arithmetic: no hop table is read
        fam = fitted_family_for(PARAM_SETS[0])

        def no_hops(*args):
            raise AssertionError("hop_terms read at a refused point")

        monkeypatch.setattr(polynomials, "hop_terms", no_hops)
        with pytest.raises(ParamDomainError) as exc:
            pieri_residual(1, (1, 0), z, fam)
        return str(exc.value)

    def test_wrong_length_point_refused(self, monkeypatch):
        # the one-coordinate point once gave the exact, wrong value -21839/13224
        assert self._refused(monkeypatch, (Fraction(1, 2),)) == "point has length 1, expected 2"

    @pytest.mark.parametrize("zero", [0, Fraction(0), 0.0], ids=["int", "fraction", "float"])
    def test_zero_coordinate_refused(self, monkeypatch, zero):
        assert "z[1]" in self._refused(monkeypatch, (Fraction(2), zero))

    def test_float_point_evaluates(self):
        # a point that is not rational is evaluated in floats, not by the integer kernel
        p = PARAM_SETS[0]
        fam = fitted_family_for(p)
        for l in (1, 2):
            residual = pieri_residual(l, (2, 1), (0.37, 2.9), fam)
            assert isinstance(residual, float)
            assert abs(residual) < 1e-9

    def test_grid_forms_each_hop_sum_once(self, monkeypatch):
        # one hop sum per (l, lam) and one monomial map per point, each value
        # equal to pieri_residual at its case (the float point in floats too)
        p = PARAM_SETS[2]
        fam = fitted_family_for(p)
        labels = partitions_max_weight(2, 2)
        points = generic_points(2, 3, p, seed=19) + [(0.37, 2.9)]
        expected = [(l, lam, z, pieri_residual(l, lam, z, fam)) for lam in labels for l in (1, 2) for z in points]
        sums, maps = [], []
        real_sum, real_map = polynomials._hop_sum, polynomials._monomials_at

        def hop_sum(l, lam, family, top=None):
            sums.append((l, lam))
            return real_sum(l, lam, family, top)

        def monomials_at(z, n):
            maps.append(z)
            return real_map(z, n)

        monkeypatch.setattr(polynomials, "_hop_sum", hop_sum)
        monkeypatch.setattr(polynomials, "_monomials_at", monomials_at)
        assert pieri_residuals(fam, labels, points) == expected
        assert sums == [(l, lam) for lam in labels for l in (1, 2)]
        assert maps == points
        assert all(r == 0 for _, _, z, r in expected if z != points[-1])

    def test_grid_refuses_a_wrong_length_point(self):
        fam = fitted_family_for(PARAM_SETS[0])
        with pytest.raises(ParamDomainError, match="point has length 1, expected 2"):
            pieri_residuals(fam, [(1, 0)], [(Fraction(1, 2),)])


def test_family_rows_are_shared(monkeypatch):
    p = PARAM_SETS[0]
    fam = fitted_family_for(p)
    fam.P((2, 1))
    dual_matrix(1, 2, p, fam.seed).grow(3)
    other = FittedFamily(params=p, seed=fam.seed)
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
    fam = FittedFamily(params=p, seed=41)
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


# ---------------------------------------------------------------------------
# the sums on integer pairs against a Fraction reference of the term-by-term loops
# ---------------------------------------------------------------------------


def _hop_sum_literal(l, lam, family, top=None):
    """sum over hop_terms(l, lam) of c P_target, added Fraction by Fraction; the hop to top apart."""
    out, c_top = {}, 0
    for target, c in polynomials.hop_terms(l, lam, family.params):
        if target == top:
            c_top = c
            continue
        for nu, v in family.P(target).coeffs.items():
            out[nu] = out.get(nu, 0) + c * v
    return out, c_top


def _pieri_sum_literal(l, lam, family, top=None):
    out, c_top = _hop_sum_literal(l, lam, family, top)
    ehat = polynomials._ehat_elementary(l, len(lam), family.params)
    for nu, v in family.P(lam).coeffs.items():
        for a, products in zip(ehat, _times_elementary(nu)):
            if a:
                for gamma, count in products:
                    out[gamma] = out.get(gamma, 0) - count * (a * v)
    return out, c_top


def _pieri_P_literal(mu, family):
    """pieri_P on Fractions: {nu: coefficient} in descending graded-lex order, zeros dropped."""
    l = sum(1 for part in mu if part)
    if l == 0:
        return {mu: Fraction(1)}
    lam = tuple(part - 1 for part in mu[:l]) + mu[l:]
    rest, c_mu = _pieri_sum_literal(l, lam, family, top=mu)
    if c_mu == 0:
        raise DegeneracyError(
            f"Pieri recursion has no value at label {mu}: the hop {lam} -> {mu} of H_{l} has coefficient 0"
        )
    order = sorted(rest, key=total_order_key, reverse=True)
    return {nu: -rest[nu] / c_mu for nu in order if rest[nu] != 0}


def _orbit_value(mu, z):
    """m_mu(z) as the sum of z^nu over the distinct signed permutations nu of mu."""
    orbit = {
        tuple(s * e for s, e in zip(signs, perm))
        for perm in itertools.permutations(mu)
        for signs in itertools.product((1, -1), repeat=len(mu))
    }
    total = 0
    for nu in orbit:
        term = 1
        for zj, e in zip(z, nu):
            term *= zj**e
        total += term
    return total


def _residual_literal(l, lam, z, family):
    """The Pieri residual: the polynomial sum c P_target - Ehat_l(z) P_lam summed over the orbits at z."""
    hops = InvariantPolynomial(len(lam), _hop_sum_literal(l, lam, family)[0])
    cosines = tuple((zj + 1 / zj) / 2 for zj in (Fraction(v) if isinstance(v, int) else v for v in z))
    ehat = _eval_Ehat_l_literal(l, cosines, family.params)
    poly = hops.minus(family.P(lam).scaled(ehat))
    # scale: a bound on sum |c m_mu(z)| on the unit torus, for the float comparison
    total = scale = 0
    for mu, c in poly.coeffs.items():
        total += c * _orbit_value(mu, z)
        scale += abs(c) * len(set(itertools.permutations(mu))) * 2 ** len(mu)
    return total, scale


def _apply_Hhat_literal(l, poly, params, seed):
    mat = dual_matrix(l, poly.n, params, seed)
    mat.grow(max(sum(mu) for mu in poly.coeffs))
    out = {}
    for mu, c in poly.coeffs.items():
        for nu, v in mat.rows[mu].items():
            out[nu] = out.get(nu, 0) + c * v
    return {nu: v for nu, v in out.items() if v != 0}


def _outcome(fn):
    """fn(), or the type and text of the package error it raises."""
    try:
        return fn()
    except RSMorseError as exc:
        return f"{type(exc).__name__}: {exc}"


_COORDS = st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(1, 9))


@settings(deadline=None, max_examples=60)
@given(
    in_domain_params(),
    st.integers(1, 3).flatmap(
        lambda n: st.tuples(
            st.sampled_from(partitions_max_weight(n, 3)),
            st.integers(1, n),
            st.lists(_COORDS, min_size=n, max_size=n),
            st.lists(st.floats(0.1, 3.0), min_size=n, max_size=n),
        )
    ),
)
def test_pair_sums_equal_the_fraction_loops(p, case):
    # a third of the draws put q = t^k, where H_l (l >= 2) has poles and the family fits
    lam, l, z, angles = case
    n = len(lam)
    family = PolynomialFamily(params=p)
    # every P of the box the recursion builds, in values and in key order
    for mu in partitions_max_weight(n, 3):
        want = _outcome(lambda: _pieri_P_literal(mu, family))
        got = _outcome(lambda: pieri_P(mu, family).coeffs)
        assert got == want, mu
        if isinstance(want, dict):
            assert list(got.items()) == list(family.P(mu).coeffs.items()) == list(want.items()), mu
    # the identity and the residuals read labels of weight |lam| + l at most: keep it within the box
    if sum(lam) + l <= 3:
        want = _outcome(lambda: {k: v for k, v in _pieri_sum_literal(l, lam, family)[0].items() if v != 0})
        got = _outcome(lambda: polynomials.pieri_identity(l, lam, family).coeffs)
        assert got == want and (isinstance(got, str) or list(got) == list(want))
        want = _outcome(lambda: _residual_literal(l, lam, tuple(z), family)[0])
        got = _outcome(lambda: pieri_residual(l, lam, tuple(z), family))
        assert got == want and (isinstance(got, str) or type(got) is Fraction)
        w = tuple(cmath.exp(1j * a) for a in angles)
        want = _outcome(lambda: _residual_literal(l, lam, w, family))
        got = _outcome(lambda: pieri_residual(l, lam, w, family))
        if isinstance(want, str):
            assert got == want
        else:
            value, scale = want
            assert abs(got - value) <= 1e-12 * max(1, scale)
    # the dual images of P_lam, at the check seed
    poly = family.P(lam)
    got = apply_Hhat_l(l, poly, p, seed=1).coeffs
    assert list(got.items()) == list(_apply_Hhat_literal(l, poly, p, 1).items())


# ---------------------------------------------------------------------------
# the closed forms on integer pairs against Fraction copies of their formulas
# ---------------------------------------------------------------------------


def _eval_E_l_literal(lam, l, params):
    """t^(-l(l-1)/2) sum_{j_1<...<j_l} prod_r (t^(j_r-1) q^(-lam_{j_r}) - t^(n+r-1-j_r)), on Fractions."""
    n = len(lam)
    q, t = params.q, params.t
    zpow = [t ** (j - 1) * q ** (-lam[j - 1]) for j in range(1, n + 1)]
    total = 0
    for combo in itertools.combinations(range(1, n + 1), l):
        term = 1
        for r, jr in enumerate(combo, start=1):
            term *= zpow[jr - 1] - t ** (n + r - 1 - jr)
        total += term
    return t ** (-l * (l - 1) // 2) * total


def _eval_Ehat_l_literal(l, cos_xi, params):
    """sum_{j_1<...<j_l} prod_r (2 cos xi_{j_r} - t^(j_r-r) that0 - t^(r-j_r)/that0), term by term."""
    n = len(cos_xi)
    t, a = params.t, params.that0
    total = 0
    for combo in itertools.combinations(range(1, n + 1), l):
        term = 1
        for r, jr in enumerate(combo, start=1):
            term *= 2 * cos_xi[jr - 1] - t ** (jr - r) * a - t ** (r - jr) / a
        total += term
    return total


def _ehat_elementary_literal(l, n, params):
    """Coefficients of Ehat_l in m_(1^k), by inclusion and exclusion over the literal values at x = (1^m, 0^(n-m))."""
    values = [_eval_Ehat_l_literal(l, (Fraction(1, 2),) * m + (0,) * (n - m), params) for m in range(n + 1)]
    return tuple(sum((-1) ** (k - m) * math.comb(k, m) * values[m] for m in range(k + 1)) for k in range(n + 1))


def _qpoch_literal(x, m, q):
    out = Fraction(1)
    for k in range(m):
        out *= 1 - x * q**k
    return out


def _leading_coeff_literal(lam, params):
    """The product formula of leading_coeff on Fractions, boundary parameters refused first."""
    if params.q == 0 or params.t in (0, 1) or params.that0 == 0:
        raise ParamDomainError("boundary parameters")
    n = len(lam)
    q, t = params.q, params.t
    th0, th1, th2 = params.that
    out = Fraction(1)
    for j in range(1, n + 1):
        lj = lam[j - 1]
        out *= th0**lj * t ** ((n - j) * lj)
        out /= _qpoch_literal(th0 * th1 * t ** (n - j), lj, q)
        out /= _qpoch_literal(th0 * th2 * t ** (n - j), lj, q)
    for j in range(1, n + 1):
        for k in range(j + 1, n + 1):
            d = lam[j - 1] - lam[k - 1]
            out *= _qpoch_literal(t ** (k - j), d, q)
            out /= _qpoch_literal(t ** (1 + k - j), d, q)
    return out


def _kind(fn):
    """(type, value) of fn(), or the type of the exception it raises."""
    try:
        value = fn()
    except Exception as exc:
        return type(exc)
    return type(value), value


# rational cosines, zero and negative values among them, as ints and Fractions
_COSINES = st.one_of(st.integers(-2, 2), st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9)))


@st.composite
def _closed_form_params(draw):
    """in_domain_params, with q = t^k for a drawn k = 1, 2 or 3 in half the cases."""
    p = draw(in_domain_params())
    k = draw(st.integers(0, 5))
    return params_from_hat(p.t**k, p.t, p.that) if 1 <= k <= 3 else p


@settings(deadline=None, max_examples=60)
@given(
    _closed_form_params(),
    st.integers(1, 4).flatmap(
        lambda n: st.tuples(
            st.sampled_from(partitions_max_weight(n, 4)),
            st.integers(1, n),
            st.lists(_COSINES, min_size=n, max_size=n),
            st.lists(st.floats(-3.0, 3.0), min_size=n, max_size=n),
            st.lists(_COORDS, min_size=n, max_size=n),
        )
    ),
)
def test_closed_forms_equal_their_fraction_formulas(p, case):
    lam, l, cosines, angles, z = case
    got = eval_E_l(lam, l, p)
    assert type(got) is Fraction and got == _eval_E_l_literal(lam, l, p)
    got = eval_Ehat_l(l, cosines, p)
    assert type(got) is Fraction and got == _eval_Ehat_l_literal(l, cosines, p)
    got = polynomials._ehat_elementary(l, len(lam), p)
    assert got == _ehat_elementary_literal(l, len(lam), p) and all(type(a) is Fraction for a in got)
    got = leading_coeff(lam, p)
    assert type(got) is Fraction and got == _leading_coeff_literal(lam, p)
    # float and complex cosines keep the float loop, to the last bit
    for cos in (tuple(math.cos(a) for a in angles), tuple(cmath.cos(complex(a, 1 - a)) for a in angles)):
        assert eval_Ehat_l(l, cos, p) == _eval_Ehat_l_literal(l, cos, p)
    # the residual reads labels up to weight |lam| + l; at q = t^k the poles of H_l raise alike
    if len(lam) <= 3 and sum(lam) + l <= 4:
        family = PolynomialFamily(params=p)
        want = _kind(lambda: _residual_literal(l, lam, tuple(z), family)[0])
        assert _kind(lambda: pieri_residual(l, lam, tuple(z), family)) == want
        assert want[0] is Fraction if isinstance(want, tuple) else issubclass(want, RSMorseError)


@pytest.mark.parametrize("q, t, that0, name", BOUNDARY_SETS)
def test_closed_forms_at_the_boundary_raise_as_their_formulas(q, t, that0, name):
    p = params_from_hat(q, t, (that0, "-1/3", "1/5"), validate=False)
    family = PolynomialFamily(params=p)
    cosines = (Fraction(1, 2), 0, Fraction(-3, 4))
    z = (Fraction(2, 3), Fraction(-5, 7), 3)
    raised = set()
    for n in (1, 2, 3):
        for lam in partitions_max_weight(n, 2):
            for l in range(1, n + 1):
                pairs = [
                    (lambda: eval_E_l(lam, l, p), lambda: _eval_E_l_literal(lam, l, p)),
                    (lambda: eval_Ehat_l(l, cosines[:n], p), lambda: _eval_Ehat_l_literal(l, cosines[:n], p)),
                    (lambda: polynomials._ehat_elementary(l, n, p), lambda: _ehat_elementary_literal(l, n, p)),
                    (lambda: leading_coeff(lam, p), lambda: _leading_coeff_literal(lam, p)),
                    (
                        lambda: pieri_residual(l, lam, z[:n], family),
                        lambda: _residual_literal(l, lam, z[:n], family)[0],
                    ),
                ]
                for got, want in pairs:
                    outcome = _kind(want)
                    assert _kind(got) == outcome, (lam, l)
                    if not isinstance(outcome, tuple):
                        raised.add(outcome)
    # each set is refused by name where the lattice side reads it; q = 0, t = 0 and that0 = 0
    # also divide by zero in the eigenvalue formulas
    assert raised == ({ParamDomainError} if name == "t" and t == "1" else {ParamDomainError, ZeroDivisionError})
