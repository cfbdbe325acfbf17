"""Scattering factors, square-root branches, free kernel, and sorting."""

import cmath
import math
import random
from fractions import Fraction

import pytest

from conftest import PARAM_SETS
from rsmorse.combinatorics import SignedPermutation
from rsmorse.errors import IrregularPointError, ParamDomainError, PoleError
from rsmorse.latticeop import LatticeFunction
from rsmorse.qcore import params_from_hat, qpoch_infinite
from rsmorse.scattering import (
    S_hat,
    S_hat_sorted,
    apply_H0,
    branch_deviation,
    chi,
    free_eigen_residual,
    s_one,
    s_pair,
    sorting_permutation,
    sqrt_branch_s,
    sqrt_branch_s0,
)

SAMPLES = [0.3, 0.9, 1.7, 2.4, 3.0, -1.2, 5.0]

Q_EQUALS_T = params_from_hat(Fraction(1, 3), Fraction(1, 3), (Fraction(1, 2), Fraction(-1, 3), Fraction(1, 5)))


def _s_pair_literal(x, p, tol=1e-14):
    """The four q-products of s_pair, each formed at its own argument."""
    q, t = float(p.q), float(p.t)
    zp, zm = cmath.exp(1j * x), cmath.exp(-1j * x)
    num = qpoch_infinite(q * zp, q, tol) * qpoch_infinite(t * zm, q, tol)
    den = qpoch_infinite(q * zm, q, tol) * qpoch_infinite(t * zp, q, tol)
    return num / den


def _s_one_literal(x, p, tol=1e-14):
    """The eight q-products of s_one, each formed at its own argument."""
    q = float(p.q)
    zp, zm = cmath.exp(1j * x), cmath.exp(-1j * x)
    out = qpoch_infinite(q * zp * zp, q, tol) / qpoch_infinite(q * zm * zm, q, tol)
    for th in p.that:
        out *= qpoch_infinite(float(th) * zm, q, tol) / qpoch_infinite(float(th) * zp, q, tol)
    return out


_RNG = random.Random(22)
_LITERAL_XS = [0.0, math.pi / 2, -math.pi / 2, math.pi] + [_RNG.uniform(-2 * math.pi, 2 * math.pi) for _ in range(40)]


@pytest.mark.parametrize("p", PARAM_SETS + [Q_EQUALS_T], ids=["pA", "pB", "pC", "q=t"])
def test_factors_equal_their_literal_products(p):
    # the e^{-ix} products are taken as conjugates; that must not move a bit
    for x in _LITERAL_XS:
        assert s_pair(x, p) == _s_pair_literal(x, p)
        assert s_one(x, p) == _s_one_literal(x, p)
        assert s_pair(x, p, 1e-10) == _s_pair_literal(x, p, 1e-10)
        assert s_one(x, p, 1e-10) == _s_one_literal(x, p, 1e-10)


def _four_calls(x, p, tol):
    """branch_deviation as the four separate calls form it."""
    return (
        abs(sqrt_branch_s(x, p, tol) ** 2 - s_pair(x, p, tol)),
        abs(sqrt_branch_s0(x, p, tol) ** 2 - s_one(x, p, tol)),
    )


def _phase_literal(v):
    if abs(v) == 0:
        raise PoleError("vanishing modulus in a square-root branch quotient")
    return v / abs(v)


@pytest.mark.parametrize("p", PARAM_SETS + [Q_EQUALS_T], ids=["pA", "pB", "pC", "q=t"])
def test_branches_and_deviation_equal_their_literal_forms(p):
    q, t = float(p.q), float(p.t)
    for tol in (1e-14, 1e-10):
        for x in _LITERAL_XS:
            z = cmath.exp(1j * x)
            root = _phase_literal(qpoch_infinite(q * z, q, tol)) / _phase_literal(qpoch_infinite(t * z, q, tol))
            root0 = _phase_literal(qpoch_infinite(q * z * z, q, tol))
            for th in p.that:
                root0 /= _phase_literal(qpoch_infinite(float(th) * z, q, tol))
            assert sqrt_branch_s(x, p, tol) == root
            assert sqrt_branch_s0(x, p, tol) == root0
            assert branch_deviation(x, p, tol) == _four_calls(x, p, tol)


def _sqrt_s_literal(x, p, tol):
    q, t = float(p.q), float(p.t)
    z = cmath.exp(1j * x)
    return _phase_literal(qpoch_infinite(q * z, q, tol)) / _phase_literal(qpoch_infinite(t * z, q, tol))


def _sqrt_s0_literal(x, p, tol):
    q = float(p.q)
    z = cmath.exp(1j * x)
    out = _phase_literal(qpoch_infinite(q * z * z, q, tol))
    for th in p.that:
        out /= _phase_literal(qpoch_infinite(float(th) * z, q, tol))
    return out


def _s_pair_checked(x, p, tol):
    """s_pair with its conjugate products and its pole check."""
    q, t = float(p.q), float(p.t)
    z = cmath.exp(1j * x)
    a = qpoch_infinite(q * z, q, tol)
    b = qpoch_infinite(t * z, q, tol)
    den = a.conjugate() * b
    if den == 0:
        raise PoleError("two-particle factor pole")
    return a * b.conjugate() / den


def _s_one_checked(x, p, tol):
    """s_one with each conjugate product formed and checked in turn."""
    q = float(p.q)
    z = cmath.exp(1j * x)
    c = qpoch_infinite(q * z * z, q, tol)
    out = c / c.conjugate()
    for th in p.that:
        den = qpoch_infinite(float(th) * z, q, tol)
        if den == 0:
            raise PoleError("one-particle factor pole")
        out *= den.conjugate() / den
    return out


def _outcome(call, *args):
    try:
        return call(*args)
    except Exception as exc:  # the type and text are compared
        return type(exc), str(exc)


@pytest.mark.parametrize("q", ["998/1000", "9995/10000"])
@pytest.mark.parametrize("hats", [("1/2", "-1/3", "1/5"), ("-9/10", "1/3", "2/3")], ids=["pA-hats", "neg-that0"])
def test_near_one_raises_as_the_literal_calls(q, hats):
    # near q = 1 a q-product can underflow to 0 or overflow; each product is
    # formed and checked in turn, so the first failure is the one raised
    p = params_from_hat(q, "1/3", hats)
    outcomes = []
    for x in (0.05, 0.6, 1.5, 3.0):
        args = (x, p, 1e-10)
        for got, ref in [
            (sqrt_branch_s, _sqrt_s_literal),
            (s_pair, _s_pair_checked),
            (sqrt_branch_s0, _sqrt_s0_literal),
            (s_one, _s_one_checked),
        ]:
            outcomes.append(_outcome(got, *args))
            assert outcomes[-1] == _outcome(ref, *args)
        assert _outcome(branch_deviation, *args) == _outcome(_four_calls, *args)
    assert any(isinstance(o, tuple) for o in outcomes)


class TestPairFactor:
    def test_value_at_zero(self, any_params):
        assert s_pair(0.0, any_params) == 1

    def test_reflection_is_conjugate_and_inverse(self, any_params):
        for x in SAMPLES:
            v = s_pair(x, any_params)
            w = s_pair(-x, any_params)
            assert abs(w - v.conjugate()) < 1e-12
            assert abs(w * v - 1) < 1e-12

    def test_unimodular(self, any_params):
        for x in SAMPLES:
            assert abs(abs(s_pair(x, any_params)) - 1) < 1e-12

    def test_free_at_equal_couplings(self):
        # t = q collapses the quotient identically
        for x in SAMPLES:
            assert abs(s_pair(x, Q_EQUALS_T) - 1) < 1e-15


class TestOneBodyFactor:
    def test_unimodular(self, any_params):
        for x in SAMPLES:
            assert abs(abs(s_one(x, any_params)) - 1) < 1e-12

    def test_reflection_inverse(self, any_params):
        for x in SAMPLES:
            assert abs(s_one(-x, any_params) * s_one(x, any_params) - 1) < 1e-12

    def test_small_q_limit(self):
        # with all reflection couplings off, s0 = (q e^{2ix})_inf / (q e^{-2ix})_inf
        # which is (1 - q e^{2ix})/(1 - q e^{-2ix}) up to O(q^2)
        q = Fraction(1, 1000)
        p = params_from_hat(q, Fraction(1, 2), (0, 0, 0), validate=False)
        for x in (0.4, 1.3, 2.6):
            z = cmath.exp(2j * x)
            first = (1 - float(q) * z) / (1 - float(q) / z)
            assert abs(s_one(x, p) - first) < 10 * float(q) ** 2


class TestFullMatrix:
    def test_single_variable_reduces(self, any_params):
        for x in (0.7, 2.1):
            assert S_hat((x,), any_params) == s_one(x, any_params)

    def test_two_variable_factorization(self, params0):
        # rebuild the three factors directly from infinite products
        q = float(params0.q)
        t = float(params0.t)

        def pair(x):
            zp, zm = cmath.exp(1j * x), cmath.exp(-1j * x)
            return (qpoch_infinite(q * zp, q) * qpoch_infinite(t * zm, q)) / (
                qpoch_infinite(q * zm, q) * qpoch_infinite(t * zp, q)
            )

        def one(x):
            zp, zm = cmath.exp(1j * x), cmath.exp(-1j * x)
            out = qpoch_infinite(q * zp * zp, q) / qpoch_infinite(q * zm * zm, q)
            for th in params0.that:
                out *= qpoch_infinite(float(th) * zm, q) / qpoch_infinite(float(th) * zp, q)
            return out

        xi = (2.3, 0.8)
        expected = pair(xi[0] - xi[1]) * pair(xi[0] + xi[1]) * one(xi[0]) * one(xi[1])
        assert abs(S_hat(xi, params0) - expected) < 1e-12

    def test_unimodular(self, any_params):
        pts = [(0.5,), (2.9, 1.1), (2.8, 1.9, 0.6)]
        for xi in pts:
            assert abs(abs(S_hat(xi, any_params)) - 1) < 1e-12


class TestBranches:
    def test_value_at_zero(self, any_params):
        assert sqrt_branch_s(0.0, any_params) == 1
        assert sqrt_branch_s0(0.0, any_params) == 1

    def test_squares(self, any_params):
        for x in SAMPLES:
            assert abs(sqrt_branch_s(x, any_params) ** 2 - s_pair(x, any_params)) < 1e-12
            assert abs(sqrt_branch_s0(x, any_params) ** 2 - s_one(x, any_params)) < 1e-12

    def test_unimodular(self, any_params):
        for x in SAMPLES:
            assert abs(abs(sqrt_branch_s(x, any_params)) - 1) < 1e-14
            assert abs(abs(sqrt_branch_s0(x, any_params)) - 1) < 1e-14


class TestFreeKernel:
    def test_single_variable_sine(self):
        for m in range(4):
            for xi in (0.3, 1.1, 2.7):
                expected = math.sqrt(2 / math.pi) * math.sin((m + 1) * xi)
                assert abs(chi((xi,), (m,)) - expected) < 1e-12

    def test_anti_invariance(self):
        w = SignedPermutation(sigma=(1, 0), signs=(1, -1))
        xi = [1.9, 0.8]
        for lam in [(0, 0), (2, 1), (3, 3)]:
            assert abs(chi(w.apply(xi), lam) - w.sign() * chi(xi, lam)) < 1e-12
        w3 = SignedPermutation(sigma=(2, 0, 1), signs=(-1, 1, -1))
        xi3 = [2.5, 1.4, 0.6]
        assert abs(chi(w3.apply(xi3), (1, 1, 0)) - w3.sign() * chi(xi3, (1, 1, 0))) < 1e-12

    def test_vanishes_on_walls(self):
        for lam in [(0, 0), (2, 1)]:
            assert abs(chi((0.0, 0.4), lam)) < 1e-12
            assert abs(chi((math.pi, 0.4), lam)) < 1e-12
            assert abs(chi((1.2, 0.0), lam)) < 1e-12

    def test_degenerate_angles_kill_it(self):
        # tied angles are fixed by a transposition of sign -1
        assert abs(chi((1.3, 1.3), (1, 0))) < 1e-12

    @pytest.mark.parametrize(
        "call",
        [
            lambda: chi((0.3, 0.5, 0.7), (1, 0)),
            lambda: free_eigen_residual((0.3,), (1, 0)),
        ],
        ids=["chi-long", "residual-short"],
    )
    def test_angles_of_the_wrong_length_are_refused(self, call):
        # a short xi would make the free eigen-identity 0 without checking anything
        with pytest.raises(ParamDomainError, match=r"xi has (3|1) angles, the label lam has 2 parts"):
            call()


class TestFreeLaplacian:
    def test_single_site(self):
        out = apply_H0(LatticeFunction(1, {(0,): 1}))
        assert out.values == {(1,): 1}

    def test_linearity(self):
        f = LatticeFunction(2, {(1, 0): 2, (2, 2): -1})
        g = LatticeFunction(2, {(0, 0): 3})
        left = apply_H0(f.plus(g))
        right = apply_H0(f).plus(apply_H0(g))
        assert left.minus(right).is_zero()

    def test_respects_cone(self):
        out = apply_H0(LatticeFunction(2, {(1, 1): 1}))
        # (1,1) -> (2,1) and (1,0); the moves to (0,1) and (1,2) are not partitions
        assert set(out.values) == {(2, 1), (1, 0)}

    def test_eigen_identity(self):
        pts = {
            1: [(0,), (1,), (4,)],
            2: [(0, 0), (1, 1), (2, 0), (3, 1)],
            3: [(0, 0, 0), (1, 1, 0), (2, 1, 1)],
        }
        angles = {1: (1.3,), 2: (2.2, 0.9), 3: (2.6, 1.5, 0.4)}
        for n, lams in pts.items():
            for lam in lams:
                assert abs(free_eigen_residual(angles[n], lam)) < 1e-12


class TestSorting:
    def test_single_descending(self):
        point = sorting_permutation((2.5,))
        assert point.regular
        applied = point.w.apply([-2 * math.sin(2.5)])
        assert applied[0] > 0

    def test_zero_gradient_irregular(self):
        assert not sorting_permutation((0.0,)).regular
        assert not sorting_permutation((math.pi, 1.0)).regular

    def test_tied_magnitudes_irregular(self):
        assert not sorting_permutation((2 * math.pi / 3, math.pi / 3)).regular

    def test_two_variable_sorting(self):
        point = sorting_permutation((2.5, 0.5))
        assert point.regular
        grad = [-2 * math.sin(2.5), -2 * math.sin(0.5)]
        applied = point.w.apply(grad)
        assert applied[0] > applied[1] > 0

    def test_sorted_matrix_matches_direct(self, params0):
        xi = (2.5, 0.5)
        point = sorting_permutation(xi)
        direct = S_hat(point.w.apply(list(xi)), params0)
        assert S_hat_sorted(xi, params0) == direct

    def test_sorted_matrix_rejects_irregular(self, params0):
        with pytest.raises(IrregularPointError):
            S_hat_sorted((2 * math.pi / 3, math.pi / 3), params0)
        with pytest.raises(IrregularPointError):
            S_hat_sorted((0.0,), params0)
