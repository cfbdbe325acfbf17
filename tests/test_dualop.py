import functools
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
from rsmorse.qcore import params_from_hat

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


def _pair_tq_literal(w, stay, p):
    """In-pair q-factor: (t - q w)/(1 - q w) if stay, else (1 - t q w)/(1 - q w)."""
    qw = p.q * w
    if qw == 1:
        raise PoleError("pair coefficient pole: q * coordinate product equals 1")
    return ((p.t - qw) if stay else (1 - p.t * qw)) / (1 - qw)


# the baseline's factor helpers, each value computed once (a pole raises on every read)
_one_body = functools.lru_cache(maxsize=None)(dualop._one_body)
_pair_t = functools.lru_cache(maxsize=None)(dualop._pair_t)


def _product_literal(z, p, J, eps, rest, stay):
    """One-body factors over J, then mixed against rest, then in-pair, from the helpers."""
    u = {j: z[j - 1] ** s for j, s in zip(J, eps)}
    out = Fraction(1)
    for j in J:
        out *= _one_body(u[j], p)
    for j in J:
        for k in rest:
            out *= _pair_t(u[j] * z[k - 1], p)
            out *= _pair_t(u[j] / z[k - 1], p)
    for a, b in itertools.combinations(J, 2):
        w = u[a] * u[b]
        out *= _pair_t(w, p) * _pair_tq_literal(w, stay, p)
    return out


def _uhat_literal(K, order, z, p):
    """Uhat_{K,p}: (-1)^p sum over disjoint I+, I- in K, |I+| ascending, then I+, then I-."""
    total = Fraction(0)
    for size in range(order + 1):
        for Ip in itertools.combinations(K, size):
            left = [k for k in K if k not in Ip]
            for Im in itertools.combinations(left, order - size):
                rest = [k for k in left if k not in Im]
                total += _product_literal(z, p, Ip + Im, (1,) * size + (-1,) * (order - size), rest, True)
    return (-1) ** order * total


def _dual_terms_literal(l, z, p):
    """(z shifted by q^eps on J, Uhat_{J^c, l-|J|} Vhat_{eps J}) for every signed hop."""
    n = len(z)
    out = []
    uhat = {}  # every sign choice on J shares Uhat_{J^c, l-|J|}
    for signs in itertools.product((0, 1, -1), repeat=n):
        J = tuple(j for j, s in enumerate(signs, 1) if s)
        if len(J) > l:
            continue
        eps = tuple(s for s in signs if s)
        rest = tuple(k for k in range(1, n + 1) if k not in J)
        if rest not in uhat:
            uhat[rest] = _uhat_literal(rest, l - len(J), z, p)
        c = uhat[rest] * _product_literal(z, p, J, eps, rest, False)
        out.append((tuple(v * p.q**s for v, s in zip(z, signs)), c))
    return out


@functools.lru_cache(maxsize=None)
def _orbit_literal(mu):
    """The signed permutations of mu, each once."""
    return {
        tuple(s * e for s, e in zip(signs, perm))
        for perm in itertools.permutations(mu)
        for signs in itertools.product((1, -1), repeat=len(mu))
    }


def _monomials_literal(box, w, memo):
    """[m_mu(w) for mu in box], each the sum of w^nu over the orbit of mu.

    With w_j = a_j/b_j and M = mu_1, each w^nu is summed as the integer
    prod_j a_j^(M + nu_j) b_j^(M - nu_j) over prod_j (a_j b_j)^M.
    """
    key = (len(box), w)
    if key not in memo:
        out = []
        for mu in box:
            M = mu[0]
            num, den = 0, 1
            for v in w:
                den *= (v.numerator * v.denominator) ** M
            for nu in _orbit_literal(mu):
                term = 1
                for v, e in zip(w, nu):
                    term *= v.numerator ** (M + e) * v.denominator ** (M - e)
                num += term
            out.append(Fraction(num, den))
        memo[key] = out
    return memo[key]


def _solve_literal(A, B):
    """Gauss-Jordan elimination on Fractions; ZeroDivisionError when A is singular."""
    n = len(A)
    M = [list(a) + list(b) for a, b in zip(A, B)]
    for k in range(n):
        pivot = next((i for i in range(k, n) if M[i][k] != 0), None)
        if pivot is None:
            raise ZeroDivisionError("singular")
        M[k], M[pivot] = M[pivot], M[k]
        M[k] = [v / M[k][k] for v in M[k]]
        for i in range(n):
            if i != k and M[i][k] != 0:
                f = M[i][k]
                M[i] = [a - f * b for a, b in zip(M[i], M[k])]
    return [row[n:] for row in M]


def _fit_literal(n, weight, p):
    """{l: rows of Hhat_l} over every label of weight <= weight, fitted on plain Fractions.

    One solve takes the images of every level as its right-hand side.
    """
    box = partitions_max_weight(n, weight)
    levels = range(1, n + 1)
    memo = {}
    for seed in range(40):
        try:
            rows_A, rows_B = [], []
            for z in generic_points(n, len(box), p, 777 + seed):
                rows_A.append(_monomials_literal(box, z, memo))
                rows_B.append([])
                for l in levels:
                    terms = [(_monomials_literal(box, w, memo), c) for w, c in _dual_terms_literal(l, z, p)]
                    rows_B[-1] += [sum(c * m[k] for m, c in terms) for k in range(len(box))]
            X = _solve_literal(rows_A, rows_B)
        except (PoleError, ZeroDivisionError):
            continue
        return {
            l: {
                mu: {nu: X[i][c] for i, nu in enumerate(box) if X[i][c] != 0}
                for c, mu in enumerate(box, (l - 1) * len(box))
            }
            for l in levels
        }
    raise AssertionError("no admissible reference point set")


def _outcome(fn):
    try:
        return fn()
    except PoleError as exc:
        return f"PoleError: {exc}"


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
        names = ("_one_factor", "_mixed_factor", "_pair_factor")
        builds = {name: _count_calls(monkeypatch, name) for name in names}
        # count from a cold table, whatever an earlier test evaluated here
        dual_matrix.cache_clear()
        p = PARAM_SETS[0]
        z = generic_points(3, 1, p, seed=5)[0]
        terms = dualop.dual_terms_at_point(3, z, p)
        assert len(terms) == 27
        table = dualop._point(z, p).factors
        # one build per entry held: 2n one-body arguments z_j^(+-1),
        # 2n(n-1) mixed entries, and the in-pair entries of the 3 pairs
        # under 4 sign choices in a U and a V form, 3 * 4 * 2 = 24
        assert [len(builds[name]) for name in builds] == [len(table.one), len(table.mixed), len(table.pair)]
        assert (len(table.one), len(table.mixed), len(table.pair)) == (6, 12, 24)
        # reading the point again builds nothing
        before = [len(calls) for calls in builds.values()]
        dualop.dual_terms_at_point(3, z, p)
        assert [len(calls) for calls in builds.values()] == before


class TestLiteralReference:
    """Fitted rows and coefficient helpers against plain-Fraction references."""

    PARAMS = PARAM_SETS + [
        params_from_hat("1/2", "1/2", ("1/2", "-1/3", "1/5")),  # q = t
        params_from_hat("3/7", "2/3", ("-5/6", "-1/4", "3/5")),  # that0 < 0
    ]

    def test_fitted_rows_equal_reference(self):
        for p in self.PARAMS:
            for n, weight in ((1, 6), (2, 4), (3, 4)):
                for l, expected in _fit_literal(n, weight, p).items():
                    mat = dual_matrix(l, n, p, 0)
                    mat.grow(weight)
                    assert {mu: mat.rows[mu] for mu in expected} == expected, (p, l, n)

    POINTS = [
        (Fraction(5, 2), Fraction(3, 7), Fraction(-7, 11)),  # generic
        (Fraction(1), Fraction(3), Fraction(5, 2)),  # one-body pole at z_1 = 1
        (Fraction(-2, 3), Fraction(-1), Fraction(7, 5)),  # one-body pole at z_2 = -1
        (Fraction(2), Fraction(3, 2), Fraction(2, 3)),  # mixed pole z_2 z_3 = 1
        (Fraction(5, 3), Fraction(5, 3), Fraction(2, 7)),  # mixed pole z_1 / z_2 = 1
        (Fraction(1, 2), Fraction(3), Fraction(5, 7)),  # at q = 1/4, one-body pole q u^2 = 1 at u = 1/z_1
    ]

    def _points(self, p):
        # in-pair pole q z_1 z_3 = 1
        return self.POINTS + [(Fraction(3, 5), Fraction(2), 5 / (3 * p.q))]

    def test_helpers_equal_reference(self):
        poles = set()
        for p in self.PARAMS:
            for z in self._points(p):
                for size in range(4):
                    for J in itertools.combinations((1, 2, 3), size):
                        rest = [k for k in (1, 2, 3) if k not in J]
                        for eps in itertools.product((1, -1), repeat=size):
                            # a cold record, so the entries are built in this call's order
                            dual_matrix.cache_clear()
                            got = _outcome(lambda: vhat_signed(J, eps, z, p))
                            expected = _outcome(lambda: _product_literal(z, p, J, eps, rest, False))
                            assert got == expected, (p, z, J, eps)
                            poles.add(got if isinstance(got, str) else None)
                        for order in range(size + 2):
                            got = _outcome(lambda: uhat_coeff(J, order, z, p))
                            assert got == _outcome(lambda: _uhat_literal(J, order, z, p)), (p, z, J, order)
                            poles.add(got if isinstance(got, str) else None)
        assert poles == {
            None,
            "PoleError: one-body coefficient pole at coordinate 1",
            "PoleError: one-body coefficient pole at coordinate -1",
            "PoleError: one-body coefficient pole at coordinate 2",
            "PoleError: pair coefficient pole: coordinate product equals 1",
            "PoleError: pair coefficient pole: q * coordinate product equals 1",
        }


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

    def test_target_off_the_q_lattice_is_refused(self, monkeypatch):
        # the fit writes each target as an integer q-shift of the point
        p = PARAM_SETS[0]
        real = dualop.dual_terms_at_point

        def crooked(l, z, params):
            return [(tuple(2 * v for v in zz), c) for zz, c in real(l, z, params)]

        monkeypatch.setattr(dualop, "dual_terms_at_point", crooked)
        dual_matrix.cache_clear()
        try:
            with pytest.raises(StructureError, match="is not a q-shift of the point"):
                apply_Hhat_l(1, InvariantPolynomial.monomial((1,)), p)
        finally:
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
        # level 1 has read every one-body and mixed entry of its points
        one_body = _count_calls(monkeypatch, "_one_factor")
        mixed = _count_calls(monkeypatch, "_mixed_factor")
        terms = _count_calls(monkeypatch, "dual_terms_at_point")
        dual_matrix(2, 2, p, 3).grow(3)
        assert len(terms) == len(partitions_max_weight(2, 3)) + 1
        assert one_body == [] and mixed == []

    def test_coefficient_helpers_read_the_point_record(self, monkeypatch):
        p = PARAM_SETS[0]
        dual_matrix.cache_clear()
        z = generic_points(3, 1, p, seed=5)[0]
        dualop.dual_terms_at_point(3, z, p)
        builds = [_count_calls(monkeypatch, name) for name in ("_one_factor", "_mixed_factor", "_pair_factor")]
        vhat_signed((1, 2), (1, -1), z, p)
        uhat_coeff((1, 2, 3), 1, z, p)
        assert builds == [[], [], []]

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
