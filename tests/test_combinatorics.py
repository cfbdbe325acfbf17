import cmath
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rsmorse.combinatorics import (
    SignedPermutation,
    _Monomials,
    check_partition,
    complete_sym,
    cosines_from_point,
    dominance_leq,
    elem_sym,
    eval_E,
    eval_E_l,
    eval_E_l_via_Eln,
    eval_Ehat,
    eval_Ehat_l,
    eval_Eln,
    ideal,
    is_partition,
    monomial_eval,
    orbit,
    partitions_max_weight,
    total_order_key,
)
from rsmorse.dualop import InvariantPolynomial
from rsmorse.errors import ParamDomainError
from rsmorse.latticeop import LatticeFunction
from rsmorse.qcore import params_from_hat

from conftest import PARAM_SETS


class TestPartitions:
    def test_check_partition(self):
        assert check_partition([2, 1, 0]) == (2, 1, 0)
        got = check_partition((2.0, Fraction(1), np.int64(0)))
        assert got == (2, 1, 0) and all(type(p) is int for p in got)
        with pytest.raises(ParamDomainError):
            check_partition((1, 2))
        with pytest.raises(ParamDomainError):
            check_partition((1, -1))
        with pytest.raises(ParamDomainError):
            check_partition((1, 0), n=3)

    @pytest.mark.parametrize("part", [1.5, float("nan"), float("inf")])
    def test_non_integral_part_rejected(self, part):
        # truncating 1.5 to 1 would silently relabel the input
        with pytest.raises(ParamDomainError, match="non-integral"):
            check_partition((part, 0))

    def test_is_partition(self):
        assert is_partition((3, 3, 1))
        assert not is_partition((1, 2))
        assert not is_partition((0, -1))

    def test_partitions_max_weight_n2_w3(self):
        got = partitions_max_weight(2, 3)
        assert got == [(0, 0), (1, 0), (1, 1), (2, 0), (2, 1), (3, 0)]

    def test_partitions_max_weight_n1(self):
        assert partitions_max_weight(1, 4) == [(k,) for k in range(5)]


@pytest.mark.parametrize("cls", [LatticeFunction, InvariantPolynomial], ids=lambda c: c.__name__)
class TestPartitionMap:
    """The lattice functions and the invariant polynomials share one map body."""

    def test_algebra_keeps_the_class(self, cls):
        f = cls(2, {(1, 0): Fraction(2), (2, 1): Fraction(0)})
        g = cls(2, {(1, 0): Fraction(-1), (1, 1): Fraction(1, 3)})
        for out in (f.scaled(3), f.plus(g), f.minus(g), f.minus(f)):
            assert type(out) is cls
        assert f.scaled(3).values == {(1, 0): 6}
        assert f.plus(g).values == {(1, 0): 1, (1, 1): Fraction(1, 3)}
        assert f.minus(g).values == {(1, 0): 3, (1, 1): Fraction(-1, 3)}
        assert f.minus(f).is_zero()

    def test_support_is_graded_lex(self, cls):
        # weight first: (3, 0) comes before (2, 2), against plain lex order
        f = cls(2, {(2, 2): 1, (3, 0): 1, (1, 0): 1})
        assert f.support() == [(1, 0), (3, 0), (2, 2)]

    def test_rank_mismatch_raises(self, cls):
        with pytest.raises(ParamDomainError, match="ranks 2 and 3"):
            cls(2, {(1, 0): 1}).plus(cls(3, {(1, 0, 0): 1}))
        with pytest.raises(ParamDomainError, match="ranks 2 and 1"):
            cls(2, {(1, 0): 1}).minus(cls(1, {(1,): 1}))


class TestDominance:
    def test_examples(self):
        assert dominance_leq((1, 1), (2, 0))
        assert not dominance_leq((2, 0), (1, 1))
        assert dominance_leq((1, 0, 0), (2, 2, 2))

    def test_length_mismatch(self):
        with pytest.raises(ParamDomainError):
            dominance_leq((1, 0), (1, 0, 0))

    def test_partial_order_axioms(self):
        for n in (2, 3, 4):
            labels = partitions_max_weight(n, 6)
            for a in labels:
                assert dominance_leq(a, a)
            for a in labels:
                for b in labels:
                    if dominance_leq(a, b) and dominance_leq(b, a):
                        assert a == b
            for a in labels:
                below_a = [b for b in labels if dominance_leq(b, a)]
                for b in below_a:
                    for c in labels:
                        if dominance_leq(c, b):
                            assert dominance_leq(c, a)

    def test_total_order_refines_dominance(self):
        labels = partitions_max_weight(3, 6)
        for a in labels:
            for b in labels:
                if a != b and dominance_leq(a, b):
                    assert total_order_key(a) < total_order_key(b)


class TestIdeal:
    def test_singleton(self):
        assert ideal((0, 0)) == ((0, 0),)

    def test_small_examples(self):
        assert set(ideal((1, 0))) == {(0, 0), (1, 0)}
        assert set(ideal((2, 0))) == {(0, 0), (1, 0), (1, 1), (2, 0)}

    def test_downward_closed(self):
        basis = ideal((2, 1, 0))
        members = set(basis)
        for mu in members:
            for nu in partitions_max_weight(3, sum(mu)):
                if dominance_leq(nu, mu):
                    assert nu in members

    def test_ordering(self):
        members = ideal((3, 1))
        assert list(members) == sorted(members, key=total_order_key)


class TestSignedPermutation:
    def test_apply_places_entries(self):
        w = SignedPermutation(sigma=(1, 0), signs=(1, -1))
        # entry 0 goes to slot 1 with sign +, entry 1 to slot 0 with sign -
        assert w.apply((5, 7)) == (-7, 5)

    def test_sign(self):
        assert SignedPermutation.identity(3).sign() == 1
        w = SignedPermutation(sigma=(1, 0), signs=(1, -1))
        assert w.sign() == 1
        assert SignedPermutation(sigma=(1, 0), signs=(1, 1)).sign() == -1

    def test_compose_matches_sequential_apply(self):
        rng = random.Random(2)
        for _ in range(20):
            a = SignedPermutation.random(3, rng)
            b = SignedPermutation.random(3, rng)
            v = tuple(rng.randint(-5, 5) for _ in range(3))
            assert a.compose(b).apply(v) == a.apply(b.apply(v))
            assert a.compose(b).sign() == a.sign() * b.sign()

    def test_invalid(self):
        with pytest.raises(ParamDomainError):
            SignedPermutation(sigma=(0, 0), signs=(1, 1))
        with pytest.raises(ParamDomainError):
            SignedPermutation(sigma=(0, 1), signs=(1, 2))


class TestOrbitAndMonomials:
    def test_orbit_sizes(self):
        assert orbit((0, 0)) == [(0, 0)]
        assert len(orbit((1, 0))) == 4
        assert len(orbit((1, 1))) == 4
        assert len(orbit((2, 1))) == 8

    def test_orbit_no_duplicates(self):
        for mu in [(2, 0, 0), (2, 2, 1), (1, 1, 1)]:
            got = orbit(mu)
            assert len(got) == len(set(got))

    def test_monomial_values(self):
        assert monomial_eval((0, 0), (Fraction(2), Fraction(3))) == 1
        z = Fraction(7, 3)
        assert monomial_eval((1,), (z,)) == z + 1 / z
        got = monomial_eval((1, 1), (Fraction(2), Fraction(3)))
        assert got == Fraction(50, 6)

    def test_monomial_w_invariance(self):
        rng = random.Random(9)
        z = (Fraction(2, 3), Fraction(5, 7), Fraction(11, 3))
        for mu in [(2, 1, 0), (3, 3, 1)]:
            base = monomial_eval(mu, z)
            for _ in range(6):
                w = SignedPermutation.random(3, rng)
                moved = [None] * 3
                for i in range(3):
                    moved[w.sigma[i]] = z[i] if w.signs[i] == 1 else 1 / z[i]
                assert monomial_eval(mu, tuple(moved)) == base

    def test_monomial_errors(self):
        with pytest.raises(ParamDomainError):
            monomial_eval((1, 0), (Fraction(2), Fraction(0)))
        with pytest.raises(ParamDomainError):
            monomial_eval((1, 0), (Fraction(2),))

    def test_inexact_inputs_keep_their_values(self):
        # floats, complex numbers and numpy arrays take the generic loop
        mu = (2, 1, 0)
        z = (Fraction(2, 3), Fraction(-5, 7), Fraction(11, 3))
        exact = monomial_eval(mu, z)
        assert monomial_eval(mu, tuple(float(v) for v in z)) == pytest.approx(float(exact), rel=1e-14)
        xi = (0.3, 1.7, 2.9)
        on_torus = monomial_eval(mu, tuple(cmath.exp(1j * x) for x in xi))
        # on the torus m_mu is the orbit sum of e^(i <nu, xi>), a real number
        expected = sum(cmath.exp(1j * sum(e * x for e, x in zip(nu, xi))) for nu in orbit(mu))
        assert abs(on_torus - expected) < 1e-12
        assert abs(on_torus.imag) < 1e-12
        grid = [np.array([float(v), 0.5, 2.0]) for v in z]
        vec = monomial_eval(mu, grid)
        for k in range(3):
            assert vec[k] == pytest.approx(monomial_eval(mu, tuple(float(g[k]) for g in grid)), rel=1e-14)


def _orbit_sum(mu, z):
    total = Fraction(0)
    for nu in orbit(mu):
        term = Fraction(1)
        for zj, e in zip(z, nu):
            term *= Fraction(zj) ** e
        total += term
    return total


_nonzero_rationals = st.one_of(
    st.integers(-9, 9).filter(lambda a: a != 0),
    st.builds(Fraction, st.integers(-40, 40).filter(lambda a: a != 0), st.integers(1, 40)),
)


@st.composite
def _monomial_cases(draw):
    n = draw(st.integers(1, 4))
    mu = draw(st.sampled_from(partitions_max_weight(n, 6)))
    z = tuple(draw(_nonzero_rationals) for _ in range(n))
    # a common factor per coordinate, so a_j/b_j is written unreduced
    scale = tuple(draw(st.integers(-6, 6).filter(lambda k: k != 0)) for _ in range(n))
    return mu, z, scale, draw(st.integers(0, n - 1)), draw(st.sampled_from((0, Fraction(0))))


@settings(deadline=None)
@given(_monomial_cases())
def test_rational_monomial_kernel_matches_orbit_sum(case):
    mu, z, scale, j, zero = case
    got = monomial_eval(mu, z)
    assert isinstance(got, Fraction)
    assert got == _orbit_sum(mu, z)
    # the kernel on unreduced integer parts: m_mu = N_mu / prod_j (a_j b_j)^mu_1
    z = tuple(Fraction(v) for v in z)
    pairs = tuple((k * v.numerator, k * v.denominator) for v, k in zip(z, scale))
    nums = _Monomials(pairs)
    den = 1
    for a, b in pairs:
        den *= (a * b) ** mu[0]
    assert Fraction(nums[mu], den) == got
    assert nums.value(mu) == got
    with pytest.raises(ParamDomainError):
        monomial_eval(mu, z[:j] + (zero,) + z[j + 1 :])


class TestSymmetricFunctions:
    def test_conventions(self):
        assert elem_sym(0, (2, 3)) == 1
        assert complete_sym(0, ()) == 1
        assert elem_sym(1, (2, 3)) == 5
        assert elem_sym(2, (2, 3)) == 6
        assert elem_sym(3, (2, 3)) == 0
        assert complete_sym(1, ()) == 0

    def test_complete_single_variable(self):
        x = Fraction(5, 3)
        assert complete_sym(2, (x,)) == x**2

    def test_complete_two_variables(self):
        a, b = Fraction(2), Fraction(3)
        assert complete_sym(2, (a, b)) == a**2 + a * b + b**2

    def test_e_h_duality(self):
        # sum_k (-1)^k e_k h_{m-k} = 0 for m >= 1 in the same alphabet
        rng = random.Random(4)
        z = tuple(Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(4))
        for m in range(1, 5):
            acc = sum((-1) ** k * elem_sym(k, z) * complete_sym(m - k, z) for k in range(m + 1))
            assert acc == 0


class TestLatticeEigenvalues:
    def test_zero_label(self):
        for p in PARAM_SETS:
            assert eval_E((0, 0, 0), p) == 0

    def test_single_particle(self):
        p = params_from_hat("1/2", "1/2", ("1/2", "1/3", "1/5"))
        assert eval_E((2,), p) == 3

    def test_level_one_reduction(self):
        for p in PARAM_SETS:
            for lam in partitions_max_weight(3, 4):
                assert eval_E_l(lam, 1, p) == eval_E(lam, p)

    def test_top_level_value(self):
        p = params_from_hat("1/3", "1/2", ("1/2", "1/3", "1/5"))
        # t^-1 (q^-1 - t)(t q^-1 - t) at q=1/3, t=1/2
        assert eval_E_l((1, 1), 2, p) == 5

    def test_level_out_of_range(self):
        with pytest.raises(ParamDomainError):
            eval_E_l((1, 0), 3, PARAM_SETS[0])

    def test_two_routes_agree(self):
        for p in PARAM_SETS:
            for n in (2, 3, 4):
                for lam in partitions_max_weight(n, 5):
                    for l in range(1, n + 1):
                        assert eval_E_l_via_Eln(lam, l, p) == eval_E_l(lam, l, p)


class TestEln:
    def test_level_zero(self):
        assert eval_Eln(0, (Fraction(2), Fraction(3)), (Fraction(1), Fraction(2), Fraction(5))) == 1

    def test_shape_errors(self):
        with pytest.raises(ParamDomainError):
            eval_Eln(1, (Fraction(2), Fraction(3)), (Fraction(1),))
        with pytest.raises(ParamDomainError):
            eval_Eln(3, (Fraction(2), Fraction(3)), ())

    def test_homogeneity(self):
        rng = random.Random(7)
        for _ in range(30):
            n = rng.randint(1, 4)
            l = rng.randint(0, n)
            z = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n))
            y = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n - l + 1))
            c = Fraction(rng.choice([-5, -2, 2, 3, 7]), rng.randint(1, 6))
            lhs = eval_Eln(l, tuple(c * v for v in z), tuple(c * v for v in y))
            assert lhs == c**l * eval_Eln(l, z, y)

    def test_recurrence_two_particles(self):
        q, t = Fraction(1, 3), Fraction(1, 2)
        lam = (2, 1)
        l = 1
        z = (q ** -lam[0], t * q ** -lam[1])
        y = (t ** (l - 1), t)
        lhs = eval_Eln(l, z, y)
        rhs = (z[0] - t ** (l - 1)) * eval_Eln(0, z[1:], y) + eval_Eln(l, z[1:], (t,))
        assert lhs == rhs


class TestSpectralEigenvalues:
    def test_single_particle_value(self):
        p = params_from_hat("1/3", "1/2", ("1/2", "1/3", "1/5"))
        # 2 cos(pi/2) - that0 - 1/that0
        assert eval_Ehat((Fraction(0),), p) == Fraction(-5, 2)

    def test_level_one_reduction(self):
        p = PARAM_SETS[1]
        x = (Fraction(1, 2), Fraction(1, 3), Fraction(-2, 5))
        assert eval_Ehat_l(1, x, p) == eval_Ehat(x, p)

    def test_two_particle_product(self):
        p = params_from_hat("1/3", "1/2", ("1/2", "1/3", "1/5"))
        got = eval_Ehat_l(2, (Fraction(1, 2), Fraction(1, 3)), p)
        # (2/2 - that0 - 1/that0)(2/3 - that0 - 1/that0)
        assert got == Fraction(-3, 2) * Fraction(-11, 6)

    def test_level_out_of_range(self):
        with pytest.raises(ParamDomainError):
            eval_Ehat_l(0, (Fraction(1, 2),), PARAM_SETS[0])

    def test_cosines_from_point(self):
        assert cosines_from_point((Fraction(2),)) == (Fraction(5, 4),)


class TestStaySumMemo:
    """Each U_{K,p} of one factor table is summed once, not once per sign pattern."""

    @staticmethod
    def _count_sums(monkeypatch):
        import rsmorse.combinatorics as comb

        real = comb._stay_sum
        keys = []

        def spy(K, p, F):
            if p:
                keys.append((K, p))
            return real(K, p, F)

        monkeypatch.setattr(comb, "_stay_sum", spy)
        return keys

    def test_dual_point(self, monkeypatch):
        from rsmorse.dualop import dual_matrix, dual_terms_at_point

        # the point's factor table is shared: count from a cold one
        dual_matrix.cache_clear()
        keys = self._count_sums(monkeypatch)
        z = (Fraction(2, 3), Fraction(5, 7), Fraction(11, 13))
        dual_terms_at_point(3, z, PARAM_SETS[0])
        # (1, 2, 3) at p = 3, three pairs at p = 2, three singletons at p = 1
        assert len(keys) == 7
        assert len(set(keys)) == 7

    def test_lattice_table(self, monkeypatch):
        from rsmorse.latticeop import _hop_table

        keys = self._count_sums(monkeypatch)
        _hop_table.__wrapped__(3, (2, 1, 0), PARAM_SETS[0])
        assert len(keys) == 7
        assert len(set(keys)) == 7
