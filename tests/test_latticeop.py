import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rsmorse.combinatorics import is_partition, partitions_max_weight
from rsmorse.errors import ParamDomainError, PoleError
from rsmorse.latticeop import (
    LatticeFunction,
    U_coeff,
    V_coeff,
    apply_H,
    apply_Hl,
    commutator_on_delta,
    epsilon0,
    hop_terms,
    morse_vanishing_limit_check,
    ruijsenaars_limit_check,
    symmetrization_identity_sides,
    v_minus,
    v_plus,
)
from rsmorse.qcore import params_from_hat

from conftest import PARAM_SETS, in_domain_params


def _shifted(lam, j, step):
    out = list(lam)
    out[j - 1] += step
    return tuple(out)


class TestLatticeFunction:
    def test_prunes_zeros(self):
        f = LatticeFunction(2, {(1, 0): Fraction(0), (2, 1): Fraction(3)})
        assert f.support() == [(2, 1)]

    def test_algebra(self):
        f = LatticeFunction.delta((1, 0))
        g = f.scaled(Fraction(2)).plus(LatticeFunction.delta((0, 0)))
        assert g[(1, 0)] == 2
        assert g[(0, 0)] == 1
        assert g.minus(g).is_zero()

    def test_rank_mismatch(self):
        with pytest.raises(ParamDomainError):
            LatticeFunction.delta((1, 0)).plus(LatticeFunction.delta((1, 0, 0)))

    def test_json_roundtrip(self):
        f = LatticeFunction(2, {(2, 1): Fraction(-7, 3), (1, 0): Fraction(1, 2)})
        back = LatticeFunction.from_json(2, f.to_json())
        assert back.values == f.values

    def test_invalid_key(self):
        with pytest.raises(ParamDomainError):
            LatticeFunction(2, {(0, 1): Fraction(1)})


class TestHopCoefficients:
    def test_single_particle_up_value(self):
        for p in PARAM_SETS:
            a0, a1, a2 = p.that
            expected = (1 / a0) * (1 - a0 * a2) * (1 - a0 * a1)
            assert v_plus((0,), 1, p) == expected

    def test_boundary_vanishing(self):
        for p in PARAM_SETS:
            for n in (2, 3):
                for lam in partitions_max_weight(n, 5):
                    for j in range(1, n + 1):
                        if not is_partition(_shifted(lam, j, 1)):
                            assert v_plus(lam, j, p) == 0
                        if not is_partition(_shifted(lam, j, -1)):
                            assert v_minus(lam, j, p) == 0

    def test_equal_parts_block_up_hop(self):
        p = PARAM_SETS[0]
        assert v_plus((1, 1), 2, p) == 0

    def test_floor_blocks_down_hop(self):
        p = PARAM_SETS[0]
        assert v_minus((2, 0), 2, p) == 0

    def test_index_out_of_range(self):
        with pytest.raises(ParamDomainError):
            v_plus((1, 0), 3, PARAM_SETS[0])


class TestApplyH:
    def test_zero_input(self):
        out = apply_H(LatticeFunction(2, {}), PARAM_SETS[0])
        assert out.is_zero()

    def test_delta_diagonal(self):
        p = PARAM_SETS[1]
        lam = (2, 1)
        out = apply_H(LatticeFunction.delta(lam), p)
        diag = -sum(v_plus(lam, j, p) + v_minus(lam, j, p) for j in (1, 2))
        assert out[lam] == diag

    def test_delta_off_diagonal(self):
        p = PARAM_SETS[1]
        out = apply_H(LatticeFunction.delta((1, 0)), p)
        # the value at a neighbor mu is the hop coefficient from mu back
        # into the delta's site
        assert out[(2, 0)] == v_minus((2, 0), 1, p)
        assert out[(0, 0)] == v_plus((0, 0), 1, p)
        assert out[(1, 1)] == v_minus((1, 1), 2, p)

    def test_single_particle_ground_state(self):
        p = PARAM_SETS[0]
        out = apply_H(LatticeFunction.delta((0,)), p)
        assert set(out.support()) <= {(0,), (1,)}
        assert out[(1,)] == v_minus((1,), 1, p)


class TestHigherIntegrals:
    def test_V_trivial(self):
        assert V_coeff((), (), (1, 0), PARAM_SETS[0]) == 1

    def test_U_trivial_and_overflow(self):
        p = PARAM_SETS[0]
        assert U_coeff((1, 2), 0, (1, 0), p) == 1
        assert U_coeff((1,), 2, (1, 0), p) == 0

    def test_V_singletons_match_hop_weights(self):
        for p in PARAM_SETS:
            for lam in [(1, 0), (2, 1), (3, 1, 0)]:
                n = len(lam)
                for j in range(1, n + 1):
                    assert V_coeff((j,), (), lam, p) == v_plus(lam, j, p)
                    assert V_coeff((), (j,), lam, p) == v_minus(lam, j, p)

    def test_overlapping_sets_rejected(self):
        with pytest.raises(ParamDomainError):
            V_coeff((1,), (1,), (1, 0), PARAM_SETS[0])

    def test_level_one_reduces_to_H(self):
        rng = random.Random(21)
        p = PARAM_SETS[2]
        for _ in range(20):
            n = rng.randint(1, 3)
            lam = random.Random(rng.random()).choice(partitions_max_weight(n, 4))
            f = LatticeFunction.delta(lam)
            a = apply_Hl(1, f, p)
            b = apply_H(f, p)
            assert a.minus(b).is_zero()

    def test_hop_targets_are_partitions(self):
        p = PARAM_SETS[0]
        for lam in [(2, 0), (1, 1), (3, 2, 1)]:
            n = len(lam)
            for l in range(1, n + 1):
                for term in hop_terms(l, lam, p):
                    assert is_partition(term.target)
                    assert len(term.Jplus) + len(term.Jminus) <= l
                    assert not set(term.Jplus) & set(term.Jminus)

    def test_support_growth_bound(self):
        p = PARAM_SETS[0]
        out = apply_Hl(2, LatticeFunction.delta((1, 1)), p)
        for mu in out.support():
            steps = [abs(mu[i] - 1) for i in range(2)]
            assert max(steps) <= 1
            assert sum(steps) <= 2

    def test_level_out_of_range(self):
        with pytest.raises(ParamDomainError):
            apply_Hl(3, LatticeFunction.delta((1, 0)), PARAM_SETS[0])


class TestHopTableMemo:
    def test_repeated_calls_share_one_table(self):
        p = PARAM_SETS[0]
        table = hop_terms(2, (2, 1, 0), p)
        assert isinstance(table, tuple)
        assert hop_terms(2, [2, 1, 0], p) is table
        assert hop_terms(2, (2, 1, 0), p) == table

    def test_commutator_reuses_tables(self):
        p = PARAM_SETS[0]
        first = commutator_on_delta(1, 2, (1, 0), p)
        before = hop_terms.cache_info()
        again = commutator_on_delta(1, 2, (1, 0), p)
        after = hop_terms.cache_info()
        assert again == first
        assert after.misses == before.misses
        assert after.hits > before.hits

    def test_params_are_part_of_the_key(self):
        lam = (2, 1)
        for p in PARAM_SETS:
            hop_terms(1, lam, p)
        tables = [hop_terms(1, lam, p) for p in PARAM_SETS]
        coeffs = [tuple(term.coefficient for term in table) for table in tables]
        assert len(set(coeffs)) == len(PARAM_SETS)
        for p, table in zip(PARAM_SETS, tables):
            for term in table:
                if term.Jplus:
                    assert term.coefficient == v_plus(lam, term.Jplus[0], p)
                elif term.Jminus:
                    assert term.coefficient == v_minus(lam, term.Jminus[0], p)

    def test_pole_is_named(self):
        p = params_from_hat("1/2", "1/2", ("1/2", "-1/3", "1/5"))
        assert hop_terms(1, (1, 1), p)
        with pytest.raises(PoleError, match=r"lam=\(1, 1\).*\(j, k\) = \(2, 1\)"):
            hop_terms(2, (1, 1), p)


@st.composite
def _lattice_cases(draw):
    p = draw(in_domain_params())
    n = draw(st.integers(1, 3))
    lam = draw(st.sampled_from(partitions_max_weight(n, 3)))
    return p, lam


@settings(deadline=None)
@given(_lattice_cases())
def test_integrals_commute_or_name_a_pole(case):
    p, lam = case
    n = len(lam)
    f = LatticeFunction.delta(lam)
    assert apply_Hl(1, f, p).minus(apply_H(f, p)).is_zero()
    try:
        comms = [commutator_on_delta(l, m, lam, p) for l in range(1, n + 1) for m in range(l + 1, n + 1)]
    except PoleError:
        return
    assert all(c.is_zero() for c in comms)


class TestEpsilon0:
    def test_single_particle(self):
        for p in PARAM_SETS:
            a = p.that0
            assert epsilon0(p, 1) == a + 1 / a

    def test_two_particle_value(self):
        p = params_from_hat("1/3", "1/2", ("1/2", "1/3", "1/5"))
        assert epsilon0(p, 2) == Fraction(27, 4)


class TestCommutators:
    def test_equal_levels(self):
        p = PARAM_SETS[0]
        assert commutator_on_delta(1, 1, (2, 0), p).is_zero()

    def test_two_particles(self):
        for p in PARAM_SETS:
            assert commutator_on_delta(1, 2, (1, 0), p).is_zero()

    def test_three_particles(self):
        p = PARAM_SETS[0]
        assert commutator_on_delta(1, 3, (2, 1, 0), p).is_zero()


class TestLimits:
    def test_symmetrization_identity(self):
        rng = random.Random(31)
        for _ in range(50):
            n = rng.randint(1, 4)
            t = Fraction(rng.randint(1, 9), 10)
            z = []
            while len(z) < n:
                v = Fraction(rng.randint(-30, 30), rng.randint(1, 11))
                if v != 0 and v not in z:
                    z.append(v)
            lhs, rhs = symmetrization_identity_sides(t, tuple(z))
            assert lhs == rhs

    def test_symmetrization_identity_requires_distinct(self):
        with pytest.raises(ParamDomainError):
            symmetrization_identity_sides(Fraction(1, 2), (Fraction(2), Fraction(2)))

    def test_morse_vanishing_exact(self):
        for base in PARAM_SETS:
            reduced = params_from_hat(
                base.q, base.t, (base.that0, base.that1, Fraction(0)), validate=False
            )
            for n in (1, 2):
                report = morse_vanishing_limit_check(reduced, n, 3)
                assert report.ok, report.mismatches[:3]
                assert report.checked > 0

    def test_morse_vanishing_requires_reduced_coupling(self):
        with pytest.raises(ParamDomainError):
            morse_vanishing_limit_check(PARAM_SETS[0], 2, 2)

    def test_ruijsenaars_rate(self):
        p = params_from_hat("1/3", "1/2", ("1/2", "1/3", "1/5"))
        report = ruijsenaars_limit_check(2, p)
        assert all(abs(r - 100.0) <= 10.0 for r in report["error_ratios"])
        tp, tm = report["targets"]
        assert abs(tp * tm - 1.0) < 1e-15

    def test_ruijsenaars_single_particle_trivial(self):
        p = PARAM_SETS[0]
        report = ruijsenaars_limit_check(1, p)
        assert max(report["max_abs_error"]) < 1e-3
