import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rsmorse.checks import ruijsenaars_limit_check, symmetrization_identity_sides
from rsmorse.combinatorics import _hop_coefficient, _stay_sum, check_partition, is_partition, partitions_max_weight
from rsmorse import latticeop
from rsmorse.errors import ParamDomainError, PoleError, RSMorseError
from rsmorse.latticeop import (
    LatticeFunction,
    apply_H,
    apply_Hl,
    commutator_on_delta,
    epsilon0,
    hop_terms,
    morse_vanishing_limit_check,
    norm_ratio,
    v_minus,
    v_plus,
)
from rsmorse.polynomials import build_P, leading_coeff
from rsmorse.qcore import params_from_hat

from conftest import PARAM_SETS, in_domain_params


def _V(Jp, Jm, lam, p):
    """V_{J+,J-}(lam), the coefficient of the hop at level |J+| + |J-|, where U_{rest, 0} = 1,
    over a cold factor table of lam."""
    signs = (1,) * len(Jp) + (-1,) * len(Jm)
    return Fraction(*_hop_coefficient(Jp + Jm, signs, len(signs), latticeop._factors.__wrapped__(lam, p)))


def _U(K, order, lam, p):
    """U_{K,order}(lam) over a cold factor table of lam."""
    return Fraction(*_stay_sum(K, order, latticeop._factors.__wrapped__(lam, p)))


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

    def test_invalid_key(self):
        with pytest.raises(ParamDomainError):
            LatticeFunction(2, {(0, 1): Fraction(1)})

    def test_non_integral_key_rejected(self):
        with pytest.raises(ParamDomainError, match="non-integral"):
            LatticeFunction(2, {(1.7, 0): 1})


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
        v = _V((), (), (1, 0), PARAM_SETS[0])
        assert v == 1 and type(v) is Fraction

    def test_U_trivial_and_overflow(self):
        p = PARAM_SETS[0]
        cases = {((1, 2), 0): 1, ((1,), 2): 0, ((), 1): 0}
        for (K, order), expected in cases.items():
            u = _U(K, order, (1, 0), p)
            assert u == expected and type(u) is Fraction

    def test_V_singletons_match_hop_weights(self):
        for p in PARAM_SETS:
            for lam in [(1, 0), (2, 1), (3, 1, 0)]:
                n = len(lam)
                for j in range(1, n + 1):
                    assert _V((j,), (), lam, p) == v_plus(lam, j, p)
                    assert _V((), (j,), lam, p) == v_minus(lam, j, p)

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
                for target, _ in hop_terms(l, lam, p):
                    assert is_partition(target)
                    step = [b - a for a, b in zip(lam, target)]
                    # each site moves by at most one, so J+ and J- are disjoint
                    assert set(step) <= {-1, 0, 1}
                    assert sum(map(abs, step)) <= l

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

    def test_int_values_match_fraction_twin(self):
        for p in PARAM_SETS:
            for l in (1, 2):
                ints = apply_Hl(l, LatticeFunction(2, {(1, 0): 1}), p)
                fracs = apply_Hl(l, LatticeFunction(2, {(1, 0): Fraction(1)}), p)
                assert ints.values == fracs.values
                assert all(type(v) is Fraction for v in ints.values.values())

    def test_float_values_rejected(self):
        with pytest.raises(ParamDomainError, match=r"0\.5 of type float"):
            apply_Hl(1, LatticeFunction(2, {(1, 0): 0.5}), PARAM_SETS[0])


def _literal_table(lam, p):
    """a_j = q**x_j, the one-body factors up/down and the mixed factors, written out."""
    n = len(lam)
    a = {j: p.t ** (n - j) * p.q ** lam[j - 1] for j in range(1, n + 1)}
    up = {j: (1 - p.t1 * a[j]) * (1 - p.t2 * a[j]) / p.that0 for j in a}
    down = {j: p.that0 * (1 - p.t0 * a[j]) * (1 - a[j]) for j in a}

    def mix_up(j, k):
        r = a[j] / a[k]
        return (1 / p.t - r) / (1 - r)

    def mix_down(j, k):
        r = a[j] / a[k]
        return (p.t - r) / (1 - r)

    return a, up, down, mix_up, mix_down


class TestClosedForms:
    """Coefficients with two hopping sites against formulas written out here."""

    LABELS = [(2, 0), (3, 1), (2, 1, 0), (3, 1, 1)]

    def test_V_two_sites(self):
        for p in PARAM_SETS:
            t, q = p.t, p.q
            for lam in self.LABELS:
                n = len(lam)
                a, up, down, mix_up, mix_down = _literal_table(lam, p)
                for j, k in itertools.permutations(range(1, n + 1), 2):
                    rest = [m for m in range(1, n + 1) if m not in (j, k)]
                    r = a[j] / a[k]
                    cases = {
                        ((j, k), ()): up[j] * up[k] / t,
                        ((), (j, k)): down[j] * down[k] * t,
                        ((j,), (k,)): up[j] * down[k] * (1 - t * r) / (1 - r) * (1 / t - q * r) / (1 - q * r),
                    }
                    for (Jp, Jm), expected in cases.items():
                        for m in rest:
                            for i in Jp:
                                expected *= mix_up(i, m)
                            for i in Jm:
                                expected *= mix_down(i, m)
                        assert _V(Jp, Jm, lam, p) == expected, (lam, Jp, Jm)

    def test_U_first_and_second_order(self):
        for p in PARAM_SETS:
            t, q = p.t, p.q
            for lam in self.LABELS:
                n = len(lam)
                a, up, down, mix_up, mix_down = _literal_table(lam, p)
                for size in range(1, n + 1):
                    for K in itertools.combinations(range(1, n + 1), size):
                        first = 0
                        for j in K:
                            others = [m for m in K if m != j]
                            first += up[j] * math.prod(mix_up(j, m) for m in others)
                            first += down[j] * math.prod(mix_down(j, m) for m in others)
                        assert _U(K, 1, lam, p) == -first
                        second = 0
                        for j, k in itertools.combinations(K, 2):
                            rest = [m for m in K if m not in (j, k)]
                            second += up[j] * up[k] * math.prod(mix_up(i, m) for i in (j, k) for m in rest)
                            second += down[j] * down[k] * math.prod(
                                mix_down(i, m) for i in (j, k) for m in rest
                            )
                        for j, k in itertools.permutations(K, 2):
                            rest = [m for m in K if m not in (j, k)]
                            r = a[j] / a[k]
                            term = up[j] * down[k] * (1 - t * r) / (1 - r) * (1 - q * r / t) / (1 - q * r)
                            for m in rest:
                                term *= mix_up(j, m) * mix_down(k, m)
                            second += term
                        assert _U(K, 2, lam, p) == second, (lam, K)


def _pair_literal(a, p, lam, j, s, k, sk, stay):
    """In-pair factor of sites j, k moved with signs s, sk: U form if stay, else V form."""
    t, q = p.t, p.q
    if s == sk:
        return Fraction(1) if stay else t**-s
    if s < 0:
        j, k = k, j
    r = a[j] / a[k]
    if 1 - q * r == 0:
        factor = "(1 - q r/t)/(1 - q r)" if stay else "(1/t - q r)/(1 - q r)"
        raise PoleError(
            f"pole of H_l at lam={lam}: the factor {factor} of the pair "
            f"(j, k) = ({j}, {k}) divides by 1 - q a_j/a_k = 0"
        )
    head = (1 - q * r / t) if stay else (1 / t - q * r)
    return (1 - t * r) / (1 - r) * head / (1 - q * r)


def _product_literal(lam, p, J, eps, against, stay):
    """One-body, then mixed (against), then in-pair factors over the moved sites J."""
    a, up, down, mix_up, mix_down = _literal_table(lam, p)
    out = Fraction(1)
    for j, s in zip(J, eps):
        out *= up[j] if s > 0 else down[j]
    for j, s in zip(J, eps):
        for m in against:
            out *= mix_up(j, m) if s > 0 else mix_down(j, m)
    for (j, s), (k, sk) in itertools.combinations(zip(J, eps), 2):
        out *= _pair_literal(a, p, lam, j, s, k, sk, stay)
    return out


def _U_literal(K, order, lam, p):
    """U_{K,p} = (-1)^p sum over disjoint I+, I- in K with |I+| + |I-| = p.

    |I+| ascending, then I+, then I-, each term the U-form product over
    I+ followed by I- against the rest of K.
    """
    total = Fraction(0)
    for size in range(order + 1):
        for Ip in itertools.combinations(K, size):
            left = [k for k in K if k not in Ip]
            for Im in itertools.combinations(left, order - size):
                rest = [k for k in left if k not in Im]
                eps = (1,) * len(Ip) + (-1,) * len(Im)
                total += _product_literal(lam, p, Ip + Im, eps, rest, True)
    return (-1) ** order * total


def _hop_terms_literal(l, lam, p):
    """(lam + eps J, U_{J^c, l-|J|} V_{eps J}) for every admissible signed hop, U first."""
    n = len(lam)
    out = []
    for signs in itertools.product((0, 1, -1), repeat=n):
        J = tuple(j for j, s in enumerate(signs, 1) if s)
        eps = tuple(s for s in signs if s)
        target = tuple(x + s for x, s in zip(lam, signs))
        if len(J) > l or not is_partition(target):
            continue
        rest = tuple(k for k in range(1, n + 1) if k not in J)
        u = _U_literal(rest, l - len(J), lam, p)
        out.append((target, u * _product_literal(lam, p, J, eps, rest, False)))
    return out


def _outcome(fn):
    try:
        return list(fn())
    except PoleError as exc:
        return f"PoleError: {exc}"


class TestLiteralReference:
    """hop_terms and the U sums against plain-Fraction sums written from the formulas."""

    PARAMS = PARAM_SETS + [
        params_from_hat("1/2", "1/2", ("1/2", "-1/3", "1/5")),  # q = t
        params_from_hat("3/7", "2/3", ("-5/6", "-1/4", "3/5")),  # that0 < 0
    ]

    def test_hop_terms_equal_reference(self):
        poles = 0
        for p in self.PARAMS:
            for n in (1, 2, 3):
                for lam in partitions_max_weight(n, 4):
                    for l in range(1, n + 1):
                        got = _outcome(lambda: hop_terms(l, lam, p))
                        assert got == _outcome(lambda: _hop_terms_literal(l, lam, p)), (p, l, lam)
                        poles += isinstance(got, str)
        # the q = t set reaches the in-pair pole
        assert poles > 0

    def test_U_equal_reference(self):
        for p in self.PARAMS[:3] + self.PARAMS[4:]:
            for lam in [(2, 1, 0), (3, 1, 1), (4, 0, 0)]:
                for size in range(4):
                    for K in itertools.combinations((1, 2, 3), size):
                        for order in range(size + 2):
                            assert _U(K, order, lam, p) == _U_literal(K, order, lam, p)

    def test_pole_text_at_q_equal_t(self):
        p = self.PARAMS[3]
        expected = _outcome(lambda: _hop_terms_literal(2, (1, 1), p))
        assert expected.startswith("PoleError: pole of H_l at lam=(1, 1)")
        assert _outcome(lambda: hop_terms(2, (1, 1), p)) == expected


def _entry(pair):
    """A factor-table entry as a Fraction, after checking it is reduced with denominator > 0."""
    num, den = pair
    assert den > 0 and math.gcd(num, den) == 1, pair
    return Fraction(num, den)


def _entry_outcome(fn):
    """fn() as a Fraction (an int pair through _entry), or its pole text."""
    try:
        value = fn()
    except PoleError as exc:
        return f"PoleError: {exc}"
    return _entry(value) if isinstance(value, tuple) else value


class TestFactorTable:
    """Every entry of latticeop._factors against the plain-Fraction literal of its formula."""

    # the three fixed sets, q = t (in-pair poles) and that0 < 0 (negative raw denominators)
    PARAMS = TestLiteralReference.PARAMS

    def test_entries_equal_literals(self):
        poles = 0
        for p in self.PARAMS:
            for n in (1, 2, 3):
                sites = range(1, n + 1)
                for lam in partitions_max_weight(n, 4):
                    F = latticeop._factors(lam, p)
                    a, up, down, mix_up, mix_down = _literal_table(lam, p)
                    assert {key: _entry(pair) for key, pair in F.one.items()} == {
                        **{(j, 1): up[j] for j in sites},
                        **{(j, -1): down[j] for j in sites},
                    }, (p, lam)
                    assert {key: _entry(pair) for key, pair in F.mixed.items()} == {
                        **{(j, 1, k): mix_up(j, k) for j, k in itertools.permutations(sites, 2)},
                        **{(j, -1, k): mix_down(j, k) for j, k in itertools.permutations(sites, 2)},
                    }, (p, lam)
                    for j, k in itertools.combinations(sites, 2):
                        for s, sk, stay in itertools.product((1, -1), (1, -1), (True, False)):
                            got = _entry_outcome(lambda: F.pair[j, s, k, sk, stay])
                            assert got == _entry_outcome(lambda: _pair_literal(a, p, lam, j, s, k, sk, stay))
                            poles += isinstance(got, str)
        # the q = t set reaches the in-pair pole
        assert poles > 0


class TestHopTableMemo:
    def test_repeated_calls_share_one_table(self):
        p = PARAM_SETS[0]
        table = hop_terms(2, (2, 1, 0), p)
        assert isinstance(table, tuple)
        assert hop_terms(2, [2, 1, 0], p) is table
        assert hop_terms(2, (2, 1, 0), p) == table

    def test_commutator_reuses_tables(self):
        # apply_Hl reads hop tables through its column memo, so a repeated
        # commutator builds no table and no column, and hits the columns
        p = PARAM_SETS[0]
        first = commutator_on_delta(1, 2, (1, 0), p)
        tables, columns = hop_terms.cache_info(), apply_Hl.cache_info()
        again = commutator_on_delta(1, 2, (1, 0), p)
        assert again == first
        assert hop_terms.cache_info().misses == tables.misses
        assert apply_Hl.cache_info().misses == columns.misses
        assert apply_Hl.cache_info().hits > columns.hits

    def test_params_are_part_of_the_key(self):
        lam = (2, 1)
        for p in PARAM_SETS:
            hop_terms(1, lam, p)
        tables = [hop_terms(1, lam, p) for p in PARAM_SETS]
        coeffs = [tuple(c for _, c in table) for table in tables]
        assert len(set(coeffs)) == len(PARAM_SETS)
        for p, table in zip(PARAM_SETS, tables):
            for target, c in table:
                # a level-1 hop moves one site j by s = target_j - lam_j
                for j, s in enumerate((b - a for a, b in zip(lam, target)), 1):
                    if s:
                        assert c == (v_plus if s > 0 else v_minus)(lam, j, p)

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


@settings(deadline=None)
@given(_lattice_cases())
def test_one_site_equals_literal_table(case):
    p, lam = case
    n = len(lam)
    a, up, down, mix_up, mix_down = _literal_table(lam, p)
    for j in range(1, n + 1):
        others = [k for k in range(1, n + 1) if k != j]
        for got, want in (
            (v_plus(lam, j, p), up[j] * math.prod(mix_up(j, k) for k in others)),
            (v_minus(lam, j, p), down[j] * math.prod(mix_down(j, k) for k in others)),
        ):
            assert got == want, (p, lam, j)
            assert type(got) is Fraction


def _apply_Hl_gather(l, f, p):
    """H_l f summed source by source: every lam an l-hop moves onto a support
    point (all 3^n back-shifts), then the Fraction sum over its hop_terms."""
    n = f.n
    sources = set()
    for nu in f.values:
        for signs in itertools.product((0, 1, -1), repeat=n):
            lam = tuple(x - s for x, s in zip(nu, signs))
            if sum(map(abs, signs)) <= l and is_partition(lam):
                sources.add(lam)
    out = {}
    for lam in sorted(sources):
        total = sum((c * f[target] for target, c in hop_terms(l, lam, p)), Fraction(0))
        if total:
            out[lam] = total
    return out


def _hl_outcome(fn):
    try:
        return fn()
    except PoleError as exc:
        return f"PoleError: {exc}"


@st.composite
def _support_cases(draw):
    p = draw(in_domain_params())
    n = draw(st.integers(1, 3))
    l = draw(st.integers(1, n))
    keys = draw(st.lists(st.sampled_from(partitions_max_weight(n, 3)), min_size=1, max_size=4, unique=True))
    value = st.integers(-4, 4) | st.fractions(-3, 3, max_denominator=9)
    values = draw(st.lists(value, min_size=len(keys), max_size=len(keys)))
    return p, l, LatticeFunction(n, dict(zip(keys, values)))


@settings(deadline=None, max_examples=60)
@given(_support_cases())
def test_apply_Hl_equals_gather_reference(case):
    p, l, f = case
    got = _hl_outcome(lambda: apply_Hl(l, f, p))
    want = _hl_outcome(lambda: _apply_Hl_gather(l, f, p))
    if isinstance(got, str) or isinstance(want, str):
        # a pole is raised by both, and named as the first source in sorted order meets it
        assert got == want, (p, l, f)
        return
    assert got.values == want, (p, l, f)
    # entries in sorted key order, as the gather forms them
    assert list(got.values) == list(want)
    for lam, v in got.values.items():
        assert check_partition(lam, f.n) == lam and type(v) is Fraction


def test_apply_Hl_names_the_first_pole_in_source_order():
    p = params_from_hat("1/2", "1/2", ("1/2", "-1/3", "1/5"))  # q = t
    poles = 0
    for n in (2, 3):
        labels = partitions_max_weight(n, 3)
        for keys in itertools.combinations(labels[::-1], 2):
            f = LatticeFunction(n, dict.fromkeys(keys, 1))
            got = _hl_outcome(lambda: apply_Hl(2, f, p))
            assert got == _hl_outcome(lambda: _apply_Hl_gather(2, f, p)), keys
            poles += isinstance(got, str)
    assert poles > 0


def _column_reference(l, nu, p):
    """The column of (l, nu) read off the full hop table of each source, in the
    order of itertools.product((0, 1, -1), repeat=n) over the back-shifts."""
    column = []
    for signs in itertools.product((0, 1, -1), repeat=len(nu)):
        lam = tuple(x - s for x, s in zip(nu, signs))
        if sum(map(abs, signs)) <= l and is_partition(lam):
            c = dict(hop_terms(l, lam, p))[nu]
            column.append((lam, c.numerator, c.denominator))
    return column


_THAT = ("1/2", "-1/3", "1/5")


def _result(fn):
    """fn(), or the type and text of the package error or ZeroDivisionError it raises.

    The package errors include the ParamDomainError that refuses q = 0,
    t = 0 or 1 and that0 = 0.
    """
    try:
        return fn()
    except (RSMorseError, ZeroDivisionError) as exc:
        return f"{type(exc).__name__}: {exc}"


class TestColumns:
    """Columns form each coefficient from the record of its source and raise the pole its table meets."""

    # q = t, t**2 and t**3: poles from rank 2, 3 and 4 on
    POLE_SETS = [params_from_hat(q, "1/2", _THAT) for q in ("1/2", "1/4", "1/8")]
    # unvalidated q, t outside (0, 1), q = t, t**2 and 1/t among them
    OUTSIDE_SETS = [
        params_from_hat(q, t, _THAT, validate=False)
        for q, t in (
            ("3/2", "1/2"),
            ("1/2", "3/2"),
            ("0", "1/2"),
            ("1/3", "1"),
            ("9/4", "3/2"),
            ("-1/2", "-1/2"),
            ("3/2", "2/3"),
        )
    ]

    def test_entries_equal_hop_tables(self):
        poles = 0
        for p in PARAM_SETS + self.POLE_SETS + self.OUTSIDE_SETS:
            for n in range(1, 5):
                for nu in partitions_max_weight(n, 3):
                    for l in range(1, n + 1):
                        # past the column memo, so that every column is formed here
                        got = _result(lambda: list(latticeop._column.__wrapped__(l, nu, p)))
                        assert got == _result(lambda: _column_reference(l, nu, p)), (p, l, nu)
                        poles += isinstance(got, str)
        assert poles > 0

    def test_rule_outside_the_unit_interval(self):
        # at the empty partition every pair of sites has equal parts; the label
        # rule raises at level 2 exactly when the hop table does
        for p in self.OUTSIDE_SETS:
            for n in (2, 3, 4):
                lam = (0,) * n
                want = _result(lambda: hop_terms(2, lam, p))
                got = _result(lambda: latticeop._checked_factors(2, lam, p))
                assert isinstance(got, str) is isinstance(want, str), (p, n, got, want)
                if isinstance(want, str):
                    assert got == want, (p, n)

    def test_pole_free_apply_builds_no_table(self, monkeypatch):
        # a parameter set no other test reads: every column is formed cold
        p = params_from_hat("2/11", "3/13", ("-2/9", "1/3", "4/5"))
        real = latticeop._hop_coefficient
        formed = []

        def counted(*args):
            formed.append(args)
            return real(*args)

        monkeypatch.setattr(latticeop, "_hop_coefficient", counted)
        for n in (2, 3, 4):
            for nu in partitions_max_weight(n, 2):
                for l in range(1, n + 1):
                    tables, before = hop_terms.cache_info().misses, len(formed)
                    apply_Hl(l, LatticeFunction.delta(nu), p)
                    assert hop_terms.cache_info().misses == tables
                    assert len(formed) - before == len(latticeop._column(l, nu, p))
        # q = t, where the levels l >= 2 have poles: level 1 builds no table either
        p = params_from_hat("3/7", "3/7", ("-2/9", "1/3", "4/5"))
        tables = hop_terms.cache_info().misses
        for nu in partitions_max_weight(3, 3):
            apply_Hl(1, LatticeFunction.delta(nu), p)
        assert hop_terms.cache_info().misses == tables


@st.composite
def _outside_params(draw):
    """Unvalidated rational q, t, not both in (0, 1); q = t**k for k = 1, 2, 3 in half the cases."""
    t = draw(st.fractions(-2, 3, max_denominator=7))
    k = draw(st.integers(0, 5))
    q = t**k if k in (1, 2, 3) else draw(st.fractions(-2, 3, max_denominator=7))
    assume(not (0 < q < 1 and 0 < t < 1))
    return params_from_hat(q, t, _THAT, validate=False)


@settings(deadline=None, max_examples=40)
@given(in_domain_params() | _outside_params())
def test_pole_rule_is_exact(p):
    # every label of weight <= 3 at n <= 4 and every level
    for n in range(1, 5):
        for lam in partitions_max_weight(n, 3):
            for l in range(1, n + 1):
                want = _result(lambda: hop_terms(l, lam, p))
                got = _result(lambda: latticeop._checked_factors(l, lam, p))
                if isinstance(want, str):
                    assert got == want, (p, l, lam)
                else:
                    assert not isinstance(got, str), (p, l, lam, got)


class TestBoundary:
    """q = 0, t = 0 or 1 and that0 = 0, admitted by params_from_hat(validate=False),
    are refused by name where the hop factors and the norm ratios are formed."""

    BOUNDARY = [
        ("0", "1/2", "1/2", "q"),
        ("1/3", "1", "1/2", "t"),
        ("1/3", "0", "1/2", "t"),
        ("1/3", "1/2", "0", "that0"),
    ]

    @pytest.mark.parametrize("q, t, that0, name", BOUNDARY)
    def test_refused_by_name(self, q, t, that0, name):
        # hop_terms(1, (1, 0)) raised Fraction(-1, 0), Fraction(3, 0) and Fraction(36, 0) at
        # q = 0, t = 0 and that0 = 0, and norm_ratio((1, 0)) raised Fraction(0, 0) at t = 1
        p = params_from_hat(q, t, (that0, "-1/3", "1/5"), validate=False)
        calls = [
            lambda: hop_terms(1, (1, 0), p),
            lambda: hop_terms(2, (1, 0), p),
            lambda: apply_Hl(1, LatticeFunction.delta((1, 0)), p),
            lambda: norm_ratio((1, 0), p),
        ]
        for call in calls:
            with pytest.raises(RSMorseError) as exc:
                call()
            assert isinstance(exc.value, ParamDomainError)
            assert str(exc.value).startswith(f"parameter {name} ")

    @pytest.mark.parametrize("entry", ["v_plus", "v_minus", "apply_H", "leading_coeff", "build_P"])
    @pytest.mark.parametrize("q, t, that0, name", BOUNDARY)
    def test_closed_forms_refused_by_name(self, entry, q, t, that0, name):
        # v_plus and apply_H raised Fraction(396, 0) at that0 = 0 and Fraction(3240, 0) at
        # t = 0, and apply_H, leading_coeff and build_P raised Fraction(0, 0) at t = 1; build_P
        # returned the zero polynomial at t = 0 and that0 = 0, and at q = 0 gave up after its resamples
        p = params_from_hat(q, t, (that0, "-1/3", "1/5"), validate=False)
        calls = {
            "v_plus": lambda: v_plus((1, 0), 1, p),
            "v_minus": lambda: v_minus((1, 0), 1, p),
            "apply_H": lambda: apply_H(LatticeFunction.delta((1, 0)), p),
            "leading_coeff": lambda: leading_coeff((1, 0), p),
            "build_P": lambda: build_P((1, 0), p),
        }
        with pytest.raises(ParamDomainError, match=f"^parameter {name} "):
            calls[entry]()

    def test_vanishing_morse_coupling_admitted(self):
        # that2 = 0, the reduction of criterion 08 and verify limits
        for base in PARAM_SETS:
            p = params_from_hat(base.q, base.t, (base.that0, base.that1, 0), validate=False)
            assert p.t0 == p.t1 == 0
            assert hop_terms(1, (1, 0), p) and norm_ratio((1, 0), p)


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

    def test_morse_vanishing_names_each_mismatch(self, monkeypatch):
        # a wrong up and down coefficient show as their own rows, and in the diagonal
        p = PARAM_SETS[0]
        reduced = params_from_hat(p.q, p.t, (p.that0, p.that1, Fraction(0)), validate=False)
        real_up, real_down = latticeop.v_plus, latticeop.v_minus
        monkeypatch.setattr(latticeop, "v_plus", lambda lam, j, params: real_up(lam, j, params) + 1)
        monkeypatch.setattr(latticeop, "v_minus", lambda lam, j, params: real_down(lam, j, params) + 1)
        report = morse_vanishing_limit_check(reduced, 1, 1)
        assert not report.ok
        assert report.checked == 6
        assert [row[:3] for row in report.mismatches] == [
            ("up", (0,), 1),
            ("down", (0,), 1),
            ("diag", (0,), None),
            ("up", (1,), 1),
            ("down", (1,), 1),
            ("diag", (1,), None),
        ]
        for kind, _, _, got, reduced_value in report.mismatches:
            assert got - reduced_value == (-2 if kind == "diag" else 1)

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
