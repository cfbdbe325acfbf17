import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rsmorse.combinatorics import is_partition, orbit, partitions_max_weight
from rsmorse.errors import DegeneracyError, ParamDomainError, StructureError
from rsmorse.latticeop import LatticeFunction, epsilon0, v_minus, v_plus
from rsmorse import spectral
from rsmorse.qcore import params_from_hat, qpoch_finite, qpoch_infinite
from rsmorse.spectral import (
    QuadSpec,
    conjugated_H_matrix,
    detailed_balance_residual,
    evaluate_P_grid,
    evolve,
    fourier_forward,
    fourier_inverse,
    gram_report,
    norm_Delta,
    norm_delta0_n,
    norm_ratio,
    weight_grid,
)

from conftest import PARAM_SETS, family_for, in_domain_params


def _count_calls(monkeypatch, name):
    """Replace spectral.<name> by a wrapper that records its first argument."""
    real = getattr(spectral, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(spectral, name, counted)
    return calls


def _weight_oracle(xi, p, terms=200):
    """Independent long-product evaluation of the spectral density."""
    n = len(xi)
    q = float(p.q)
    t = float(p.t)
    total = (2.0 * math.pi) ** (-n)

    def qprod(x):
        out = 1.0
        for l in range(terms):
            out *= 1.0 - x * q**l
        return out

    for j in range(n):
        zj = complex(math.cos(xi[j]), math.sin(xi[j]))
        num = qprod(zj * zj)
        den = 1.0
        for th in p.that:
            den *= qprod(float(th) * zj)
        total *= abs(num / den) ** 2
    for j in range(n):
        for k in range(j + 1, n):
            for zz in (
                complex(math.cos(xi[j] + xi[k]), math.sin(xi[j] + xi[k])),
                complex(math.cos(xi[j] - xi[k]), math.sin(xi[j] - xi[k])),
            ):
                total *= abs(qprod(zz) / qprod(t * zz)) ** 2
    return total


class TestWeight:
    def test_positive_on_random_alcove_points(self):
        rng = random.Random(8)
        for p in PARAM_SETS:
            pts = []
            while len(pts) < 1000:
                xi = sorted((rng.uniform(1e-3, math.pi - 1e-3) for _ in range(2)), reverse=True)
                if abs(xi[0] - xi[1]) > 1e-6:
                    pts.append(xi)
            vals = weight_grid(pts, p)
            assert np.all(vals > 0)

    def test_matches_long_product_oracle(self):
        p = PARAM_SETS[0]
        xi = (2.0, 1.0)
        assert abs(weight_grid([xi], p, tol=1e-16)[0] - _weight_oracle(xi, p)) < 1e-12

    def test_even_under_reflection(self):
        p = PARAM_SETS[1]
        a, b, c = weight_grid([(2.0, 1.0), (-2.0, 1.0), (1.0, 2.0)], p)
        assert abs(a - b) < 1e-13
        assert abs(a - c) < 1e-13

    @pytest.mark.parametrize("tol", [0.0, -1.0, float("nan"), float("inf")])
    def test_bad_tolerance_rejected(self, tol):
        with pytest.raises(ParamDomainError, match="tolerance"):
            weight_grid([(2.0, 1.0)], PARAM_SETS[0], tol)

    def test_grid_equals_row_by_row(self):
        # one-body factors once per distinct angle, (xi_j + xi_k) pair factors
        # once per distinct sum (each sum occurs twice here): no bit may move
        p = PARAM_SETS[0]
        points, _ = QuadSpec(24).grid(2)
        rows = np.concatenate([weight_grid([xi], p) for xi in points])
        assert np.array_equal(weight_grid(points, p), rows)

    def test_shuffled_repeated_angles_equal_row_by_row(self, any_params):
        rng = np.random.default_rng(22)
        angles = rng.uniform(-math.pi, math.pi, 7)
        # repeated angles repeat the pair sums too, in no order
        points = rng.choice(angles, size=(60, 3))
        rows = np.concatenate([weight_grid([xi], any_params) for xi in points])
        assert np.array_equal(weight_grid(points, any_params), rows)

    @pytest.mark.parametrize("points", [[], np.zeros((0, 0)), np.zeros((4, 0))], ids=["list", "0x0", "4x0"])
    def test_zero_width_rejected(self, points):
        with pytest.raises(ParamDomainError, match="width 0"):
            weight_grid(points, PARAM_SETS[0])

    def test_no_points_give_no_weights(self):
        out = weight_grid(np.zeros((0, 2)), PARAM_SETS[0])
        assert out.shape == (0,)


def _norm_ratio_literal(lam, p):
    """The product formula of norm_ratio on plain Fractions, one qpoch_finite per symbol."""
    n = len(lam)
    q, t = p.q, p.t
    a0, a1, a2 = p.that
    out = Fraction(1)
    for j in range(1, n + 1):
        lj, tp = lam[j - 1], t ** (n - j)
        out *= qpoch_finite(a0 * a1 * tp, lj, q) * qpoch_finite(a0 * a2 * tp, lj, q)
        out /= a0 ** (2 * lj) * tp ** (2 * lj) * qpoch_finite(q * tp, lj, q) * qpoch_finite(a1 * a2 * tp, lj, q)
    for j in range(1, n + 1):
        for k in range(j + 1, n + 1):
            d = lam[j - 1] - lam[k - 1]
            out *= (1 - t ** (k - j) * q**d) / (1 - t ** (k - j))
            out *= qpoch_finite(t ** (1 + k - j), d, q) / qpoch_finite(q * t ** (k - j - 1), d, q)
    return out


@st.composite
def _norm_cases(draw):
    p = draw(in_domain_params())
    n = draw(st.integers(1, 3))
    return p, draw(st.sampled_from(partitions_max_weight(n, 3)))


@settings(deadline=None)
@given(_norm_cases())
def test_norm_ratio_equals_literal_on_the_domain(case):
    p, lam = case
    assert norm_ratio(lam, p) == _norm_ratio_literal(lam, p)


class TestNormRatioLiteral:
    """norm_ratio on integer parts against the plain-Fraction product of its formula."""

    def test_equals_literal(self):
        for p in PARAM_SETS:
            for n in (1, 2, 3, 4):
                for lam in partitions_max_weight(n, 5):
                    got = norm_ratio(lam, p)
                    assert type(got) is Fraction
                    assert got == _norm_ratio_literal(lam, p), (p, lam)

    @pytest.mark.parametrize(
        "hat, lam, text",
        [
            # that1 that2 = 1: (that1 that2 t^(n-j))_(lam_j) vanishes at j = n
            (("1/4", "1/3", ("1/2", "2", "1/2")), (1,), "vanishing norm denominator at lam=(1,), j=1"),
            (("1/4", "1/3", ("1/2", "2", "1/2")), (2, 1), "vanishing norm denominator at lam=(2, 1), j=2"),
            # q t = 1: (q t^(k-j-1))_d vanishes for k - j = 2
            (("2", "1/2", ("1/2", "-1/3", "1/5")), (1, 0, 0), "vanishing norm denominator at lam=(1, 0, 0), pair (1,3)"),
            # and (q t^2)_2 = (1 - q t^2)(1 - q^2 t^2) at j = 1 vanishes first
            (("2", "1/2", ("1/2", "-1/3", "1/5")), (2, 1, 0), "vanishing norm denominator at lam=(2, 1, 0), j=1"),
        ],
    )
    def test_degeneracy_texts(self, hat, lam, text):
        # off the domain: params_from_hat(validate=False), as boundary studies build them
        p = params_from_hat(*hat, validate=False)
        with pytest.raises(DegeneracyError) as exc:
            norm_ratio(lam, p)
        assert str(exc.value) == text


class TestNorms:
    def test_ratio_at_origin(self):
        for p in PARAM_SETS:
            assert norm_ratio((0, 0), p) == 1

    def test_single_variable_ratio(self):
        for p in PARAM_SETS:
            a0, a1, a2 = p.that
            q = p.q
            expected = ((1 - a0 * a1) * (1 - a0 * a2)) / (a0**2 * (1 - q) * (1 - a1 * a2))
            assert norm_ratio((1,), p) == expected

    def test_detailed_balance_exact(self):
        for p in PARAM_SETS:
            for n in (1, 2, 3):
                for lam in partitions_max_weight(n, 4):
                    for j in range(1, n + 1):
                        up = list(lam)
                        up[j - 1] += 1
                        if not is_partition(up):
                            continue
                        r = detailed_balance_residual(lam, j, p)
                        assert isinstance(r, Fraction)
                        assert r == 0

    @pytest.mark.parametrize("j", [0, 4])
    def test_balance_site_out_of_range(self, j):
        # j = 0 used to move the last part through up[-1], j = n + 1 raised IndexError
        with pytest.raises(ParamDomainError, match=r"sites \(%d,\) must be distinct and in 1..3" % j):
            detailed_balance_residual((1, 0, 0), j, PARAM_SETS[0])

    def test_delta0_outside_double_precision(self):
        # at q = 999/1000 the prefactor underflows to 0.0, which gram_report divided by
        p = params_from_hat("999/1000", "1/3", ("1/2", "-1/3", "1/5"))
        with pytest.raises(ParamDomainError, match="prefactor at n=1"):
            norm_delta0_n(1, p)

    def test_delta0_positive_and_cached(self):
        p = PARAM_SETS[0]
        a = norm_delta0_n(2, p)
        assert a > 0
        assert norm_delta0_n(2, p) == a

    def test_delta0_single_variable_product(self):
        p = PARAM_SETS[0]
        q, t = float(p.q), float(p.t)
        th = [float(v) for v in p.that]
        expected = qpoch_infinite(q, q)
        for r in range(3):
            for s in range(r + 1, 3):
                expected *= qpoch_infinite(th[r] * th[s], q)
        assert abs(norm_delta0_n(1, p) - expected) < 1e-12

    def test_norm_value_split(self):
        p = PARAM_SETS[2]
        assert norm_Delta((2,), p) == norm_delta0_n(1, p) * float(norm_ratio((2,), p))
        assert norm_ratio((0,), p) == 1


class TestQuadSpec:
    def test_rule_solved_once_per_instance(self, monkeypatch):
        calls = []
        real = np.polynomial.legendre.leggauss

        def counting(deg):
            calls.append(deg)
            return real(deg)

        monkeypatch.setattr(np.polynomial.legendre, "leggauss", counting)
        quad = QuadSpec(nodes=17)
        points, wgt = quad.grid(2)
        wgt *= 0.0
        again, wgt2 = quad.grid(2)
        assert calls == [17]
        assert np.array_equal(points, again)
        assert abs(wgt2.sum() - math.pi**2) < 1e-12
        assert quad == QuadSpec(nodes=17) and hash(quad) == hash(QuadSpec(nodes=17))

    @pytest.mark.parametrize("nodes", [0, 2.5])
    def test_bad_node_count_rejected(self, nodes):
        with pytest.raises(ParamDomainError, match="nodes"):
            QuadSpec(nodes=nodes)

    def test_integral_node_types_pass(self):
        assert QuadSpec(nodes=np.int64(3)).grid(1)[0].shape == (3, 1)

    @pytest.mark.parametrize("nodes", [spectral.MAX_QUAD_NODES + 1, 10**8, np.int64(10**8)])
    def test_rule_past_the_node_bound_refused(self, nodes):
        with pytest.raises(ParamDomainError, match=f"rule of {nodes} nodes exceeds the bound of 1000"):
            QuadSpec(nodes=nodes)

    # just past the bound, so a missing refusal costs tens of MB, not the grid of 1000^3 points
    @pytest.mark.parametrize("nodes, n", [(101, 3), (32, 4), (16, 5)])
    def test_grid_past_the_point_bound_refused(self, nodes, n):
        quad = QuadSpec(nodes=nodes)
        with pytest.raises(ParamDomainError, match=rf"grid of {nodes}\^{n} = {nodes**n} points exceeds"):
            quad.grid(n)
        assert "_rule" not in vars(quad)  # refused before the rule was solved

    def test_bounds_admit_the_counts_in_use(self):
        # the CLI defaults (200 at n = 1, 120 at n = 2), the forced n = 3 runs and the test grids
        assert 200 <= spectral.MAX_QUAD_NODES
        for nodes, n in [(200, 1), (120, 2), (24, 3), (20, 3), (17, 2), (12, 2)]:
            assert nodes**n <= spectral.MAX_QUAD_POINTS


def _monomial_grid_literal(mu, points):
    """The orbit sum of m_mu, one complex exponential per orbit element."""
    mono = np.zeros(points.shape[0])
    for nu in orbit(mu):
        mono = mono + np.exp(1j * (points @ np.asarray(nu, dtype=float))).real
    return mono


class TestMonomialGrid:
    """nu and -nu share one cosine grid; no bit may move against the exponential sum."""

    @pytest.mark.parametrize("n, nodes, weight", [(1, 200, 8), (2, 120, 6), (3, 24, 4)])
    def test_equals_the_exponential_sum(self, n, nodes, weight):
        points, _ = QuadSpec(nodes).grid(n)
        rng = np.random.default_rng(26 + n)
        shuffled = rng.permutation(points) * rng.choice((-1.0, 1.0), size=points.shape)
        drawn = rng.uniform(-2 * math.pi, 2 * math.pi, size=(500, n))
        for mu in partitions_max_weight(n, weight):
            for pts in (points, shuffled, drawn):
                assert np.array_equal(spectral._monomial_grid(mu, pts), _monomial_grid_literal(mu, pts))

    def test_one_cosine_per_pair(self, monkeypatch):
        taken = []
        real = np.cos

        def counting(x, *args, **kwargs):
            taken.append(x.shape)
            return real(x, *args, **kwargs)

        monkeypatch.setattr(spectral.np, "cos", counting)
        points, _ = QuadSpec(6).grid(3)
        for mu, pairs in [((0, 0, 0), 1), ((1, 0, 0), 3), ((2, 1, 0), 12), ((3, 2, 1), 24)]:
            taken.clear()
            spectral._monomial_grid(mu, points)
            assert len(taken) == pairs == (len(orbit(mu)) + 1) // 2


class TestOrthogonality:
    def test_single_variable_norm(self):
        p = PARAM_SETS[0]
        fam = family_for(p)
        quad = QuadSpec(nodes=200)
        g = gram_report([(0,)], fam, quad)[0]["value"]
        target = 1.0 / norm_Delta((0,), p)
        assert abs(g - target) / target < 1e-8

    def test_single_variable_off_diagonal(self):
        p = PARAM_SETS[0]
        fam = family_for(p)
        quad = QuadSpec(nodes=200)
        dl = norm_Delta((1,), p)
        dm = norm_Delta((3,), p)
        off = gram_report([(1,), (3,)], fam, quad)[1]
        assert (off["lambda"], off["mu"]) == ([1], [3])
        assert abs(off["value"]) < 1e-8 / math.sqrt(dl * dm)

    def test_report_shape(self):
        p = PARAM_SETS[1]
        fam = family_for(p)
        rows = gram_report([(0,), (1,)], fam, QuadSpec(nodes=120))
        assert len(rows) == 3
        assert all(
            set(r) == {"lambda", "mu", "value", "target", "abs_err", "rel_err"} for r in rows
        )
        assert max(r["rel_err"] for r in rows) < 1e-8

    def test_two_variable_norm(self):
        p = PARAM_SETS[0]
        fam = family_for(p)
        quad = QuadSpec(nodes=120)
        g = gram_report([(1, 0)], fam, quad)[0]["value"]
        target = 1.0 / norm_Delta((1, 0), p)
        assert abs(g - target) / target < 1e-6


class TestGramTable:
    def test_one_grid_per_table(self, monkeypatch):
        fam = family_for(PARAM_SETS[0])
        labels = partitions_max_weight(2, 4)
        weights = _count_calls(monkeypatch, "weight_grid")
        grids = _count_calls(monkeypatch, "_monomial_grid")
        norms = _count_calls(monkeypatch, "norm_Delta")
        rows = gram_report(labels, fam, QuadSpec(nodes=120))
        assert len(labels) == 9
        assert len(rows) == 45
        assert len(weights) == 1
        # one grid per distinct monomial of the nine P_lam, shared by all of them
        assert sorted(grids) == sorted(labels)
        assert sorted(norms) == sorted(labels)

    @pytest.mark.parametrize(
        "n, nodes, labels",
        [
            (1, 200, [(k,) for k in range(7)]),
            (2, 120, partitions_max_weight(2, 4)),
            (3, 24, partitions_max_weight(3, 2)),
        ],
        ids=["n1", "n2", "n3"],
    )
    def test_matches_per_pair_sum(self, any_params, n, nodes, labels):
        fam = family_for(any_params)
        quad = QuadSpec(nodes=nodes, tol=1e-12)
        points, wgt = quad.grid(n)
        rho = weight_grid(points, any_params, quad.tol)
        grids = {lam: evaluate_P_grid(fam.P(lam), points) for lam in labels}
        rows = gram_report(labels, fam, quad)
        assert len(rows) == len(labels) * (len(labels) + 1) // 2
        for row in rows:
            lam, mu = tuple(row["lambda"]), tuple(row["mu"])
            ref = float(np.dot(wgt, grids[lam] * grids[mu] * rho)) / math.factorial(n)
            assert abs(row["value"] - ref) <= 1e-15

    def test_mixed_rank_rejected(self):
        fam = family_for(PARAM_SETS[0])
        with pytest.raises(ParamDomainError, match=r"mixed rank \[1, 2\]"):
            gram_report([(1,), (1, 0)], fam, QuadSpec(nodes=20))

    def test_empty_labels(self):
        assert gram_report([], family_for(PARAM_SETS[0]), QuadSpec(nodes=20)) == []


class TestFourier:
    def test_forward_of_ground_delta(self):
        p = PARAM_SETS[0]
        fam = family_for(p)
        pts = np.array([[0.5], [1.3], [2.9]])
        got = fourier_forward(LatticeFunction.delta((0,)), pts, fam)
        assert np.allclose(got, norm_Delta((0,), p), rtol=0, atol=1e-15)

    def test_forward_linearity(self):
        p = PARAM_SETS[1]
        fam = family_for(p)
        pts = np.array([[0.4], [2.2]])
        f1 = LatticeFunction.delta((1,))
        f2 = LatticeFunction.delta((3,))
        combined = fourier_forward(f1.scaled(Fraction(2)).plus(f2), pts, fam)
        separate = 2 * fourier_forward(f1, pts, fam) + fourier_forward(f2, pts, fam)
        assert np.allclose(combined, separate, rtol=0, atol=1e-12)

    def test_roundtrip_single_site(self):
        p = PARAM_SETS[0]
        fam = family_for(p)
        quad = QuadSpec(nodes=200)
        pts, _ = quad.grid(1)
        fhat = fourier_forward(LatticeFunction.delta((2,)), pts, fam)
        for mu in [(0,), (1,), (2,), (3,)]:
            got = fourier_inverse(fhat, mu, fam, quad)
            target = 1.0 if mu == (2,) else 0.0
            assert abs(got - target) < 1e-6

    def test_inverse_grid_mismatch(self):
        p = PARAM_SETS[0]
        fam = family_for(p)
        with pytest.raises(ParamDomainError):
            fourier_inverse(np.zeros(7), (0,), fam, QuadSpec(nodes=20))

    def test_points_of_the_wrong_width_are_refused(self):
        fam = family_for(PARAM_SETS[0])
        with pytest.raises(ParamDomainError, match="width 1, the rank is 2"):
            evaluate_P_grid(fam.P((2, 1)), [(0.3,)])
        with pytest.raises(ParamDomainError, match="width 3, the rank is 2"):
            fourier_forward(LatticeFunction.delta((1, 0)), np.zeros((5, 3)), fam)

    def test_forward_shares_grids_and_equals_the_sum(self, monkeypatch):
        p = PARAM_SETS[1]
        fam = family_for(p)
        labels = partitions_max_weight(2, 3)
        f = LatticeFunction(2, {lam: Fraction(k + 1, 3) for k, lam in enumerate(labels)})
        points, _ = QuadSpec(12).grid(2)
        ref = np.zeros(len(points))
        for lam, val in f.values.items():
            ref = ref + float(val) * norm_Delta(lam, p) * evaluate_P_grid(fam.P(lam), points)
        grids = _count_calls(monkeypatch, "_monomial_grid")
        assert np.array_equal(fourier_forward(f, points, fam), ref)
        assert sorted(grids) == sorted(labels)

    def test_evaluate_P_grid_matches_pointwise(self):
        p = PARAM_SETS[2]
        fam = family_for(p)
        poly = fam.P((2, 1))
        xi = (1.2, 0.4)
        z = tuple(complex(math.cos(v), math.sin(v)) for v in xi)
        grid_val = evaluate_P_grid(poly, [xi])[0]
        assert abs(grid_val - poly.evaluate(z).real) < 1e-12


class TestConjugated:
    def test_single_site_matrix(self):
        for p in PARAM_SETS:
            conj = conjugated_H_matrix(1, 0, p, n=1)
            expected = float(-(v_plus((0,), 1, p) + v_minus((0,), 1, p)) + epsilon0(p, 1))
            assert conj.matrix.shape == (1, 1)
            assert conj.matrix[0, 0] == expected

    def test_exactly_symmetric(self):
        for p in PARAM_SETS:
            for n, l in [(1, 1), (2, 1), (2, 2)]:
                mat = conjugated_H_matrix(l, 4, p, n=n).matrix
                assert np.array_equal(mat, mat.T)

    def test_one_norm_ratio_per_label(self, monkeypatch):
        ratios = _count_calls(monkeypatch, "norm_ratio")
        conj = conjugated_H_matrix(1, 12, PARAM_SETS[0], n=2)
        assert len(conj.labels) == 49
        assert sorted(ratios) == sorted(conj.labels)

    def test_scaled_hop_breaks_detailed_balance(self, monkeypatch):
        real = spectral.hop_terms

        def scaled(l, lam, params):
            terms = real(l, lam, params)
            if lam != (1, 0):
                return terms
            return tuple((target, 2 * c if target == (2, 0) else c) for target, c in terms)

        monkeypatch.setattr(spectral, "hop_terms", scaled)
        with pytest.raises(StructureError, match=r"detailed balance fails on hop \(1, 0\) -> \(2, 0\)"):
            conjugated_H_matrix(1, 4, PARAM_SETS[0], n=2)

    def test_one_sided_hop_is_refused(self, monkeypatch):
        real = spectral.hop_terms

        def no_way_down(l, lam, params):
            # keep (0, 0) -> (1, 0), drop its reverse
            terms = real(l, lam, params)
            return terms if lam == (0, 0) else tuple((target, c) for target, c in terms if target != (0, 0))

        monkeypatch.setattr(spectral, "hop_terms", no_way_down)
        message = r"one-sided hop \(0, 0\) -> \(1, 0\): no reverse coefficient"
        with pytest.raises(StructureError, match=message):
            conjugated_H_matrix(1, 2, PARAM_SETS[0], n=2)

    def test_opposite_signs_are_refused(self, monkeypatch):
        # flip the norm ratio of (1, 0) and every hop out of it: detailed
        # balance still holds, but the opposite hops differ in sign
        real_hops, real_ratio = spectral.hop_terms, spectral.norm_ratio

        def flipped(l, lam, params):
            terms = real_hops(l, lam, params)
            return tuple((t, -c if t != lam else c) for t, c in terms) if lam == (1, 0) else terms

        def ratio(lam, params):
            return -real_ratio(lam, params) if lam == (1, 0) else real_ratio(lam, params)

        monkeypatch.setattr(spectral, "hop_terms", flipped)
        monkeypatch.setattr(spectral, "norm_ratio", ratio)
        with pytest.raises(StructureError, match=r"opposite hop coefficients differ in sign on .*\(1, 0\)"):
            conjugated_H_matrix(1, 2, PARAM_SETS[0], n=2)

    def test_spectrum_in_multiplier_range(self):
        # the conjugated operator is unitarily a multiplication by
        # Ehat + eps0 = sum_j 2 cos xi_j, so eigenvalues must sit in
        # [-2n, 2n] up to truncation leakage
        p = PARAM_SETS[0]
        conj = conjugated_H_matrix(1, 12, p, n=1)
        evals = np.linalg.eigvalsh(conj.matrix)
        assert evals.min() >= -2 - 1e-3
        assert evals.max() <= 2 + 1e-3

    def test_dropped_hops_reported(self):
        p = PARAM_SETS[0]
        conj = conjugated_H_matrix(1, 3, p, n=1)
        assert any(tuple(d["source"]) == (3,) for d in conj.dropped)


class TestEvolve:
    def test_time_zero_echo(self):
        p = PARAM_SETS[0]
        out = evolve({(0,): 1.0, (2,): 0.5j}, 0.0, 10, p, n=1)
        assert abs(out[(0,)] - 1.0) < 1e-14
        assert abs(out[(2,)] - 0.5j) < 1e-14

    def test_norm_preserved(self):
        for p in PARAM_SETS:
            out = evolve({(0,): 1.0, (2,): 0.5j}, 1.7, 12, p, n=1)
            norm = math.sqrt(sum(abs(v) ** 2 for v in out.values()))
            assert abs(norm - math.sqrt(1.25)) < 1e-10

    def test_composition(self):
        p = PARAM_SETS[1]
        one = evolve({(0, 0): 1.0}, 1.9, 6, p, n=2)
        half = evolve({(0, 0): 1.0}, 0.8, 6, p, n=2)
        # the intermediate vector spreads out to the truncation boundary
        with pytest.warns(RuntimeWarning, match="leakage"):
            two = evolve(half, 1.1, 6, p, n=2)
        keys = set(one) | set(two)
        worst = max(abs(one.get(k, 0) - two.get(k, 0)) for k in keys)
        assert worst < 1e-9

    def test_support_beyond_cutoff_rejected(self):
        with pytest.raises(ParamDomainError):
            evolve({(5,): 1.0}, 1.0, 3, PARAM_SETS[0], n=1)

    def test_rank_mismatch_names_both_ranks(self):
        with pytest.raises(ParamDomainError, match=r"\(0, 0\) has rank 2, not the rank n=1"):
            evolve({(0, 0): 1.0}, 1.0, 4, PARAM_SETS[0], n=1)

    def test_boundary_support_warns(self):
        with pytest.warns(RuntimeWarning, match="leakage"):
            evolve({(3,): 1.0}, 1.0, 3, PARAM_SETS[0], n=1)

    def test_lattice_function_input(self):
        p = PARAM_SETS[0]
        out = evolve(LatticeFunction.delta((1,)), 0.3, 8, p, n=1)
        norm = math.sqrt(sum(abs(v) ** 2 for v in out.values()))
        assert abs(norm - 1.0) < 1e-10
