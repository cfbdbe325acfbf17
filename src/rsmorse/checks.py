"""Exact case checks of the paper's claims, shared by the verify suites and the acceptance criteria.

A case is one record {"case": name, "pass": bool, "detail": text}, and a
`rsmorse verify` report lists the records of its suite as they come.
pieri_cases, qdiff_cases, commute_cases and balance_cases return the
records of the labels, points and seeds a caller passes;
nonneg_violations lists the failing eigenvalues, and nonneg_cases turns
them into the one record of `verify nonneg`.

degenerations is the one engine of the three limits: the Morse-vanishing
reduction (qcore.morse_vanishing_params, checked by
latticeop.morse_vanishing_limit_check), the symmetrization identity and
the linear rate of the pair-potential limit.  `verify limits`
(limit_cases) and acceptance criterion 08 pass it their own boxes, draws
and seeds.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

# layer calls go through their modules: a traced benchmark run wraps the module attributes to count them
from . import combinatorics, dualop, latticeop, polynomials, qcore
from .errors import ParamDomainError

def _case(name, ok, detail=""):
    return {"case": name, "pass": bool(ok), "detail": detail}


def pieri_cases(family, labels, points):
    """Lattice Pieri recurrence of the family at each label, level and point.

    A PolynomialFamily builds its P from this recurrence, so the checks
    pass it a FittedFamily, whose P come from the eigen-solve.
    """
    return [
        _case(f"pieri l={l} lam={lam} z={tuple(map(str, z))}", r == 0, f"residual={r}")
        for l, lam, z, r in polynomials.pieri_residuals(family, labels, points)
    ]


def qdiff_cases(family, labels):
    """Dual eigen-identity Hhat_l P_lam = E_(lam,l) P_lam at each label and level.

    Hhat_l is fitted at the family seed + 1.  For a label the family
    builds by the eigen-solve fallback (a pole of H_l, as at q = t^k, or
    a vanishing top hop), the l = 1 check is then not read back from the
    very matrix P was solved from; the Pieri recursion reads no dual
    matrix.
    """
    params = family.params
    cases = []
    for lam in labels:
        poly = family.P(lam)
        for l in range(1, len(lam) + 1):
            lhs = dualop.apply_Hhat_l(l, poly, params, seed=family.seed + 1)
            diff = lhs.minus(poly.scaled(combinatorics.eval_E_l(lam, l, params)))
            detail = "exact zero" if diff.is_zero() else f"nonzero on {diff.support()}"
            cases.append(_case(f"qdiff l={l} lam={lam}", diff.is_zero(), detail))
    return cases


def commute_cases(params, labels, root, seed):
    """Commutators of the lattice and of the dual integrals.

    Lattice [H_l, H_m] (l <= m) on the delta at each label, then dual
    [Hhat_l, Hhat_m] (l < m) on each monomial of the ideal of root, fitted
    with seed.
    """
    cases = []
    for lam0 in labels:
        for l in range(1, len(lam0) + 1):
            for m in range(l, len(lam0) + 1):
                comm = latticeop.commutator_on_delta(l, m, lam0, params)
                detail = "exact zero" if comm.is_zero() else f"support {comm.support()}"
                cases.append(_case(f"lattice [H_{l},H_{m}] at {lam0}", comm.is_zero(), detail))
    n = len(root)
    # fit each level's whole box once up front, not one weight per monomial;
    # at n = 1 there is no pair l < m, so nothing is fitted
    if n > 1:
        for l in range(1, n + 1):
            dualop.dual_matrix(l, n, params, seed).grow(sum(root))
    for l in range(1, n + 1):
        for m in range(l + 1, n + 1):
            ok = all(
                dualop.commutator_on_monomial(l, m, mu, params, seed).is_zero()
                for mu in combinatorics.ideal(root)
            )
            cases.append(_case(f"dual [Hhat_{l},Hhat_{m}] on ideal({root})", ok))
    return cases


def nonneg_violations(params, labels):
    """Violations of E_(lam,l) >= 0 and of its two-route agreement.

    (lam, l, value) for a negative value, (lam, l, "route mismatch") where
    the product formula and the E_(l,n) route disagree.
    """
    bad = []
    for lam in labels:
        for l in range(1, len(lam) + 1):
            val = combinatorics.eval_E_l(lam, l, params)
            if val < 0:
                bad.append((lam, l, val))
            if combinatorics.eval_E_l_via_Eln(lam, l, params) != val:
                bad.append((lam, l, "route mismatch"))
    return bad


def nonneg_cases(params, n, max_weight):
    """`verify nonneg`: one record over every label of weight <= max_weight."""
    bad = nonneg_violations(params, combinatorics.partitions_max_weight(n, max_weight))
    return [
        _case(
            f"E_(lam,l) >= 0 and two-route agreement, n={n}, |lam|<={max_weight}",
            not bad,
            "" if not bad else f"violations: {bad[:5]}",
        )
    ]


def balance_cases(params, labels):
    """Detailed balance of each up-hop lam -> lam + e_j that stays a partition."""
    cases = []
    for lam in labels:
        for j in range(1, len(lam) + 1):
            if j > 1 and lam[j - 2] == lam[j - 1]:
                continue
            r = latticeop.detailed_balance_residual(lam, j, params)
            cases.append(_case(f"balance lam={lam} j={j}", r == 0, f"residual={r}"))
    return cases


def symmetrization_identity_sides(t, z):
    """Both sides of the symmetrization identity behind the Morse diagonal.

    sum_j (1 + z_j) prod_{k != j} (t - z_j/z_k)/(1 - z_j/z_k)
        = sum_j (z_j + t^(n-j)).

    Returns (lhs, rhs); the coordinates must be pairwise distinct and
    nonzero.
    """
    z = list(z)
    n = len(z)
    if len(set(z)) != n or any(v == 0 for v in z):
        raise ParamDomainError("identity requires pairwise distinct nonzero coordinates")
    lhs = 0
    for j in range(n):
        term = 1 + z[j]
        for k in range(n):
            if k == j:
                continue
            r = z[j] / z[k]
            term *= (t - r) / (1 - r)
        lhs += term
    rhs = sum(z[j] + t ** (n - 1 - j) for j in range(n))
    return lhs, rhs


def ruijsenaars_limit_check(n, params):
    """Degenerate the Morse coupling: t0 = eps t^(n-1)/q, t1 = t2 = t3 = eps.

    As eps -> 0 the one-body weights converge to the constants
    t^(+-(n-1)/2), with error linear in eps.  Returns a report with the
    worst absolute errors per eps and the error ratios between
    consecutive eps values (ratio approx eps_i/eps_{i+1} for a linear
    rate).  Floating-point path; q, t are taken from params.  The
    weights are evaluated inline, from the generic four-parameter form,
    and no other package function is called (not v_plus, v_minus or a
    hop table), so the check tests that closed form, not the operators.
    """
    q = float(params.q)
    t = float(params.t)
    target_p = t ** ((n - 1) / 2)
    target_m = t ** (-(n - 1) / 2)
    eps_values = (1e-4, 1e-6)
    errors = []
    for eps in eps_values:
        # the generic four-parameter one-body weights at t1 = t2 = t3 = eps:
        # w_plus = s (1 - t1 q^x)(1 - t2 q^x), w_minus = (1 - t0 q^x)(1 - t3 q^x)/s
        # with s = sqrt(q t0 t3/(t1 t2))
        t0 = eps * t ** (n - 1) / q
        s = math.sqrt((q * t0 * eps) / (eps * eps))
        worst = 0.0
        for j in range(1, n + 1):
            qx = t ** (n - j)
            wp = s * (1 - eps * qx) * (1 - eps * qx)
            wm = (1 - t0 * qx) * (1 - eps * qx) / s
            worst = max(worst, abs(wp - target_p), abs(wm - target_m))
        errors.append(worst)
    ratios = [errors[i] / errors[i + 1] for i in range(len(errors) - 1)]
    return {
        "eps": list(eps_values),
        "max_abs_error": errors,
        "error_ratios": ratios,
        "targets": (target_p, target_m),
    }


def degenerations(morse_boxes, identity_points, pair_runs):
    """The three limit cases of `verify limits`, over the caller's inputs.

    identity_points are (t, z) pairs for symmetrization_identity_sides,
    each z pairwise distinct and nonzero; the case passes when the two
    sides agree at every point.  morse_boxes are (params, n, max_weight)
    triples of parameter sets in the domain: each is reduced to that2 = 0
    by qcore.morse_vanishing_params and checked by
    latticeop.morse_vanishing_limit_check on the labels of its box.
    pair_runs are (n, params) pairs for ruijsenaars_limit_check; eps
    shrinks 100-fold, so the case passes when every error ratio lies in
    100 +- 10.

    Returns (cases, checked, ratios): the three records, the number of
    coefficients the Morse boxes compared, and the error ratios in run
    order.
    """
    sides = (symmetrization_identity_sides(t, z) for t, z in identity_points)
    identities_ok = all(lhs == rhs for lhs, rhs in sides)
    reports = [
        latticeop.morse_vanishing_limit_check(qcore.morse_vanishing_params(p.q, p.t, p.that0, p.that1), n, w)
        for p, n, w in morse_boxes
    ]
    checked = sum(rep.checked for rep in reports)
    mismatches = sum(len(rep.mismatches) for rep in reports)
    ratios = [r for n, p in pair_runs for r in ruijsenaars_limit_check(n, p)["error_ratios"]]
    cases = [
        _case("symmetrization identity at random rational points", identities_ok),
        _case(
            "vanishing Morse coupling reduces the lattice coefficients",
            not mismatches,
            f"checked {checked} entries, mismatches {mismatches}",
        ),
        _case(
            "pair-potential limit is linear in the coupling",
            all(abs(r - 100.0) <= 10.0 for r in ratios),
            f"error ratios {ratios}",
        ),
    ]
    return cases, checked, ratios


def limit_cases(params, n, max_weight, seed):
    """`verify limits`: the three degenerations at one parameter set.

    The identity is checked at t = params.t on up to 50 points z of n
    rationals a/b with 1 <= a, b <= 40, drawn at seed + 5 (a draw with a
    repeated coordinate is skipped); the Morse box is capped at weight 3.
    """
    rng = random.Random(seed + 5)
    points = []
    for _ in range(50):
        z = tuple(Fraction(rng.randint(1, 40), rng.randint(1, 40)) for _ in range(n))
        if len(set(z)) == n:
            points.append((params.t, z))
    return degenerations([(params, n, min(max_weight, 3))], points, [(n, params)])[0]
