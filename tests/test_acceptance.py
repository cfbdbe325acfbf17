"""Acceptance gate: one test per criterion, one PASS/FAIL line each.

Every criterion loops over the three frozen parameter sets from conftest
and prints a single summary line through record_criterion; the assert
keeps pytest honest.  Exact checks compare Fractions with ==, numerical
checks carry the stated tolerances.  Criteria 01, 02, 03, 06 (balance)
and 07 (eigenvalues) run the case functions of rsmorse.cli, the same
ones `rsmorse verify` runs, and count or collect failures from their
records.  Criterion 01 reads the eigen-solve P (FittedFamily), since
the other criteria's P are built from the Pieri identity it checks;
criterion 12 ties the two constructions together.
"""

import math
import random
import warnings
from fractions import Fraction

import numpy as np

from conftest import PARAM_SETS, family_for, fitted_family_for
from rsmorse.cli import (
    balance_cases,
    commute_cases,
    nonneg_violations,
    pieri_cases,
    qdiff_cases,
)
from rsmorse.combinatorics import eval_Eln, partitions_max_weight
from rsmorse.dualop import generic_points
from rsmorse.latticeop import (
    LatticeFunction,
    morse_vanishing_limit_check,
    ruijsenaars_limit_check,
    symmetrization_identity_sides,
)
from rsmorse.polynomials import leading_coeff, normalization_point, pieri_identity
from rsmorse.qcore import params_from_hat
from rsmorse.scattering import (
    S_hat,
    branch_deviation,
    free_eigen_residual,
    s_one,
    s_pair,
)
from rsmorse.spectral import (
    QuadSpec,
    conjugated_H_matrix,
    evolve,
    fourier_forward,
    fourier_inverse,
    gram_report,
)

# n=3 is capped one weight lower to stay inside the runtime budget
WEIGHT_CAP = {1: 5, 2: 5, 3: 4}


def _labels(n, cap):
    return partitions_max_weight(n, cap)


def _failed(p, cases):
    """(q, case name) of each failed case record."""
    return [(p.q, c["case"]) for c in cases if not c["pass"]]


def test_criterion_01_pieri_identity(record_criterion):
    checked = 0
    bad = []
    for p in PARAM_SETS:
        fam = fitted_family_for(p)
        for n, cap in WEIGHT_CAP.items():
            cases = pieri_cases(fam, _labels(n, cap), generic_points(n, 3, p, seed=11))
            checked += len(cases)
            bad += _failed(p, cases)
    record_criterion(
        1,
        "exact lattice Pieri identity",
        not bad,
        f"{checked} residuals exactly zero" if not bad else f"nonzero at {bad[:3]}",
    )
    assert not bad


def test_criterion_02_dual_eigen_identity(record_criterion):
    # qdiff_cases applies Hhat_l at the family seed + 1, so l = 1 is not
    # checked against the matrix P came from
    checked = 0
    bad = []
    for p in PARAM_SETS:
        for n, cap in WEIGHT_CAP.items():
            cases = qdiff_cases(family_for(p), _labels(n, cap))
            checked += len(cases)
            bad += _failed(p, cases)
    record_criterion(
        2,
        "exact dual q-difference eigen-identity",
        not bad,
        f"{checked} coefficient identities exactly zero" if not bad else f"nonzero at {bad[:3]}",
    )
    assert not bad


def test_criterion_03_commutativity(record_criterion):
    lattice_checked = 0
    dual_checked = 0
    bad = []
    for p in PARAM_SETS:
        for n in (1, 2, 3):
            # at n = 1 there is no dual pair, so only lattice cases come back
            cases = commute_cases(p, _labels(n, 4), (4,) + (0,) * (n - 1), seed=0)
            dual = sum(c["case"].startswith("dual") for c in cases)
            lattice_checked += len(cases) - dual
            dual_checked += dual
            bad += _failed(p, cases)
    record_criterion(
        3,
        "lattice and dual integrals commute",
        not bad,
        f"{lattice_checked} lattice + {dual_checked} dual commutators exactly zero"
        if not bad
        else f"nonzero at {bad[:3]}",
    )
    assert not bad


def test_criterion_04_orthogonality(record_criterion):
    worst = {1: 0.0, 2: 0.0}
    for p in PARAM_SETS:
        fam = family_for(p)
        rows1 = gram_report(
            [(k,) for k in range(7)], fam, QuadSpec(nodes=200, tol=1e-12)
        )
        worst[1] = max(worst[1], max(r["rel_err"] for r in rows1))
        rows2 = gram_report(_labels(2, 3), fam, QuadSpec(nodes=120, tol=1e-12))
        worst[2] = max(worst[2], max(r["rel_err"] for r in rows2))
    ok = worst[1] <= 1e-8 and worst[2] <= 1e-6
    record_criterion(
        4,
        "quadrature orthogonality with closed-form norms",
        ok,
        f"worst rel err n=1 {worst[1]:.2e} (tol 1e-08), n=2 {worst[2]:.2e} (tol 1e-06)",
    )
    assert ok


def test_criterion_05_normalization(record_criterion):
    checked = 0
    bad = []
    for p in PARAM_SETS:
        fam = family_for(p)
        for n, cap in WEIGHT_CAP.items():
            zstar = normalization_point(n, p)
            for lam in _labels(n, cap):
                poly = fam.P(lam)
                checked += 1
                if poly.evaluate(zstar) != 1:
                    bad.append((p.q, lam, "value"))
                if poly.coeffs.get(lam) != leading_coeff(lam, p):
                    bad.append((p.q, lam, "leading"))
    record_criterion(
        5,
        "unit value at the principal point and closed-form leading coefficient",
        not bad,
        f"{checked} polynomials exact" if not bad else f"failures {bad[:3]}",
    )
    assert not bad


def test_criterion_06_balance_and_symmetry(record_criterion):
    balance_checked = 0
    sym_checked = 0
    bad = []
    for p in PARAM_SETS:
        for n in (1, 2, 3):
            cases = balance_cases(p, _labels(n, 4))
            balance_checked += len(cases)
            bad += _failed(p, cases)
        for n, l in ((1, 1), (2, 1), (2, 2)):
            conj = conjugated_H_matrix(l, 4, p, n=n)
            sym_checked += 1
            if not np.array_equal(conj.matrix, conj.matrix.T):
                bad.append(("symmetry", p.q, n, l))
    record_criterion(
        6,
        "detailed balance and symmetric conjugated matrix",
        not bad,
        f"{balance_checked} ratio identities exact, {sym_checked} matrices symmetric"
        if not bad
        else f"failures {bad[:3]}",
    )
    assert not bad


def test_criterion_07_nonnegativity(record_criterion):
    eig_checked = 0
    bad = []
    for p in PARAM_SETS:
        for n in (1, 2, 3, 4):
            labels = _labels(n, 8)
            eig_checked += n * len(labels)
            bad += [("eigenvalue", p.q) + v for v in nonneg_violations(p, labels)]

    rng = random.Random(7241)
    rec_checked = 0
    for _ in range(100):
        n = rng.randint(2, 4)
        l = rng.randint(1, n)
        q = Fraction(rng.randint(1, 9), rng.randint(10, 19))
        t = Fraction(rng.randint(1, 9), rng.randint(10, 19))
        lam = tuple(sorted((rng.randint(0, 6) for _ in range(n)), reverse=True))
        z = [t ** (j - 1) * q ** (-lam[j - 1]) for j in range(1, n + 1)]
        y = [t**m for m in range(l - 1, n)]
        lhs = eval_Eln(l, z, y)
        first = (z[0] - t ** (l - 1)) * eval_Eln(l - 1, z[1:], y)
        # at l = n the second branch is e_n of n-1 variables, hence zero
        second = eval_Eln(l, z[1:], y[1:]) if l < n else Fraction(0)
        rec_checked += 1
        if lhs != first + second:
            bad.append(("recurrence", q, t, lam, l))

    hom_checked = 0
    for _ in range(100):
        n = rng.randint(1, 4)
        l = rng.randint(0, n)
        z = [Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 9)) for _ in range(n)]
        y = [Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 9)) for _ in range(n - l + 1)]
        c = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        hom_checked += 1
        if eval_Eln(l, [c * v for v in z], [c * v for v in y]) != c**l * eval_Eln(l, z, y):
            bad.append(("homogeneity", n, l))
    record_criterion(
        7,
        "nonnegative eigenvalues with recurrence and homogeneity",
        not bad,
        f"{eig_checked} eigenvalues >= 0, {rec_checked} recurrences and "
        f"{hom_checked} homogeneity checks exact"
        if not bad
        else f"failures {bad[:3]}",
    )
    assert not bad


def test_criterion_08_limits(record_criterion):
    bad = []
    entries = 0
    for p in PARAM_SETS:
        reduced = params_from_hat(p.q, p.t, (p.that[0], p.that[1], Fraction(0)), validate=False)
        for n in (1, 2, 3):
            rep = morse_vanishing_limit_check(reduced, n, 4)
            entries += rep.checked
            if not rep.ok:
                bad.append(("morse", p.q, n, rep.mismatches[:2]))

    rng = random.Random(515)
    sym_checked = 0
    while sym_checked < 50:
        n = rng.randint(2, 4)
        t = Fraction(rng.randint(1, 8), rng.randint(9, 17))
        z = tuple(Fraction(rng.randint(-30, 30) or 3, rng.randint(1, 30)) for _ in range(n))
        if len(set(z)) < n or any(v == 0 for v in z):
            continue
        lhs, rhs = symmetrization_identity_sides(t, z)
        sym_checked += 1
        if lhs != rhs:
            bad.append(("symmetrization", t, z))

    ratios = []
    for p in PARAM_SETS:
        rl = ruijsenaars_limit_check(2, p)
        ratios.extend(rl["error_ratios"])
        if any(abs(r - 100.0) > 10.0 for r in rl["error_ratios"]):
            bad.append(("pair-potential", p.q, rl["error_ratios"]))
    record_criterion(
        8,
        "degenerations: vanishing Morse coupling, symmetrization, pair-potential scaling",
        not bad,
        f"{entries} coefficients exact, {sym_checked} identities exact, "
        f"error ratios {['%.1f' % r for r in ratios]}"
        if not bad
        else f"failures {bad[:2]}",
    )
    assert not bad


def test_criterion_09_scattering(record_criterion):
    bad = []
    worst_mod = 0.0
    worst_branch = 0.0
    rng = random.Random(99)
    for p in PARAM_SETS:
        for _ in range(100):
            x = rng.uniform(-2 * math.pi, 2 * math.pi)
            xi2 = (rng.uniform(0.1, math.pi - 0.1), rng.uniform(0.1, math.pi - 0.1))
            devs = (
                abs(abs(s_pair(x, p)) - 1),
                abs(abs(s_one(x, p)) - 1),
                abs(abs(S_hat(xi2, p)) - 1),
            )
            worst_mod = max(worst_mod, *devs)
            branch = max(branch_deviation(x, p))
            worst_branch = max(worst_branch, branch)
    if worst_mod > 1e-12:
        bad.append(("modulus", worst_mod))
    if worst_branch > 1e-12:
        bad.append(("branch", worst_branch))

    worst_free = 0.0
    for _ in range(50):
        n = rng.randint(1, 3)
        lam = tuple(sorted((rng.randint(0, 4) for _ in range(n)), reverse=True))
        xi = tuple(rng.uniform(0.05, math.pi - 0.05) for _ in range(n))
        worst_free = max(worst_free, abs(free_eigen_residual(xi, lam)))
    if worst_free > 1e-12:
        bad.append(("free kernel", worst_free))
    record_criterion(
        9,
        "unimodular scattering data and free eigen-identity",
        not bad,
        f"worst |.|-1 {worst_mod:.1e}, branch dev {worst_branch:.1e}, "
        f"free residual {worst_free:.1e} (tol 1e-12)",
    )
    assert not bad


def test_criterion_10_fourier_roundtrip(record_criterion):
    worst = 0.0
    quad = QuadSpec(nodes=200, tol=1e-12)
    pts, _ = quad.grid(1)
    for p in PARAM_SETS:
        fam = family_for(p)
        for k in range(5):
            fhat = fourier_forward(LatticeFunction.delta((k,)), pts, fam)
            for m in range(6):
                got = fourier_inverse(fhat, (m,), fam, quad)
                target = 1.0 if m == k else 0.0
                worst = max(worst, abs(got - target))
    ok = worst <= 1e-6
    record_criterion(
        10,
        "Fourier transform roundtrip on lattice deltas",
        ok,
        f"worst entry error {worst:.2e} (tol 1e-06)",
    )
    assert ok


def test_criterion_11_dynamics(record_criterion):
    worst_norm = 0.0
    worst_comp = 0.0
    for p in PARAM_SETS:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            for tv in (0.9, 2.3):
                state = evolve({(0,): 1.0}, tv, 12, p, n=1)
                norm = math.sqrt(sum(abs(v) ** 2 for v in state.values()))
                worst_norm = max(worst_norm, abs(norm - 1.0))
            one = evolve({(0,): 1.0}, 1.9, 12, p, n=1)
            two = evolve(evolve({(0,): 1.0}, 0.7, 12, p, n=1), 1.2, 12, p, n=1)
        keys = set(one) | set(two)
        worst_comp = max(
            worst_comp, max(abs(one.get(k, 0) - two.get(k, 0)) for k in keys)
        )
    ok = worst_norm <= 1e-10 and worst_comp <= 1e-9
    record_criterion(
        11,
        "truncated dynamics preserves norm and composes",
        ok,
        f"norm drift {worst_norm:.2e} (tol 1e-10), composition {worst_comp:.2e} (tol 1e-09)",
    )
    assert ok


def test_criterion_12_pieri_recursion(record_criterion):
    # every family P equals the eigen-solve P, and the Pieri identity holds in the
    # monomial basis; at l = l(lam + e_1 + ... + e_l) the identity is the very one
    # the recursion solved for its top target, so those are counted apart
    compared = 0
    checked = 0
    definitional = 0
    bad = []
    for p in PARAM_SETS:
        fam = family_for(p)
        fitted = fitted_family_for(p)
        for n, cap in WEIGHT_CAP.items():
            for lam in _labels(n, cap):
                compared += 1
                if fam.P(lam).coeffs != fitted.P(lam).coeffs:
                    bad.append((p.q, lam, "differs from build_P"))
                for l in range(1, n + 1):
                    if l == n or lam[l] == 0:
                        definitional += 1
                    else:
                        checked += 1
                    if not pieri_identity(l, lam, fam).is_zero():
                        bad.append((p.q, lam, l))
    record_criterion(
        12,
        "Pieri-recursion eigenpolynomials equal the eigen-solve and satisfy the identity",
        not bad,
        f"{compared} polynomials equal build_P, {checked} Pieri identities (+ {definitional} "
        "definitional) exactly zero in the monomial basis"
        if not bad
        else f"failures {bad[:3]}",
    )
    assert not bad
