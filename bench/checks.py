"""Output checks made apart from the program under test.

Every function here recomputes what it compares against from first
principles (its own partition enumeration, orbit sums, dominance test,
eigenvalue formula and report arithmetic) instead of calling the
matching rsmorse routine.  A checker returns a list of problem strings;
an empty list means the output passed.
"""

import itertools
import json
import math
from fractions import Fraction

# the three frozen parameter sets of tests/conftest.py, as (q, t, that0, that1, that2)
PARAM_SETS = (
    (Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(-1, 3), Fraction(1, 5)),
    (Fraction(2, 5), Fraction(1, 2), Fraction(-3, 5), Fraction(1, 3), Fraction(2, 7)),
    (Fraction(1, 3), Fraction(2, 5), Fraction(3, 7), Fraction(2, 5), Fraction(-1, 2)),
)

ORTHO_TOL = {1: 1e-8, 2: 1e-6}
SCATTER_TOL = 1e-12
NORM_TOL = 1e-10


def partitions(n, max_weight):
    """All length-n partitions of weight <= max_weight (any order)."""
    out = []
    for parts in itertools.product(range(max_weight + 1), repeat=n):
        if sum(parts) <= max_weight and all(a >= b for a, b in zip(parts, parts[1:])):
            out.append(parts)
    return out


def dominated(mu, lam):
    """mu <= lam: every partial sum of mu is at most that of lam."""
    return all(a <= b for a, b in zip(itertools.accumulate(mu), itertools.accumulate(lam)))


def signed_orbit(mu):
    """Distinct vectors obtained from mu by permuting entries and flipping signs."""
    out = set()
    for perm in itertools.permutations(mu):
        for signs in itertools.product((1, -1), repeat=len(mu)):
            out.add(tuple(s * v for s, v in zip(signs, perm)))
    return out


def evaluate(coeffs, z):
    """sum_mu c_mu m_mu(z), with m_mu the sum of z^nu over the signed orbit of mu."""
    total = Fraction(0)
    for mu, c in coeffs.items():
        for nu in signed_orbit(mu):
            term = Fraction(1)
            for zj, e in zip(z, nu):
                term *= zj**e
            total += c * term
    return total


def principal_point(n, params):
    """z*_j = 1/(t^(n-j) that0)."""
    _, t, that0, _, _ = params
    return tuple(1 / (t ** (n - j) * that0) for j in range(1, n + 1))


def energy(lam, params):
    """E_lam = sum_j t^(j-1) (q^(-lam_j) - 1)."""
    q, t = params[0], params[1]
    return sum(t ** (j - 1) * (q ** (-lam[j - 1]) - 1) for j in range(1, len(lam) + 1))


def check_polynomial(lam, coeffs, params, points, dual_h=None, rs_params=None):
    """Normalization, support and (optionally) the pointwise dual eigen-identity of P_lam.

    dual_h(peval, z, params) is rsmorse.dualop.apply_dual_h_pointwise; it is
    fed the benchmark's own evaluator, and its value must equal E_lam P_lam(z)
    at the given points.
    """
    problems = []
    n = len(lam)
    value = evaluate(coeffs, principal_point(n, params))
    if value != 1:
        problems.append(f"P{lam} at the principal point is {value}, not 1")
    outside = [mu for mu in coeffs if not dominated(mu, lam)]
    if outside:
        problems.append(f"P{lam} has support outside its dominance ideal: {outside[:3]}")
    if coeffs.get(lam, 0) == 0:
        problems.append(f"P{lam} has no leading coefficient")
    if dual_h is not None:
        e = energy(lam, params)
        for z in points:
            lhs = dual_h(lambda w: evaluate(coeffs, w), z, rs_params)
            if lhs != e * evaluate(coeffs, z):
                problems.append(f"dual eigen-identity fails for P{lam} at {z}")
    return problems


def check_commutator(values):
    """A commutator applied to a delta function must vanish everywhere."""
    nonzero = {k: v for k, v in values.items() if v != 0}
    return [f"commutator is nonzero on {sorted(nonzero)[:3]}"] if nonzero else []


def read_report(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def report_params(report):
    p = report["config"]["params"]
    return tuple(Fraction(p[k]) for k in ("q", "t", "that0", "that1", "that2"))


def check_poly_report(report):
    cfg = report["config"]
    n, w = cfg["n"], cfg["max_weight"]
    params = report_params(report)
    labels = {tuple(tab["lambda"]) for tab in report["tables"]}
    problems = []
    if labels != set(partitions(n, w)) or report["count"] != len(labels):
        problems.append(f"poly tables do not cover the weight box n={n}, W={w}")
    for tab in report["tables"]:
        coeffs = {tuple(e["mu"]): Fraction(e["value"]) for e in tab["coeffs"]}
        problems += check_polynomial(tuple(tab["lambda"]), coeffs, params, ())
    return problems


def verify_case_count(suite, n, w):
    """Number of cases each verify suite must report for a weight box."""
    labels = partitions(n, w)
    if suite == "pieri":
        return len(labels) * n * 3
    if suite == "qdiff":
        return len(labels) * n
    if suite == "commute":
        return len(labels) * n * (n + 1) // 2 + n * (n - 1) // 2
    if suite == "nonneg":
        return 1
    if suite == "limits":
        return 3
    if suite == "balance":
        return sum(1 for lam in labels for j in range(n) if j == 0 or lam[j - 1] > lam[j])
    raise ValueError(f"unknown suite {suite}")


def check_verify_report(report):
    cfg = report["config"]
    expected = verify_case_count(report["suite"], cfg["n"], cfg["max_weight"])
    cases = report["cases"]
    problems = []
    if len(cases) != expected:
        problems.append(f"verify {report['suite']}: {len(cases)} cases, expected {expected}")
    bad = [c["case"] for c in cases if not c["pass"]]
    if bad or report["failed"] != 0 or not report["ok"] or report["passed"] != len(cases):
        problems.append(f"verify {report['suite']} reports failures: {bad[:3]}")
    return problems


def check_ortho_report(report):
    """Recompute every relative error from the value and target columns.

    Delta_lam is 1/target on the diagonal row of lam; an off-diagonal row
    is scaled by sqrt(Delta_lam Delta_mu), as in the closed-form norms.
    """
    n = report["config"]["n"]
    tol = ORTHO_TOL[n]
    rows = report["rows"]
    labels = partitions(n, report["config"]["max_weight"])
    problems = []
    if len(rows) != len(labels) * (len(labels) + 1) // 2:
        problems.append(f"ortho: {len(rows)} rows for {len(labels)} labels")
    delta = {tuple(r["lambda"]): 1.0 / r["target"] for r in rows if r["lambda"] == r["mu"]}
    for r in rows:
        lam, mu = tuple(r["lambda"]), tuple(r["mu"])
        if lam == mu:
            rel = abs(r["value"] - r["target"]) * delta[lam]
        else:
            rel = abs(r["value"]) * math.sqrt(delta[lam] * delta[mu])
        if not (rel <= tol and r["rel_err"] <= tol):
            problems.append(f"ortho row {lam},{mu}: rel err {rel:.3e} above {tol:.0e}")
    return problems


def check_scatter_report(report):
    n = report["config"]["n"]
    problems = []
    if len(report["rows"]) != 100:
        problems.append(f"scatter: {len(report['rows'])} rows, expected 100")
    for r in report["rows"]:
        xi = r["xi"]
        if len(xi) != n or not (math.pi > xi[0] and xi[-1] > 0 and all(a > b for a, b in zip(xi, xi[1:]))):
            problems.append(f"scatter point {xi} is not in the open alcove")
        modulus_dev = abs(math.hypot(r["re"], r["im"]) - 1.0)
        worst = max(modulus_dev, r["abs_dev"], r["branch_dev"])
        if not worst <= SCATTER_TOL:
            problems.append(f"scatter at {xi}: deviation {worst:.3e} above {SCATTER_TOL:.0e}")
    return problems


def check_evolve_report(report, final_time):
    series = report["series"]
    problems = []
    times = [s["time"] for s in series]
    if times != [0.0, final_time / 2, final_time]:
        problems.append(f"evolve times {times}, expected [0, {final_time / 2}, {final_time}]")
    for s in series:
        norm = math.sqrt(sum(re * re + im * im for re, im in s["state"].values()))
        if not (abs(norm - 1.0) <= NORM_TOL and abs(s["norm"] - 1.0) <= NORM_TOL):
            problems.append(f"evolve norm at t={s['time']} is {norm!r}")
    return problems
