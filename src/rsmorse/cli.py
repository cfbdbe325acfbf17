"""Command-line front end: tables, verification suites, reports.

Subcommands: poly, verify {pieri,qdiff,commute,nonneg,limits,balance},
ortho, scatter, evolve.  The verify suites and the acceptance criteria
run the same public case functions (pieri_cases, qdiff_cases,
commute_cases, nonneg_violations, balance_cases).  Configuration comes
from flags, optionally seeded by a key=value config file (flags win).
Exit codes: 0 success, 1 verification failure, 2 configuration error
(also a q-product past its factor cap) or a pole of an operator at the
chosen parameters.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import random
import sys
from fractions import Fraction

from .combinatorics import eval_E_l, eval_E_l_via_Eln, ideal, partitions_max_weight
from .dualop import apply_Hhat_l, commutator_on_monomial, dual_matrix, generic_points
from .errors import DegeneracyError, ParamDomainError, PoleError, RSMorseError, TruncationCapError
from .latticeop import (
    LatticeFunction,
    commutator_on_delta,
    morse_vanishing_limit_check,
    ruijsenaars_limit_check,
    symmetrization_identity_sides,
)
from .polynomials import FittedFamily, PolynomialFamily, pieri_residuals
from .qcore import params_from_hat, parse_rational
from .scattering import S_hat, branch_deviation
from .spectral import QuadSpec, detailed_balance_residual, evolve, gram_report

DEFAULTS = {
    "n": "2",
    "q": "1/4",
    "t": "1/3",
    "that0": "1/2",
    "that1": "-1/3",
    "that2": "1/5",
    "max_weight": "3",
    "tol": "1e-10",
    "quad_nodes": "",
    "time": "1.0",
    "seed": "1",
    "out": "",
    "format": "json",
}


def _read_config_file(path):
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ParamDomainError(f"config line is not key=value: {raw.strip()!r}")
            key, val = line.split("=", 1)
            name = key.strip().replace("-", "_")
            if name not in DEFAULTS:
                raise ParamDomainError(f"unknown config key {key.strip()!r} in {path}")
            out[name] = val.strip()
    return out


class RunConfig:
    """Validated run configuration; all randomness flows from seed."""

    def __init__(self, args):
        file_vals = _read_config_file(args.config) if args.config else {}

        def pick(name):
            flag = getattr(args, name, None)
            if flag is not None:
                return str(flag)
            if name in file_vals:
                return file_vals[name]
            return DEFAULTS[name]

        self.n = int(pick("n"))
        if self.n < 1:
            raise ParamDomainError(f"n must be >= 1, got {self.n}")
        self.params = params_from_hat(
            parse_rational(pick("q")),
            parse_rational(pick("t")),
            (
                parse_rational(pick("that0")),
                parse_rational(pick("that1")),
                parse_rational(pick("that2")),
            ),
        )
        self.max_weight = int(pick("max_weight"))
        if self.max_weight < 0:
            raise ParamDomainError(f"max-weight must be >= 0, got {self.max_weight}")
        self.tol = float(pick("tol"))
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise ParamDomainError(f"tol must be a finite number > 0, got {self.tol}")
        raw_nodes = pick("quad_nodes")
        self.quad_nodes = int(raw_nodes) if raw_nodes else None
        if self.quad_nodes is not None and self.quad_nodes < 1:
            raise ParamDomainError(f"quad-nodes must be >= 1, got {self.quad_nodes}")
        self.seed = int(pick("seed"))
        self.out = pick("out") or None
        self.format = pick("format")
        if self.format not in ("json", "csv"):
            raise ParamDomainError(f"format must be json or csv, got {self.format}")
        if self.format == "csv" and args.command == "evolve":
            raise ParamDomainError("evolve writes JSON only; format csv is not supported")
        self.force = bool(getattr(args, "force", False))
        self.time = float(pick("time"))
        if not (math.isfinite(self.time) and self.time >= 0):
            raise ParamDomainError(f"time must be a finite number >= 0, got {self.time}")

    def describe(self):
        return {
            "n": self.n,
            "params": self.params.as_dict(),
            "max_weight": self.max_weight,
            "tol": self.tol,
            "seed": self.seed,
        }


def _emit(payload, config, rows=None):
    """Write the report; CSV only for row-shaped payloads.

    rows is a non-empty list of dicts with the same keys: the keys of
    the first row are the CSV header, each row one line.
    """
    if config.format == "csv" and rows is not None:
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
        text = buf.getvalue()
    else:
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if config.out:
        try:
            with open(config.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            reason = exc.strerror or exc
            raise ParamDomainError(f"cannot write the report to {config.out}: {reason}") from exc
    else:
        sys.stdout.write(text)


def _labels(config):
    return partitions_max_weight(config.n, config.max_weight)


def _family(config):
    return PolynomialFamily(params=config.params, seed=config.seed)


def cmd_poly(config):
    family = _family(config)
    tables = []
    for lam in _labels(config):
        poly = family.P(lam)
        tables.append({"lambda": list(lam), "coeffs": poly.to_json()})
    payload = {
        "config": config.describe(),
        "count": len(tables),
        "tables": tables,
    }
    rows = [{"lambda": tab["lambda"], **entry} for tab in tables for entry in tab["coeffs"]]
    _emit(payload, config, rows)
    return 0


def _case(name, ok, detail=""):
    return {"case": name, "pass": bool(ok), "detail": detail}


def pieri_cases(family, labels, points):
    """Lattice Pieri recurrence of the family at each label, level and point.

    A PolynomialFamily builds its P from this recurrence, so the checks
    pass it a FittedFamily, whose P come from the eigen-solve.
    """
    return [
        _case(f"pieri l={l} lam={lam} z={tuple(map(str, z))}", r == 0, f"residual={r}")
        for l, lam, z, r in pieri_residuals(family, labels, points)
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
            lhs = apply_Hhat_l(l, poly, params, seed=family.seed + 1)
            diff = lhs.minus(poly.scaled(eval_E_l(lam, l, params)))
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
                comm = commutator_on_delta(l, m, lam0, params)
                detail = "exact zero" if comm.is_zero() else f"support {comm.support()}"
                cases.append(_case(f"lattice [H_{l},H_{m}] at {lam0}", comm.is_zero(), detail))
    n = len(root)
    # fit each level's whole box once up front, not one weight per monomial;
    # at n = 1 there is no pair l < m, so nothing is fitted
    if n > 1:
        for l in range(1, n + 1):
            dual_matrix(l, n, params, seed).grow(sum(root))
    for l in range(1, n + 1):
        for m in range(l + 1, n + 1):
            ok = all(commutator_on_monomial(l, m, mu, params, seed).is_zero() for mu in ideal(root))
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
            val = eval_E_l(lam, l, params)
            if val < 0:
                bad.append((lam, l, val))
            if eval_E_l_via_Eln(lam, l, params) != val:
                bad.append((lam, l, "route mismatch"))
    return bad


def balance_cases(params, labels):
    """Detailed balance of each up-hop lam -> lam + e_j that stays a partition."""
    cases = []
    for lam in labels:
        for j in range(1, len(lam) + 1):
            if j > 1 and lam[j - 2] == lam[j - 1]:
                continue
            r = detailed_balance_residual(lam, j, params)
            cases.append(_case(f"balance lam={lam} j={j}", r == 0, f"residual={r}"))
    return cases


def _suite_nonneg(config):
    bad = nonneg_violations(config.params, _labels(config))
    return [
        _case(
            f"E_(lam,l) >= 0 and two-route agreement, n={config.n}, |lam|<={config.max_weight}",
            not bad,
            "" if not bad else f"violations: {bad[:5]}",
        )
    ]


def _suite_limits(config):
    cases = []
    rng = random.Random(config.seed + 5)
    t = config.params.t
    ok = True
    for _ in range(50):
        z = tuple(Fraction(rng.randint(1, 40), rng.randint(1, 40)) for _ in range(config.n))
        if len(set(z)) < config.n or any(v == 0 for v in z):
            continue
        lhs, rhs = symmetrization_identity_sides(t, z)
        if lhs != rhs:
            ok = False
    cases.append(_case("symmetrization identity at random rational points", ok))
    reduced = params_from_hat(
        config.params.q,
        config.params.t,
        (config.params.that0, config.params.that1, Fraction(0)),
        validate=False,
    )
    rep = morse_vanishing_limit_check(reduced, config.n, min(config.max_weight, 3))
    cases.append(
        _case(
            "vanishing Morse coupling reduces the lattice coefficients",
            rep.ok,
            f"checked {rep.checked} entries, mismatches {len(rep.mismatches)}",
        )
    )
    rl = ruijsenaars_limit_check(config.n, config.params)
    ratios_ok = all(abs(r - 100.0) <= 10.0 for r in rl["error_ratios"])
    cases.append(
        _case(
            "pair-potential limit is linear in the coupling",
            ratios_ok,
            f"error ratios {rl['error_ratios']}",
        )
    )
    return cases


# adapters from a RunConfig to the case functions
_SUITES = {
    "pieri": lambda c: pieri_cases(
        FittedFamily(params=c.params, seed=c.seed),
        _labels(c),
        generic_points(c.n, 3, c.params, c.seed + 17),
    ),
    "qdiff": lambda c: qdiff_cases(_family(c), _labels(c)),
    "commute": lambda c: commute_cases(
        c.params, _labels(c), (c.max_weight,) + (0,) * (c.n - 1), c.seed
    ),
    "nonneg": _suite_nonneg,
    "limits": _suite_limits,
    "balance": lambda c: balance_cases(c.params, _labels(c)),
}


def cmd_verify(config, suite):
    cases = _SUITES[suite](config)
    failed = sum(1 for c in cases if not c["pass"])
    payload = {
        "config": config.describe(),
        "suite": suite,
        "cases": cases,
        "passed": len(cases) - failed,
        "failed": failed,
        "ok": failed == 0,
    }
    _emit(payload, config, cases)
    return 0 if failed == 0 else 1


def cmd_ortho(config):
    if config.n > 2 and not config.force:
        raise ParamDomainError(
            f"orthogonality quadrature at n={config.n} is expensive; pass --force to allow"
        )
    nodes = config.quad_nodes or (200 if config.n == 1 else 120)
    quad = QuadSpec(nodes=nodes, tol=min(config.tol, 1e-12))
    rows = gram_report(_labels(config), _family(config), quad)
    for row in rows:
        row["warn"] = row["rel_err"] > config.tol
    payload = {"config": config.describe(), "nodes": nodes, "rows": rows}
    _emit(payload, config, rows)
    return 0


def cmd_scatter(config):
    rng = random.Random(config.seed)
    # a looser q-product truncation changes S itself, which abs_dev and branch_dev cannot see
    tol = min(config.tol, 1e-10)
    rows = []
    for _ in range(100):
        xi = sorted((rng.uniform(1e-3, math.pi - 1e-3) for _ in range(config.n)), reverse=True)
        val = S_hat(xi, config.params, tol)
        branch_dev = max(branch_deviation(xi[0], config.params, tol))
        rows.append(
            {
                "xi": list(xi),
                "re": val.real,
                "im": val.imag,
                "arg": math.atan2(val.imag, val.real),
                "abs_dev": abs(abs(val) - 1.0),
                "branch_dev": branch_dev,
            }
        )
    payload = {"config": config.describe(), "rows": rows}
    _emit(payload, config, rows)
    return 0


def cmd_evolve(config):
    initial = LatticeFunction.delta((0,) * config.n)
    times = [0.0, config.time / 2.0, config.time]
    series = []
    for tv in times:
        state = evolve(initial, tv, config.max_weight, config.params, n=config.n)
        norm = math.sqrt(sum(abs(v) ** 2 for v in state.values()))
        series.append(
            {
                "time": tv,
                "norm": norm,
                "state": {
                    ",".join(map(str, lam)): [v.real, v.imag] for lam, v in sorted(state.items())
                },
            }
        )
    payload = {"config": config.describe(), "series": series}
    _emit(payload, config)
    return 0


@functools.cache
def build_parser():
    """The argument parser, built on the first call and shared by every main call after it."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--n", type=int)
    common.add_argument("--q")
    common.add_argument("--t")
    common.add_argument("--that0")
    common.add_argument("--that1")
    common.add_argument("--that2")
    common.add_argument("--max-weight", dest="max_weight", type=int)
    common.add_argument("--tol", type=float)
    common.add_argument("--quad-nodes", dest="quad_nodes", type=int)
    common.add_argument("--seed", type=int)
    common.add_argument("--out")
    common.add_argument("--format", choices=("json", "csv"))
    common.add_argument("--config", help="key=value config file; flags override")

    parser = argparse.ArgumentParser(prog="rsmorse", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("poly", parents=[common], help="tabulate eigenpolynomial coefficients")
    pv = sub.add_parser("verify", parents=[common], help="run a verification suite")
    pv.add_argument("suite", choices=sorted(_SUITES))
    po = sub.add_parser("ortho", parents=[common], help="quadrature orthogonality report")
    po.add_argument("--force", action="store_true", help="allow n > 2 quadrature")
    sub.add_parser("scatter", parents=[common], help="scattering phase table")
    pe = sub.add_parser("evolve", parents=[common], help="truncated unitary dynamics")
    pe.add_argument("--time", type=float, help="final evolution time (default 1.0)")
    return parser


# flags whose value may be negative: argparse reads a separate "-1/3" as an option
_SIGNED_FLAGS = frozenset(("--q", "--t", "--that0", "--that1", "--that2"))


def _join_signed_values(argv):
    """Spell "--that1 -1/3" as "--that1=-1/3" for each flag in _SIGNED_FLAGS.

    Only a value that starts with "-" and then a digit or a point is joined,
    so a missing value followed by another flag is still refused.
    """
    out = []
    for tok in argv:
        signed_value = len(tok) > 1 and tok[0] == "-" and (tok[1].isdigit() or tok[1] == ".")
        if signed_value and out and out[-1] in _SIGNED_FLAGS:
            out[-1] = f"{out[-1]}={tok}"
        else:
            out.append(tok)
    return out


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(_join_signed_values(sys.argv[1:] if argv is None else argv))
    try:
        config = RunConfig(args)
    except (ParamDomainError, ValueError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    try:
        if args.command == "poly":
            return cmd_poly(config)
        if args.command == "verify":
            return cmd_verify(config, args.suite)
        if args.command == "ortho":
            return cmd_ortho(config)
        if args.command == "scatter":
            return cmd_scatter(config)
        if args.command == "evolve":
            return cmd_evolve(config)
    except (ParamDomainError, TruncationCapError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except PoleError as exc:
        print(f"pole: {exc}", file=sys.stderr)
        return 2
    except DegeneracyError as exc:
        print(f"degeneracy: {exc}", file=sys.stderr)
        return 1
    except RSMorseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    raise AssertionError("unreachable")


def entry():
    sys.exit(main())
