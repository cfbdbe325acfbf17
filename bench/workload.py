"""One round of a benchmark workload, run in a fresh interpreter by run.py.

A round is a fixed list of operations issued back to back by one caller
(a closed loop).  The process times each operation, raw and at nominal
machine speed (speed.Meter), then checks every output with checks.py
outside the timed intervals, runs the checkers' self-test, and prints one
JSON line.  With --setup-only it stops once the inputs are generated and
prints the CLOCK_MONOTONIC time at which the first operation would have
started, with the speed probes taken at start-up and at that point.

Usage: python3 bench/workload.py --workload NAME --seed N --out-dir DIR
       [--setup-only | --trace 0|1 --round K]
"""

import argparse
import contextlib
import io
import json
import random
import resource
import shutil
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import speed

# machine speed at interpreter start, probed before the heavy imports; the
# probe's own duration is taken off the set-up time
BOOT_PROBE_S = speed.probe()

import numpy  # noqa: F401,E402  (part of the measured set-up)

import rsmorse  # noqa: E402
from rsmorse import cli, combinatorics, dualop, latticeop, polynomials, qcore, spectral  # noqa: E402

import checks  # noqa: E402


class Op:
    """One operation: run() is timed, judge(output) is not.

    judge returns (failed, problems): failed marks an operation the
    program did not complete as required, problems lists wrong outputs.
    """

    def __init__(self, name, run, judge):
        self.name = name
        self.run = run
        self.judge = judge


def _program_params():
    return [qcore.params_from_hat(q, t, (a, b, c)) for q, t, a, b, c in checks.PARAM_SETS]


def _exact(ok, what):
    return False, [] if ok else [what]


def _rational_points(rng, n, count):
    """Points with prime denominators above 43, so no interpolation point repeats.

    dualop.generic_points draws ratios of primes up to 43; pairs with
    z_j = z_k or z_j z_k = 1 are redrawn to keep the dual coefficients finite.
    """
    dens = (47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97)
    out = []
    while len(out) < count:
        z = []
        while len(z) < n:
            d = rng.choice(dens)
            v = Fraction(rng.randrange(2, 4 * d), d)
            if v.denominator == d and all(v != w and v * w != 1 for w in z):
                z.append(v)
        out.append(tuple(z))
    return out


# ---------------------------------------------------------------------------
# exact-family: eigenpolynomials, lattice Pieri and dual eigen-identity
# ---------------------------------------------------------------------------

FAMILY_BOXES = {2: 3, 3: 2}  # rank -> max weight of the full label box
PIERI_POINTS = 1  # seeded points per (lambda, l)
DUAL_CHECK_POINTS = 2  # benchmark-side points per P for the pointwise dual identity


def exact_family(seed, work_dir):
    rng = random.Random(f"exact-family/{seed}")
    ops = []
    polys = {}
    for pid, (raw, params) in enumerate(zip(checks.PARAM_SETS, _program_params())):
        holder = {}

        def family(params=params, holder=holder):
            if "family" not in holder:
                holder["family"] = polynomials.PolynomialFamily(params=params, seed=seed)
            return holder["family"]

        for n, w in FAMILY_BOXES.items():
            labels = checks.partitions(n, w)
            zstar = polynomials.normalization_point(n, params)
            for lam in labels:
                check_pts = _rational_points(rng, n, DUAL_CHECK_POINTS)

                def run(lam=lam, family=family, zstar=zstar, params=params):
                    poly = family().P(lam)
                    ok = poly.evaluate(zstar) == 1 and poly.coeffs[lam] == polynomials.leading_coeff(lam, params)
                    return poly, ok

                def judge(out, lam=lam, raw=raw, params=params, pts=check_pts, key=(pid, lam)):
                    poly, ok = out
                    polys[key] = (lam, dict(poly.coeffs), raw, params, pts)
                    problems = [] if ok else [f"P{lam}: program normalization check fails"]
                    problems += checks.check_polynomial(
                        lam, poly.coeffs, raw, pts, dualop.apply_dual_h_pointwise, params
                    )
                    return False, problems

                ops.append(Op(f"P p{pid} {lam}", run, judge))
            for lam in labels:
                for l in range(1, n + 1):
                    for z in _rational_points(rng, n, PIERI_POINTS):

                        def run(l=l, lam=lam, z=z, family=family):
                            return polynomials.pieri_residual(l, lam, z, family())

                        ops.append(
                            Op(
                                f"pieri p{pid} l={l} {lam}",
                                run,
                                lambda r, lam=lam, l=l: _exact(r == 0, f"Pieri residual {r} at {lam}, l={l}"),
                            )
                        )
            for lam in labels:
                for l in range(1, n + 1):

                    def run(l=l, lam=lam, family=family, params=params):
                        poly = family().P(lam)
                        lhs = dualop.apply_Hhat_l(l, poly, params, seed=seed + 1)
                        return lhs.minus(poly.scaled(combinatorics.eval_E_l(lam, l, params))).is_zero()

                    ops.append(
                        Op(
                            f"qdiff p{pid} l={l} {lam}",
                            run,
                            lambda ok, lam=lam, l=l: _exact(ok, f"dual eigen-identity fails at {lam}, l={l}"),
                        )
                    )

    def self_test():
        lam, coeffs, raw, params, pts = next(iter(polys.values()))
        bad = dict(coeffs)
        bad[lam] += 1
        if not checks.check_polynomial(lam, bad, raw, pts, dualop.apply_dual_h_pointwise, params):
            return ["self-test: a changed coefficient passes the polynomial check"]
        return []

    return ops, self_test


# ---------------------------------------------------------------------------
# lattice-exact: commuting lattice integrals, no interpolation
# ---------------------------------------------------------------------------

LATTICE_BOXES = {1: 8, 2: 4, 3: 1}  # rank -> max weight of the delta positions


def lattice_exact(seed, work_dir):
    # the seed only shuffles the order of the operations; the work is fixed
    rng = random.Random(f"lattice-exact/{seed}")
    ops = []
    comms = []
    for pid, (raw, params) in enumerate(zip(checks.PARAM_SETS, _program_params())):
        reduced = qcore.params_from_hat(raw[0], raw[1], (raw[2], raw[3], Fraction(0)), validate=False)
        group = []
        for n, w in LATTICE_BOXES.items():
            labels = checks.partitions(n, w)
            for lam in labels:
                for l in range(1, n + 1):
                    for m in range(l, n + 1):

                        def run(l=l, m=m, lam=lam, params=params):
                            return latticeop.commutator_on_delta(l, m, lam, params).values

                        def judge(values):
                            comms.append(values)
                            return False, checks.check_commutator(values)

                        group.append(Op(f"comm p{pid} [{l},{m}] {lam}", run, judge))

                def run(lam=lam, params=params):
                    delta = latticeop.LatticeFunction.delta(lam)
                    return latticeop.apply_Hl(1, delta, params).values, latticeop.apply_H(delta, params).values

                group.append(
                    Op(
                        f"H1 p{pid} {lam}",
                        run,
                        lambda ab, lam=lam: _exact(ab[0] == ab[1] and ab[0], f"H_1 and H differ at delta {lam}"),
                    )
                )
                for j in range(1, n + 1):
                    if j == 1 or lam[j - 2] > lam[j - 1]:
                        group.append(
                            Op(
                                f"balance p{pid} {lam} j={j}",
                                lambda lam=lam, j=j, params=params: spectral.detailed_balance_residual(lam, j, params),
                                lambda r, lam=lam, j=j: _exact(r == 0, f"balance residual {r} at {lam}, j={j}"),
                            )
                        )
                for l in range(1, n + 1):

                    def run(lam=lam, l=l, params=params):
                        return (
                            combinatorics.eval_E_l(lam, l, params),
                            combinatorics.eval_E_l_via_Eln(lam, l, params),
                        )

                    def judge(pair, lam=lam, l=l, raw=raw):
                        ok = pair[0] == pair[1] and pair[0] >= 0 and (l > 1 or pair[0] == checks.energy(lam, raw))
                        return _exact(ok, f"eigenvalue routes disagree at {lam}, l={l}: {pair}")

                    group.append(Op(f"E p{pid} l={l} {lam}", run, judge))

            expected = len(labels) * (2 * n + 1)

            def judge(rep, n=n, expected=expected):
                ok = rep.ok and rep.checked == expected
                return _exact(ok, f"Morse limit n={n}: {len(rep.mismatches)} mismatches, {rep.checked} checked")

            group.append(
                Op(
                    f"morse p{pid} n={n}",
                    lambda reduced=reduced, n=n, w=w: latticeop.morse_vanishing_limit_check(reduced, n, w),
                    judge,
                )
            )
        rng.shuffle(group)
        ops += group

    def self_test():
        bad = dict(comms[0])
        bad[(0,)] = Fraction(1, 7)
        return [] if checks.check_commutator(bad) else ["self-test: a nonzero commutator entry passes"]

    return ops, self_test


# ---------------------------------------------------------------------------
# cli-readme: the README command lines and the input contract, in process
# ---------------------------------------------------------------------------

README_COMMANDS = (
    "poly --n 2 --max-weight 3",
    "verify pieri --n 2 --max-weight 3",
    "verify qdiff --n 2 --max-weight 3",
    "verify commute --n 2 --max-weight 3",
    "verify nonneg --n 2 --max-weight 3",
    "verify limits --n 2 --max-weight 3",
    "verify balance --n 2 --max-weight 3",
    "verify commute --n 3 --max-weight 2",
    "verify qdiff --config {cfg} --n 2",
    "ortho --n 1 --max-weight 4",
    "scatter --n 2 --seed 7",
    "evolve --n 1 --max-weight 8 --time 2.0",
    # larger float-side runs
    "ortho --n 2 --max-weight 4",
    "scatter --n 3",
    "evolve --n 2 --max-weight 12",
)

# inputs that must exit 2 with a one-line message, or (--time 0) report t = 0, 0, 0
CONTRACT_COMMANDS = (
    "evolve --n 1 --max-weight 4 --time 0",
    "ortho --n 1 --max-weight 2 --quad-nodes 0",
    "ortho --n 1 --max-weight 2 --tol 0",
    "evolve --n 1 --max-weight 4 --time nan",
)

README_CONFIG = "# run.cfg\nq = 1/5\nt = 1/3\nmax-weight = 2\n"


def _invoke(argv):
    err = io.StringIO()
    try:
        with contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except Exception as exc:  # a traceback is an outcome the contract forbids
        code = f"{type(exc).__name__}: {exc}"
    return code, err.getvalue()


def _judge_cli(out, path, argv):
    code, err = out
    if code != 0:
        return False, [f"{' '.join(argv)} exited {code}: {err.strip()[:200]}"]
    report = checks.read_report(path)
    kind = argv[0]
    if kind == "poly":
        return False, checks.check_poly_report(report)
    if kind == "verify":
        return False, checks.check_verify_report(report)
    if kind == "ortho":
        return False, checks.check_ortho_report(report)
    if kind == "scatter":
        return False, checks.check_scatter_report(report)
    final_time = float(argv[argv.index("--time") + 1]) if "--time" in argv else 1.0
    return False, checks.check_evolve_report(report, final_time)


def _judge_contract(out, path, argv):
    code, err = out
    if "--time" in argv and float(argv[argv.index("--time") + 1]) == 0:
        done = code == 0 and [s["time"] for s in checks.read_report(path)["series"]] == [0.0, 0.0, 0.0]
    else:
        done = code == 2 and len(err.strip().splitlines()) == 1
    return not done, []


def cli_readme(seed, work_dir):
    tmp = Path(work_dir)
    cfg = tmp / "run.cfg"
    cfg.write_text(README_CONFIG, encoding="utf-8")
    ops = []
    reports = {}
    for k, line in enumerate(README_COMMANDS + CONTRACT_COMMANDS):
        argv = line.format(cfg=cfg).split()
        if argv[0] != "evolve" and "--seed" not in argv:
            argv += ["--seed", str(seed)]
        path = tmp / f"report{k}.json"
        argv += ["--out", str(path)]
        judge = _judge_contract if line in CONTRACT_COMMANDS else _judge_cli
        reports[line] = path
        ops.append(Op(line, lambda argv=argv: _invoke(argv), lambda out, j=judge, p=path, a=argv: j(out, p, a)))

    def self_test():
        problems = []
        poly = checks.read_report(reports["poly --n 2 --max-weight 3"])
        entry = poly["tables"][-1]["coeffs"][0]
        entry["value"] = str(Fraction(entry["value"]) + 1)
        if not checks.check_poly_report(poly):
            problems.append("self-test: a changed coefficient passes the poly check")
        ortho = checks.read_report(reports["ortho --n 2 --max-weight 4"])
        ortho["rows"][0]["value"] *= 1 + 1e-5
        if not checks.check_ortho_report(ortho):
            problems.append("self-test: a Gram row off by 1e-5 passes the ortho check")
        scatter = checks.read_report(reports["scatter --n 3"])
        scatter["rows"][0]["re"] *= 1 + 1e-9
        scatter["rows"][0]["im"] *= 1 + 1e-9
        if not checks.check_scatter_report(scatter):
            problems.append("self-test: a scatter modulus off by 1e-9 passes the scatter check")
        return problems

    return ops, self_test


WORKLOADS = {"exact-family": exact_family, "lattice-exact": lattice_exact, "cli-readme": cli_readme}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out-dir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--round", type=int, default=0)
    args = ap.parse_args()
    src = Path.cwd() / "src"
    if Path(rsmorse.__file__).resolve().parent != (src / "rsmorse").resolve():
        print(f"rsmorse was imported from {rsmorse.__file__}, not from {src}", file=sys.stderr)
        return 2
    work_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=args.out_dir)
    try:
        ops, self_test = WORKLOADS[args.workload](args.seed, work_dir)
        ready = time.clock_gettime(time.CLOCK_MONOTONIC)
        if args.setup_only:
            probes = [BOOT_PROBE_S, speed.probe()]
            print(json.dumps({"ready": ready, "probes": probes}))
            return 0
        tracer = None
        if args.trace:
            import spans

            tracer = spans.Tracer()
            tracer.install()
        outputs = []
        op_s = []
        nominal_s = []
        meter = speed.Meter()
        meter.start(sample=tracer is None)
        for op in ops:
            raw, nominal = meter.raw_s, meter.nominal_s
            try:
                outputs.append((True, op.run()))
            except Exception as exc:  # an operation that raises counts as failed
                outputs.append((False, f"{op.name}: {type(exc).__name__}: {exc}"))
            meter.mark()
            op_s.append(meter.raw_s - raw)
            nominal_s.append(meter.nominal_s - nominal)
        meter.stop()
        run_s = sum(op_s)
        if tracer is not None:
            tracer.uninstall()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        failed = 0
        problems = []
        for op, (completed, out) in zip(ops, outputs):
            if not completed:
                failed += 1
                continue
            op_failed, op_problems = op.judge(out)
            failed += op_failed
            problems += op_problems
        problems += self_test()
        result = {
            "run_s": run_s,
            "op_s": op_s,
            "nominal_s": nominal_s,
            "peak_rss_mb": peak_rss_mb,
            "attempted": len(ops),
            "failed": failed,
            "problems": problems,
            "errors": [out for completed, out in outputs if not completed],
        }
        if tracer is not None:
            result["layers"] = tracer.summary(run_s)
            tracer.write(Path(args.out_dir) / f"spans-{args.workload}-seed{args.seed}-round{args.round}.tsv")
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
