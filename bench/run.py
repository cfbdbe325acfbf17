"""rsmorse benchmark: one workload, one seed, one result line.

Run from the root of a checkout:

    python3 bench/run.py --workload exact-family --seed 1 --seconds 20 --trace 0

Workloads: exact-family, lattice-exact, cli-readme (see bench/README.md).
Every round of the workload runs in a fresh interpreter (workload.py), so
module-level caches never carry over between rounds; rounds start back to
back until the next one would end past --seconds.  run_s is the fastest
round and setup_s the median over several cold starts that stop once the
inputs are ready, both corrected to a nominal machine speed (speed.py).

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  --trace 0 reports setup_s,
run_s and peak_rss_mb; --trace 1 reports the per-layer self times and
work counters of a traced run instead.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

BENCH = Path(__file__).resolve().parent
WORKLOADS = ("exact-family", "lattice-exact", "cli-readme")
SETUP_STARTS = 11  # measured cold starts per run; one more warms the bytecode cache first
CHILD_TIMEOUT_S = 150
OUT_DIR = ".bench_out"

PER_LAYER = (
    "traced.run_s",
    "bench.self_s",
    "cli.self_s",
    "combinatorics.self_s",
    "dualop.self_s",
    "latticeop.self_s",
    "linalg.self_s",
    "polynomials.self_s",
    "qcore.self_s",
    "scattering.self_s",
    "spectral.self_s",
    "dualop.interpolations",
    "dualop.resamples",
    "dualop.dual_terms_at_point.calls",
    "linalg.solve_exact.calls",
    "linalg.solve_exact.unknowns",
    "linalg.solve_exact.singular",
    "combinatorics.monomial_eval.calls",
    "combinatorics.monomial_eval.distinct",
    "combinatorics.orbit.calls",
    "polynomials.build_P.calls",
    "polynomials.pieri_residual.calls",
    "latticeop.hop_terms.calls",
    "latticeop.hop_terms.distinct",
    "latticeop.apply_Hl.calls",
    "qcore.qpoch_finite.calls",
    "qcore.qpoch_infinite.calls",
    "spectral.weight_grid.points",
    "spectral.evaluate_P_grid.calls",
    "scattering.S_hat.calls",
)


class ChildError(RuntimeError):
    pass


def _env(root):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = "0"
    # the eigensolves are small: one BLAS thread keeps the scheduler out of the timings
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _child(cmd, env, root):
    """Run workload.py once; return its JSON line and the spawn time."""
    spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
    try:
        proc = subprocess.run(
            cmd, cwd=root, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
        )
    except subprocess.TimeoutExpired as exc:
        raise ChildError(f"{' '.join(cmd[2:])} took more than {CHILD_TIMEOUT_S} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildError(f"{' '.join(cmd[2:])} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1]), spawned


def _metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None):
    ap = argparse.ArgumentParser(description="rsmorse benchmark")
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = BENCH.parent
    if not (root / "src" / "rsmorse" / "__init__.py").is_file():
        print(f"no rsmorse sources under {root / 'src'}; run from the root of a checkout", file=sys.stderr)
        return 2
    out_dir = root / OUT_DIR
    out_dir.mkdir(exist_ok=True)
    env = _env(root)
    base = [sys.executable, str(BENCH / "workload.py"), "--workload", args.workload]
    base += ["--seed", str(args.seed), "--out-dir", str(out_dir)]

    try:
        _child(base + ["--setup-only"], env, root)
        setups = []
        for _ in range(SETUP_STARTS):
            got, spawned = _child(base + ["--setup-only"], env, root)
            boot, end = got["probes"]
            setups.append(speed.corrected(got["ready"] - spawned - boot, boot, end))
        rounds = []
        begin = time.monotonic()
        last = 0.0
        while not rounds or time.monotonic() - begin + last <= args.seconds:
            t = time.monotonic()
            got, _ = _child(base + ["--trace", str(args.trace), "--round", str(len(rounds))], env, root)
            rounds.append(got)
            last = time.monotonic() - t
    except ChildError as exc:
        print(f"benchmark child failed: {exc}", file=sys.stderr)
        return 1

    print(
        f"{len(rounds)} rounds, median uncorrected round {statistics.median(r['run_s'] for r in rounds):.3f} s",
        file=sys.stderr,
    )
    problems = [p for r in rounds for p in r["problems"]]
    for line in problems[:20]:
        print(f"check failed: {line}", file=sys.stderr)
    for line in sorted({e for r in rounds for e in r["errors"]})[:20]:
        print(f"operation failed: {line}", file=sys.stderr)
    if args.trace:
        layers = [r["layers"] for r in rounds]
        # times are scaled by each round's speed correction, so they still sum to traced.run_s
        scale = [sum(r["nominal_s"]) / sum(r["op_s"]) for r in rounds]
        metrics = {}
        for name in PER_LAYER:
            if name.endswith("_s"):
                metrics[name] = _metric(statistics.fmean(f * x[name] for f, x in zip(scale, layers)), "s")
            else:
                # counts repeat exactly: every round is the same work in a fresh process
                if any(x[name] != layers[0][name] for x in layers):
                    problems.append(f"{name} differs between rounds")
                metrics[name] = _metric(layers[0][name], "count")
    else:
        metrics = {
            "setup_s": _metric(statistics.median(setups), "s"),
            "run_s": _metric(min(sum(r["nominal_s"]) for r in rounds), "s"),
            "peak_rss_mb": _metric(max(r["peak_rss_mb"] for r in rounds), "MB"),
        }
    result = {
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": metrics,
    }
    with open(out_dir / f"rounds-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump({"setups": setups, "rounds": rounds, "result": result}, fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
