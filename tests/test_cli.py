"""End-to-end command-line tests running main() in process."""

import json
import math
import re
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import PARAM_SETS, in_domain_params
from rsmorse import cli, dualop, latticeop, qcore, spectral
from rsmorse.cli import balance_cases, commute_cases, main, nonneg_violations, pieri_cases, qdiff_cases
from rsmorse.combinatorics import partitions_max_weight
from rsmorse.dualop import dual_matrix, generic_points
from rsmorse.errors import DegeneracyError, PoleError, RSMorseError
from rsmorse.latticeop import LatticeFunction
from rsmorse.polynomials import FittedFamily, PolynomialFamily
from rsmorse.qcore import params_from_hat


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestVerify:
    def test_nonneg_passes(self, capsys):
        code, out, _ = run(capsys, ["verify", "nonneg", "--n", "1", "--max-weight", "2"])
        assert code == 0
        payload = json.loads(out)
        assert payload["ok"] is True
        assert payload["failed"] == 0
        assert payload["suite"] == "nonneg"

    def test_balance_passes(self, capsys):
        code, out, _ = run(capsys, ["verify", "balance", "--n", "2", "--max-weight", "2"])
        assert code == 0
        assert json.loads(out)["ok"] is True

    def test_failure_exits_one(self, capsys, monkeypatch):
        def broken(l, m, lam0, params):
            return LatticeFunction(1, {(1,): 1})

        monkeypatch.setattr("rsmorse.cli.commutator_on_delta", broken)
        code, out, _ = run(capsys, ["verify", "commute", "--n", "1", "--max-weight", "0"])
        assert code == 1
        payload = json.loads(out)
        assert payload["ok"] is False
        assert payload["failed"] >= 1

    def test_limits_passes(self, capsys):
        code, out, _ = run(capsys, ["verify", "limits", "--n", "2", "--max-weight", "3"])
        assert code == 0
        payload = json.loads(out)
        assert (payload["passed"], payload["failed"]) == (3, 0)

    def test_limits_morse_mismatch_fails(self, capsys, monkeypatch):
        real = latticeop.v_plus
        monkeypatch.setattr(latticeop, "v_plus", lambda lam, j, params: 2 * real(lam, j, params))
        code, out, _ = run(capsys, ["verify", "limits", "--n", "2", "--max-weight", "2"])
        assert code == 1
        payload = json.loads(out)
        assert (payload["passed"], payload["failed"]) == (2, 1)
        [bad] = [c for c in payload["cases"] if not c["pass"]]
        assert bad["case"] == "vanishing Morse coupling reduces the lattice coefficients"

    def test_pieri_runs_through_main(self, capsys):
        code, out, _ = run(capsys, ["verify", "pieri", "--n", "1", "--max-weight", "2", "--seed", "3"])
        assert code == 0
        payload = json.loads(out)
        assert (payload["suite"], payload["passed"], payload["failed"]) == ("pieri", 9, 0)
        # the suite is the engine's case list at the run's params, labels and points
        p = PARAM_SETS[0]
        points = generic_points(1, 3, p, 3 + 17)
        expected = pieri_cases(FittedFamily(params=p, seed=3), partitions_max_weight(1, 2), points)
        assert payload["cases"] == json.loads(json.dumps(expected))

    def test_nonneg_violations_name_both_kinds(self, monkeypatch, capsys):
        # a negative eigenvalue that the E_(l,n) route does not reproduce
        monkeypatch.setattr(cli, "eval_E_l", lambda lam, l, params: -1)
        bad = nonneg_violations(PARAM_SETS[0], [(1, 0)])
        assert bad == [
            ((1, 0), 1, -1),
            ((1, 0), 1, "route mismatch"),
            ((1, 0), 2, -1),
            ((1, 0), 2, "route mismatch"),
        ]
        code, out, _ = run(capsys, ["verify", "nonneg", "--n", "1", "--max-weight", "1"])
        assert code == 1
        assert "route mismatch" in json.loads(out)["cases"][0]["detail"]

    def test_limits_ratio_off_linear_fails(self, capsys, monkeypatch):
        # an error ratio far from eps_1/eps_2 = 100 is not a linear rate in the coupling
        monkeypatch.setattr("rsmorse.cli.ruijsenaars_limit_check", lambda n, params: {"error_ratios": [10.0]})
        code, out, _ = run(capsys, ["verify", "limits", "--n", "2", "--max-weight", "3"])
        assert code == 1
        failing = [c["case"] for c in json.loads(out)["cases"] if not c["pass"]]
        assert failing == ["pair-potential limit is linear in the coupling"]

    @pytest.mark.parametrize(
        "exc, prefix",
        [(DegeneracyError("labels (1, 0) and (0, 0) collide"), "degeneracy: "), (RSMorseError("boom"), "error: ")],
    )
    def test_suite_error_exits_one(self, capsys, monkeypatch, exc, prefix):
        def raising(config):
            raise exc

        monkeypatch.setitem(cli._SUITES, "nonneg", raising)
        code, out, err = run(capsys, ["verify", "nonneg", "--n", "1", "--max-weight", "1"])
        assert (code, out) == (1, "")
        assert err == f"{prefix}{exc}\n"

    def test_single_particle_commute_builds_no_dual_matrix(self, capsys):
        # at n = 1 there is no pair l < m, so no Hhat_l matrix is read
        before = dual_matrix.cache_info()
        code, out, _ = run(capsys, ["verify", "commute", "--n", "1", "--max-weight", "3"])
        after = dual_matrix.cache_info()
        assert code == 0
        assert json.loads(out)["passed"] == 4
        assert (after.hits, after.misses) == (before.hits, before.misses)

    def test_dual_commute_fits_once_per_level(self, monkeypatch):
        # each level's box is fitted at |root| up front, not one weight per monomial
        calls = []
        real = dualop.solve_exact

        def spy(A, B):
            calls.append(len(A))
            return real(A, B)

        monkeypatch.setattr(dualop, "solve_exact", spy)
        dual_matrix.cache_clear()
        cases = commute_cases(PARAM_SETS[0], [(1, 0, 0)], (2, 1, 0), seed=0)
        assert all(c["pass"] for c in cases)
        assert calls == [len(partitions_max_weight(3, 3))] * 3


# a label or an index pair, as the engine's errors print them: (1, 0), (0,), (2,1)
_NAMES_A_LABEL = re.compile(r"\(\d+(, ?\d+)*,?\)")


@st.composite
def _engine_cases(draw):
    p = draw(in_domain_params())
    n = draw(st.integers(1, 2))
    labels = partitions_max_weight(n, draw(st.integers(0, 2)))
    return p, labels, draw(st.integers(0, 99))


@settings(deadline=None, max_examples=30)
@given(_engine_cases())
def test_engine_cases_pass_or_name_a_degeneracy(case):
    """Pieri, qdiff and balance records at random in-domain parameters all
    pass, or the suite stops on a DegeneracyError or PoleError naming the
    labels or the pair; no other exception is allowed."""
    p, labels, seed = case
    family = PolynomialFamily(params=p, seed=seed)
    points = generic_points(len(labels[0]), 2, p, seed + 17)
    suites = (
        # the family's P are built from the Pieri identity, so it is checked on the eigen-solve P
        lambda: pieri_cases(FittedFamily(params=p, seed=seed), labels, points),
        lambda: qdiff_cases(family, labels),
        lambda: balance_cases(p, labels),
    )
    for suite in suites:
        try:
            cases = suite()
        except (DegeneracyError, PoleError) as exc:
            assert _NAMES_A_LABEL.search(str(exc)), str(exc)
            continue
        assert cases and all(c["pass"] for c in cases), [c for c in cases if not c["pass"]]


class TestConfigHandling:
    def test_bad_q_exits_two(self, capsys):
        code, _, err = run(capsys, ["verify", "nonneg", "--q", "2"])
        assert code == 2
        assert "configuration error" in err

    def test_garbage_rational_exits_two(self, capsys):
        code, _, err = run(capsys, ["verify", "nonneg", "--q", "abc"])
        assert code == 2
        assert "configuration error" in err

    # the parameter example of the README, with a negative coupling spelled as its own word
    README_PARAMS = ["--q", "1/4", "--t", "1/3", "--that0", "1/2", "--that1", "-1/3", "--that2", "1/5"]

    def test_negative_coupling_as_separate_value(self, capsys):
        code, out, err = run(capsys, ["poly", "--n", "2", "--max-weight", "2", *self.README_PARAMS])
        assert (code, err) == (0, "")
        assert json.loads(out)["config"]["params"]["that1"] == "-1/3"
        joined = [f"{flag}={value}" for flag, value in zip(self.README_PARAMS[::2], self.README_PARAMS[1::2])]
        assert run(capsys, ["poly", "--n", "2", "--max-weight", "2", *joined]) == (code, out, err)

    def test_negative_q_still_refused(self, capsys):
        code, out, err = run(capsys, ["poly", "--n", "2", "--q", "-1/2"])
        assert (code, out) == (2, "")
        assert err == "configuration error: parameter q must lie in (0, 1), got -1/2\n"

    def test_flag_after_signed_flag_is_not_its_value(self, capsys):
        # "--q --t 1/3" still lacks a value for --q
        with pytest.raises(SystemExit) as exc:
            main(["poly", "--q", "--t", "1/3"])
        assert exc.value.code == 2
        assert "argument --q: expected one argument" in capsys.readouterr().err

    def test_zero_particles_exit_two(self, capsys):
        code, out, err = run(capsys, ["poly", "--n", "0"])
        assert (code, out) == (2, "")
        assert err == "configuration error: n must be >= 1, got 0\n"

    def test_config_file_bad_format_exits_two(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("format = xml\n")
        code, out, err = run(capsys, ["poly", "--n", "1", "--config", str(cfg)])
        assert (code, out) == (2, "")
        assert err == "configuration error: format must be json or csv, got xml\n"

    def test_negative_max_weight_exits_two(self, capsys):
        code, _, err = run(capsys, ["poly", "--max-weight", "-1"])
        assert code == 2
        assert "configuration error" in err

    def test_config_file_seeds_values(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("q = 1/5\nmax-weight = 1  # flag should override this\n")
        code, out, _ = run(
            capsys,
            ["poly", "--n", "1", "--config", str(cfg), "--max-weight", "2"],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["config"]["params"]["q"] == "1/5"
        assert payload["config"]["max_weight"] == 2
        assert payload["count"] == 3

    def test_config_file_skips_comment_and_blank_lines(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# a run at q = 1/5\n\n   \nq = 1/5\n")
        code, out, _ = run(capsys, ["poly", "--n", "1", "--max-weight", "1", "--config", str(cfg)])
        assert code == 0
        assert json.loads(out)["config"]["params"]["q"] == "1/5"

    def test_config_file_bad_line_exits_two(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("just some words\n")
        code, _, err = run(capsys, ["poly", "--config", str(cfg)])
        assert code == 2
        assert "configuration error" in err

    @pytest.mark.parametrize("key", ["max-wieght", "force"])
    def test_config_file_unknown_key_exits_two(self, capsys, tmp_path, key):
        # a typo must not fall back to the default, and force stays a flag only
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"q = 1/5\n{key} = 5\n")
        code, out, err = run(capsys, ["poly", "--n", "1", "--config", str(cfg)])
        assert code == 2
        assert out == ""
        assert err == f"configuration error: unknown config key '{key}' in {cfg}\n"

    def test_missing_config_file_exits_two(self, capsys, tmp_path):
        code, _, err = run(capsys, ["poly", "--config", str(tmp_path / "absent.cfg")])
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["ortho", "--n", "1", "--max-weight", "2", "--tol", "0"],
            ["ortho", "--n", "1", "--max-weight", "2", "--tol", "-1"],
            ["ortho", "--n", "1", "--max-weight", "2", "--tol", "nan"],
            ["ortho", "--n", "1", "--max-weight", "2", "--tol", "inf"],
            ["ortho", "--n", "1", "--max-weight", "2", "--quad-nodes", "0"],
            ["evolve", "--n", "1", "--max-weight", "4", "--time", "-1"],
            ["evolve", "--n", "1", "--max-weight", "4", "--time", "nan"],
            ["evolve", "--n", "1", "--max-weight", "4", "--time", "inf"],
        ],
    )
    def test_out_of_domain_numbers_exit_two(self, capsys, argv):
        code, out, err = run(capsys, argv)
        assert code == 2
        assert out == ""
        assert len(err.strip().splitlines()) == 1
        assert "configuration error" in err

    @pytest.mark.parametrize("target", ["missing/x.json", "."], ids=["no-such-dir", "a-directory"])
    def test_unwritable_out_exits_two(self, capsys, tmp_path, target):
        argv = ["poly", "--n", "1", "--max-weight", "1", "--out", str(tmp_path / target)]
        code, out, err = run(capsys, argv)
        assert code == 2
        assert out == ""
        assert len(err.strip().splitlines()) == 1
        assert err.startswith("configuration error: cannot write the report")

    def test_config_file_sets_time(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("time = 0.5\n")
        code, out, _ = run(capsys, ["evolve", "--n", "1", "--max-weight", "4", "--config", str(cfg)])
        assert code == 0
        assert [s["time"] for s in json.loads(out)["series"]] == [0.0, 0.25, 0.5]

    @pytest.mark.parametrize("route", ["flag", "config"])
    def test_evolve_rejects_csv(self, capsys, tmp_path, monkeypatch, route):
        # evolve writes JSON only; refused before any evolution starts
        def no_work(*args, **kwargs):
            raise AssertionError("evolve ran")

        monkeypatch.setattr("rsmorse.cli.evolve", no_work)
        argv = ["evolve", "--n", "1", "--max-weight", "4"]
        if route == "flag":
            argv += ["--format", "csv"]
        else:
            cfg = tmp_path / "run.cfg"
            cfg.write_text("format = csv\n")
            argv += ["--config", str(cfg)]
        code, out, err = run(capsys, argv)
        assert code == 2
        assert out == ""
        assert len(err.strip().splitlines()) == 1
        assert "configuration error" in err


class TestPoly:
    def test_trivial_table(self, capsys):
        code, out, _ = run(capsys, ["poly", "--n", "1", "--max-weight", "0"])
        assert code == 0
        payload = json.loads(out)
        assert payload["count"] == 1
        assert payload["tables"][0]["lambda"] == [0]
        assert payload["tables"][0]["coeffs"] == [{"mu": [0], "value": "1"}]

    def test_default_run_count(self, capsys):
        code, out, _ = run(capsys, ["poly"])
        assert code == 0
        assert json.loads(out)["count"] == 6

    def test_deterministic_output_files(self, capsys, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert run(capsys, ["poly", "--n", "2", "--max-weight", "2", "--out", str(a)])[0] == 0
        assert run(capsys, ["poly", "--n", "2", "--max-weight", "2", "--out", str(b)])[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, ["poly", "--n", "1", "--max-weight", "1", "--format", "csv"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "lambda,mu,value"
        assert len(lines) >= 3


@pytest.mark.parametrize(
    "argv, header",
    [
        (["verify", "balance", "--n", "1", "--max-weight", "1"], "case,pass,detail"),
        (["ortho", "--n", "1", "--max-weight", "1"], "lambda,mu,value,target,abs_err,rel_err,warn"),
        (["scatter", "--n", "1"], "xi,re,im,arg,abs_dev,branch_dev"),
    ],
    ids=["verify-balance", "ortho", "scatter"],
)
def test_csv_header(capsys, argv, header):
    code, out, _ = run(capsys, argv + ["--format", "csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == header
    assert len(lines) >= 2


class TestOrtho:
    def test_single_variable_report(self, capsys):
        code, out, _ = run(
            capsys,
            ["ortho", "--n", "1", "--max-weight", "2", "--quad-nodes", "200"],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["nodes"] == 200
        assert payload["rows"]
        assert all(not row["warn"] for row in payload["rows"])

    def test_coarse_quadrature_warns(self, capsys):
        code, out, _ = run(
            capsys,
            [
                "ortho",
                "--n",
                "1",
                "--max-weight",
                "3",
                "--quad-nodes",
                "8",
                "--tol",
                "1e-12",
            ],
        )
        assert code == 0
        assert any(row["warn"] for row in json.loads(out)["rows"])

    def test_large_rank_needs_force(self, capsys):
        code, _, err = run(capsys, ["ortho", "--n", "3", "--max-weight", "0"])
        assert code == 2
        assert "--force" in err


class TestScatter:
    def test_phase_table(self, capsys):
        code, out, _ = run(capsys, ["scatter", "--n", "1", "--seed", "3"])
        assert code == 0
        rows = json.loads(out)["rows"]
        assert len(rows) == 100
        assert max(r["abs_dev"] for r in rows) < 1e-8
        assert max(r["branch_dev"] for r in rows) < 1e-8

    def test_loose_tol_keeps_the_products(self, capsys):
        # --tol 1 would cut every q-product to zero factors and report S = 1
        rows = {}
        for tol in ("1", "1e-10"):
            code, out, _ = run(capsys, ["scatter", "--n", "2", "--tol", tol])
            assert code == 0
            rows[tol] = json.loads(out)["rows"]
        assert rows["1"] == rows["1e-10"]

    def test_memo_keeps_the_truncation_orders(self, capsys):
        # |c e^{ix}| is |c| up to rounding at every angle, so 3,000 products need few orders
        before = qcore.qpoch_infinite.cache_info()
        code, _, _ = run(capsys, ["scatter", "--n", "3"])
        after = qcore.qpoch_infinite.cache_info()
        assert code == 0
        assert after.misses - before.misses <= 16
        assert after.hits - before.hits >= 2900


class TestParser:
    def test_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_shared_parser_after_refusals(self, capsys, monkeypatch):
        with monkeypatch.context() as m:
            m.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
            code, fresh, _ = run(capsys, ["scatter", "--n", "2"])
        assert code == 0
        parser = cli.build_parser()
        with pytest.raises(SystemExit):
            main(["scatter", "--n", "2", "--no-such-flag"])
        capsys.readouterr()
        assert run(capsys, ["scatter", "--n", "0"])[0] == 2
        assert run(capsys, ["scatter", "--n", "2"]) == (0, fresh, "")
        assert cli.build_parser() is parser


class TestEvolve:
    def test_series(self, capsys):
        code, out, _ = run(
            capsys,
            ["evolve", "--n", "1", "--max-weight", "6", "--time", "0.8"],
        )
        assert code == 0
        series = json.loads(out)["series"]
        assert [s["time"] for s in series] == [0.0, 0.4, 0.8]
        start = series[0]["state"]
        assert abs(start["0"][0] - 1.0) < 1e-12 and abs(start["0"][1]) < 1e-12
        for snap in series:
            assert abs(snap["norm"] - 1.0) < 1e-9

    def test_zero_time_stays_at_start(self, capsys):
        code, out, _ = run(capsys, ["evolve", "--n", "1", "--max-weight", "4", "--time", "0"])
        assert code == 0
        series = json.loads(out)["series"]
        assert [s["time"] for s in series] == [0.0, 0.0, 0.0]
        assert all(s["state"] == series[0]["state"] for s in series)

    def test_one_matrix_per_command(self, capsys, monkeypatch):
        # the three reported times share one truncation and one eigendecomposition
        calls = []
        real = spectral.conjugated_H_matrix

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(spectral, "conjugated_H_matrix", counting)
        spectral._evolution_basis.cache_clear()
        code, _, _ = run(capsys, ["evolve", "--n", "1", "--max-weight", "5", "--time", "0.3"])
        assert code == 0
        assert len(calls) == 1


@pytest.mark.parametrize(
    "argv, bound",
    [
        (["ortho", "--n", "1", "--max-weight", "2", "--quad-nodes", "100000000"], "rule of 100000000 nodes"),
        (["ortho", "--n", "3", "--max-weight", "0", "--force", "--quad-nodes", "101"], "101^3 = 1030301 points"),
    ],
    ids=["nodes", "points"],
)
def test_quadrature_budget_exits_two(capsys, argv, bound):
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("configuration error: quadrature ") and bound in err


class TestNearOne:
    """q close to 1 on the float side: a q-product past its factor cap or a
    norm outside double precision exits 2 with one line, before any quadrature."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["ortho", "--n", "1", "--max-weight", "1", "--q", "9999999/10000000"],
            ["scatter", "--n", "1", "--q", "9999999/10000000"],
            ["ortho", "--n", "1", "--max-weight", "2", "--q", "999/1000"],
            ["ortho", "--n", "1", "--max-weight", "2", "--q", "9999/10000"],
        ],
        ids=["ortho-cap", "scatter-cap", "ortho-underflow", "ortho-overflow"],
    )
    def test_exits_two_quickly(self, capsys, argv):
        start = time.perf_counter()
        code, out, err = run(capsys, argv)
        assert time.perf_counter() - start < 5.0
        assert code == 2
        assert out == ""
        assert len(err.strip().splitlines()) == 1
        assert err.startswith("configuration error: ")

    def test_rel_err_survives_norm_underflow(self, capsys):
        # at n = 2 the norms are near 1e-246, so their product underflows to 0.0
        argv = ["ortho", "--n", "2", "--max-weight", "1", "--q", "995/1000", "--quad-nodes", "20"]
        code, out, _ = run(capsys, argv)
        assert code == 0
        params = params_from_hat("995/1000", "1/3", ("1/2", "-1/3", "1/5"))  # the CLI defaults but q
        for row in json.loads(out)["rows"]:
            dl = spectral.norm_Delta(row["lambda"], params)
            dm = spectral.norm_Delta(row["mu"], params)
            assert dl * dm == 0.0
            assert row["rel_err"] == row["abs_err"] * (math.sqrt(dl) * math.sqrt(dm)) > 0
            assert row["warn"] is True


class TestPoles:
    def test_pole_at_q_equal_t_exits_two(self, capsys):
        # q = t puts 1 - q a_2/a_1 = 0 in the level-2 stay-put coefficient at equal parts
        code, out, err = run(
            capsys,
            ["verify", "commute", "--n", "2", "--max-weight", "2", "--q", "1/2", "--t", "1/2"],
        )
        assert code == 2
        assert out == ""
        assert len(err.strip().splitlines()) == 1
        assert "pole" in err and "(j, k) = (2, 1)" in err
