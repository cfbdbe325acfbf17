"""End-to-end command-line tests running main() in process."""

import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import in_domain_params
from rsmorse.cli import balance_cases, main, pieri_cases, qdiff_cases
from rsmorse.combinatorics import partitions_max_weight
from rsmorse.dualop import dual_matrix, generic_points
from rsmorse.errors import DegeneracyError, PoleError
from rsmorse.latticeop import LatticeFunction
from rsmorse.polynomials import PolynomialFamily


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

    def test_single_particle_commute_builds_no_dual_matrix(self, capsys):
        # at n = 1 there is no pair l < m, so no Hhat_l matrix is read
        before = dual_matrix.cache_info()
        code, out, _ = run(capsys, ["verify", "commute", "--n", "1", "--max-weight", "3"])
        after = dual_matrix.cache_info()
        assert code == 0
        assert json.loads(out)["passed"] == 4
        assert (after.hits, after.misses) == (before.hits, before.misses)


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
        lambda: pieri_cases(family, labels, points),
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

    def test_config_file_bad_line_exits_two(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("just some words\n")
        code, _, err = run(capsys, ["poly", "--config", str(cfg)])
        assert code == 2
        assert "configuration error" in err

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

    def test_config_file_sets_time(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("time = 0.5\n")
        code, out, _ = run(capsys, ["evolve", "--n", "1", "--max-weight", "4", "--config", str(cfg)])
        assert code == 0
        assert [s["time"] for s in json.loads(out)["series"]] == [0.0, 0.25, 0.5]


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
