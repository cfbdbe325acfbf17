"""The limits engine that `verify limits` and criterion 08 share, called directly."""

from fractions import Fraction

import pytest

from conftest import PARAM_SETS
from rsmorse import checks
from rsmorse.checks import degenerations
from rsmorse.combinatorics import partitions_max_weight

NAMES = [
    "symmetrization identity at random rational points",
    "vanishing Morse coupling reduces the lattice coefficients",
    "pair-potential limit is linear in the coupling",
]

# pairwise distinct nonzero points, at the t of the first set
POINTS = [(PARAM_SETS[0].t, tuple(map(Fraction, z))) for z in ((1, 2), (3, -5, 7), (2, 9))]


def test_boxes_points_and_runs_of_the_caller():
    # two sets reduced to that2 = 0 on their own boxes, and the pair potential at n = 1 and 2
    boxes = [(PARAM_SETS[0], 2, 2), (PARAM_SETS[1], 3, 1)]
    cases, checked, ratios = degenerations(boxes, POINTS, [(1, PARAM_SETS[2]), (2, PARAM_SETS[2])])
    assert [c["case"] for c in cases] == NAMES
    assert all(c["pass"] for c in cases), cases
    # each label compares an up and a down coefficient per site, and its diagonal
    assert checked == sum(len(partitions_max_weight(n, w)) * (2 * n + 1) for _, n, w in boxes)
    assert cases[1]["detail"] == f"checked {checked} entries, mismatches 0"
    assert len(ratios) == 2 and cases[2]["detail"] == f"error ratios {ratios}"


@pytest.mark.parametrize(
    "ratio, ok",
    [(100.0, True), (90.0, True), (110.0, True), (89.9, False), (110.1, False), (10.0, False), (float("nan"), False)],
)
def test_pair_potential_window(monkeypatch, ratio, ok):
    # eps shrinks 100-fold, so only a ratio within 100 +- 10 is a linear rate
    monkeypatch.setattr(checks, "ruijsenaars_limit_check", lambda n, params: {"error_ratios": [100.0, ratio]})
    cases, _, _ = degenerations([(PARAM_SETS[0], 1, 1)], POINTS, [(2, PARAM_SETS[0])])
    assert [c["pass"] for c in cases] == [True, True, ok]


def test_perturbed_identity_side_fails(monkeypatch):
    # one point whose right side is off by 1e-30 fails the case; the others still pass
    real = checks.symmetrization_identity_sides

    def perturbed(t, z):
        lhs, rhs = real(t, z)
        return lhs, rhs + (Fraction(1, 10**30) if len(z) == 3 else 0)

    monkeypatch.setattr(checks, "symmetrization_identity_sides", perturbed)
    cases, _, _ = degenerations([(PARAM_SETS[0], 1, 1)], POINTS, [(2, PARAM_SETS[0])])
    assert [c["pass"] for c in cases] == [False, True, True]
    cases, _, _ = degenerations([(PARAM_SETS[0], 1, 1)], POINTS[:1], [(2, PARAM_SETS[0])])
    assert [c["pass"] for c in cases] == [True, True, True]
