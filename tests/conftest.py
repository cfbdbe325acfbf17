"""Shared fixtures: parameter sets, polynomial-family cache, criterion report.

The three parameter sets are fixed in-domain rationals chosen to cover
negative couplings in different slots; every test that claims an exact
identity runs over all of them, and the property tests draw random ones
from in_domain_params.  Polynomial families are cached per parameter set
for the whole session, so each eigenpolynomial is built once; the
triangular operator rows behind them are shared through
rsmorse.dualop.dual_matrix.
"""

from fractions import Fraction

import pytest
from hypothesis import strategies as st

from rsmorse.polynomials import PolynomialFamily
from rsmorse.qcore import params_from_hat

PARAM_SETS = [
    params_from_hat(Fraction(1, 4), Fraction(1, 3), (Fraction(1, 2), Fraction(-1, 3), Fraction(1, 5))),
    params_from_hat(Fraction(2, 5), Fraction(1, 2), (Fraction(-3, 5), Fraction(1, 3), Fraction(2, 7))),
    params_from_hat(Fraction(1, 3), Fraction(2, 5), (Fraction(3, 7), Fraction(2, 5), Fraction(-1, 2))),
]

PARAM_IDS = ["pA", "pB", "pC"]

_FAMILIES = {}


def _rationals(low, high, max_den=7):
    """Rationals a/b strictly inside the integer bounds (low, high), b <= max_den."""
    return st.integers(2, max_den).flatmap(
        lambda b: st.integers(low * b + 1, high * b - 1).map(lambda a: Fraction(a, b))
    )


@st.composite
def in_domain_params(draw):
    """Random in-domain parameters with small denominators."""
    t = draw(_rationals(0, 1))
    # q = t or q = t**2 puts poles into the higher integrals; a third of the cases do
    k = draw(st.integers(0, 5))
    q = t**k if k in (1, 2) else draw(_rationals(0, 1))
    that = tuple(draw(_rationals(-1, 1).filter(lambda r: r != 0)) for _ in range(3))
    return params_from_hat(q, t, that)


def family_for(params, seed=0):
    key = (params, seed)
    fam = _FAMILIES.get(key)
    if fam is None:
        fam = PolynomialFamily(params=params, seed=seed)
        _FAMILIES[key] = fam
    return fam


@pytest.fixture(params=list(zip(PARAM_IDS, PARAM_SETS)), ids=lambda p: p[0])
def any_params(request):
    return request.param[1]


@pytest.fixture
def params0():
    return PARAM_SETS[0]


@pytest.fixture
def get_family():
    return family_for


# one visible pass/fail line per acceptance criterion, emitted at the end
# of the run regardless of capture settings
ACCEPTANCE_LINES = []


@pytest.fixture
def record_criterion():
    def _rec(num, name, ok, detail):
        line = f"[PRIMARY-{num:02d}] {name}: {'PASS' if ok else 'FAIL'} ({detail})"
        ACCEPTANCE_LINES.append(line)
        print(line)
        return line

    return _rec


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in sorted(ACCEPTANCE_LINES):
            terminalreporter.write_line(line)
