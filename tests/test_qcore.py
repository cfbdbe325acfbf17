import cmath
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rsmorse.qcore as qcore
from rsmorse import scattering
from rsmorse.dualop import dual_matrix
from rsmorse.errors import ParamDomainError, TruncationCapError
from rsmorse.latticeop import hop_terms
from rsmorse.qcore import (
    morse_vanishing_params,
    params_from_hat,
    parse_rational,
    qpoch_finite,
    qpoch_infinite,
    truncation_order,
)

from conftest import PARAM_SETS, in_domain_params


class TestParseRational:
    def test_forms(self):
        assert parse_rational("3/4") == Fraction(3, 4)
        assert parse_rational("0.25") == Fraction(1, 4)
        assert parse_rational("-7/3") == Fraction(-7, 3)
        assert parse_rational(" 2 ") == 2
        assert parse_rational(Fraction(5, 9)) == Fraction(5, 9)
        assert parse_rational(3) == 3

    def test_decimal_is_exact(self):
        assert parse_rational("0.2") == Fraction(1, 5)

    def test_rejects_float_and_garbage(self):
        with pytest.raises(ParamDomainError):
            parse_rational(0.25)
        with pytest.raises(ParamDomainError):
            parse_rational("three halves")
        with pytest.raises(ParamDomainError):
            parse_rational("1/0")


class TestQpochFinite:
    def test_empty_product(self):
        assert qpoch_finite(Fraction(7, 3), 0, Fraction(1, 2)) == 1

    def test_single_factor(self):
        x = Fraction(2, 7)
        assert qpoch_finite(x, 1, Fraction(1, 3)) == 1 - x

    def test_two_factor_value(self):
        # (1/2; 1/3)_2 = (1 - 1/2)(1 - 1/6)
        assert qpoch_finite(Fraction(1, 2), 2, Fraction(1, 3)) == Fraction(5, 12)

    def test_recurrence(self):
        rng = random.Random(5)
        for _ in range(25):
            x = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            q = Fraction(rng.randint(1, 8), 9)
            m = rng.randint(0, 5)
            assert qpoch_finite(x, m + 1, q) == qpoch_finite(x, m, q) * (1 - x * q**m)

    def test_exact_inputs_give_fraction_even_at_m_zero(self):
        # regression: an int result here used to poison downstream
        # divisions with float arithmetic
        a = qpoch_finite(Fraction(1, 2), 0, Fraction(1, 3))
        b = qpoch_finite(Fraction(1, 3), 0, Fraction(1, 3))
        assert isinstance(a, Fraction)
        assert isinstance(a / b, Fraction)

    def test_negative_order_rejected(self):
        with pytest.raises(ParamDomainError):
            qpoch_finite(Fraction(1, 2), -1, Fraction(1, 3))

    @pytest.mark.parametrize(
        "m", [float("nan"), float("inf"), float("-inf"), "3", "x", None, 2.5, Fraction(1, 2), 1j, -1.0]
    )
    def test_every_bad_order_is_a_domain_error(self, m):
        # nan, inf and str used to escape as ValueError, OverflowError and TypeError
        for x, q in ((Fraction(1, 2), Fraction(1, 3)), (0.5, 0.25)):
            with pytest.raises(ParamDomainError, match="order m"):
                qpoch_finite(x, m, q)

    def test_integral_orders_of_other_types(self):
        want = qpoch_finite(Fraction(1, 2), 2, Fraction(1, 3))
        for m in (2.0, Fraction(2), np.int64(2)):
            assert qpoch_finite(Fraction(1, 2), m, Fraction(1, 3)) == want

    def test_exact_special_cases(self):
        # int x and int q, a vanishing factor, a negative x, m = 0
        cases = {
            (2, 3, 1): Fraction(-1),
            (Fraction(9), 3, Fraction(1, 3)): Fraction(0),
            (Fraction(-3, 2), 2, Fraction(1, 2)): Fraction(5, 2) * Fraction(7, 4),
            (5, 0, 0): Fraction(1),
        }
        for (x, m, q), want in cases.items():
            got = qpoch_finite(x, m, q)
            assert got == want and type(got) is Fraction, (x, m, q)


def _qpoch_literal(x, m, q):
    out = Fraction(1)
    for l in range(m):
        out *= 1 - x * Fraction(q) ** l
    return out


@st.composite
def _qpoch_cases(draw):
    p = draw(in_domain_params())
    q = p.q
    m = draw(st.integers(0, 6))
    # arguments the lattice norms pass, 1/q^k (the factor l = k vanishes), ints and negatives
    x = draw(
        st.sampled_from([p.that0 * p.that1 * p.t, p.that1 * p.that2 * p.t**2, q * p.t, p.t ** 3])
        | st.integers(0, 4).map(lambda k: 1 / q**k)
        | st.integers(-5, 5)
        | st.fractions(-3, 3, max_denominator=11)
    )
    return x, m, q


@settings(deadline=None)
@given(_qpoch_cases())
def test_qpoch_finite_equals_literal_product(case):
    x, m, q = case
    got = qpoch_finite(x, m, q)
    assert got == _qpoch_literal(x, m, q)
    assert type(got) is Fraction


class TestQpochInfinite:
    def test_zero_argument(self):
        assert qpoch_infinite(0.0, 0.5) == 1.0

    def test_euler_point(self):
        # (1/2; 1/2)_inf against a brute-force 200-term product
        direct = 1.0
        for l in range(200):
            direct *= 1.0 - 0.5 * 0.5**l
        got = qpoch_infinite(0.5, 0.5, tol=1e-16)
        assert abs(got - direct) < 1e-14
        assert abs(got - 0.2887880951) < 1e-9

    def test_long_product_oracle(self):
        direct = 1.0
        for l in range(50):
            direct *= 1.0 - 0.3 * 0.3**l
        assert abs(qpoch_infinite(0.3, 0.3, tol=1e-16) - direct) < 1e-14

    def test_functional_equation(self):
        rng = random.Random(11)
        q = 0.7
        for _ in range(20):
            x = complex(rng.uniform(-0.9, 0.9), rng.uniform(-0.9, 0.9))
            lhs = qpoch_infinite(x, q, tol=1e-16)
            rhs = (1 - x) * qpoch_infinite(x * q, q, tol=1e-16)
            assert abs(lhs - rhs) < 1e-12

    def test_domain_and_cap(self, monkeypatch):
        with pytest.raises(ParamDomainError):
            qpoch_infinite(0.5, 1.0)
        monkeypatch.setattr(qcore, "MAX_QPOCH_FACTORS", 10)
        with pytest.raises(TruncationCapError):
            qpoch_infinite(0.5, 0.99, tol=1e-16)


def _qpoch_infinite_literal(x, q, tol):
    """(x; q)_inf cut at truncation_order(x, q, tol), with no memo in between."""
    xf = complex(x) if isinstance(x, complex) else float(x)
    qf = float(q)
    out = 1.0
    term = xf
    for _ in range(truncation_order(xf, qf, tol)):
        out = out * (1.0 - term)
        term = term * qf
    return out


_Q_EQUALS_T = params_from_hat(Fraction(1, 3), Fraction(1, 3), (Fraction(1, 2), Fraction(-1, 3), Fraction(1, 5)))


class TestOrderMemo:
    """qpoch_infinite reads its truncation order from a memo keyed on (|x|, |q|, tol)."""

    @pytest.mark.parametrize("p", PARAM_SETS + [_Q_EQUALS_T], ids=["pA", "pB", "pC", "q=t"])
    def test_equals_the_literal_product(self, p):
        # the arguments of the scattering factors and of the norm prefactor
        q, t = float(p.q), float(p.t)
        th = [float(v) for v in p.that]
        rng = random.Random(26)
        zs = [cmath.exp(1j * x) for x in [0.0, math.pi, 1e-3] + [rng.uniform(-7, 7) for _ in range(12)]]
        args = [c * z for z in zs for c in [q, t, *th]] + [q * z * z for z in zs]
        args += [q, t, t**2, t**3] + [th[r] * th[s] * t**k for r in range(3) for s in range(r + 1, 3) for k in range(3)]
        for tol in (1e-16, 1e-14, 1e-10, 0.3):
            for x in args:
                ref = _qpoch_infinite_literal(x, q, tol)
                assert qpoch_infinite(x, q, tol) == ref
                assert qpoch_infinite(x, q, tol) == ref  # now from the memo

    def test_refusals_recur(self):
        before = qpoch_infinite.cache_info()
        for _ in range(2):
            with pytest.raises(ParamDomainError, match=r"finite \|x\|, got x=nan"):
                qpoch_infinite(float("nan"), 0.5)
            with pytest.raises(TruncationCapError, match="cap is 1000000"):
                qpoch_infinite(0.5, 1 - 1e-7, 1e-16)
        after = qpoch_infinite.cache_info()
        # the non-finite |x| never reaches the memo; each cap refusal is a miss, and none is kept
        assert after.misses - before.misses == 2
        assert after.currsize == before.currsize

    def test_lowered_cap_is_not_answered_from_the_memo(self, monkeypatch):
        assert qpoch_infinite(0.5, 0.98, 1e-16) == _qpoch_infinite_literal(0.5, 0.98, 1e-16)
        monkeypatch.setattr(qcore, "MAX_QPOCH_FACTORS", 10)
        for _ in range(2):
            with pytest.raises(TruncationCapError, match="needs 1790 factors .* cap is 10$"):
                qpoch_infinite(0.5, 0.98, 1e-16)


class TestTruncationOrder:
    def test_below_tol(self):
        assert truncation_order(1e-20, 0.5, 1e-16) == 0

    @pytest.mark.parametrize("tol", [0.0, -1.0, float("nan"), float("inf")])
    def test_bad_tol_rejected(self, tol):
        # inf would truncate every product to the empty product 1.0
        with pytest.raises(ParamDomainError, match="tolerance"):
            truncation_order(0.5, 0.5, tol)
        with pytest.raises(ParamDomainError, match="tolerance"):
            qpoch_infinite(0.5, 0.5, tol)

    @pytest.mark.parametrize(
        "call",
        [
            lambda: truncation_order(float("nan"), 0.5, 1e-12),
            lambda: qpoch_infinite(float("nan"), 0.5),
            lambda: scattering.S_hat([float("nan")], PARAM_SETS[0]),
            lambda: scattering.s_pair(float("inf"), PARAM_SETS[0]),
        ],
        ids=["truncation_order-nan", "qpoch_infinite-nan", "S_hat-nan", "s_pair-inf"],
    )
    def test_non_finite_x_rejected(self, call):
        # math.ceil of nan or inf raised a bare ValueError or OverflowError
        with pytest.raises(ParamDomainError, match=r"finite \|x\|, got x=\(?(nan|inf)"):
            call()

    def test_minimality(self):
        rng = random.Random(3)
        for _ in range(30):
            x = rng.uniform(0.1, 5.0)
            q = rng.uniform(0.05, 0.95)
            tol = 10.0 ** rng.randint(-16, -4)
            n = truncation_order(x, q, tol)
            assert x * q**n < tol
            if n > 0:
                assert x * q ** (n - 1) >= tol


class TestParamSet:
    def test_derived_couplings(self):
        p = params_from_hat(Fraction(1, 3), Fraction(1, 2), (Fraction(1, 2), Fraction(1, 3), Fraction(1, 5)))
        assert p.t0 == Fraction(1, 5)
        assert p.t1 == Fraction(1, 10)
        assert p.t2 == Fraction(1, 6)
        assert p.t3 == 1

    def test_equal_hats_give_equal_couplings(self):
        p = params_from_hat(Fraction(1, 3), Fraction(1, 2), (Fraction(1, 2), Fraction(1, 5), Fraction(1, 5)))
        assert p.t1 == p.t2

    def test_square_root_branch_identity(self):
        for p in PARAM_SETS:
            assert p.that0**2 == p.t1 * p.t2 / (p.q * p.t0)

    def test_string_inputs(self):
        p = params_from_hat("1/3", "0.5", ("0.5", "1/3", "1/5"))
        assert p.q == Fraction(1, 3)
        assert p.t == Fraction(1, 2)
        assert p.that == (Fraction(1, 2), Fraction(1, 3), Fraction(1, 5))

    @pytest.mark.parametrize(
        "q,t,that",
        [
            ("2", "1/2", ("1/2", "1/3", "1/5")),
            ("1/3", "0", ("1/2", "1/3", "1/5")),
            ("1/3", "1/2", ("0", "1/3", "1/5")),
            ("1/3", "1/2", ("1/2", "1", "1/5")),
            ("1/3", "1/2", ("1/2", "1/3", "-1")),
        ],
    )
    def test_domain_violations(self, q, t, that):
        with pytest.raises(ParamDomainError):
            params_from_hat(q, t, that)

    def test_error_names_parameter(self):
        with pytest.raises(ParamDomainError, match="q"):
            params_from_hat("2", "1/2", ("1/2", "1/3", "1/5"))

    def test_validate_false_permits_boundary(self):
        p = params_from_hat("1/3", "1/2", ("1/2", "1/3", "0"), validate=False)
        assert p.that2 == 0
        assert p.t0 == 0

    def test_morse_vanishing_params_is_the_reduction(self):
        # the that2 = 0 set that the limit checks built with validate=False
        for p in PARAM_SETS:
            reduced = morse_vanishing_params(p.q, p.t, p.that0, p.that1)
            old = params_from_hat(p.q, p.t, (p.that0, p.that1, Fraction(0)), validate=False)
            assert reduced == old and hash(reduced) == hash(old)
            assert reduced.that2 == reduced.t0 == reduced.t1 == 0

    @pytest.mark.parametrize(
        "q, t, that0, that1",
        [
            ("0", "1/2", "1/2", "1/3"),
            ("1", "1/2", "1/2", "1/3"),
            ("-1/3", "1/2", "1/2", "1/3"),
            ("1/3", "0", "1/2", "1/3"),
            ("1/3", "1", "1/2", "1/3"),
            ("1/3", "1/2", "0", "1/3"),
            ("1/3", "1/2", "-1", "1/3"),
            ("1/3", "1/2", "1/2", "0"),
            ("1/3", "1/2", "1/2", "3/2"),
            ("2", "0", "0", "0"),
        ],
    )
    def test_morse_vanishing_params_refuses_the_domain(self, q, t, that0, that1):
        # the same refusal, text included, as params_from_hat with an in-domain that2
        with pytest.raises(ParamDomainError) as want:
            params_from_hat(q, t, (that0, that1, "1/5"))
        with pytest.raises(ParamDomainError) as got:
            morse_vanishing_params(q, t, that0, that1)
        assert str(got.value) == str(want.value)
        assert str(got.value).startswith("parameter ")

    def test_t0_refuses_q_zero(self):
        # t0 = that1 that2 / q raised a bare Fraction(-1, 0)
        p = params_from_hat("0", "1/2", ("1/2", "-1/3", "1/5"), validate=False)
        with pytest.raises(ParamDomainError, match="parameter q must be nonzero"):
            p.t0

    def test_wrong_coupling_count(self):
        with pytest.raises(ParamDomainError):
            params_from_hat("1/3", "1/2", ("1/2", "1/3"))

    def test_equal_params_share_memo_entries(self):
        a = params_from_hat("1/3", "0.5", ("0.5", "-1/3", "1/5"))
        b = params_from_hat(Fraction(1, 3), Fraction(1, 2), (Fraction(1, 2), Fraction(-1, 3), Fraction(1, 5)))
        assert a is not b and a == b
        assert hash(a) == hash(b) == hash((a.q, a.t, a.that))
        assert a != params_from_hat("1/3", "0.5", ("0.5", "-1/3", "1/7"))
        assert hop_terms(1, (1, 0), a) is hop_terms(1, (1, 0), b)
        before = dual_matrix.cache_info()
        assert dual_matrix(1, 2, a, 9) is dual_matrix(1, 2, b, 9)
        after = dual_matrix.cache_info()
        assert after.hits == before.hits + 1
