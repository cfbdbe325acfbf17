"""Exact rationals, q-Pochhammer symbols, and the model parameter set.

All structural identities in this package are checked in exact rational
arithmetic; floating point enters only through infinite products,
quadrature, and eigensolves.  The exact side runs on ``fractions.Fraction``
(arbitrary-precision rationals from the standard library); the floating
side is plain ``float``/``complex`` double precision.

Parameters live in the hatted coordinates ``q, t, (that0, that1, that2)``.
The unhatted couplings are derived as

    t0 = that1*that2/q,   t1 = that0*that2,   t2 = that0*that1,   t3 = 1,

which makes the square roots appearing in hop coefficients exact:
sqrt(q*t0/(t1*t2)) = 1/that0 and sqrt(t1*t2/(q*t0)) = that0.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import ParamDomainError, TruncationCapError

__all__ = [
    "parse_rational",
    "qpoch_finite",
    "qpoch_infinite",
    "truncation_order",
    "ParamSet",
    "params_from_hat",
]

#: hard cap on the number of factors kept in an infinite q-product
MAX_QPOCH_FACTORS = 10**6

#: truncation orders kept by qpoch_infinite, one per (|x|, |q|, tol)
ORDER_CACHE_SIZE = 1024


def parse_rational(text):
    """Parse ``"p/q"`` or a decimal string into an exact Fraction.

    Decimal strings convert exactly (power-of-ten denominator), so
    ``parse_rational("0.2") == Fraction(1, 5)``.
    """
    if isinstance(text, Fraction):
        return text
    if isinstance(text, int):
        return Fraction(text)
    if isinstance(text, float):
        raise ParamDomainError(
            "refusing to parse a float as a rational; pass a string or Fraction"
        )
    try:
        return Fraction(str(text).strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ParamDomainError(f"cannot parse rational from {text!r}: {exc}") from None


def qpoch_finite(x, m, q):
    """Finite q-Pochhammer symbol (x; q)_m = prod_{l=0}^{m-1} (1 - x q^l).

    When ``x`` and ``q`` are ints or Fractions the result is a Fraction:
    with x = x_n/x_d and q = q_n/q_d, the integer product of
    (x_d q_d^l - x_n q_n^l) over x_d^m q_d^(m(m-1)/2), formed once.  A
    float or a numpy array ``x`` gives the product factor by factor
    (elementwise for an array, as the spectral weight grid uses it).
    ``m`` must be a nonnegative integer (an integral float counts);
    anything else, NaN and inf included, raises ParamDomainError.
    (x; q)_0 = 1.
    """
    try:
        order = int(m)
        valid = order == m and order >= 0
    except (TypeError, ValueError, OverflowError):  # str, nan, inf
        valid = False
    if not valid:
        raise ParamDomainError(f"q-Pochhammer order m must be a nonnegative integer, got {m!r}")
    if isinstance(x, (int, Fraction)) and isinstance(q, (int, Fraction)):
        return Fraction(*_qpoch_ints(x.numerator, x.denominator, q.numerator, q.denominator, order))
    out = 1
    qp = 1
    for _ in range(order):
        out = out * (1 - x * qp)
        qp = qp * q
    return out


def _qpoch_ints(xn, xd, qn, qd, m):
    """(x; q)_m at x = xn/xd and q = qn/qd as an unreduced int pair.

    The numerator is the product of (xd qd^l - xn qn^l) for l < m, the
    denominator xd^m qd^(m(m-1)/2); xd and qd must be nonzero.  The exact
    body of qpoch_finite, also read by latticeop.norm_ratio.
    """
    num, pn, pd = 1, 1, 1
    for _ in range(m):
        num *= xd * pd - xn * pn
        pn *= qn
        pd *= qd
    return num, xd**m * qd ** (m * (m - 1) // 2)


def truncation_order(x, q, tol):
    """Smallest N with |x| |q|^N < tol (N = 0 when |x| < tol already).

    Computed in floats, also for exact x and q.  |x| and tol must be
    finite and tol > 0; raises TruncationCapError when N exceeds
    ``MAX_QPOCH_FACTORS`` (q extremely close to 1, or rounding to 1).
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ParamDomainError(f"truncation tolerance must be a finite number > 0, got {tol}")
    ax = float(abs(x))
    if not math.isfinite(ax):
        raise ParamDomainError(f"truncation order needs a finite |x|, got x={x!r}")
    if ax < tol:
        return 0
    aq = float(abs(q))
    if aq == 0:
        return 1
    # ceil of log(tol/|x|)/log|q|, computed defensively against rounding
    n = max(math.ceil((math.log(tol) - math.log(ax)) / math.log(aq)), 0) if aq < 1 else math.inf
    while n <= MAX_QPOCH_FACTORS and ax * aq**n >= tol:
        n += 1
    if n > MAX_QPOCH_FACTORS:
        raise TruncationCapError(
            f"(x; q)_inf needs {n} factors for tol={tol} at |q|={aq}; cap is {MAX_QPOCH_FACTORS}"
        )
    return n


def qpoch_infinite(x, q, tol=1e-16):
    """Infinite q-Pochhammer symbol (x; q)_inf, truncated.

    The product prod_{l>=0} (1 - x q^l) is cut at the smallest N with
    |x| |q|^N < tol.  Since |log prod_{l>=N} (1 - x q^l)| <=
    sum_{l>=N} |x| |q|^l / (1 - |x q^l|), the neglected tail changes the
    result by a relative amount bounded by about ``2 * tol / (1 - |q|)``
    once tol <= 1/2, which is the documented accuracy of this routine.

    Requires |q| < 1; raises TruncationCapError when the needed number of
    factors exceeds ``MAX_QPOCH_FACTORS`` (see truncation_order).  N is
    computed once per (|x|, |q|, tol) and kept; ``qpoch_infinite.cache_info``
    reports the hits and misses of that memo.
    """
    aq = abs(q)
    if aq >= 1:
        raise ParamDomainError(f"qpoch_infinite requires |q| < 1, got |q| = {aq}")
    xf = complex(x) if isinstance(x, complex) else float(x)
    qf = complex(q) if isinstance(q, complex) else float(q)
    ax = abs(xf)
    if math.isfinite(ax):
        n = _order(ax, abs(qf), tol, MAX_QPOCH_FACTORS)
    else:  # refused by truncation_order, in a message that names x
        n = truncation_order(xf, qf, tol)
    out = 1.0
    term = xf
    for _ in range(n):
        out = out * (1.0 - term)
        term = term * qf
    if out != out or (isinstance(out, complex) and cmath.isinf(out)) or (
        isinstance(out, float) and math.isinf(out)
    ):
        raise ParamDomainError(f"qpoch_infinite produced a non-finite value for x={x!r}, q={q!r}")
    return out


@functools.lru_cache(maxsize=ORDER_CACHE_SIZE)
def _order(ax, aq, tol, cap):
    """truncation_order at the floats |x|, |q| and tol, the only values it reads.

    cap is the MAX_QPOCH_FACTORS the order is found under, so an order
    kept under another cap is not reused.  A refusal is not kept, so it
    is raised again on every call.
    """
    return truncation_order(ax, aq, tol)


# hit and miss counts of the truncation-order memo
qpoch_infinite.cache_info = _order.cache_info


def _check_open_unit(name, value):
    if not 0 < value < 1:
        raise ParamDomainError(f"parameter {name} must lie in (0, 1), got {value}")


def _check_hat(name, value):
    if not -1 < value < 1:
        raise ParamDomainError(f"parameter {name} must lie in (-1, 1), got {value}")
    if value == 0:
        raise ParamDomainError(f"parameter {name} must be nonzero")


@dataclass(frozen=True)
class ParamSet:
    """Model parameters in hatted coordinates.

    q and t are rationals in (0, 1); the three hatted couplings are
    nonzero rationals in (-1, 1).  The derived unhatted couplings
    t0, t1, t2 (t3 is identically 1) are exact rationals, each computed
    on first use and kept; t0 = that1 that2 / q refuses q = 0 with a
    ParamDomainError.
    """

    q: Fraction
    t: Fraction
    that: tuple

    def __post_init__(self):
        # every memo lookup hashes its params; hashing a Fraction costs a
        # modular inverse, so the hash is taken once
        object.__setattr__(self, "_hash", hash((self.q, self.t, self.that)))

    def __hash__(self):
        return self._hash

    @property
    def that0(self):
        return self.that[0]

    @property
    def that1(self):
        return self.that[1]

    @property
    def that2(self):
        return self.that[2]

    @functools.cached_property
    def t0(self):
        if self.q == 0:
            raise ParamDomainError("parameter q must be nonzero: t0 = that1 that2 / q")
        return self.that[1] * self.that[2] / self.q

    @functools.cached_property
    def t1(self):
        return self.that[0] * self.that[2]

    @functools.cached_property
    def t2(self):
        return self.that[0] * self.that[1]

    @property
    def t3(self):
        return Fraction(1)

    def as_dict(self):
        return {
            "q": str(self.q),
            "t": str(self.t),
            "that0": str(self.that[0]),
            "that1": str(self.that[1]),
            "that2": str(self.that[2]),
        }


def params_from_hat(q, t, that, validate=True):
    """Build a ParamSet from hatted parameters, validating the domain.

    Accepts Fractions or strings ("p/q" or decimal).  With
    ``validate=False`` the domain checks are skipped; that path exists
    for boundary studies such as the vanishing-Morse limit that2 = 0.
    """
    q = parse_rational(q)
    t = parse_rational(t)
    that = tuple(parse_rational(v) for v in that)
    if len(that) != 3:
        raise ParamDomainError(f"expected exactly three hatted couplings, got {len(that)}")
    if validate:
        _check_open_unit("q", q)
        _check_open_unit("t", t)
        for r, value in enumerate(that):
            _check_hat(f"that{r}", value)
    return ParamSet(q=q, t=t, that=that)
