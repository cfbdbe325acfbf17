"""Lattice Hamiltonian with Morse term and its commuting integrals.

Operators act on functions of partitions ("lattice functions"); the
lattice site behind a partition lam is x = rho + lam with
q**x_j = t**(n-j) * q**lam_j, and that combination is the only way sites
enter any formula, so everything on this side is exact rational.

Hops that would leave the partition cone are excluded by an explicit
shape check on the shifted tuple; the corresponding coefficients vanish
anyway, and tests pin down that consistency.

Every level reads one factor table per (lam, params) (_factors, cached),
which keeps the U sums U_{K,p} and the V products V_{eps J} it has
formed.  None of them depends on the level.  The coefficients and the
order of the hops come from the signed-hop engine shared with the dual
integrals (combinatorics._terms and _hop_coefficient); this module only
says how the factors are built and how a hop moves lam.  Hop tables are
built once per (l, lam, params) and shared by every caller: hop_terms
returns a cached tuple of (target, coefficient) pairs.

The factors are reduced (numerator, denominator) int pairs, each formed
once from the integer numerators and denominators of a_j, a_j/a_k and
the parameters.  The hop products and U sums multiply and add those
pairs unreduced, and each coefficient is reduced once: a Fraction in a
hop table, a reduced int pair in a column.  The closed
forms v_plus and v_minus are their own integer products over the same
a_j, kept apart from the hop tables so that apply_H checks
apply_Hl(1, .) independently.

The lattice measure lives here too: norm_ratio is Delta_lam/Delta_0 as
one Fraction over integer q-Pochhammer products (qcore._qpoch_ints), and
detailed_balance_residual is the detailed balance of v_plus against
v_minus under that measure, exactly zero.  spectral turns the ratio into
the float norm.

apply_Hl reads the hop coefficients by columns: the column of
(l, nu, params) lists every source lam with a hop of level l onto nu,
with that coefficient as a reduced integer pair, and is built once and
cached like the tables.  A column forms only its own coefficients from
the factor tables of its sources and builds no hop table.  Each factor
table records the first pair of sites whose in-pair factors divide by
zero (_Factors.pole), and every hop table of level l >= 2 meets that
pair first, so a column raises the pole of its first source that has
one, with the text that source's table raises (_checked_factors).
apply_Hl scatters each support value along its column and sums the
entries in the one accumulator of exact linear combinations
(combinatorics._pair_sums), one Fraction per output coefficient, so it
takes int and Fraction values only.

Sign convention for the square-root prefactors of the hop coefficients:
sqrt(q*t0/(t1*t2)) = 1/that0 and sqrt(t1*t2/(q*t0)) = that0, which is an
exact rational on the hatted parameter domain (also for negative that0).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from .combinatorics import (
    PartitionMap,
    _check_level,
    _check_sites,
    _cone_stencil,
    _Factors,
    _fractions,
    _hop_coefficient,
    _Lazy,
    _pair_sums,
    _ratio,
    _signed_hops,
    _terms,
    check_partition,
    is_partition,
)
from .errors import DegeneracyError, ParamDomainError, PoleError
from .qcore import _qpoch_ints

__all__ = [
    "LatticeFunction",
    "v_plus",
    "v_minus",
    "norm_ratio",
    "detailed_balance_residual",
    "apply_H",
    "hop_terms",
    "apply_Hl",
    "epsilon0",
    "commutator_on_delta",
    "morse_vanishing_limit_check",
    "symmetrization_identity_sides",
    "ruijsenaars_limit_check",
]


class LatticeFunction(PartitionMap):
    """Finitely supported function on length-n partitions, values in .values."""

    @classmethod
    def delta(cls, lam):
        lam = check_partition(lam)
        return cls(len(lam), {lam: Fraction(1)})

    def __getitem__(self, lam):
        return self.values.get(tuple(lam), 0)


def _site_power(lam, j, params):
    """q**(rho_j + lam_j) = t**(n-j) * q**lam_j for 1-based j."""
    n = len(lam)
    return params.t ** (n - j) * params.q ** lam[j - 1]


def _one_site(lam, j, params, s):
    """v_plus (s = 1) or v_minus (s = -1) at site j, from its closed form.

    The product runs on the integer numerators and denominators of
    a_k = t**(n-k) q**lam_k and of the parameters; one Fraction is formed.
    """
    lam = check_partition(lam)
    n = len(lam)
    _check_sites((j,), n)
    t, q = params.t, params.q
    an = [t.numerator ** (n - k) * q.numerator ** lam[k - 1] for k in range(1, n + 1)]
    ad = [t.denominator ** (n - k) * q.denominator ** lam[k - 1] for k in range(1, n + 1)]
    x, y = an[j - 1], ad[j - 1]
    h0n, h0d = params.that0.numerator, params.that0.denominator
    if s > 0:
        # (1/that0)(1 - t1 a_j)(1 - t2 a_j), and the head 1/t of the mixed factors
        t1, t2 = params.t1, params.t2
        num = h0d * (t1.denominator * y - t1.numerator * x) * (t2.denominator * y - t2.numerator * x)
        den = h0n * t1.denominator * t2.denominator * y * y
        hn, hd = t.denominator, t.numerator
    else:
        # that0 (1 - t0 a_j)(1 - a_j), and the head t of the mixed factors
        t0 = params.t0
        num = h0n * (t0.denominator * y - t0.numerator * x) * (y - x)
        den = h0d * t0.denominator * y * y
        hn, hd = t.numerator, t.denominator
    for k in range(n):
        if k != j - 1:
            # (head - r)/(1 - r) with r = a_j/a_k = rn/rd
            rn, rd = x * ad[k], y * an[k]
            num *= hn * rd - hd * rn
            den *= hd * (rd - rn)
    return Fraction(num, den)


def v_plus(lam, j, params):
    """Up-hop coefficient at site j (1-based).

    (1/that0) (1 - t1 q^x_j)(1 - t2 q^x_j)
    prod_{k != j} (1/t - q^{x_j - x_k}) / (1 - q^{x_j - x_k}).

    Vanishes exactly when lam + e_j leaves the partition cone.
    """
    return _one_site(lam, j, params, 1)


def v_minus(lam, j, params):
    """Down-hop coefficient at site j (1-based).

    that0 (1 - t0 q^x_j)(1 - q^x_j)
    prod_{k != j} (t - q^{x_j - x_k}) / (1 - q^{x_j - x_k}).

    Vanishes exactly when lam - e_j leaves the partition cone.
    """
    return _one_site(lam, j, params, -1)


def norm_ratio(lam, params):
    """Exact lattice norm divided by its value at the empty partition.

    prod_j (that0 that1 t^(n-j))_{lam_j} (that0 that2 t^(n-j))_{lam_j}
         / (that0^(2 lam_j) t^(2(n-j) lam_j) (q t^(n-j))_{lam_j} (that1 that2 t^(n-j))_{lam_j})
    * prod_{j<k} (1 - t^(k-j) q^(lam_j-lam_k))/(1 - t^(k-j))
                 * (t^(1+k-j))_{lam_j-lam_k} / (q t^(k-j-1))_{lam_j-lam_k}.

    The product runs on the integer numerators and denominators of the
    parameters, each (x; q)_m read from the exact body of qpoch_finite
    (qcore._qpoch_ints); one Fraction is formed.
    """
    lam = check_partition(lam)
    _check_boundary(params)
    n = len(lam)
    qn, qd = params.q.numerator, params.q.denominator
    tn, td = params.t.numerator, params.t.denominator
    (h0n, h0d), (h1n, h1d), (h2n, h2d) = ((th.numerator, th.denominator) for th in params.that)
    num = den = 1
    for j in range(1, n + 1):
        lj = lam[j - 1]
        # t^(n-j) = pn/pd
        pn, pd = tn ** (n - j), td ** (n - j)
        an, ad = _qpoch_ints(h0n * h1n * pn, h0d * h1d * pd, qn, qd, lj)
        bn, bd = _qpoch_ints(h0n * h2n * pn, h0d * h2d * pd, qn, qd, lj)
        cn, cd = _qpoch_ints(qn * pn, qd * pd, qn, qd, lj)
        dn, dd = _qpoch_ints(h1n * h2n * pn, h1d * h2d * pd, qn, qd, lj)
        # the numerator of the j-th denominator
        dj = (h0n * pn) ** (2 * lj) * cn * dn
        if dj == 0:
            raise DegeneracyError(f"vanishing norm denominator at lam={lam}, j={j}")
        num *= an * bn * (h0d * pd) ** (2 * lj) * cd * dd
        den *= ad * bd * dj
    for j in range(1, n + 1):
        for k in range(j + 1, n + 1):
            d = lam[j - 1] - lam[k - 1]
            # t^(k-j) = pn/pd, and (1 - t^(k-j) q^d)/(1 - t^(k-j))
            pn, pd = tn ** (k - j), td ** (k - j)
            num *= pd * qd**d - pn * qn**d
            den *= (pd - pn) * qd**d
            cn, cd = _qpoch_ints(qn * tn ** (k - j - 1), qd * td ** (k - j - 1), qn, qd, d)
            if cn == 0:
                raise DegeneracyError(f"vanishing norm denominator at lam={lam}, pair ({j},{k})")
            an, ad = _qpoch_ints(pn * tn, pd * td, qn, qd, d)
            num *= an * cd
            den *= ad * cn
    return Fraction(num, den)


def detailed_balance_residual(lam, j, params):
    """ratio(lam+e_j)/ratio(lam) * v_minus(lam+e_j, j) - v_plus(lam, j); zero exactly."""
    lam = check_partition(lam)
    _check_sites((j,), len(lam))
    up = list(lam)
    up[j - 1] += 1
    up = check_partition(up)
    ratio = norm_ratio(up, params) / norm_ratio(lam, params)
    return ratio * v_minus(up, j, params) - v_plus(lam, j, params)


def _shift(lam, J, eps, sign=1):
    """lam moved by sign * eps_j at each site j of J."""
    vec = list(lam)
    for j, s in zip(J, eps):
        vec[j - 1] += sign * s
    return tuple(vec)


def apply_H(f, params):
    """Apply the Hamiltonian H to a lattice function.

    (Hf)(lam) = sum_{j: lam+e_j admissible} v_plus(lam,j) (f(lam+e_j) - f(lam))
              + sum_{j: lam-e_j admissible} v_minus(lam,j) (f(lam-e_j) - f(lam)).
    """
    return LatticeFunction(
        f.n, _cone_stencil(f.values, lambda lam, j, s, nb: _one_site(lam, j, params, s) * (f[nb] - f[lam]))
    )


# Factor tables kept, one per (lam, params) for every level; as many hop
# tables, one per (l, lam, params), and as many columns, one per (l, nu, params).
HOP_CACHE_SIZE = 4096


def _check_boundary(params):
    """Refuse q = 0, t = 0 or 1 and that0 = 0, where the hop factors or the
    norm ratios divide by zero, with a ParamDomainError naming the parameter.

    params_from_hat(..., validate=False) admits them; that2 = 0, the
    Morse-vanishing reduction, stays admitted.
    """
    # on the integer parts, which is cheaper than comparing Fractions: norm_ratio checks on every call
    t = params.t
    if not params.q.numerator:
        raise ParamDomainError("parameter q must be nonzero, got 0")
    if not t.numerator or t.numerator == t.denominator:
        raise ParamDomainError(f"parameter t must not be 0 or 1, got {t}")
    if not params.that0.numerator:
        raise ParamDomainError("parameter that0 must be nonzero, got 0")


@functools.lru_cache(maxsize=HOP_CACHE_SIZE)
def _factors(lam, params):
    """The factor table of the hop coefficients at lam (1-based sites).

    With a_j = q**x_j and r = a_j/a_k: one-body factors
    (1/that0)(1 - t1 a_j)(1 - t2 a_j) up and that0 (1 - t0 a_j)(1 - a_j)
    down; mixed factors (1/t - r)/(1 - r) up and (t - r)/(1 - r) down.
    In-pair factors are built on first use.  Two hops of sign s give
    t**(-s) in V and 1 in U.  For j up and k down they give
    (1 - t r)/(1 - r) times (1/t - q r)/(1 - q r) in V or
    (1 - q r/t)/(1 - q r) in U: the only factors with a pole on the
    parameter domain (1 - q r = 0, e.g. at q = t**(j-k) when
    lam_j = lam_k), raised as a PoleError naming lam and the pair.  The
    first such (j, k), in (j, k) order, is kept as the table's pole.

    Each entry is one reduced int pair (combinatorics._ratio) formed from
    the integer numerators and denominators of a_j, r and the parameters.
    The table is shared by every level at lam, and so are the U sums and
    V products kept in it.  Boundary parameters are refused first
    (_check_boundary).
    """
    _check_boundary(params)
    n = len(lam)
    t, q = params.t, params.q
    tn, td = t.numerator, t.denominator
    qn, qd = q.numerator, q.denominator
    # a_j = an[j]/ad[j] = t**(n-j) q**lam_j, both parts positive
    an = [None] + [tn ** (n - j) * qn ** lam[j - 1] for j in range(1, n + 1)]
    ad = [None] + [td ** (n - j) * qd ** lam[j - 1] for j in range(1, n + 1)]
    h0n, h0d = params.that0.numerator, params.that0.denominator
    t0, t1, t2 = params.t0, params.t1, params.t2
    one, mixed, pole = {}, {}, None
    for j in range(1, n + 1):
        x, y = an[j], ad[j]
        one[j, 1] = _ratio(
            h0d * (t1.denominator * y - t1.numerator * x) * (t2.denominator * y - t2.numerator * x),
            h0n * t1.denominator * t2.denominator * y * y,
        )
        one[j, -1] = _ratio(
            h0n * (t0.denominator * y - t0.numerator * x) * (y - x),
            h0d * t0.denominator * y * y,
        )
        for k in range(1, n + 1):
            if k != j:
                # r = rn/rd = a_j/a_k
                rn, rd = x * ad[k], y * an[k]
                mixed[j, 1, k] = _ratio(td * rd - tn * rn, tn * (rd - rn))
                mixed[j, -1, k] = _ratio(tn * rd - td * rn, td * (rd - rn))
                if pole is None and qd * rd == qn * rn:
                    pole = j, k

    def pair(j, s, k, sk, stay):
        if s == sk:
            if stay:
                return 1, 1
            # t**(-s)
            return _ratio(td, tn) if s > 0 else _ratio(tn, td)
        if s < 0:
            j, k = k, j
        rn, rd = an[j] * ad[k], ad[j] * an[k]
        if qd * rd == qn * rn:
            raise _pole_error(lam, j, k, stay)
        head = (tn * qd * rd - td * qn * rn) if stay else (td * qd * rd - tn * qn * rn)
        return _ratio((td * rd - tn * rn) * head, td * tn * (rd - rn) * (qd * rd - qn * rn))

    return _Factors(n, one, mixed, _Lazy(pair), pole)


def _pole_error(lam, j, k, stay):
    """The PoleError of the in-pair factor of up site j and down site k at lam."""
    factor = "(1 - q r/t)/(1 - q r)" if stay else "(1/t - q r)/(1 - q r)"
    return PoleError(
        f"pole of H_l at lam={lam}: the factor {factor} of the pair "
        f"(j, k) = ({j}, {k}) divides by 1 - q a_j/a_k = 0"
    )


def _checked_factors(l, lam, params):
    """The factor table of lam, after raising the pole every hop table of
    level l at lam meets.

    Every hop table first forms U_{[n],l} of the staying hop (J empty,
    always admissible).  For l >= 2 its terms with |I+| = 1 read the U
    form of the in-pair factor of each up site j and down site k, and the
    first pole they meet is at the first such pair in (j, k) order; level
    1 reads no in-pair factor.  So, for any q and t, a hop table of level
    l raises exactly when l >= 2 and the table has a pole, and this raises
    the same PoleError.
    """
    F = _factors(lam, params)
    if l > 1 and F.pole:
        raise _pole_error(lam, *F.pole, True)
    return F


def hop_terms(l, lam, params):
    """All admissible hops of H_l at lam, as (target, coefficient) pairs.

    target = lam + e_{J+} - e_{J-} and coefficient =
    U_{(J+ u J-)^c, l - |J+| - |J-|}(lam) * V_{J+,J-}(lam); J+ and J- are
    the sites where target - lam is +1 and -1.  Admissibility is the
    explicit shape check on the shifted tuple, not a reliance on
    coefficient zeros.  Returns a shared, cached tuple.
    """
    lam = check_partition(lam)
    _check_level(l, len(lam))
    return _hop_table(l, lam, params)


@functools.lru_cache(maxsize=HOP_CACHE_SIZE)
def _hop_table(l, lam, params):
    def move(J, eps):
        target = _shift(lam, J, eps)
        return target if is_partition(target) else None

    return tuple((target, Fraction(*c)) for target, c in _terms(l, _factors(lam, params), move))


# hit and miss counts of the hop-table memo
hop_terms.cache_info = _hop_table.cache_info


def _sources(l, nu):
    """(J, eps, lam) for every partition lam from which the signed hop
    (J, eps) of level l reaches nu, in _signed_hops order."""
    for J, eps in _signed_hops(len(nu), l):
        lam = _shift(nu, J, eps, -1)
        if is_partition(lam):
            yield J, eps, lam


@functools.lru_cache(maxsize=HOP_CACHE_SIZE)
def _column(l, nu, params):
    """(lam, numerator, denominator) of the coefficient of each hop of H_l
    from a source lam to nu, reduced, in _sources order.

    Each coefficient alone is formed from the factor table of its source,
    read through _checked_factors, so the column raises the pole that the
    full hop table of its first source in _sources order with a pole
    would meet, and builds no hop table.
    """
    return tuple(
        (lam, *_ratio(*_hop_coefficient(J, eps, l, _checked_factors(l, lam, params))))
        for J, eps, lam in _sources(l, nu)
    )


def apply_Hl(l, f, params):
    """Apply the l-th commuting integral H_l to a lattice function.

    Exact only: the values of f must be ints or Fractions.  Each support
    point nu of f is scattered along its cached column into _pair_sums:
    f(nu) times the coefficient of every hop that reaches nu, added as an
    unreduced integer pair to the entry of the hop's source.  One Fraction
    is formed per entry, in sorted key order.  A pole is raised as the
    first source in sorted order meets it.
    """
    n = f.n
    _check_level(l, n)
    values = f.values
    for lam, v in values.items():
        if not isinstance(v, (int, Fraction)):
            raise ParamDomainError(
                f"apply_Hl takes int or Fraction values, got {v!r} of type {type(v).__name__} at {lam}"
            )
    try:
        columns = [(v, _column(l, nu, params)) for nu, v in values.items()]
    except PoleError:
        # name the pole that the first source in sorted order meets
        for lam in sorted({lam for nu in values for _, _, lam in _sources(l, nu)}):
            _checked_factors(l, lam, params)
        raise
    acc = _pair_sums([(v.numerator, v.denominator, column) for v, column in columns])
    return LatticeFunction._of_partitions(n, _fractions(acc, sorted(acc)))


# hit and miss counts of the column memo
apply_Hl.cache_info = _column.cache_info


def epsilon0(params, n):
    """Ground-state shift sum_j (that0 t^(n-j) + t^(j-n)/that0)."""
    t, a = params.t, params.that0
    return sum(a * t ** (n - j) + t ** (j - n) / a for j in range(1, n + 1))


def commutator_on_delta(l, m, lam0, params):
    """(H_l H_m - H_m H_l) applied to the delta function at lam0.

    Returns the (pruned) lattice function; exact commutativity means the
    result has empty support.
    """
    f = LatticeFunction.delta(lam0)
    ab = apply_Hl(l, apply_Hl(m, f, params), params)
    ba = apply_Hl(m, apply_Hl(l, f, params), params)
    return ab.minus(ba)


# ---------------------------------------------------------------------------
# limit checks
# ---------------------------------------------------------------------------


def symmetrization_identity_sides(t, z):
    """Both sides of the symmetrization identity behind the Morse diagonal.

    sum_j (1 + z_j) prod_{k != j} (t - z_j/z_k)/(1 - z_j/z_k)
        = sum_j (z_j + t^(n-j)).

    Returns (lhs, rhs); the coordinates must be pairwise distinct and
    nonzero.
    """
    z = list(z)
    n = len(z)
    if len(set(z)) != n or any(v == 0 for v in z):
        raise ParamDomainError("identity requires pairwise distinct nonzero coordinates")
    lhs = 0
    for j in range(n):
        term = 1 + z[j]
        for k in range(n):
            if k == j:
                continue
            r = z[j] / z[k]
            term *= (t - r) / (1 - r)
        lhs += term
    rhs = sum(z[j] + t ** (n - 1 - j) for j in range(n))
    return lhs, rhs


@dataclass
class LimitReport:
    """Outcome of an exact coefficient-matching check."""

    checked: int
    mismatches: list

    @property
    def ok(self):
        return not self.mismatches


def morse_vanishing_limit_check(params, n, max_weight):
    """Exact check of the Hamiltonian at that2 = 0 against its reduced form.

    With that2 = 0 (so t0 = t1 = 0) the Hamiltonian must act as

        sum_j [ (1/that0)(1 - that0 that1 q^{x_j}) A_j(x) T_j
              + that0 (1 - q^{x_j}) B_j(x) T_j^{-1}
              + (that0 + that1) q^{x_j} ]  -  epsilon0,

    with A_j, B_j the translation-invariant products over
    (1/t - q^{x_j-x_k})/(1 - q^{x_j-x_k}) resp. (t - ...)/(1 - ...).
    Verifies up-hop, down-hop and diagonal coefficients for every
    partition of weight <= max_weight and every site.
    """
    if params.that2 != 0:
        raise ParamDomainError("morse_vanishing_limit_check requires that2 = 0")
    from .combinatorics import partitions_max_weight

    t, q, a0, a1 = params.t, params.q, params.that0, params.that1
    mismatches = []
    checked = 0
    for lam in partitions_max_weight(n, max_weight):
        qx = [_site_power(lam, j, params) for j in range(1, n + 1)]
        diag_full = 0
        for j in range(1, n + 1):
            cross_up = Fraction(1)
            cross_dn = Fraction(1)
            for k in range(1, n + 1):
                if k == j:
                    continue
                r = qx[j - 1] / qx[k - 1]
                cross_up *= (1 / t - r) / (1 - r)
                cross_dn *= (t - r) / (1 - r)
            up_red = (1 / a0) * (1 - a0 * a1 * qx[j - 1]) * cross_up
            dn_red = a0 * (1 - qx[j - 1]) * cross_dn
            vp = v_plus(lam, j, params)
            vm = v_minus(lam, j, params)
            checked += 2
            if vp != up_red:
                mismatches.append(("up", lam, j, vp, up_red))
            if vm != dn_red:
                mismatches.append(("down", lam, j, vm, dn_red))
            diag_full += vp + vm
        diag_red = sum((a0 + a1) * qx[j - 1] for j in range(1, n + 1)) - epsilon0(params, n)
        checked += 1
        if -diag_full != diag_red:
            mismatches.append(("diag", lam, None, -diag_full, diag_red))
    return LimitReport(checked=checked, mismatches=mismatches)


def ruijsenaars_limit_check(n, params):
    """Degenerate the Morse coupling: t0 = eps t^(n-1)/q, t1 = t2 = t3 = eps.

    As eps -> 0 the one-body weights converge to the constants
    t^(+-(n-1)/2), with error linear in eps.  Returns a report with the
    worst absolute errors per eps and the error ratios between
    consecutive eps values (ratio approx eps_i/eps_{i+1} for a linear
    rate).  Floating-point path; q, t are taken from params.
    """
    q = float(params.q)
    t = float(params.t)
    target_p = t ** ((n - 1) / 2)
    target_m = t ** (-(n - 1) / 2)
    eps_values = (1e-4, 1e-6)
    errors = []
    for eps in eps_values:
        # the generic four-parameter one-body weights at t1 = t2 = t3 = eps:
        # w_plus = s (1 - t1 q^x)(1 - t2 q^x), w_minus = (1 - t0 q^x)(1 - t3 q^x)/s
        # with s = sqrt(q t0 t3/(t1 t2))
        t0 = eps * t ** (n - 1) / q
        s = math.sqrt((q * t0 * eps) / (eps * eps))
        worst = 0.0
        for j in range(1, n + 1):
            qx = t ** (n - j)
            wp = s * (1 - eps * qx) * (1 - eps * qx)
            wm = (1 - t0 * qx) * (1 - eps * qx) / s
            worst = max(worst, abs(wp - target_p), abs(wm - target_m))
        errors.append(worst)
    ratios = [errors[i] / errors[i + 1] for i in range(len(errors) - 1)]
    return {
        "eps": list(eps_values),
        "max_abs_error": errors,
        "error_ratios": ratios,
        "targets": (target_p, target_m),
    }
