"""Lattice Hamiltonian with Morse term and its commuting integrals.

Operators act on functions of partitions ("lattice functions"); the
lattice site behind a partition lam is x = rho + lam with
q**x_j = t**(n-j) * q**lam_j, and that combination is the only way sites
enter any formula, so everything on this side is exact rational.

Hops that would leave the partition cone are excluded by an explicit
shape check on the shifted tuple; the corresponding coefficients vanish
anyway, and tests pin down that consistency.

Hop tables are built once per (l, lam, params) and shared by every
caller: hop_terms returns a cached tuple of frozen HopTerms.  Each table
build, like each U_coeff and V_coeff call, first computes one factor
table of (lam, params) holding the site powers and the one-body and
pair factors of that label, and every coefficient reads from it.

Sign convention for the square-root prefactors of the hop coefficients:
sqrt(q*t0/(t1*t2)) = 1/that0 and sqrt(t1*t2/(q*t0)) = that0, which is an
exact rational on the hatted parameter domain (also for negative that0).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

from .combinatorics import check_partition, is_partition
from .errors import ParamDomainError, PoleError

__all__ = [
    "LatticeFunction",
    "HopTerm",
    "v_plus",
    "v_minus",
    "apply_H",
    "V_coeff",
    "U_coeff",
    "hop_terms",
    "apply_Hl",
    "apply_Hl_at",
    "epsilon0",
    "commutator_on_delta",
    "morse_vanishing_limit_check",
    "symmetrization_identity_sides",
    "ruijsenaars_limit_check",
]


@dataclass
class LatticeFunction:
    """Finitely supported function on length-n partitions.

    Values may be Fractions (exact path) or floats/complex.  Zero values
    are pruned so that equality of supports is meaningful.
    """

    n: int
    values: dict = field(default_factory=dict)

    def __post_init__(self):
        clean = {}
        for lam, v in self.values.items():
            lam = check_partition(lam, self.n)
            if v != 0:
                clean[lam] = v
        self.values = clean

    @classmethod
    def delta(cls, lam, value=Fraction(1)):
        lam = check_partition(lam)
        return cls(n=len(lam), values={lam: value})

    def __getitem__(self, lam):
        return self.values.get(tuple(lam), 0)

    def support(self):
        return sorted(self.values.keys())

    def is_zero(self):
        return not self.values

    def scaled(self, c):
        return LatticeFunction(self.n, {k: c * v for k, v in self.values.items()})

    def plus(self, other):
        if other.n != self.n:
            raise ParamDomainError("cannot add lattice functions of different ranks")
        out = dict(self.values)
        for k, v in other.values.items():
            out[k] = out.get(k, 0) + v
        return LatticeFunction(self.n, out)

    def minus(self, other):
        return self.plus(other.scaled(-1))

    def to_json(self):
        return [
            {"lambda": list(k), "value": str(v)}
            for k, v in sorted(self.values.items(), key=lambda kv: (sum(kv[0]), kv[0]))
        ]

    @classmethod
    def from_json(cls, n, rows):
        vals = {}
        for row in rows:
            vals[tuple(row["lambda"])] = Fraction(row["value"])
        return cls(n=n, values=vals)


def _site_power(lam, j, params):
    """q**(rho_j + lam_j) = t**(n-j) * q**lam_j for 1-based j."""
    n = len(lam)
    return params.t ** (n - j) * params.q ** lam[j - 1]


def _check_index(lam, j):
    if not 1 <= j <= len(lam):
        raise ParamDomainError(f"index j={j} out of range 1..{len(lam)}")


def v_plus(lam, j, params):
    """Up-hop coefficient at site j (1-based).

    (1/that0) (1 - t1 q^x_j)(1 - t2 q^x_j)
    prod_{k != j} (1/t - q^{x_j - x_k}) / (1 - q^{x_j - x_k}).

    Vanishes exactly when lam + e_j leaves the partition cone.
    """
    lam = check_partition(lam)
    _check_index(lam, j)
    n = len(lam)
    t = params.t
    aj = _site_power(lam, j, params)
    out = (1 / params.that0) * (1 - params.t1 * aj) * (1 - params.t2 * aj)
    for k in range(1, n + 1):
        if k == j:
            continue
        ratio = aj / _site_power(lam, k, params)
        out *= (1 / t - ratio) / (1 - ratio)
    return out


def v_minus(lam, j, params):
    """Down-hop coefficient at site j (1-based).

    that0 (1 - t0 q^x_j)(1 - q^x_j)
    prod_{k != j} (t - q^{x_j - x_k}) / (1 - q^{x_j - x_k}).

    Vanishes exactly when lam - e_j leaves the partition cone.
    """
    lam = check_partition(lam)
    _check_index(lam, j)
    n = len(lam)
    t = params.t
    aj = _site_power(lam, j, params)
    out = params.that0 * (1 - params.t0 * aj) * (1 - aj)
    for k in range(1, n + 1):
        if k == j:
            continue
        ratio = aj / _site_power(lam, k, params)
        out *= (t - ratio) / (1 - ratio)
    return out


def _shift(lam, plus=(), minus=()):
    vec = list(lam)
    for j in plus:
        vec[j - 1] += 1
    for j in minus:
        vec[j - 1] -= 1
    return tuple(vec)


def apply_H(f, params):
    """Apply the Hamiltonian H to a lattice function.

    (Hf)(lam) = sum_{j: lam+e_j admissible} v_plus(lam,j) (f(lam+e_j) - f(lam))
              + sum_{j: lam-e_j admissible} v_minus(lam,j) (f(lam-e_j) - f(lam)).
    """
    n = f.n
    candidates = set(f.values)
    for lam in f.values:
        for j in range(1, n + 1):
            for tgt in (_shift(lam, plus=[j]), _shift(lam, minus=[j])):
                if is_partition(tgt):
                    candidates.add(tgt)
    out = {}
    for lam in candidates:
        acc = 0
        for j in range(1, n + 1):
            up = _shift(lam, plus=[j])
            if is_partition(up):
                acc += v_plus(lam, j, params) * (f[up] - f[lam])
            dn = _shift(lam, minus=[j])
            if is_partition(dn):
                acc += v_minus(lam, j, params) * (f[dn] - f[lam])
        if acc != 0:
            out[lam] = acc
    return LatticeFunction(n, out)


# Hop tables kept, one per (l, lam, params).
HOP_CACHE_SIZE = 4096


class _Factors:
    """Every factor of the hop coefficients at one label, computed once.

    Indices are 1-based sites.  a[j] = q**x_j; up[j] and down[j] are the
    one-body factors of an up- and a down-hop at j; pair_up[j, k] =
    (1/t - r)/(1 - r) and pair_down[j, k] = (t - r)/(1 - r) with
    r = a_j/a_k.  The in-pair q-factors of V and U, for j hopping up and
    k hopping down, are built on first use: they are the only factors with
    a pole on the parameter domain (1 - q r = 0, e.g. at q = t**(j-k)
    when lam_j = lam_k).
    """

    def __init__(self, lam, params):
        n = len(lam)
        t, q = params.t, params.q
        t0, t1, t2, that0 = params.t0, params.t1, params.t2, params.that0
        self.lam, self.n, self.t, self.q = lam, n, t, q
        self.a = a = [None] + [_site_power(lam, j, params) for j in range(1, n + 1)]
        self.up = [None] + [(1 / that0) * (1 - t1 * a[j]) * (1 - t2 * a[j]) for j in range(1, n + 1)]
        self.down = [None] + [that0 * (1 - t0 * a[j]) * (1 - a[j]) for j in range(1, n + 1)]
        self.pair_up, self.pair_down = {}, {}
        for j in range(1, n + 1):
            for k in range(1, n + 1):
                if k != j:
                    r = a[j] / a[k]
                    self.pair_up[j, k] = (1 / t - r) / (1 - r)
                    self.pair_down[j, k] = (t - r) / (1 - r)
        self._v_in = {}
        self._u_in = {}

    def _ratio(self, j, k, factor):
        """r = a_j/a_k for an in-pair factor; PoleError when 1 - q r = 0."""
        r = self.a[j] / self.a[k]
        if 1 - self.q * r == 0:
            raise PoleError(
                f"pole of H_l at lam={self.lam}: the factor {factor} of the pair "
                f"(j, k) = ({j}, {k}) divides by 1 - q a_j/a_k = 0"
            )
        return r

    def v_in(self, j, k):
        """(1 - t r)/(1 - r) (1/t - q r)/(1 - q r) for j in J+, k in J-."""
        if (j, k) not in self._v_in:
            t, q, r = self.t, self.q, self._ratio(j, k, "(1/t - q r)/(1 - q r)")
            self._v_in[j, k] = (1 - t * r) / (1 - r) * (1 / t - q * r) / (1 - q * r)
        return self._v_in[j, k]

    def u_in(self, j, k):
        """(1 - t r)/(1 - r) (1 - q r/t)/(1 - q r) for j in I+, k in I-."""
        if (j, k) not in self._u_in:
            t, q, r = self.t, self.q, self._ratio(j, k, "(1 - q r/t)/(1 - q r)")
            self._u_in[j, k] = (1 - t * r) / (1 - r) * (1 - q * r / t) / (1 - q * r)
        return self._u_in[j, k]


def _v(Jp, Jm, F):
    p, m = len(Jp), len(Jm)
    out = F.t ** ((-p * (p - 1) + m * (m - 1)) // 2)
    for j in Jp:
        out *= F.up[j]
    for j in Jm:
        out *= F.down[j]
    rest = [k for k in range(1, F.n + 1) if k not in Jp and k not in Jm]
    for j in Jp:
        for k in Jm:
            out *= F.v_in(j, k)
        for k in rest:
            out *= F.pair_up[j, k]
    for j in Jm:
        for k in rest:
            out *= F.pair_down[j, k]
    return out


def _u(K, p, F):
    if p == 0:
        return Fraction(1)
    total = 0
    for sp in range(p + 1):
        for Ip in itertools.combinations(K, sp):
            restp = [k for k in K if k not in Ip]
            for Im in itertools.combinations(restp, p - sp):
                rest = [k for k in restp if k not in Im]
                term = 1
                for j in Ip:
                    term *= F.up[j]
                for j in Im:
                    term *= F.down[j]
                for j in Ip:
                    for k in Im:
                        term *= F.u_in(j, k)
                    for k in rest:
                        term *= F.pair_up[j, k]
                for j in Im:
                    for k in rest:
                        term *= F.pair_down[j, k]
                total += term
    return (-1) ** p * total


def V_coeff(Jplus, Jminus, lam, params):
    """Hop-product coefficient V_{J+,J-}(lam) of the integral H_l."""
    lam = check_partition(lam)
    Jp = tuple(sorted(set(Jplus)))
    Jm = tuple(sorted(set(Jminus)))
    if set(Jp) & set(Jm):
        raise ParamDomainError(f"J+ and J- must be disjoint, got {Jp} and {Jm}")
    for j in Jp + Jm:
        _check_index(lam, j)
    return _v(Jp, Jm, _Factors(lam, params))


def U_coeff(K, p, lam, params):
    """Stay-put coefficient U_{K,p}(lam) of the integral H_l.

    Signed sum over disjoint I+, I- inside K with |I+| + |I-| = p of
    one-body and pair factors; U_{K,0} = 1 and U_{K,p} = 0 for p > |K|.
    """
    lam = check_partition(lam)
    if p < 0:
        raise ParamDomainError(f"order p must be >= 0, got {p}")
    K = tuple(sorted(set(K)))
    for j in K:
        _check_index(lam, j)
    return _u(K, p, _Factors(lam, params))


@dataclass(frozen=True)
class HopTerm:
    """One admissible hop of H_l: target = lam + e_{J+} - e_{J-}."""

    Jplus: tuple
    Jminus: tuple
    target: tuple
    coefficient: Fraction


def hop_terms(l, lam, params):
    """All admissible hop terms of H_l at lam, with coefficients.

    Coefficient = U_{(J+ u J-)^c, l - |J+| - |J-|}(lam) * V_{J+,J-}(lam).
    Admissibility is the explicit shape check on the shifted tuple, not a
    reliance on coefficient zeros.  Returns a shared, cached tuple.
    """
    lam = check_partition(lam)
    n = len(lam)
    if not 1 <= l <= n:
        raise ParamDomainError(f"level l must satisfy 1 <= l <= {n}, got {l}")
    return _hop_table(l, lam, params)


@functools.lru_cache(maxsize=HOP_CACHE_SIZE)
def _hop_table(l, lam, params):
    F = _Factors(lam, params)
    n = len(lam)
    out = []
    for assign in itertools.product((0, 1, 2), repeat=n):
        Jp = tuple(j for j in range(1, n + 1) if assign[j - 1] == 1)
        Jm = tuple(j for j in range(1, n + 1) if assign[j - 1] == 2)
        if len(Jp) + len(Jm) > l:
            continue
        target = _shift(lam, plus=Jp, minus=Jm)
        if not is_partition(target):
            continue
        comp = tuple(j for j in range(1, n + 1) if assign[j - 1] == 0)
        coeff = _u(comp, l - len(Jp) - len(Jm), F) * _v(Jp, Jm, F)
        out.append(HopTerm(Jplus=Jp, Jminus=Jm, target=target, coefficient=coeff))
    return tuple(out)


# hit and miss counts of the hop-table memo
hop_terms.cache_info = _hop_table.cache_info


def apply_Hl_at(l, f, lam, params):
    """Value of (H_l f) at the single partition lam."""
    acc = 0
    for term in hop_terms(l, lam, params):
        fv = f[term.target]
        if fv != 0:
            acc += term.coefficient * fv
    return acc


def apply_Hl(l, f, params):
    """Apply the l-th commuting integral H_l to a lattice function."""
    n = f.n
    if not 1 <= l <= n:
        raise ParamDomainError(f"level l must satisfy 1 <= l <= {n}, got {l}")
    candidates = set()
    shifts = []
    for assign in itertools.product((0, 1, 2), repeat=n):
        Jp = tuple(j for j in range(1, n + 1) if assign[j - 1] == 1)
        Jm = tuple(j for j in range(1, n + 1) if assign[j - 1] == 2)
        if len(Jp) + len(Jm) <= l:
            shifts.append((Jp, Jm))
    for nu in f.values:
        for Jp, Jm in shifts:
            # source lam maps to nu when lam + e_{J+} - e_{J-} = nu
            src = _shift(nu, plus=Jm, minus=Jp)
            if is_partition(src):
                candidates.add(src)
    out = {}
    for lam in sorted(candidates):
        acc = apply_Hl_at(l, f, lam, params)
        if acc != 0:
            out[lam] = acc
    return LatticeFunction(n, out)


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


def w_pair_generic(qx, q, t0, t1, t2, t3):
    """Generic four-parameter one-body weights (floating path).

    w_plus = sqrt(q t0 t3/(t1 t2)) (1 - t1 q^x)(1 - t2 q^x)
    w_minus = sqrt(t1 t2/(q t0 t3)) (1 - t0 q^x)(1 - t3 q^x)
    """
    s = math.sqrt((q * t0 * t3) / (t1 * t2))
    wp = s * (1 - t1 * qx) * (1 - t2 * qx)
    wm = (1 - t0 * qx) * (1 - t3 * qx) / s
    return wp, wm


def ruijsenaars_limit_check(n, params, eps_values=(1e-4, 1e-6)):
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
    errors = []
    for eps in eps_values:
        t0 = eps * t ** (n - 1) / q
        worst = 0.0
        for j in range(1, n + 1):
            qx = t ** (n - j)
            wp, wm = w_pair_generic(qx, q, t0, eps, eps, eps)
            worst = max(worst, abs(wp - target_p), abs(wm - target_m))
        errors.append(worst)
    ratios = [errors[i] / errors[i + 1] for i in range(len(errors) - 1)]
    return {
        "eps": list(eps_values),
        "max_abs_error": errors,
        "error_ratios": ratios,
        "targets": (target_p, target_m),
    }
