"""Bispectral dual q-difference operators on W-invariant polynomials.

The dual integrals Hhat_l act on Laurent polynomials invariant under
permutations and inversions of the torus coordinates z_j = e^(i xi_j).
Their coefficients are rational in z, so instead of symbolic rewriting
the action is computed by evaluation-interpolation:

* a candidate support for the image (a union of dominance ideals) fixes
  the unknown monomial coefficients;
* the operator is evaluated pointwise at deterministic generic rational
  points (where q-shifts z_j -> q^(+-1) z_j stay rational);
* the coefficients are recovered by an exact fraction-free linear solve;
* one held-out point re-checks the interpolated image exactly, so a
  support violation cannot pass silently.

The terms at a point come from the signed-hop engine shared with the
lattice integrals (combinatorics._terms), over one factor
table per point, shared by every level, every growth step and every
coefficient helper (vhat_signed, uhat_coeff) that reads the point; this
module only says how the factors are built and how a hop moves the
point.  The same per-point record keeps the term lists of each level and
the monomial values at the point and its shifts, so a growth step
evaluates nothing at the points of the step before.

The fit runs on integers from the point to the solve: each factor-table
entry is one Fraction formed from the integer parts of z_j = a_j/b_j
and of the parameters; monomials come from the integer kernel
combinatorics._Monomials, at the point and at its shifts written
unreduced (a_j q_n)/(b_j q_d) or (a_j q_d)/(b_j q_n); and each row of
the linear system is a list of ints whose scale is known in closed form
(_row).  _one_body and _pair_t stay only behind vhat and
apply_dual_h_pointwise, the independent baseline of the l = 1 action.

The matrix of Hhat_l on the monomial basis is built once per
(l, n, params, seed) and shared: dual_matrix returns a cached DualMatrix
that holds every row up to some weight and grows on demand, fitting only
the rows it lacks over the whole box of labels of the new weight.

Points are drawn from ratios of small primes with a seeded RNG; hitting
a pole of a coefficient or a singular interpolation matrix triggers a
resample with the seed advanced.
"""

from __future__ import annotations

import functools
import random
from fractions import Fraction
from math import lcm

from .combinatorics import (
    PartitionMap,
    _check_level,
    _check_sites,
    _Factors,
    _hop_product,
    _Lazy,
    _Monomials,
    _stay_sum,
    _terms,
    check_partition,
    dominance_leq,
    monomial_eval,
    partitions_max_weight,
)
from .errors import ParamDomainError, PoleError, SingularMatrixError, StructureError
from .linalg import solve_exact

__all__ = [
    "InvariantPolynomial",
    "vhat",
    "apply_dual_h_pointwise",
    "uhat_coeff",
    "vhat_signed",
    "generic_points",
    "DualMatrix",
    "dual_matrix",
    "apply_Hhat_l",
    "commutator_on_monomial",
]

MAX_RESAMPLE_ATTEMPTS = 32

# Dual-operator matrices kept, one per (l, n, params, seed).
DUAL_CACHE_SIZE = 64

# Interpolation-point records kept (factor table, term lists, monomial values).
POINT_CACHE_SIZE = 32

_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43)


class InvariantPolynomial(PartitionMap):
    """W-invariant Laurent polynomial sum_mu c_mu m_mu in the monomial basis."""

    @property
    def coeffs(self):
        """{mu: c_mu}, the map's values."""
        return self.values

    @classmethod
    def monomial(cls, mu, coeff=Fraction(1)):
        mu = check_partition(mu)
        return cls(len(mu), {mu: coeff})

    def evaluate(self, z, mono=None):
        """p(z); mono, if given, holds m_mu(z) for z and is read as mono[mu]."""
        total = 0
        for mu, c in self.values.items():
            m = mono[mu] if mono is not None else monomial_eval(mu, z)
            total = total + c * m
        return total

    def to_json(self):
        return [{"mu": list(mu), "value": str(self.values[mu])} for mu in self.support()]


def _one_body(u, params):
    den = (1 - u * u) * (1 - params.q * u * u)
    if den == 0:
        raise PoleError(f"one-body coefficient pole at coordinate {u}")
    num = 1
    for th in params.that:
        num = num * (1 - th * u)
    return num / den


def _pair_t(w, params):
    if w == 1:
        raise PoleError("pair coefficient pole: coordinate product equals 1")
    return (1 - params.t * w) / (1 - w)


def _one_factor(x, y, params):
    """_one_body at u = x/y, built from integer parts as one Fraction."""
    q = params.q
    yy, xx = y * y, x * x
    den = (yy - xx) * (q.denominator * yy - q.numerator * xx)
    if den == 0:
        raise PoleError(f"one-body coefficient pole at coordinate {Fraction(x, y)}")
    num = q.denominator * yy * yy
    for th in params.that:
        num *= th.denominator * y - th.numerator * x
        den *= th.denominator * y
    return Fraction(num, den)


def _mixed_factor(x, y, a, b, params):
    """_pair_t(u z_k) * _pair_t(u / z_k) at u = x/y and z_k = a/b, as one Fraction."""
    tn, td = params.t.numerator, params.t.denominator
    # u z_k = (x a)/(y b) and u / z_k = (x b)/(y a)
    up, down = y * b - x * a, y * a - x * b
    if up == 0 or down == 0:
        raise PoleError("pair coefficient pole: coordinate product equals 1")
    return Fraction((td * y * b - tn * x * a) * (td * y * a - tn * x * b), td * td * up * down)


def _pair_factor(wn, wd, stay, params):
    """t-pair factor times in-pair q-factor of w = wn/wd, as one Fraction.

    (1 - t w)/(1 - w) times (t - q w)/(1 - q w) if stay, else times
    (1 - t q w)/(1 - q w).
    """
    tn, td = params.t.numerator, params.t.denominator
    qn, qd = params.q.numerator, params.q.denominator
    if wn == wd:
        raise PoleError("pair coefficient pole: coordinate product equals 1")
    qden = qd * wd - qn * wn
    if qden == 0:
        raise PoleError("pair coefficient pole: q * coordinate product equals 1")
    head = (tn * qd * wd - td * qn * wn) if stay else (td * qd * wd - tn * qn * wn)
    return Fraction((td * wd - tn * wn) * head, td * td * (wd - wn) * qden)


class _Point:
    """What every fit and coefficient helper reads at one point z.

    pairs: the integer parts (a_j, b_j) of z_j = a_j/b_j.  factors: the factor table of z.  at: at[w] = _Monomials(w), the
    integer monomial kernel at z (w = pairs) or at one of its shifted
    points, written unreduced as in _level.  mono: mono[mu] = m_mu(z) as
    a Fraction.  terms: {l: what _level returns for Hhat_l at z}, so each
    shifted point is hashed once per level, not once per term and label.

    With u_j = z_j^s, factors.one[j, s] is the one-body factor at u_j;
    factors.mixed[j, s, k] the t-pair factors of u_j z_k and u_j/z_k; and
    factors.pair[j, s, k, r, stay] the t-pair factor of w = u_j z_k^r
    times the in-pair q-factor of w, whose numerator is (t - q w) if stay,
    else (1 - t q w).  Each entry is one Fraction formed from the integer
    parts of u_j, z_k and the parameters (_one_factor, _mixed_factor,
    _pair_factor), built on first use, so a pole surfaces only at a
    factor a coefficient reads, with the text _one_body, _pair_t or the
    in-pair q-factor would raise.
    """

    __slots__ = ("pairs", "factors", "terms", "at", "mono")

    def __init__(self, z, params):
        self.pairs = tuple((v.numerator, v.denominator) for v in z)
        # power[j, s]: the integer parts of z_j^s
        power = {}
        for j, (a, b) in enumerate(self.pairs, 1):
            power[j, 1], power[j, -1] = (a, b), (b, a)

        def one(j, s):
            return _one_factor(*power[j, s], params)

        def mixed(j, s, k):
            return _mixed_factor(*power[j, s], *power[k, 1], params)

        def pair(j, s, k, r, stay):
            (x, y), (a, b) = power[j, s], power[k, r]
            return _pair_factor(x * a, y * b, stay, params)

        self.factors = _Factors(len(z), _Lazy(one), _Lazy(mixed), _Lazy(pair))
        self.terms = {}
        self.at = _Lazy(lambda *w: _Monomials(w))
        nums = self.at[self.pairs]
        self.mono = _Lazy(lambda *mu: nums.value(mu))


@functools.lru_cache(maxsize=POINT_CACHE_SIZE)
def _point(z, params):
    return _Point(z, params)


def vhat(j, z, params):
    """One-variable dual hop coefficient vhat_j(z) (1-based j).

    prod_r (1 - that_r z_j) / ((1 - z_j^2)(1 - q z_j^2))
    * prod_{k != j} (1 - t z_j z_k)(1 - t z_j/z_k)
                  / ((1 - z_j z_k)(1 - z_j/z_k)).
    """
    z = tuple(z)
    n = len(z)
    _check_sites((j,), n)
    out = _one_body(z[j - 1], params)
    for k in range(1, n + 1):
        if k == j:
            continue
        out *= _pair_t(z[j - 1] * z[k - 1], params)
        out *= _pair_t(z[j - 1] / z[k - 1], params)
    return out


def apply_dual_h_pointwise(peval, z, params):
    """(Hhat p)(z) as the literal three-piece sum.

    sum_j vhat_j(z) (p(.., q z_j, ..) - p(z))
        + vhat_j(1/z) (p(.., z_j/q, ..) - p(z)),
    where 1/z inverts every coordinate.  Serves as the independent
    baseline for the l = 1 action of the general family.
    """
    z = tuple(z)
    n = len(z)
    zinv = tuple(1 / v for v in z)
    pz = peval(z)
    total = 0
    for j in range(1, n + 1):
        up = list(z)
        up[j - 1] = params.q * up[j - 1]
        dn = list(z)
        dn[j - 1] = dn[j - 1] / params.q
        total += vhat(j, z, params) * (peval(tuple(up)) - pz)
        total += vhat(j, zinv, params) * (peval(tuple(dn)) - pz)
    return total


def vhat_signed(J, eps, z, params):
    """Hop coefficient Vhat_{eps J}(z) of the dual integral.

    One-body factors at z_j^(eps_j) for j in J; mixed factors against
    the unshifted coordinates outside J; and for pairs inside J the extra
    (1 - t q u_j u_k)/(1 - q u_j u_k) factor with u = z^eps.
    """
    z = tuple(z)
    J = tuple(J)
    eps = tuple(eps)
    _check_sites(J, len(z))
    if len(eps) != len(J) or not all(s in (1, -1) for s in eps):
        raise ParamDomainError(f"signs {eps} must be one of +-1 per site of {J}")
    outside = [k for k in range(1, len(z) + 1) if k not in J]
    return Fraction(*_hop_product(J, eps, outside, _point(z, params).factors, False))


def uhat_coeff(K, p, z, params):
    """Stay-put coefficient Uhat_{K,p}(z) of the dual integral.

    (-1)^p sum over I in K with |I| = p and signs eps on I of one-body,
    mixed (against K minus I) and in-pair products; the in-pair q-factor
    here is (t - q u_j u_k)/(1 - q u_j u_k).  Uhat_{K,0} = 1.
    """
    z = tuple(z)
    K = tuple(sorted(K))
    _check_sites(K, len(z))
    if p < 0:
        raise ParamDomainError(f"order p must be >= 0, got {p}")
    return Fraction(*_stay_sum(K, p, _point(z, params).factors))


def dual_terms_at_point(l, z, params):
    """All (shifted point, coefficient) pairs of Hhat_l at the point z.

    The operator acts as sum over subsets J with signs eps of
    Uhat_{J^c, l-|J|}(z) Vhat_{eps J}(z) shifting z_j -> q^(eps_j) z_j
    for j in J; all coefficients read the factor table of z that every
    level shares.  Returns a new list.
    """
    z = tuple(z)
    _check_level(l, len(z))

    def move(J, eps):
        shifted = list(z)
        for j, s in zip(J, eps):
            shifted[j - 1] = shifted[j - 1] * params.q**s
        return tuple(shifted)

    return list(_terms(l, _point(z, params).factors, move))


def generic_points(n, count, params, seed):
    """Deterministic generic rational points for interpolation.

    Coordinates are ratios of distinct small primes, redrawn until the
    obvious pole conditions against q are avoided; remaining collisions
    (exact poles, singular interpolation matrices) surface as exceptions
    and the caller resamples with an advanced seed.
    """
    rng = random.Random(seed)
    qn, qd = params.q.numerator, params.q.denominator
    points = []
    used = set()
    guard = 0
    while len(points) < count:
        guard += 1
        if guard > 400 * count:
            raise PoleError("could not draw enough admissible interpolation points")
        # the coordinate v = a/b against each w = c/d drawn before, on integers
        coords = []
        ok = True
        for _ in range(n):
            a, b = rng.sample(_PRIMES, 2)
            # v = w or v w = 1
            if (a, b) in coords or any(a * c == b * d for c, d in coords):
                ok = False
                break
            # v^2 = q or q v^2 = 1
            if a * a * qd == b * b * qn or qn * a * a == qd * b * b:
                ok = False
                break
            # q v w = 1, q v = w or q w = v
            if any(
                qn * a * c == qd * b * d or qn * a * d == qd * b * c or qn * c * b == qd * d * a
                for c, d in coords
            ):
                ok = False
                break
            coords.append((a, b))
        if not ok:
            continue
        pt = tuple(coords)
        if pt in used:
            continue
        used.add(pt)
        points.append(tuple(Fraction(a, b) for a, b in pt))
    return points


def _level(l, z, rec, params):
    """The terms of Hhat_l at z for the integer fit: (L, D, [(at[w], s, k)]).

    Each shifted point w is written unreduced, coordinate by coordinate:
    a_j/b_j where it stays, (a_j q_n)/(b_j q_d) where it moves up and
    (a_j q_d)/(b_j q_n) where it moves down, with q = q_n/q_d.  s counts
    the moved coordinates, L is the largest s, D the lcm of the
    coefficient denominators and k = D times the coefficient, an int.
    Hence prod_j a_j b_j of w is g (q_n q_d)^s, and m_mu(w) is
    at[w][mu] / (g (q_n q_d)^s)^M with M = mu_1.
    """
    qn, qd = params.q.numerator, params.q.denominator
    terms = []
    for w, c in dual_terms_at_point(l, z, params):
        if c == 0:
            continue
        pairs = []
        s = 0
        for v, (a, b) in zip(w, rec.pairs):
            vn, vd = v.numerator, v.denominator
            if vn * b == vd * a:
                pairs.append((a, b))
            elif vn * b * qd == vd * a * qn:
                pairs.append((a * qn, b * qd))
                s += 1
            elif vn * b * qn == vd * a * qd:
                pairs.append((a * qd, b * qn))
                s += 1
            else:
                raise StructureError(f"dual term target {w} is not a q-shift of the point {z}")
        terms.append((rec.at[tuple(pairs)], s, c))
    D = lcm(*(c.denominator for _, _, c in terms))
    L = max((s for _, s, _ in terms), default=0)
    return L, D, [(nums, s, c.numerator * (D // c.denominator)) for nums, s, c in terms]


def _row(l, z, support, new, params):
    """Row of the fit at z as ints: A = [m_nu(z) R for nu in support] and
    B = [(Hhat_l m_mu)(z) R for mu in new].

    With W the largest part in support, (L, D) from _level and
    g = prod_j a_j b_j the kernel's g at z, the row scale is R = g^W (q_n q_d)^(W L) D, so the entries are
    at[z][nu] g^(W - nu_1) (q_n q_d)^(W L) D and
    sum over the terms of k g^(W - M) (q_n q_d)^(W L - M s) at[w][mu].
    """
    rec = _point(z, params)
    level = rec.terms.get(l)
    if level is None:
        level = rec.terms[l] = _level(l, z, rec, params)
    L, D, terms = level
    W = max(nu[0] for nu in support)
    Q = params.q.numerator * params.q.denominator
    nums = rec.at[rec.pairs]
    gpow = [1]
    for _ in range(W):
        gpow.append(gpow[-1] * nums.g)
    scale = Q ** (W * L) * D
    A = [nums[nu] * gpow[W - nu[0]] * scale for nu in support]
    weights = {}
    B = []
    for mu in new:
        M = mu[0]
        ks = weights.get(M)
        if ks is None:
            ks = weights[M] = [(nums_w, k * gpow[W - M] * Q ** (W * L - M * s)) for nums_w, s, k in terms]
        B.append(sum(k * nums_w[mu] for nums_w, k in ks))
    return A, B


def _interpolate(l, n, support, new, params, seed):
    """Rows of Hhat_l on the monomials m_mu, mu in new, over the labels support.

    Hhat_l m_mu is evaluated at len(support) + 1 generic points: the
    first len(support) fix its coefficients on support by an exact
    solve, the last re-checks the fit.  Returns {mu: {nu: coefficient}}
    with zero coefficients dropped.  Each point gives one row of ints
    (_row), read from the shared record of the point, so a point still
    held from another level or an earlier growth step is not evaluated
    again.
    """
    for attempt in range(MAX_RESAMPLE_ATTEMPTS):
        try:
            pts = generic_points(n, len(support) + 1, params, seed + 1009 * attempt)
            rows = [_row(l, z, support, new, params) for z in pts]
            X = solve_exact([A for A, _ in rows[:-1]], [B for _, B in rows[:-1]])
        except (PoleError, SingularMatrixError):
            continue
        # held-out exactness check at the last point, on its integer row
        check_A, check_B = rows[-1]
        for k, direct in enumerate(check_B):
            den = lcm(*(X[i][k].denominator for i in range(len(support))))
            total = sum(X[i][k].numerator * (den // X[i][k].denominator) * a for i, a in enumerate(check_A))
            if total != den * direct:
                raise StructureError(
                    "interpolated image disagrees with the operator at a held-out point; "
                    "the image is not supported on the candidate dominance ideal"
                )
        return {
            mu: {nu: X[i][k] for i, nu in enumerate(support) if X[i][k] != 0}
            for k, mu in enumerate(new)
        }
    raise PoleError(
        f"no admissible interpolation point set found after {MAX_RESAMPLE_ATTEMPTS} resamples"
    )


class DualMatrix:
    """Rows of Hhat_l on the monomial basis of every label up to a weight.

    rows[mu][nu] = coefficient of m_nu in Hhat_l m_mu, for each length-n
    partition mu of weight <= weight.  Reaching a larger weight
    interpolates only the rows not held yet, all in one fit over the
    whole box partitions_max_weight(n, weight).  The box is closed
    downward in dominance, so an entry at nu not below mu is a genuine
    triangularity violation and raises StructureError naming the pairs.
    Rows are shared by every caller and must not be mutated.
    """

    def __init__(self, l, n, params, seed):
        self.l = l
        self.n = n
        self.params = params
        self.seed = seed
        self.weight = -1
        self.rows = {}

    def grow(self, weight):
        """Hold every row of weight <= weight."""
        if weight <= self.weight:
            return
        box = partitions_max_weight(self.n, weight)
        new = [mu for mu in box if sum(mu) > self.weight]
        rows = _interpolate(self.l, self.n, box, new, self.params, self.seed)
        violations = [
            (mu, nu, c) for mu, row in rows.items() for nu, c in row.items() if not dominance_leq(nu, mu)
        ]
        if violations:
            raise StructureError(
                "dual integral acts non-triangularly on the monomial basis: "
                + ", ".join(f"m_{mu} -> m_{nu} with coefficient {c}" for mu, nu, c in violations)
            )
        self.rows.update(rows)
        self.weight = weight


def dual_matrix(l, n, params, seed=0):
    """The shared matrix of Hhat_l on length-n labels, fitted with seed."""
    _check_level(l, n)
    return _dual_matrix(l, n, params, seed)


@functools.lru_cache(maxsize=DUAL_CACHE_SIZE)
def _dual_matrix(l, n, params, seed):
    return DualMatrix(l, n, params, seed)


def _cache_clear():
    """Forget every held matrix and every point record."""
    _dual_matrix.cache_clear()
    _point.cache_clear()


# hit and miss counts of the dual-matrix memo
dual_matrix.cache_info = _dual_matrix.cache_info
dual_matrix.cache_clear = _cache_clear


def apply_Hhat_l(l, p, params, seed=0):
    """Apply the dual integral Hhat_l to an invariant polynomial exactly.

    Sums the rows of the shared dual_matrix(l, n, params, seed).
    """
    mat = dual_matrix(l, p.n, params, seed)
    if p.values:
        mat.grow(max(sum(mu) for mu in p.values))
    out = {}
    for mu, c in p.values.items():
        for nu, v in mat.rows[mu].items():
            out[nu] = out.get(nu, 0) + c * v
    return InvariantPolynomial(p.n, out)


def commutator_on_monomial(l, m, mu, params, seed=0):
    """(Hhat_l Hhat_m - Hhat_m Hhat_l) applied to the monomial m_mu.

    The dual twin of latticeop.commutator_on_delta, read from the shared
    rows of dual_matrix(l, n, params, seed) and dual_matrix(m, ...);
    exact commutativity means the result is the zero polynomial.
    """
    p = InvariantPolynomial.monomial(mu)
    ab = apply_Hhat_l(l, apply_Hhat_l(m, p, params, seed), params, seed)
    ba = apply_Hhat_l(m, apply_Hhat_l(l, p, params, seed), params, seed)
    return ab.minus(ba)
