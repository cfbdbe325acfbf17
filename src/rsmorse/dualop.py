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
lattice integrals (combinatorics._terms and _hop_coefficient), over one
factor table per point; this module only says how the factors are built
and how a hop moves the point.  The same per-point record (_Point) keeps
the factor table, whose U sums and V products every level reads, the
term lists of each level and the monomial kernels at the point and its
shifts.  The records of a fit live exactly as long as its matrices:
the n matrices of one (n, params, seed) share one dict of records, so
no point is evaluated twice by any level or growth step of that fit
(verify pieri --n 3 --max-weight 6 builds one record for each of its
54 distinct points).  InvariantPolynomial.evaluate reads
combinatorics._monomials_at.

The fit runs on integers from the point to the solve: each factor-table
entry is one reduced int pair formed from the integer parts of
z_j = a_j/b_j and of the parameters; each hop writes the integer parts
of its shifted point directly, (a_j q_n, b_j q_d) for a coordinate that
moves up and (a_j q_d, b_j q_n) for one that moves down (_dual_terms),
so no shifted point is formed as a Fraction; each term's coefficient
reaches _level as one reduced int pair, not as a Fraction; monomials
come from the integer kernel combinatorics._Monomials at those parts;
and each row of the linear system is a list of ints whose scale is
known in closed form (_row).  The solve forms the Fractions of the
rows, and apply_Hhat_l sums those rows in the one accumulator of exact
linear combinations (combinatorics._pair_sums): one Fraction per output
coefficient.  _one_body and _pair_t stay only behind vhat and
apply_dual_h_pointwise, the independent baseline of the l = 1 action.

The matrix of Hhat_l on the monomial basis is built once per
(l, n, params, seed) and shared: dual_matrix returns a cached DualMatrix
that holds every row up to some weight and grows on demand, fitting only
the rows it lacks over the whole box of labels of the new weight.  The
one memo (_dual_matrices) holds the matrices of every level of
(n, params, seed) together with their point records.

Points are drawn from ratios of small primes with a seeded RNG; hitting
a pole of a coefficient or a singular interpolation matrix triggers a
resample with the seed advanced.  The draw of each seed (_Draw) is kept
with the fit's point records, shared by its levels and extended when it
grows, and gives the points of a fresh generic_points call.
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
    _exact_ints,
    _Factors,
    _fractions,
    _Lazy,
    _Monomials,
    _monomials_at,
    _pair_sums,
    _pairs_of,
    _ratio,
    _terms,
    check_partition,
    dominance_leq,
    partitions_max_weight,
)
from .errors import ParamDomainError, PoleError, SingularMatrixError, StructureError
from .linalg import solve_exact

__all__ = [
    "InvariantPolynomial",
    "vhat",
    "apply_dual_h_pointwise",
    "generic_points",
    "DualMatrix",
    "dual_matrix",
    "apply_Hhat_l",
    "commutator_on_monomial",
]

MAX_RESAMPLE_ATTEMPTS = 32

# Dual fits kept, one per (n, params, seed): the matrices of every level and their point records.
DUAL_CACHE_SIZE = 64

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

    def evaluate(self, z):
        """p(z), every monomial read from the one map _monomials_at(z) of the point."""
        return self._sum_over(_monomials_at(z, self.n))

    def _sum_over(self, mono):
        """sum_mu c_mu mono(mu), with mono a map _monomials_at(z, n) of some point z."""
        total = 0
        for mu, c in self.values.items():
            total = total + c * mono(mu)
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
    """_one_body at u = x/y, built from integer parts as one reduced int pair."""
    q = params.q
    yy, xx = y * y, x * x
    den = (yy - xx) * (q.denominator * yy - q.numerator * xx)
    if den == 0:
        raise PoleError(f"one-body coefficient pole at coordinate {Fraction(x, y)}")
    num = q.denominator * yy * yy
    for th in params.that:
        num *= th.denominator * y - th.numerator * x
        den *= th.denominator * y
    return _ratio(num, den)


def _mixed_factor(x, y, a, b, params):
    """_pair_t(u z_k) * _pair_t(u / z_k) at u = x/y and z_k = a/b, as one reduced int pair."""
    tn, td = params.t.numerator, params.t.denominator
    # u z_k = (x a)/(y b) and u / z_k = (x b)/(y a)
    up, down = y * b - x * a, y * a - x * b
    if up == 0 or down == 0:
        raise PoleError("pair coefficient pole: coordinate product equals 1")
    return _ratio((td * y * b - tn * x * a) * (td * y * a - tn * x * b), td * td * up * down)


def _pair_factor(wn, wd, stay, params):
    """t-pair factor times in-pair q-factor of w = wn/wd, as one reduced int pair.

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
    return _ratio((td * wd - tn * wn) * head, td * td * (wd - wn) * qden)


class _Point:
    """What every fit reads at one point z.

    pairs: the integer parts (a_j, b_j) of z_j = a_j/b_j, each z_j a
    nonzero int or Fraction (else ParamDomainError).  factors: the factor
    table of z, with the U sums and V products every level reads.
    at: at[w] = _Monomials(w), the integer monomial kernel at z
    (w = pairs) or at one of its shifted points, written unreduced as
    _dual_terms builds them.  terms: {l: what _level returns for
    Hhat_l at z}, so each shifted point is hashed once per level, not
    once per term and label.

    With u_j = z_j^s, factors.one[j, s] is the one-body factor at u_j;
    factors.mixed[j, s, k] the t-pair factors of u_j z_k and u_j/z_k; and
    factors.pair[j, s, k, r, stay] the t-pair factor of w = u_j z_k^r
    times the in-pair q-factor of w, whose numerator is (t - q w) if stay,
    else (1 - t q w).  Each entry is one reduced (numerator, denominator)
    int pair formed from the integer parts of u_j, z_k and the parameters
    (_one_factor, _mixed_factor, _pair_factor), built on first use, so a
    pole surfaces only at a factor a coefficient reads, with the text
    _one_body, _pair_t or the in-pair q-factor would raise.
    """

    __slots__ = ("pairs", "factors", "terms", "at")

    def __init__(self, z, params):
        for j, v in enumerate(z):
            if not isinstance(v, (int, Fraction)) or v == 0:
                raise ParamDomainError(f"dual coefficients need nonzero rational coordinates, z[{j}] = {v!r}")
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


def vhat(j, z, params):
    """One-variable dual hop coefficient vhat_j(z) (1-based j).

    prod_r (1 - that_r z_j) / ((1 - z_j^2)(1 - q z_j^2))
    * prod_{k != j} (1 - t z_j z_k)(1 - t z_j/z_k)
                  / ((1 - z_j z_k)(1 - z_j/z_k)).
    """
    z = _exact_ints(z)
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
    z = _exact_ints(z)
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


def _dual_terms(l, rec, params):
    """((pairs, s), (numerator, denominator)) of each term of Hhat_l at rec's
    point, from its hop, the coefficient a reduced int pair.

    The hop (J, eps) moves z_j -> q^(eps_j) z_j for j in J.  pairs holds
    the integer parts of the shifted point, written unreduced: (a_j, b_j)
    where z_j = a_j/b_j stays, (a_j q_n, b_j q_d) where it moves up and
    (a_j q_d, b_j q_n) where it moves down, with q = q_n/q_d; s = |J|
    counts the moved coordinates.  Every coefficient reads the factor
    table of rec, which every level of a fit shares.
    """
    qn, qd = params.q.numerator, params.q.denominator

    def move(J, eps):
        pairs = list(rec.pairs)
        for j, s in zip(J, eps):
            a, b = pairs[j - 1]
            pairs[j - 1] = (a * qn, b * qd) if s == 1 else (a * qd, b * qn)
        return tuple(pairs), len(J)

    return [(target, _ratio(*c)) for target, c in _terms(l, rec.factors, move)]


def generic_points(n, count, params, seed):
    """Deterministic generic rational points for interpolation.

    Coordinates are ratios of distinct small primes, redrawn until the
    obvious pole conditions against q are avoided; remaining collisions
    (exact poles, singular interpolation matrices) surface as exceptions
    and the caller resamples with an advanced seed.  Needing more than
    400 candidates per point asked for raises PoleError.
    """
    return _Draw(n, params, seed).take(count)


class _Draw:
    """The points of generic_points(n, ., params, seed), drawn on demand and kept.

    The points come from one stream of the seeded RNG, so the first
    count of them do not depend on how many are asked for: take(count)
    returns, or raises, exactly what generic_points(n, count, params,
    seed) does, its guard of 400 candidates per point included.
    tries[i] is the number of candidates drawn up to point i.
    """

    __slots__ = ("n", "qn", "qd", "rng", "points", "tries", "used", "guard")

    def __init__(self, n, params, seed):
        if n < 1:
            raise ParamDomainError(f"interpolation points need n >= 1 coordinates, got n = {n}")
        self.n, self.qn, self.qd = n, params.q.numerator, params.q.denominator
        self.rng = random.Random(seed)
        self.points, self.tries, self.used, self.guard = [], [], set(), 0

    def take(self, count):
        if count < 1:
            return []
        limit = 400 * count
        while len(self.points) < count and self.guard < limit:
            self.guard += 1
            pt = self._candidate()
            if pt is not None and pt not in self.used:
                self.used.add(pt)
                self.points.append(tuple(Fraction(a, b) for a, b in pt))
                self.tries.append(self.guard)
        if len(self.points) < count or self.tries[count - 1] > limit:
            raise PoleError("could not draw enough admissible interpolation points")
        return self.points[:count]

    def _candidate(self):
        """One candidate point as integer pairs (a_j, b_j), or None if it meets a pole condition."""
        rng, qn, qd = self.rng, self.qn, self.qd
        # the coordinate v = a/b against each w = c/d drawn before, on integers
        coords = []
        for _ in range(self.n):
            a, b = rng.sample(_PRIMES, 2)
            # v = w or v w = 1
            if (a, b) in coords or any(a * c == b * d for c, d in coords):
                return None
            # v^2 = q or q v^2 = 1
            if a * a * qd == b * b * qn or qn * a * a == qd * b * b:
                return None
            # q v w = 1, q v = w or q w = v
            if any(
                qn * a * c == qd * b * d or qn * a * d == qd * b * c or qn * c * b == qd * d * a
                for c, d in coords
            ):
                return None
            coords.append((a, b))
        return tuple(coords)


def _level(l, rec, params):
    """The terms of Hhat_l at rec's point for the fit: (L, D, [(at[w], s, k)]).

    Each shifted point w comes from its hop as integer parts, s moved
    coordinates apart from the point (_dual_terms).  L is the largest s,
    D the lcm of the coefficient denominators and k = D times the
    coefficient, an int.  Hence prod_j a_j b_j of w is g (q_n q_d)^s,
    and m_mu(w) is at[w][mu] / (g (q_n q_d)^s)^M with M = mu_1.
    """
    terms = [(rec.at[pairs], s, cn, cd) for (pairs, s), (cn, cd) in _dual_terms(l, rec, params) if cn]
    D = lcm(*(cd for _, _, _, cd in terms))
    L = max((s for _, s, _, _ in terms), default=0)
    return L, D, [(nums, s, cn * (D // cd)) for nums, s, cn, cd in terms]


def _row(l, rec, support, new, params):
    """Row of the fit at rec's point z as ints: A = [m_nu(z) R for nu in
    support] and B = [(Hhat_l m_mu)(z) R for mu in new].

    With W the largest part in support, (L, D) from _level and
    g = prod_j a_j b_j the kernel's g at z, the row scale is
    R = g^W (q_n q_d)^(W L) D, so the entries are
    at[z][nu] g^(W - nu_1) (q_n q_d)^(W L) D and
    sum over the terms of k g^(W - M) (q_n q_d)^(W L - M s) at[w][mu],
    where at[w] is the kernel at the integer parts that the hop of the
    term wrote and s its number of moved coordinates.
    """
    level = rec.terms.get(l)
    if level is None:
        level = rec.terms[l] = _level(l, rec, params)
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


def _interpolate(l, n, support, new, params, seed, records):
    """Rows of Hhat_l on the monomials m_mu, mu in new, over the labels support.

    Hhat_l m_mu is evaluated at len(support) + 1 generic points: the
    first len(support) fix its coefficients on support by an exact
    solve, the last re-checks the fit.  Returns {mu: {nu: coefficient}}
    with zero coefficients dropped.  Each point gives one row of ints
    (_row), read from its record in records (z -> _Point), which is
    built only for a point records does not hold yet, so a point of
    another level or an earlier growth step is not evaluated again.
    The points of attempt a are the first len(support) + 1 of the draw
    kept in records under its seed, seed + 1009 a (an int key, where
    points are tuples), grown when the fit grows.
    """
    for attempt in range(MAX_RESAMPLE_ATTEMPTS):
        key = seed + 1009 * attempt
        try:
            draw = records.get(key)
            if draw is None:
                draw = records[key] = _Draw(n, params, key)
            pts = draw.take(len(support) + 1)
            records.update({z: _Point(z, params) for z in pts if z not in records})
            rows = [_row(l, records[z], support, new, params) for z in pts]
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
    Rows are shared by every caller and must not be mutated.  records
    (z -> _Point, and seed -> _Draw for each seed drawn from) holds the
    point records and draws the fit reads, shared by the matrices of
    every level of (n, params, seed).
    """

    def __init__(self, l, n, params, seed, records):
        self.l = l
        self.n = n
        self.params = params
        self.seed = seed
        self.records = records
        self.weight = -1
        self.rows = {}

    def grow(self, weight):
        """Hold every row of weight <= weight."""
        if weight <= self.weight:
            return
        box = partitions_max_weight(self.n, weight)
        new = [mu for mu in box if sum(mu) > self.weight]
        rows = _interpolate(self.l, self.n, box, new, self.params, self.seed, self.records)
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
    return _dual_matrices(n, params, seed)[l]


@functools.lru_cache(maxsize=DUAL_CACHE_SIZE)
def _dual_matrices(n, params, seed):
    """{l: DualMatrix} for l = 1..n, all reading one dict of point records."""
    records = {}
    return {l: DualMatrix(l, n, params, seed, records) for l in range(1, n + 1)}


# hit and miss counts of the one memo; clearing it forgets every matrix and point record
dual_matrix.cache_info = _dual_matrices.cache_info
dual_matrix.cache_clear = _dual_matrices.cache_clear


def apply_Hhat_l(l, p, params, seed=0):
    """Apply the dual integral Hhat_l to an invariant polynomial exactly.

    Sums the rows of the shared dual_matrix(l, n, params, seed) in
    _pair_sums, one Fraction per image coefficient; the coefficients of p
    must be ints or Fractions.
    """
    mat = dual_matrix(l, p.n, params, seed)
    if p.values:
        mat.grow(max(sum(mu) for mu in p.values))
    acc = _pair_sums((c.numerator, c.denominator, _pairs_of(mat.rows[mu])) for mu, c in p.values.items())
    return InvariantPolynomial._of_partitions(p.n, _fractions(acc))


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
