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
import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction

from .combinatorics import (
    DominanceIdeal,
    check_partition,
    dominance_leq,
    ideal,
    monomial_eval,
    partitions_max_weight,
    total_order_key,
)
from .errors import ParamDomainError, PoleError, SingularMatrixError, StructureError
from .linalg import solve_exact

__all__ = [
    "InvariantPolynomial",
    "MonomialCache",
    "vhat",
    "apply_dual_h_pointwise",
    "dual_hl_pointwise",
    "uhat_coeff",
    "vhat_signed",
    "generic_points",
    "DualMatrix",
    "dual_matrix",
    "apply_Hhat_l",
    "TriangularMatrix",
    "matrix_in_monomial_basis",
]

MAX_RESAMPLE_ATTEMPTS = 32

# Dual-operator matrices kept, one per (l, n, params, seed).
DUAL_CACHE_SIZE = 64

_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43)


@dataclass
class InvariantPolynomial:
    """W-invariant Laurent polynomial sum_mu c_mu m_mu in the monomial basis."""

    n: int
    coeffs: dict = field(default_factory=dict)

    def __post_init__(self):
        clean = {}
        for mu, c in self.coeffs.items():
            mu = check_partition(mu, self.n)
            if c != 0:
                clean[mu] = c
        self.coeffs = clean

    @classmethod
    def monomial(cls, mu, coeff=Fraction(1)):
        mu = check_partition(mu)
        return cls(n=len(mu), coeffs={mu: coeff})

    def support(self):
        return sorted(self.coeffs, key=total_order_key)

    def is_zero(self):
        return not self.coeffs

    def scaled(self, c):
        return InvariantPolynomial(self.n, {k: c * v for k, v in self.coeffs.items()})

    def plus(self, other):
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out.get(k, 0) + v
        return InvariantPolynomial(self.n, out)

    def minus(self, other):
        return self.plus(other.scaled(-1))

    def evaluate(self, z, cache=None):
        total = 0
        for mu, c in self.coeffs.items():
            m = cache.eval(mu, z) if cache is not None else monomial_eval(mu, z)
            total = total + c * m
        return total

    def to_json(self):
        return [
            {"mu": list(mu), "value": str(c)}
            for mu, c in sorted(self.coeffs.items(), key=lambda kv: total_order_key(kv[0]))
        ]

    @classmethod
    def from_json(cls, n, rows):
        return cls(n=n, coeffs={tuple(r["mu"]): Fraction(r["value"]) for r in rows})


class MonomialCache:
    """Memoized invariant-monomial evaluations keyed by (mu, point)."""

    def __init__(self):
        self._store = {}

    def eval(self, mu, z):
        key = (mu, z)
        got = self._store.get(key)
        if got is None:
            got = monomial_eval(mu, z)
            self._store[key] = got
        return got


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


def _pair_tq(w, stay, params):
    """In-pair q-factor: (t - q w)/(1 - q w) if stay, else (1 - t q w)/(1 - q w)."""
    qw = params.q * w
    if qw == 1:
        raise PoleError("pair coefficient pole: q * coordinate product equals 1")
    return ((params.t - qw) if stay else (1 - params.t * qw)) / (1 - qw)


def _signed_product(I, eps, mixed, z, params, stay):
    """One-body, mixed and in-pair product of the dual hop coefficients.

    With u = z^eps on I: one-body factors at u_j for j in I; mixed
    factors of u_j against the unshifted z_k for k in mixed; and for
    pairs inside I the t-pair factor times the in-pair q-factor of w =
    u_j u_k, whose numerator is (t - q w) if stay, else (1 - t q w).
    """
    u = [z[j - 1] ** e for j, e in zip(I, eps)]
    out = 1
    for uj in u:
        out *= _one_body(uj, params)
    for uj in u:
        for k in mixed:
            out *= _pair_t(uj * z[k - 1], params)
            out *= _pair_t(uj / z[k - 1], params)
    for a in range(len(u)):
        for b in range(a + 1, len(u)):
            w = u[a] * u[b]
            out *= _pair_t(w, params)
            out *= _pair_tq(w, stay, params)
    return out


def vhat(j, z, params):
    """One-variable dual hop coefficient vhat_j(z) (1-based j).

    prod_r (1 - that_r z_j) / ((1 - z_j^2)(1 - q z_j^2))
    * prod_{k != j} (1 - t z_j z_k)(1 - t z_j/z_k)
                  / ((1 - z_j z_k)(1 - z_j/z_k)).
    """
    z = tuple(z)
    n = len(z)
    if not 1 <= j <= n:
        raise ParamDomainError(f"index j={j} out of range 1..{n}")
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
    outside = [k for k in range(1, len(z) + 1) if k not in J]
    return _signed_product(J, eps, outside, z, params, stay=False)


def uhat_coeff(K, p, z, params):
    """Stay-put coefficient Uhat_{K,p}(z) of the dual integral.

    (-1)^p sum over I in K with |I| = p and signs eps on I of one-body,
    mixed (against K minus I) and in-pair products; the in-pair q-factor
    here is (t - q u_j u_k)/(1 - q u_j u_k).  Uhat_{K,0} = 1.
    """
    z = tuple(z)
    K = tuple(sorted(K))
    if p < 0:
        raise ParamDomainError(f"order p must be >= 0, got {p}")
    if p == 0:
        return Fraction(1)
    total = 0
    for I in itertools.combinations(K, p):
        rest = [k for k in K if k not in I]
        for eps in itertools.product((1, -1), repeat=p):
            total += _signed_product(I, eps, rest, z, params, stay=True)
    return (-1) ** p * total


def dual_terms_at_point(l, z, params):
    """All (shifted point, coefficient) pairs of Hhat_l at the point z.

    The operator acts as sum over subsets J with signs eps of
    Uhat_{J^c, l-|J|}(z) Vhat_{eps J}(z) shifting z_j -> q^(eps_j) z_j
    for j in J.
    """
    z = tuple(z)
    n = len(z)
    if not 1 <= l <= n:
        raise ParamDomainError(f"level l must satisfy 1 <= l <= {n}, got {l}")
    out = []
    for size in range(l + 1):
        for J in itertools.combinations(range(1, n + 1), size):
            comp = tuple(k for k in range(1, n + 1) if k not in J)
            ustay = uhat_coeff(comp, l - size, z, params)
            for eps in itertools.product((1, -1), repeat=size):
                coeff = ustay * vhat_signed(J, eps, z, params)
                shifted = list(z)
                for i, j in enumerate(J):
                    shifted[j - 1] = shifted[j - 1] * params.q**eps[i]
                out.append((tuple(shifted), coeff))
    return out


def dual_hl_pointwise(l, peval, z, params):
    """(Hhat_l p)(z) by direct term summation."""
    total = 0
    for shifted, coeff in dual_terms_at_point(l, z, params):
        total += coeff * peval(shifted)
    return total


def generic_points(n, count, params, seed):
    """Deterministic generic rational points for interpolation.

    Coordinates are ratios of distinct small primes, redrawn until the
    obvious pole conditions against q are avoided; remaining collisions
    (exact poles, singular interpolation matrices) surface as exceptions
    and the caller resamples with an advanced seed.
    """
    rng = random.Random(seed)
    q = params.q
    points = []
    used = set()
    guard = 0
    while len(points) < count:
        guard += 1
        if guard > 400 * count:
            raise PoleError("could not draw enough admissible interpolation points")
        coords = []
        ok = True
        for _ in range(n):
            a, b = rng.sample(_PRIMES, 2)
            v = Fraction(a, b)
            if v in coords or any(v * w == 1 for w in coords):
                ok = False
                break
            if v * v == q or q * v * v == 1:
                ok = False
                break
            if any(q * v * w == 1 or q * v == w or q * w == v for w in coords):
                ok = False
                break
            coords.append(v)
        if not ok:
            continue
        pt = tuple(coords)
        if pt in used:
            continue
        used.add(pt)
        points.append(pt)
    return points


@dataclass
class TriangularMatrix:
    """Action of a dual integral on the monomial basis of an ideal.

    entries[(mu, nu)] = coefficient of m_nu in Hhat_l m_mu; every entry
    has nu <= mu in dominance, as checked when the rows were fitted.
    """

    root: tuple
    basis: DominanceIdeal
    entries: dict

    def entry(self, mu, nu):
        return self.entries.get((tuple(mu), tuple(nu)), Fraction(0))

    def diagonal(self, mu):
        return self.entry(mu, mu)

    def dense(self):
        members = self.basis.members
        return [[self.entry(mu, nu) for nu in members] for mu in members]

    def to_json(self):
        rows = []
        for (mu, nu), c in sorted(
            self.entries.items(), key=lambda kv: (total_order_key(kv[0][0]), total_order_key(kv[0][1]))
        ):
            rows.append({"mu": list(mu), "nu": list(nu), "value": str(c)})
        return rows


def _interpolate(l, n, support, rhs_functions, params, seed):
    """Shared evaluation-interpolation engine.

    rhs_functions: list of callables p_eval(z) giving the polynomial to
    which Hhat_l is applied, evaluated at a rational point.  Returns the
    coefficient matrix X with X[k][i] = coefficient of support[i] in
    Hhat_l applied to the k-th function, plus the held-out diagnostics.
    """
    support = list(support)
    cache = MonomialCache()
    for attempt in range(MAX_RESAMPLE_ATTEMPTS):
        try:
            pts = generic_points(n, len(support) + 1, params, seed + 1009 * attempt)
            fit_pts, check_pt = pts[:-1], pts[-1]
            A = [[cache.eval(nu, z) for nu in support] for z in fit_pts]
            B = []
            for z in fit_pts:
                terms = dual_terms_at_point(l, z, params)
                B.append([sum(c * f(zz, cache) for zz, c in terms) for f in rhs_functions])
            X_cols = solve_exact(A, B)
        except (PoleError, SingularMatrixError):
            continue
        # held-out exactness check at a fresh point
        try:
            terms = dual_terms_at_point(l, check_pt, params)
            direct = [sum(c * f(zz, cache) for zz, c in terms) for f in rhs_functions]
        except PoleError:
            continue
        basis_at_check = [cache.eval(nu, check_pt) for nu in support]
        for k in range(len(rhs_functions)):
            fitted = sum(X_cols[i][k] * basis_at_check[i] for i in range(len(support)))
            if fitted != direct[k]:
                raise StructureError(
                    "interpolated image disagrees with the operator at a held-out point; "
                    "the image is not supported on the candidate dominance ideal"
                )
        X = [[X_cols[i][k] for i in range(len(support))] for k in range(len(rhs_functions))]
        return X
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
        fns = [(lambda z, cache, mu=mu: cache.eval(mu, z)) for mu in new]
        X = _interpolate(self.l, self.n, box, fns, self.params, self.seed)
        rows = {}
        violations = []
        for mu, coeffs in zip(new, X):
            row = {}
            for nu, c in zip(box, coeffs):
                if c == 0:
                    continue
                if not dominance_leq(nu, mu):
                    violations.append((mu, nu, c))
                row[nu] = c
            rows[mu] = row
        if violations:
            raise StructureError(
                "dual integral acts non-triangularly on the monomial basis: "
                + ", ".join(f"m_{mu} -> m_{nu} with coefficient {c}" for mu, nu, c in violations)
            )
        self.rows.update(rows)
        self.weight = weight

    def row(self, mu):
        """{nu: coefficient of m_nu in Hhat_l m_mu}, growing the box if needed."""
        mu = check_partition(mu, self.n)
        self.grow(sum(mu))
        return self.rows[mu]


def dual_matrix(l, n, params, seed=0):
    """The shared matrix of Hhat_l on length-n labels, fitted with seed."""
    if not 1 <= l <= n:
        raise ParamDomainError(f"level l must satisfy 1 <= l <= {n}, got {l}")
    return _dual_matrix(l, n, params, seed)


@functools.lru_cache(maxsize=DUAL_CACHE_SIZE)
def _dual_matrix(l, n, params, seed):
    return DualMatrix(l, n, params, seed)


# hit and miss counts of the dual-matrix memo
dual_matrix.cache_info = _dual_matrix.cache_info
dual_matrix.cache_clear = _dual_matrix.cache_clear


def apply_Hhat_l(l, p, params, seed=0):
    """Apply the dual integral Hhat_l to an invariant polynomial exactly.

    Sums the rows of the shared dual_matrix(l, n, params, seed).
    """
    mat = dual_matrix(l, p.n, params, seed)
    if p.coeffs:
        mat.grow(max(sum(mu) for mu in p.coeffs))
    out = {}
    for mu, c in p.coeffs.items():
        for nu, v in mat.rows[mu].items():
            out[nu] = out.get(nu, 0) + c * v
    return InvariantPolynomial(p.n, out)


def matrix_in_monomial_basis(l, root, params, seed=0):
    """Matrix of Hhat_l on the monomial basis of the ideal of root.

    Read from the shared dual_matrix(l, n, params, seed), whose rows are
    fitted over whole weight boxes and checked for triangularity there.
    """
    root = check_partition(root)
    basis = ideal(root)
    mat = dual_matrix(l, len(root), params, seed)
    mat.grow(sum(root))
    entries = {(mu, nu): c for mu in basis.members for nu, c in mat.rows[mu].items()}
    return TriangularMatrix(root=root, basis=basis, entries=entries)
