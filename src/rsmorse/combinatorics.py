"""Partitions, the hyperoctahedral group, invariant monomials, eigenvalues.

Partitions are plain tuples of weakly decreasing nonnegative ints of
length n (trailing zeros kept, so the particle number is always
``len(lam)``).  The lattice embedding never materializes the base point
rho: everywhere a site enters a formula it does so through
``q**(rho_j + lam_j) = t**(n-j) * q**lam_j``, which stays rational.

Dominance here is the partial order  mu <= lam  iff every partial sum of
mu is bounded by the matching partial sum of lam; in particular weights
may differ (|mu| <= |lam|), so the ideal of lam collects all lower
weights too.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import ParamDomainError

__all__ = [
    "check_partition",
    "dominance_leq",
    "total_order_key",
    "ideal",
    "partitions_max_weight",
    "PartitionMap",
    "SignedPermutation",
    "orbit",
    "monomial_eval",
    "elem_sym",
    "complete_sym",
    "eval_E",
    "eval_E_l",
    "eval_Eln",
    "eval_Ehat",
    "eval_Ehat_l",
    "cosines_from_point",
]


def check_partition(lam, n=None):
    """Validate and normalize a partition to a tuple of ints."""
    raw = tuple(lam)
    try:
        lam = tuple(int(p) for p in raw)
    except (ValueError, OverflowError):  # nan, inf
        lam = None  # fails the check below
    if lam != raw:
        raise ParamDomainError(f"partition {raw} has a non-integral part")
    if n is not None and len(lam) != n:
        raise ParamDomainError(f"partition {lam} has length {len(lam)}, expected {n}")
    if any(p < 0 for p in lam):
        raise ParamDomainError(f"partition {lam} has a negative part")
    if any(lam[i] < lam[i + 1] for i in range(len(lam) - 1)):
        raise ParamDomainError(f"partition {lam} is not weakly decreasing")
    return lam


def _check_level(l, n):
    if not 1 <= l <= n:
        raise ParamDomainError(f"level l must satisfy 1 <= l <= {n}, got {l}")


def _check_sites(sites, n):
    if len(set(sites)) != len(sites) or not all(1 <= j <= n for j in sites):
        raise ParamDomainError(f"sites {sites} must be distinct and in 1..{n}")


def is_partition(vec):
    """True when vec is weakly decreasing with nonnegative entries."""
    prev = None
    for p in vec:
        if p < 0 or (prev is not None and p > prev):
            return False
        prev = p
    return True


def _cone_steps(lam):
    """Nearest-neighbour steps of a tuple lam inside the partition cone.

    Yields (j, s, lam + s e_j) for the 1-based sites j ascending and
    s = +1 then -1, wherever the moved tuple is still a partition.  The
    float sums of the free Laplacian are taken in this order.
    """
    for j in range(1, len(lam) + 1):
        for s in (1, -1):
            nb = lam[: j - 1] + (lam[j - 1] + s,) + lam[j:]
            if is_partition(nb):
                yield j, s, nb


def dominance_leq(mu, lam):
    """mu <= lam in dominance order (partial sums, weights may differ)."""
    if len(mu) != len(lam):
        raise ParamDomainError(f"cannot compare partitions of lengths {len(mu)} and {len(lam)}")
    s_mu = 0
    s_lam = 0
    for a, b in zip(mu, lam):
        s_mu += a
        s_lam += b
        if s_mu > s_lam:
            return False
    return True


def total_order_key(mu):
    """Graded-lexicographic key; refines dominance, breaks ties totally."""
    return (sum(mu), mu)


def partitions_max_weight(n, max_weight):
    """All length-n partitions of weight <= max_weight, in graded-lex order."""
    out = []

    def rec(prefix, pos, cap, budget):
        if pos == n:
            out.append(tuple(prefix))
            return
        for part in range(min(cap, budget), -1, -1):
            prefix.append(part)
            rec(prefix, pos + 1, part, budget - part)
            prefix.pop()

    rec([], 0, max_weight, max_weight)
    out.sort(key=total_order_key)
    return out


def ideal(lam):
    """Dominance ideal {mu : mu <= lam} as a tuple in graded-lex order."""
    lam = check_partition(lam)
    return tuple(mu for mu in partitions_max_weight(len(lam), sum(lam)) if dominance_leq(mu, lam))


@dataclass
class PartitionMap:
    """Finitely supported map from length-n partitions to values.

    The lattice functions and the invariant polynomials (coefficients on
    the monomials m_mu) share this body.  Values may be Fractions (exact
    path) or floats/complex.  Zero values are pruned so that equality of
    supports is meaningful.  Every method returns the caller's class.
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

    def support(self):
        """The keys in graded-lex order."""
        return sorted(self.values, key=total_order_key)

    def is_zero(self):
        return not self.values

    def scaled(self, c):
        return type(self)(self.n, {k: c * v for k, v in self.values.items()})

    def plus(self, other):
        if other.n != self.n:
            raise ParamDomainError(f"cannot add maps of ranks {self.n} and {other.n}")
        out = dict(self.values)
        for k, v in other.values.items():
            out[k] = out.get(k, 0) + v
        return type(self)(self.n, out)

    def minus(self, other):
        return self.plus(other.scaled(-1))


def _perm_parity(sigma):
    seen = [False] * len(sigma)
    parity = 1
    for i in range(len(sigma)):
        if seen[i]:
            continue
        j = i
        length = 0
        while not seen[j]:
            seen[j] = True
            j = sigma[j]
            length += 1
        if length % 2 == 0:
            parity = -parity
    return parity


@dataclass(frozen=True)
class SignedPermutation:
    """Element of the hyperoctahedral group W = S_n x {+-1}^n.

    Acts on vectors by (w v)[sigma[i]] = signs[i] * v[i] (0-based
    positions).  sign(w) is the permutation parity times the product of
    the coordinate signs.
    """

    sigma: tuple
    signs: tuple

    def __post_init__(self):
        n = len(self.sigma)
        if sorted(self.sigma) != list(range(n)) or len(self.signs) != n:
            raise ParamDomainError(f"invalid signed permutation {self.sigma}, {self.signs}")
        if any(s not in (1, -1) for s in self.signs):
            raise ParamDomainError(f"signs must be +-1, got {self.signs}")

    @classmethod
    def identity(cls, n):
        return cls(tuple(range(n)), (1,) * n)

    @classmethod
    def random(cls, n, rng):
        sigma = list(range(n))
        rng.shuffle(sigma)
        signs = tuple(rng.choice((1, -1)) for _ in range(n))
        return cls(tuple(sigma), signs)

    def apply(self, vec):
        n = len(self.sigma)
        if len(vec) != n:
            raise ParamDomainError(f"vector length {len(vec)} does not match rank {n}")
        out = [None] * n
        for i in range(n):
            out[self.sigma[i]] = self.signs[i] * vec[i]
        return tuple(out)

    def sign(self):
        s = _perm_parity(self.sigma)
        for e in self.signs:
            s *= e
        return s

    def compose(self, other):
        """self after other: (self*other)(v) = self(other(v))."""
        n = len(self.sigma)
        sigma = tuple(self.sigma[other.sigma[i]] for i in range(n))
        signs = tuple(other.signs[i] * self.signs[other.sigma[i]] for i in range(n))
        return SignedPermutation(sigma, signs)


# Orbits kept, one per distinct mu.
ORBIT_CACHE_SIZE = 1024


def orbit(mu):
    """Distinct images of mu under W, sorted for determinism.

    Signs are only flipped on nonzero entries, and permutations are
    deduplicated, so each orbit vector appears exactly once.
    """
    return list(_orbit(tuple(mu)))


@functools.lru_cache(maxsize=ORBIT_CACHE_SIZE)
def _orbit(mu):
    perms = set(itertools.permutations(mu))
    out = set()
    for p in perms:
        nz = [i for i, v in enumerate(p) if v != 0]
        for signs in itertools.product((1, -1), repeat=len(nz)):
            v = list(p)
            for s, i in zip(signs, nz):
                v[i] = s * v[i]
            out.add(tuple(v))
    return tuple(sorted(out))


def monomial_eval(mu, z):
    """W-invariant monomial m_mu(z) = sum over the orbit of z^nu.

    Each orbit vector contributes once (no multiplicities).  Works for
    Fractions, floats, complex, and numpy arrays alike; exact input
    gives exact output, through the integer kernel _Monomials.  Zero
    coordinates are rejected because negative powers appear.
    """
    mu = tuple(mu)
    z = list(z)
    if len(z) != len(mu):
        raise ParamDomainError(f"point has length {len(z)}, expected {len(mu)}")
    for j, zj in enumerate(z):
        if isinstance(zj, (int, float, complex, Fraction)) and zj == 0:
            raise ParamDomainError(f"monomial_eval requires nonzero coordinates, z[{j}] = 0")
    if all(isinstance(zj, (int, Fraction)) for zj in z):
        nums = _Monomials(tuple((zj.numerator, zj.denominator) for zj in z))
        return nums.value(tuple(sorted((abs(e) for e in mu), reverse=True)))
    total = 0
    for nu in _orbit(mu):
        term = 1
        for zj, e in zip(z, nu):
            if e:
                term = term * zj**e
        total = total + term
    return total


@functools.lru_cache(maxsize=ORBIT_CACHE_SIZE)
def _permutations(mu):
    """Distinct permutations of mu, sorted."""
    return tuple(sorted(set(itertools.permutations(mu))))


class _Monomials(dict):
    """The integer monomial kernel: cleared m_mu at one rational point.

    The point is a tuple of integer pairs (a_j, b_j) with z_j = a_j/b_j,
    reduced or not.  For a partition mu with M = mu_1, self[mu] is the
    integer N_mu = m_mu(z) * g^M, g = prod_j a_j b_j: the
    sign orbit of each distinct permutation pi of mu folds into
    prod_j c_j(pi_j), with c_j(0) = (a_j b_j)^M and
    c_j(e) = a_j^(M+e) b_j^(M-e) + a_j^(M-e) b_j^(M+e) for e > 0.
    Entries and the c_j tables (one per M) are built on first use.
    """

    __slots__ = ("pairs", "g", "tables")

    def __init__(self, pairs):
        super().__init__()
        self.pairs = pairs
        self.g = 1
        for a, b in pairs:
            self.g *= a * b
        self.tables = {}

    def value(self, mu):
        """m_mu(z) as a Fraction: N_mu / g^M."""
        return Fraction(self[mu], self.g ** (mu[0] if mu else 0))

    def __missing__(self, mu):
        M = mu[0] if mu else 0
        rows = self.tables.get(M)
        if rows is None:
            rows = self.tables[M] = [
                [(a * b) ** M] + [(a * b) ** (M - e) * (a ** (2 * e) + b ** (2 * e)) for e in range(1, M + 1)]
                for a, b in self.pairs
            ]
        total = 0
        for perm in _permutations(mu):
            term = 1
            for row, e in zip(rows, perm):
                term *= row[e]
            total += term
        self[mu] = total
        return total


# ---------------------------------------------------------------------------
# signed hops: the one engine behind the coefficients of H_l and Hhat_l
# ---------------------------------------------------------------------------
#
# Both families of integrals read  sum over sites J with signs eps, |J| <= l,
# of U_{J^c, l-|J|} V_{eps J} T_{eps J}  (van Diejen's form).  Each side
# supplies a _Factors table of its own and a way to move a label or a
# point; how a coefficient is assembled from the table, and the order of
# the terms, live only here.  Each side builds every factor as one reduced
# Fraction from the integer parts of its label or point and of the
# parameters (latticeop._factors, dualop._Point); the hop products and the
# U sums run on their numerators and denominators as unreduced integer
# pairs, and one Fraction is formed per coefficient.


def _signed_hops(n, l):
    """Every (J, eps) with |J| <= l, J ascending and eps its signs.

    Ordered as itertools.product((0, 1, -1), repeat=n), 0 meaning the
    site stays.
    """
    for signs in itertools.product((0, 1, -1), repeat=n):
        J = tuple(j for j, s in enumerate(signs, 1) if s)
        if len(J) <= l:
            yield J, tuple(s for s in signs if s)


class _Lazy(dict):
    """A dict that builds a missing entry as build(*key)."""

    def __init__(self, build):
        super().__init__()
        self.build = build

    def __missing__(self, key):
        self[key] = value = self.build(*key)
        return value


class _Factors:
    """The factors of the hop coefficients at one label or point.

    one[j, s]: one-body factor of site j moved with sign s.
    mixed[j, s, k]: factor of a moved j against an unmoved k.
    pair[j, s, k, r, stay]: factor of j and k moved together with signs
    s and r, in its U form if stay, else in its V form.
    Entries are reduced Fractions.
    stay[K, p]: U_{K,p} as an unreduced (numerator, denominator) pair,
    filled by _hop_coefficient on first use.
    """

    __slots__ = ("n", "one", "mixed", "pair", "stay")

    def __init__(self, n, one, mixed, pair):
        self.n, self.one, self.mixed, self.pair = n, one, mixed, pair
        self.stay = {}


def _hop_product(J, eps, mixed, F, stay):
    """One-body, mixed (against the sites in mixed) and in-pair product over J.

    Returns the product as an unreduced (numerator, denominator) pair of
    ints, denominator > 0; the factors are read in the order named.
    """
    factors = [F.one[j, s] for j, s in zip(J, eps)]
    factors += [F.mixed[j, s, k] for j, s in zip(J, eps) for k in mixed]
    factors += [F.pair[J[a], eps[a], J[b], eps[b], stay] for a, b in itertools.combinations(range(len(J)), 2)]
    num = den = 1
    for f in factors:
        num *= f.numerator
        den *= f.denominator
    return num, den


def _stay_sum(K, p, F):
    """U_{K,p}: (-1)^p times the sum over disjoint I+, I- in K, |I+| + |I-| = p.

    Enumerates |I+| ascending, then I+, then I-; each term is the U form
    of the hop product over I+ followed by I-, against the rest of K.
    Returns an unreduced (numerator, denominator) pair of ints.
    """
    num, den = 0, 1
    for sp in range(p + 1):
        signs = (1,) * sp + (-1,) * (p - sp)
        for Ip in itertools.combinations(K, sp):
            restp = [k for k in K if k not in Ip]
            for Im in itertools.combinations(restp, p - sp):
                rest = [k for k in restp if k not in Im]
                tn, td = _hop_product(Ip + Im, signs, rest, F, True)
                num = num * td + tn * den
                den *= td
    return (-num if p % 2 else num), den


def _hop_coefficient(J, eps, l, F):
    """U_{J^c, l-|J|} V_{eps J}: the coefficient of the hop eps J in the l-th integral."""
    rest = tuple(k for k in range(1, F.n + 1) if k not in J)
    key = (rest, l - len(J))
    u = F.stay.get(key)
    if u is None:
        u = F.stay[key] = _stay_sum(rest, key[1], F)
    vn, vd = _hop_product(J, eps, rest, F, False)
    return Fraction(u[0] * vn, u[1] * vd)


def _terms(l, F, move):
    """(target, coefficient) of each signed hop of the l-th integral over F.

    move(J, eps) returns the label or point the hop reaches, or None to
    skip the hop; a skipped hop's coefficient is never formed, since an
    inadmissible lattice hop can sit on a pole.
    """
    for J, eps in _signed_hops(F.n, l):
        target = move(J, eps)
        if target is not None:
            yield target, _hop_coefficient(J, eps, l, F)


def elem_sym(k, z):
    """Elementary symmetric polynomial e_k(z); e_0 = 1, 0 for k > len(z)."""
    if k < 0:
        raise ParamDomainError(f"elem_sym order must be >= 0, got {k}")
    z = list(z)
    if k > len(z):
        return 0
    total = 0
    for combo in itertools.combinations(z, k):
        term = 1
        for v in combo:
            term = term * v
        total = total + term
    return total


def complete_sym(k, y):
    """Complete homogeneous symmetric polynomial h_k(y); h_0 = 1."""
    if k < 0:
        raise ParamDomainError(f"complete_sym order must be >= 0, got {k}")
    y = list(y)
    if k == 0:
        return 1
    if not y:
        return 0
    total = 0
    for combo in itertools.combinations_with_replacement(y, k):
        term = 1
        for v in combo:
            term = term * v
        total = total + term
    return total


# ---------------------------------------------------------------------------
# eigenvalues
# ---------------------------------------------------------------------------


def eval_E(lam, params):
    """Lattice-side eigenvalue E_lam = sum_j t^(j-1) (q^(-lam_j) - 1)."""
    lam = check_partition(lam)
    q, t = params.q, params.t
    return sum((t ** (j - 1)) * (q ** (-lam[j - 1]) - 1) for j in range(1, len(lam) + 1))


def eval_E_l(lam, l, params):
    """Higher eigenvalue E_{lam,l}.

    E_{lam,l} = t^(-l(l-1)/2) * sum over 1 <= j_1 < ... < j_l <= n of
    prod_r ( t^(j_r - 1) q^(-lam_{j_r}) - t^(n + r - 1 - j_r) ).
    Reduces to eval_E at l = 1 and is nonnegative on the whole domain.
    """
    lam = check_partition(lam)
    n = len(lam)
    _check_level(l, n)
    q, t = params.q, params.t
    zpow = [t ** (j - 1) * q ** (-lam[j - 1]) for j in range(1, n + 1)]
    total = 0
    for combo in itertools.combinations(range(1, n + 1), l):
        term = 1
        for r, jr in enumerate(combo, start=1):
            term *= zpow[jr - 1] - t ** (n + r - 1 - jr)
        total += term
    exp = -l * (l - 1) // 2
    return t**exp * total


def eval_Eln(l, z, y):
    """E_{l,n}(z; y) = sum_{k=0}^{l} (-1)^(l+k) e_k(z) h_{l-k}(y).

    Requires len(y) == len(z) - l + 1.  E_{0,n} = 1.  Satisfies the
    homogeneity E_{l,n}(c z; c y) = c^l E_{l,n}(z; y) and the one-step
    recurrence splitting off the first z variable.
    """
    z = list(z)
    y = list(y)
    if l < 0 or l > len(z):
        raise ParamDomainError(f"level l must satisfy 0 <= l <= {len(z)}, got {l}")
    if len(y) != len(z) - l + 1:
        raise ParamDomainError(
            f"expected {len(z) - l + 1} auxiliary variables, got {len(y)}"
        )
    total = 0
    for k in range(l + 1):
        sign = 1 if (l + k) % 2 == 0 else -1
        total = total + sign * elem_sym(k, z) * complete_sym(l - k, y)
    return total


def eval_E_l_via_Eln(lam, l, params):
    """E_{lam,l} through the E_{l,n} symmetric-function route.

    Independent of eval_E_l's product formula; the two must agree:
    E_{lam,l} = t^(-l(l-1)/2) E_{l,n}(q^-lam_1, t q^-lam_2, ...,
    t^(n-1) q^-lam_n ; t^(l-1), ..., t^(n-1)).
    """
    lam = check_partition(lam)
    n = len(lam)
    q, t = params.q, params.t
    z = [t ** (j - 1) * q ** (-lam[j - 1]) for j in range(1, n + 1)]
    y = [t**m for m in range(l - 1, n)]
    return t ** (-l * (l - 1) // 2) * eval_Eln(l, z, y)


def cosines_from_point(z):
    """Exact cosines (z_j + 1/z_j)/2 for a rational or complex torus point."""
    return tuple((zj + 1 / zj) / 2 for zj in z)


def eval_Ehat(cos_xi, params):
    """Spectral-side eigenvalue Ehat(xi) from the cosines of xi.

    Ehat = sum_j (2 cos xi_j - t^(n-j) that0 - t^(j-n) / that0).
    Passing exact rational cosines keeps the value exact.
    """
    cos_xi = tuple(cos_xi)
    n = len(cos_xi)
    t, a = params.t, params.that0
    return sum(2 * cos_xi[j - 1] - t ** (n - j) * a - t ** (j - n) / a for j in range(1, n + 1))


def eval_Ehat_l(l, cos_xi, params):
    """Higher spectral eigenvalue Ehat_l from the cosines of xi.

    Ehat_l = sum_{j_1<...<j_l} prod_r (2 cos xi_{j_r} - t^(j_r - r) that0
    - t^(r - j_r) / that0); Ehat_1 coincides with eval_Ehat.
    """
    cos_xi = tuple(cos_xi)
    n = len(cos_xi)
    _check_level(l, n)
    t, a = params.t, params.that0
    total = 0
    for combo in itertools.combinations(range(1, n + 1), l):
        term = 1
        for r, jr in enumerate(combo, start=1):
            term *= 2 * cos_xi[jr - 1] - t ** (jr - r) * a - t ** (r - jr) / a
        total += term
    return total
