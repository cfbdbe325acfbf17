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
from dataclasses import dataclass
from fractions import Fraction

from .errors import ParamDomainError

__all__ = [
    "check_partition",
    "dominance_leq",
    "total_order_key",
    "DominanceIdeal",
    "ideal",
    "partitions_max_weight",
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
    lam = tuple(int(p) for p in lam)
    if n is not None and len(lam) != n:
        raise ParamDomainError(f"partition {lam} has length {len(lam)}, expected {n}")
    if any(p < 0 for p in lam):
        raise ParamDomainError(f"partition {lam} has a negative part")
    if any(lam[i] < lam[i + 1] for i in range(len(lam) - 1)):
        raise ParamDomainError(f"partition {lam} is not weakly decreasing")
    return lam


def is_partition(vec):
    """True when vec is weakly decreasing with nonnegative entries."""
    prev = None
    for p in vec:
        if p < 0 or (prev is not None and p > prev):
            return False
        prev = p
    return True


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


@dataclass(frozen=True)
class DominanceIdeal:
    """The set {mu : mu <= root} ordered by the graded-lex total order."""

    root: tuple
    members: tuple

    def __len__(self):
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def __contains__(self, mu):
        return mu in set(self.members)


def ideal(lam):
    """Dominance ideal of lam as an ordered DominanceIdeal."""
    lam = check_partition(lam)
    n = len(lam)
    members = [mu for mu in partitions_max_weight(n, sum(lam)) if dominance_leq(mu, lam)]
    return DominanceIdeal(root=lam, members=tuple(members))


def merged_ideal(roots):
    """Union of the dominance ideals of several roots, graded-lex ordered."""
    roots = [check_partition(r) for r in roots]
    if not roots:
        return ()
    n = len(roots[0])
    seen = set()
    for r in roots:
        check_partition(r, n)
        for mu in ideal(r):
            seen.add(mu)
    return tuple(sorted(seen, key=total_order_key))


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
    gives exact output.  Zero coordinates are rejected because negative
    powers appear.
    """
    mu = tuple(mu)
    z = list(z)
    if len(z) != len(mu):
        raise ParamDomainError(f"point has length {len(z)}, expected {len(mu)}")
    for j, zj in enumerate(z):
        if isinstance(zj, (int, float, complex, Fraction)) and zj == 0:
            raise ParamDomainError(f"monomial_eval requires nonzero coordinates, z[{j}] = 0")
    if all(isinstance(zj, (int, Fraction)) for zj in z):
        return _monomial_eval_rational(mu, z)
    total = 0
    for nu in _orbit(mu):
        term = 1
        for zj, e in zip(z, nu):
            if e:
                term = term * zj**e
        total = total + term
    return total


def _monomial_eval_rational(mu, z):
    """m_mu(z) at a rational point, on integers with denominators cleared.

    With z_j = a_j/b_j and M the largest |mu_j|, every term z^nu times
    prod_j (a_j b_j)^M is the integer prod_j a_j^(M+nu_j) b_j^(M-nu_j),
    read from one power table per coordinate; one Fraction divides the
    integer sum by prod_j (a_j b_j)^M at the end.
    """
    M = max((abs(e) for e in mu), default=0)
    tables = []
    den = 1
    for zj in z:
        a, b = zj.numerator, zj.denominator
        pa = [1]
        pb = [1]
        for _ in range(2 * M):
            pa.append(pa[-1] * a)
            pb.append(pb[-1] * b)
        # tables[j][M + e] = a^(M+e) b^(M-e), the cleared z_j^e
        tables.append([pa[M + e] * pb[M - e] for e in range(-M, M + 1)])
        den *= pa[M] * pb[M]
    num = 0
    for nu in _orbit(mu):
        term = 1
        for row, e in zip(tables, nu):
            term *= row[M + e]
        num += term
    return Fraction(num, den)


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
    if not 1 <= l <= n:
        raise ParamDomainError(f"level l must satisfy 1 <= l <= {n}, got {l}")
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
    if not 1 <= l <= n:
        raise ParamDomainError(f"level l must satisfy 1 <= l <= {n}, got {l}")
    t, a = params.t, params.that0
    total = 0
    for combo in itertools.combinations(range(1, n + 1), l):
        term = 1
        for r, jr in enumerate(combo, start=1):
            term *= 2 * cos_xi[jr - 1] - t ** (jr - r) * a - t ** (r - jr) / a
        total += term
    return total
