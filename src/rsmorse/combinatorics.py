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

Each exact loop that two modules need has its body here: the cone walk
(_cone_steps) and the stencil over it (_cone_stencil) behind the lattice
Hamiltonian and the free Laplacian; the monomial values at a point
(_monomials_at) behind monomial_eval and InvariantPolynomial.evaluate;
the one accumulator of exact linear combinations (_pair_sums) behind
apply_Hl, the Pieri sums and apply_Hhat_l; and the signed-hop engine
behind H_l and Hhat_l (below).
"""

from __future__ import annotations

import functools
import itertools
import math
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


def _cone_stencil(support, term):
    """{lam: sum over _cone_steps(lam) of term(lam, j, s, nb)}, zero sums dropped.

    lam runs over support and its cone neighbours; each sum is taken in
    _cone_steps order.  The body of the lattice Hamiltonian and of the
    free Laplacian.
    """
    candidates = set(support)
    for lam in support:
        candidates.update(nb for _, _, nb in _cone_steps(lam))
    out = {}
    for lam in candidates:
        acc = 0
        for j, s, nb in _cone_steps(lam):
            acc += term(lam, j, s, nb)
        if acc != 0:
            out[lam] = acc
    return out


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
    The constructor validates each key; the methods and the operators,
    whose keys are partitions already, skip that check.
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
    def _of_partitions(cls, n, values):
        """A map whose keys are already length-n partitions; only zeros are pruned."""
        out = object.__new__(cls)
        out.n = n
        out.values = {lam: v for lam, v in values.items() if v != 0}
        return out

    def support(self):
        """The keys in graded-lex order."""
        return sorted(self.values, key=total_order_key)

    def is_zero(self):
        return not self.values

    def scaled(self, c):
        return self._of_partitions(self.n, {k: c * v for k, v in self.values.items()})

    def plus(self, other):
        if other.n != self.n:
            raise ParamDomainError(f"cannot add maps of ranks {self.n} and {other.n}")
        out = dict(self.values)
        for k, v in other.values.items():
            out[k] = out.get(k, 0) + v
        return self._of_partitions(self.n, out)

    def minus(self, other):
        """self - other, one subtraction per shared key; a key whose values
        are equal is dropped without forming a difference."""
        if other.n != self.n:
            raise ParamDomainError(f"cannot add maps of ranks {self.n} and {other.n}")
        out = dict(self.values)
        for k, v in other.values.items():
            a = out.get(k)
            if a is None:
                out[k] = -v
            elif a == v:
                del out[k]
            else:
                out[k] = a - v
        return self._of_partitions(self.n, out)


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


@functools.lru_cache(maxsize=ORBIT_CACHE_SIZE)
def _times_elementary(nu):
    """m_nu * m_(1^k) in the monomial basis for k = 0..n, as tuples of (gamma, count).

    m_(1^k)(z) is e_k of the x_j = z_j + 1/z_j.  The coefficient of m_gamma
    is the number of pairs (alpha, beta) in orbit(nu) x orbit(1^k 0^(n-k))
    with alpha + beta = gamma.  A partition gamma leaves only the alpha
    with no entry below -1 and no step alpha_(j+1) - alpha_j above 2.
    Entry k lists its gammas in graded-lex order.
    """
    n = len(nu)
    alphas = [
        a for a in _orbit(nu) if min(a, default=0) >= -1 and all(b - c <= 2 for c, b in zip(a, a[1:]))
    ]
    out = []
    for k in range(n + 1):
        counts = {}
        for beta in _orbit((1,) * k + (0,) * (n - k)):
            for alpha in alphas:
                gamma = tuple(a + b for a, b in zip(alpha, beta))
                if is_partition(gamma):
                    counts[gamma] = counts.get(gamma, 0) + 1
        out.append(tuple(sorted(counts.items(), key=lambda item: total_order_key(item[0]))))
    return tuple(out)


def monomial_eval(mu, z):
    """W-invariant monomial m_mu(z) = sum over the orbit of z^nu.

    Each orbit vector contributes once (no multiplicities).  One value
    of _monomials_at(z): exact input gives exact output.
    """
    mu = tuple(mu)
    return _monomials_at(z, len(mu))(tuple(sorted((abs(e) for e in mu), reverse=True)))


def _check_point(z, n):
    """z as a tuple of n coordinates, none of them zero, since negative powers appear."""
    z = tuple(z)
    if len(z) != n:
        raise ParamDomainError(f"point has length {len(z)}, expected {n}")
    for j, zj in enumerate(z):
        if isinstance(zj, (int, float, complex, Fraction)) and zj == 0:
            raise ParamDomainError(f"point needs nonzero coordinates, z[{j}] = {zj!r}")
    return z


def _monomials_at(z, n):
    """mu -> m_mu(z) for the length-n partitions mu, at the point z.

    At an int or Fraction point the map is the integer kernel _Monomials
    itself, whose call gives each value as a Fraction.  Anywhere else
    (floats, complex, numpy arrays) it is the orbit sum.
    """
    z = _check_point(z, n)
    if all(isinstance(zj, (int, Fraction)) for zj in z):
        return _Monomials(tuple((zj.numerator, zj.denominator) for zj in z))

    def orbit_sum(mu):
        total = 0
        for nu in _orbit(mu):
            term = 1
            for zj, e in zip(z, nu):
                if e:
                    term = term * zj**e
            total = total + term
        return total

    return orbit_sum


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

    def __call__(self, mu):
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
# exact linear combinations
# ---------------------------------------------------------------------------


def _pair_sums(groups, acc=None):
    """The one accumulator of exact linear combinations, on unreduced int pairs.

    Adds num/den times n/d at key, for each (num, den, terms) of groups
    and each (key, n, d) of its terms, into acc = {key: (numerator,
    denominator)} (a new dict by default), and returns acc.  Equal
    denominators add their numerators; other pairs are cross-multiplied,
    unreduced.  Keys keep the order in which they were first added.
    apply_Hl, the Pieri sums and residuals and the row sums of
    apply_Hhat_l sum here, and the caller forms one Fraction per output
    coefficient (_fractions).
    """
    acc = {} if acc is None else acc
    get = acc.get
    for num, den, terms in groups:
        for key, n, d in terms:
            n *= num
            d *= den
            pair = get(key)
            if pair is None:
                acc[key] = n, d
            else:
                pn, pd = pair
                if pd == d:
                    acc[key] = pn + n, d
                else:
                    acc[key] = pn * d + n * pd, pd * d
    return acc


def _fractions(acc, keys=None):
    """{key: acc[key] as a Fraction} over keys (every key of acc, in order, by default),
    one Fraction per nonzero pair of a _pair_sums dict."""
    out = {}
    for key in acc if keys is None else keys:
        n, d = acc[key]
        if n:
            out[key] = Fraction(n, d)
    return out


def _pairs_of(values):
    """(key, numerator, denominator) of each item of a map with int or Fraction values."""
    return ((key, v.numerator, v.denominator) for key, v in values.items())


# ---------------------------------------------------------------------------
# signed hops: the one engine behind the coefficients of H_l and Hhat_l
# ---------------------------------------------------------------------------
#
# Both families of integrals read  sum over sites J with signs eps, |J| <= l,
# of U_{J^c, l-|J|} V_{eps J} T_{eps J}  (van Diejen's form).  Each side
# supplies a _Factors table of its own and a way to move a label or a
# point; how a coefficient is assembled from the table (_hop_coefficient),
# and the order of the terms (_terms), live only here.  Each side builds
# every factor as one reduced (numerator, denominator) int pair (_ratio)
# from the integer parts of its label or point and of the parameters
# (latticeop._factors, dualop._Point); the hop products and the U sums
# multiply and add those pairs unreduced, each is kept in its table on
# first use, and each coefficient is reduced once: a Fraction in a lattice
# hop table, a reduced int pair in a dual fit.


def _ratio(num, den):
    """num/den as a reduced (numerator, denominator) int pair with den > 0.

    den == 0 raises ZeroDivisionError, as Fraction(num, 0) does.
    """
    if den == 0:
        raise ZeroDivisionError(f"Fraction({num}, 0)")
    g = math.gcd(num, den)
    if den < 0:
        g = -g
    return num // g, den // g


# Signed-hop lists kept, one per (n, l).
SIGNED_HOPS_CACHE_SIZE = 64


@functools.lru_cache(maxsize=SIGNED_HOPS_CACHE_SIZE)
def _signed_hops(n, l):
    """Every (J, eps) with |J| <= l, J ascending and eps its signs, as a shared tuple.

    Ordered as itertools.product((0, 1, -1), repeat=n), 0 meaning the
    site stays.
    """
    hops = []
    for signs in itertools.product((0, 1, -1), repeat=n):
        J = tuple(j for j, s in enumerate(signs, 1) if s)
        if len(J) <= l:
            hops.append((J, tuple(s for s in signs if s)))
    return tuple(hops)


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
    Entries are reduced (numerator, denominator) int pairs (_ratio).
    stay[K, p]: U_{K,p}, filled by _stay on first use, and hop[J, eps]:
    V_{eps J}, filled by _hop_coefficient on first use, both unreduced
    (numerator, denominator) pairs that every level at the label or point
    reads.  pole: the first (j, k), in (j, k) order, whose in-pair factors
    of up site j and down site k divide by zero (latticeop._factors); None
    where there is none, and at every dual point.
    """

    __slots__ = ("n", "one", "mixed", "pair", "pole", "stay", "hop")

    def __init__(self, n, one, mixed, pair, pole=None):
        self.n, self.one, self.mixed, self.pair, self.pole = n, one, mixed, pair, pole
        self.stay = {}
        self.hop = {}


def _hop_product(J, eps, mixed, F, stay):
    """One-body, mixed (against the sites in mixed) and in-pair product over J.

    Returns the product as an unreduced (numerator, denominator) pair of
    ints, denominator > 0; the factors are read in the order named.
    """
    one, cross, pair = F.one, F.mixed, F.pair
    num = den = 1
    for j, s in zip(J, eps):
        fn, fd = one[j, s]
        num *= fn
        den *= fd
    for j, s in zip(J, eps):
        for k in mixed:
            fn, fd = cross[j, s, k]
            num *= fn
            den *= fd
    for a in range(len(J)):
        for b in range(a + 1, len(J)):
            fn, fd = pair[J[a], eps[a], J[b], eps[b], stay]
            num *= fn
            den *= fd
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


def _stay(K, p, F):
    """U_{K,p} from F.stay, summed (_stay_sum) and kept on first use."""
    u = F.stay.get((K, p))
    if u is None:
        u = F.stay[K, p] = _stay_sum(K, p, F)
    return u


def _hop_coefficient(J, eps, l, F):
    """U_{J^c, l-|J|} V_{eps J}: the coefficient of the hop eps J in the l-th
    integral, as an unreduced (numerator, denominator) pair.

    U is read before V; V_{eps J} is multiplied (_hop_product) and kept in
    F.hop on first use.
    """
    rest = tuple(k for k in range(1, F.n + 1) if k not in J)
    un, ud = _stay(rest, l - len(J), F)
    v = F.hop.get((J, eps))
    if v is None:
        v = F.hop[J, eps] = _hop_product(J, eps, rest, F, False)
    return un * v[0], ud * v[1]


def _terms(l, F, move):
    """(target, coefficient) of each signed hop of the l-th integral over F,
    the coefficient an unreduced (numerator, denominator) pair.

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

    Runs on the integer numerators and denominators of q and t: each
    factor is an int pair over td^(n-1) qn^(lam_j), each product is
    brought to the shared denominator td^(l(n-1)) qn^|lam|, and the sum
    is reduced once into one Fraction.  q = 0 at a nonzero label, or t = 0
    at l >= 2, raises ZeroDivisionError, as the Fraction powers do.
    eval_E_l_via_Eln stays on Fractions, the independent route.
    """
    lam = check_partition(lam)
    n = len(lam)
    _check_level(l, n)
    qn, qd = params.q.numerator, params.q.denominator
    tn, td = params.t.numerator, params.t.denominator
    weight = sum(lam)
    # factor (r, j), 0-based, with e = n - 1 + r - j in [l - 1, n - 1]:
    # (tn^j qd^lam_j td^(n-1-j) - tn^e td^(n-1-e) qn^lam_j) / (td^(n-1) qn^lam_j)
    factor = {}
    for r in range(l):
        for j in range(r, n - l + r + 1):
            e = n - 1 + r - j
            factor[r, j] = tn**j * qd ** lam[j] * td ** (n - 1 - j) - tn**e * td ** (n - 1 - e) * qn ** lam[j]
    total = 0
    for combo in itertools.combinations(range(n), l):
        term = qn ** (weight - sum(lam[j] for j in combo))
        for r, j in enumerate(combo):
            term *= factor[r, j]
        total += term
    k = l * (l - 1) // 2
    return Fraction(total * td**k, td ** (l * (n - 1)) * qn**weight * tn**k)


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
    t^(n-1) q^-lam_n ; t^(l-1), ..., t^(n-1)).  It stays on Fractions
    on purpose, so it shares no integer arithmetic with eval_E_l.
    """
    lam = check_partition(lam)
    n = len(lam)
    q, t = params.q, params.t
    z = [t ** (j - 1) * q ** (-lam[j - 1]) for j in range(1, n + 1)]
    y = [t**m for m in range(l - 1, n)]
    return t ** (-l * (l - 1) // 2) * eval_Eln(l, z, y)


def _exact_ints(z):
    """z as a tuple with each int coordinate a Fraction, so 1/z_j stays exact.

    A zero coordinate raises ParamDomainError (_check_point).
    """
    z = tuple(z)
    return tuple(Fraction(v) if isinstance(v, int) else v for v in _check_point(z, len(z)))


def cosines_from_point(z):
    """Exact cosines (z_j + 1/z_j)/2 for a rational or complex torus point."""
    return tuple((zj + 1 / zj) / 2 for zj in _exact_ints(z))


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


def _ehat_pair(l, xs, params):
    """Ehat_l at x_j = 2 cos xi_j = xn_j/xd_j, from xs = ((xn_j, xd_j), ...), xd_j != 0.

    The product formula of eval_Ehat_l on the integer parts of t and
    that0: with t^k that0 = u_k/w_k, the factor of j at offset
    k = j_r - r is (xn_j w_k u_k - xd_j (u_k^2 + w_k^2)) / (xd_j w_k u_k),
    brought to the shared denominator prod_j xd_j (tn td)^(l(n-l))
    (an ad)^l.  Returns that unreduced (numerator, denominator) pair; the
    denominator is 0 exactly where the Fraction loop divides by zero.
    """
    n = len(xs)
    top = n - l
    tn, td = params.t.numerator, params.t.denominator
    an, ad = params.that0.numerator, params.that0.denominator
    factor = {}
    for k in range(top + 1):
        u, w, pad = tn**k * an, td**k * ad, (tn * td) ** (top - k)
        for r in range(l):
            xn, xd = xs[r + k]
            factor[r, r + k] = (xn * w * u - xd * (u * u + w * w)) * pad
    total = 0
    for combo in itertools.combinations(range(n), l):
        term = 1
        for r, j in enumerate(combo):
            term *= factor[r, j]
        for j in range(n):
            if j not in combo:
                term *= xs[j][1]
        total += term
    den = (tn * td) ** (l * top) * (an * ad) ** l
    for _, xd in xs:
        den *= xd
    return total, den
