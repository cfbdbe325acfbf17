"""Multivariate q-orthogonal eigenpolynomials of the dual integrals.

P_lambda is the unique W-invariant Laurent polynomial supported on the
dominance ideal of lambda that is an eigenfunction of the first dual
integral and takes the value 1 at the principal specialization point
z*_j = 1/(t^(n-j) that_0).

PolynomialFamily builds P_mu from the lattice Pieri identity (pieri_P):
lambda -> P_lambda(z) is an eigenfunction of the lattice integrals H_l
with eigenvalue Ehat_l(z), and at l = l(mu) the top hop of
lambda = mu - e_1 - ... - e_l reaches mu, so P_mu is the remainder of
the identity divided by that hop's coefficient, from P_0 = 1 and the
labels below mu.  This needs no interpolation and no linear solve.

build_P is the eigen-solve construction and the independent baseline: a
triangular eigenvector solve against the exact matrix of Hhat_1 in the
monomial basis, scaled by the product formula for the coefficient of
m_lambda.  The family falls back to it for a label where the recursion
has no value: where H_l has a pole (q = t^k, l >= 2) or the top hop's
coefficient vanishes.  FittedFamily builds every label with build_P;
the Pieri checks read it, so they do not test the recursion against
itself.

The recursion and the pointwise check pieri_residual form sum c P_target
over the hop terms in one body (_hop_sum).  They part at Ehat_l P_lam: the
recursion expands it in the monomial basis (_ehat_elementary,
_times_elementary), while pieri_residual reads Ehat_l at the cosines of
the point and evaluates sum c P_target - Ehat_l(z) P_lam once
(_residual_form).  pieri_residuals runs the same body over a grid of
labels and points, with one hop sum per (l, lam) and one monomial map
per point.

Every one of these sums is taken in the one accumulator of exact linear
combinations, combinatorics._pair_sums, on unreduced int pairs, with one
Fraction per output coefficient: _hop_sum and _pieri_sum add each term
c v as a pair, pieri_P forms each coefficient of P_mu once from its pair
and c_mu, and at an int or Fraction point _residual_form sums
(h_nu - Ehat_l(z) c_nu) N_nu / g^(nu_1) over the integer monomial kernel
of the point, one Fraction per residual.  Float and complex points take
the orbit sums.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction

from .combinatorics import (
    _check_point,
    _fractions,
    _Monomials,
    _monomials_at,
    _pair_sums,
    _pairs_of,
    _times_elementary,
    check_partition,
    cosines_from_point,
    eval_Ehat_l,
    ideal,
    total_order_key,
)
from .dualop import InvariantPolynomial, dual_matrix
from .errors import DegeneracyError, PoleError
from .latticeop import hop_terms
from .qcore import qpoch_finite

__all__ = [
    "leading_coeff",
    "PolynomialFamily",
    "FittedFamily",
    "build_P",
    "pieri_P",
    "pieri_identity",
    "normalization_point",
    "pieri_residual",
    "pieri_residuals",
]


def leading_coeff(lam, params):
    """Coefficient of m_lambda in the normalized eigenpolynomial.

    prod_j that0^lam_j t^((n-j) lam_j)
           / ((that0 that1 t^(n-j); q)_{lam_j} (that0 that2 t^(n-j); q)_{lam_j})
    * prod_{j<k} (t^(k-j); q)_{lam_j - lam_k} / (t^(1+k-j); q)_{lam_j - lam_k}.
    """
    lam = check_partition(lam)
    n = len(lam)
    q, t = params.q, params.t
    th0, th1, th2 = params.that0, params.that1, params.that2
    out = Fraction(1)
    for j in range(1, n + 1):
        lj = lam[j - 1]
        out *= th0**lj * t ** ((n - j) * lj)
        out /= qpoch_finite(th0 * th1 * t ** (n - j), lj, q)
        out /= qpoch_finite(th0 * th2 * t ** (n - j), lj, q)
    for j in range(1, n + 1):
        for k in range(j + 1, n + 1):
            d = lam[j - 1] - lam[k - 1]
            out *= qpoch_finite(t ** (k - j), d, q)
            out /= qpoch_finite(t ** (1 + k - j), d, q)
    return out


def normalization_point(n, params):
    """Principal specialization z*_j = 1/(t^(n-j) that_0)."""
    return tuple(1 / (params.t ** (n - j) * params.that0) for j in range(1, n + 1))


@dataclass
class PolynomialFamily:
    """Cache of eigenpolynomials for fixed parameters and seed.

    P(lam) builds every label of the dominance ideal of lam it lacks, in
    graded-lex order, by the Pieri recursion pieri_P: each step reads
    only labels of that ideal that come before it.  A label whose step
    raises PoleError or DegeneracyError is built by build_P instead,
    from the Hhat_1 rows of the shared dual_matrix(1, n, params, seed).
    """

    params: object
    seed: int = 0
    _polys: dict = field(default_factory=dict, repr=False)

    def P(self, lam):
        lam = check_partition(lam)
        got = self._polys.get(lam)
        if got is None:
            got = self._polys[lam] = self._build(lam)
        return got

    def _build(self, lam):
        for mu in ideal(lam):
            if mu not in self._polys:
                try:
                    self._polys[mu] = pieri_P(mu, self)
                except (PoleError, DegeneracyError):
                    self._polys[mu] = build_P(mu, self.params, self.seed)
        return self._polys[lam]


class FittedFamily(PolynomialFamily):
    """A PolynomialFamily whose every P is the eigen-solve build_P."""

    def _build(self, lam):
        return build_P(lam, self.params, self.seed)


def build_P(lam, params, seed=0):
    """Construct the normalized eigenpolynomial with label lam.

    Solves (Hhat_1 - E) P = 0 triangularly over the dominance ideal of
    lam, where E is the diagonal matrix entry at lam, reading the rows of
    dual_matrix(1, n, params, seed) grown to |lam|; a vanishing gap
    E - Hhat_1[mu, mu] for mu below lam raises DegeneracyError naming
    the colliding pair.
    """
    lam = check_partition(lam)
    mat = dual_matrix(1, len(lam), params, seed)
    mat.grow(sum(lam))
    rows = mat.rows
    energy = rows[lam].get(lam, Fraction(0))
    coeffs = {lam: Fraction(1)}
    for nu in ideal(lam)[::-1]:
        if nu == lam:
            continue
        acc = Fraction(0)
        for mu, c in coeffs.items():
            acc += c * rows[mu].get(nu, Fraction(0))
        gap = energy - rows[nu].get(nu, Fraction(0))
        if gap == 0:
            if acc == 0:
                continue
            raise DegeneracyError(
                f"eigenvalue collision between labels {nu} and {lam}: "
                "triangular eigenvector solve has no solution at these parameters"
            )
        if acc != 0:
            coeffs[nu] = acc / gap
    scale = leading_coeff(lam, params)
    return InvariantPolynomial(len(lam), {mu: scale * c for mu, c in coeffs.items()})


def pieri_residual(l, lam, z, family):
    """Residual of the lattice-side recurrence at one point.

    sum over the level-l hop terms at lam of coeff * P_target(z)
    minus Ehat_l(z) * P_lam(z); identically zero when the polynomials
    diagonalize the lattice integrals in the label variable.  The
    polynomial sum c P_target - Ehat_l(z) P_lam is formed once and
    evaluated at z (_residual_form); Ehat_l is read at the cosines of z,
    not through _ehat_elementary, so the check stays independent of the
    recursion.  A point of the wrong length or with a zero coordinate
    raises ParamDomainError; an int or Fraction point gives a Fraction.
    """
    lam = check_partition(lam)
    z = _check_point(z, len(lam))
    return _residual_form(l, lam, family)(z, _monomials_at(z, len(lam)))


def pieri_residuals(family, labels, points):
    """[(l, lam, z, pieri_residual(l, lam, z, family))] over each label, level and point.

    Labels outermost, then l = 1..n, then the points.  Each (l, lam)
    forms its hop sum once for all points, and one _monomials_at map per
    point and rank serves every (l, lam).
    """
    maps = {}
    out = []
    for lam in labels:
        lam = check_partition(lam)
        n = len(lam)
        if n not in maps:
            maps[n] = [(tuple(z), _monomials_at(z, n)) for z in points]
        for l in range(1, n + 1):
            residual = _residual_form(l, lam, family)
            out.extend((l, lam, z, residual(z, mono)) for z, mono in maps[n])
    return out


def _residual_form(l, lam, family):
    """(z, mono) -> the Pieri residual at z, from mono = _monomials_at(z, n).

    The hop sum over hop_terms(l, lam) and P_lam are read once.  At an
    int or Fraction point mono is the integer kernel _Monomials, and
    sum_nu (h_nu - Ehat_l(z) c_nu) N_nu / g^(nu_1), with h the hop sum
    and c the coefficients of P_lam, is summed in _pair_sums: one
    Fraction per residual.  At any other point the polynomial
    c P_target - Ehat_l(z) P_lam is formed and summed over the orbit sums.
    """
    hops = _hop_sum(l, lam, family)[0]
    p_lam = family.P(lam)
    n = len(lam)

    def residual(z, mono):
        ehat = eval_Ehat_l(l, cosines_from_point(z), family.params)
        if not isinstance(mono, _Monomials):
            poly = InvariantPolynomial._of_partitions(n, _fractions(hops))
            return poly.minus(p_lam.scaled(ehat))._sum_over(mono)
        g = mono.g
        hop_part = ((None, hn * mono[nu], hd * g ** nu[0]) for nu, (hn, hd) in hops.items())
        lam_part = (
            (None, v.numerator * mono[nu], v.denominator * g ** nu[0]) for nu, v in p_lam.coeffs.items()
        )
        acc = _pair_sums([(1, 1, hop_part), (-ehat.numerator, ehat.denominator, lam_part)])
        return Fraction(*acc[None])

    return residual


@functools.lru_cache(maxsize=256)
def _ehat_elementary(l, n, params):
    """(a_0, ..., a_n) with Ehat_l = sum_k a_k m_(1^k) on n variables.

    Ehat_l is symmetric and of degree at most one in each x_j = 2 cos xi_j
    = z_j + 1/z_j, and m_(1^k) = e_k(x); a_k is the coefficient of
    x_1 ... x_k, read off the values at x = (1^m, 0^(n-m)) by inclusion
    and exclusion.
    """
    values = [
        eval_Ehat_l(l, (Fraction(1, 2),) * m + (Fraction(0),) * (n - m), params) for m in range(n + 1)
    ]
    return tuple(
        sum((-1) ** (k - m) * math.comb(k, m) * values[m] for m in range(k + 1)) for k in range(n + 1)
    )


def _hop_sum(l, lam, family, top=None):
    """sum over hop_terms(l, lam) of c P_target, as a _pair_sums dict {mu: (numerator, denominator)}.

    The hop to top is left out of the sum; its coefficient is returned
    next to the sum (0 if no hop reaches top).
    """
    groups = []
    c_top = 0
    for target, c in hop_terms(l, lam, family.params):
        if target == top:
            c_top = c
        else:
            groups.append((c.numerator, c.denominator, _pairs_of(family.P(target).coeffs)))
    return _pair_sums(groups), c_top


def _pieri_sum(l, lam, family, top=None):
    """_hop_sum minus Ehat_l P_lam, as a _pair_sums dict, and the coefficient of the hop to top.

    Ehat_l P_lam is expanded in the monomial basis through
    _ehat_elementary and _times_elementary.
    """
    out, c_top = _hop_sum(l, lam, family, top)
    ehat = _ehat_elementary(l, len(lam), family.params)
    products_of_lam = (
        (-a.numerator * v.numerator, a.denominator * v.denominator, ((gamma, k, 1) for gamma, k in products))
        for nu, v in family.P(lam).coeffs.items()
        for a, products in zip(ehat, _times_elementary(nu))
        if a
    )
    return _pair_sums(products_of_lam, out), c_top


def pieri_P(mu, family):
    """P_mu from the lattice Pieri identity at level l = l(mu), the number of nonzero parts.

    With lam = mu - e_1 - ... - e_l, mu is the top target of
    hop_terms(l, lam), and
    P_mu = (Ehat_l P_lam - sum over the other targets of c P_target) / c_mu
    in the monomial basis; every label read lies in the ideal of mu,
    before mu in graded-lex order, and is taken from family.  P_0 = 1.
    A pole of H_l at lam raises PoleError; c_mu = 0 raises
    DegeneracyError naming mu.
    """
    mu = check_partition(mu)
    n = len(mu)
    l = sum(1 for p in mu if p)
    if l == 0:
        return InvariantPolynomial(n, {mu: Fraction(1)})
    lam = tuple(p - 1 for p in mu[:l]) + mu[l:]
    rest, c_mu = _pieri_sum(l, lam, family, top=mu)
    if c_mu == 0:
        raise DegeneracyError(
            f"Pieri recursion has no value at label {mu}: the hop {lam} -> {mu} of H_{l} has coefficient 0"
        )
    # descending graded-lex, the order build_P writes, so float sums over P run alike
    coeffs = {}
    for nu in sorted(rest, key=total_order_key, reverse=True):
        num, den = rest[nu]
        if num:
            coeffs[nu] = Fraction(-num * c_mu.denominator, den * c_mu.numerator)
    return InvariantPolynomial._of_partitions(n, coeffs)


def pieri_identity(l, lam, family):
    """sum over hop_terms(l, lam) of c P_target minus Ehat_l P_lam, in the monomial basis.

    The zero polynomial when the family's P diagonalize the lattice
    integrals in the label variable; pieri_residual is its value at a
    point.
    """
    lam = check_partition(lam)
    return InvariantPolynomial._of_partitions(len(lam), _fractions(_pieri_sum(l, lam, family)[0]))
