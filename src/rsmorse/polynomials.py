"""Multivariate q-orthogonal eigenpolynomials of the dual integrals.

P_lambda is the unique W-invariant Laurent polynomial supported on the
dominance ideal of lambda that is an eigenfunction of the first dual
integral and takes the value 1 at the principal specialization point
z*_j = 1/(t^(n-j) that_0).  Construction is a triangular eigenvector
solve against the exact matrix of Hhat_1 in the monomial basis; the
known product formula for the coefficient of m_lambda then fixes the
overall scale without any division by values at special points.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .combinatorics import check_partition, cosines_from_point, eval_Ehat_l, ideal
from .dualop import InvariantPolynomial, _point, dual_matrix
from .errors import DegeneracyError
from .latticeop import hop_terms
from .qcore import qpoch_finite

__all__ = [
    "leading_coeff",
    "PolynomialFamily",
    "build_P",
    "normalization_point",
    "pieri_residual",
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

    Each P_lambda is built once by build_P from the Hhat_1 rows of the
    shared dual_matrix(1, n, params, seed), so every family and every
    dual operator call with the same parameters and seed reuse one
    interpolation per weight box.
    """

    params: object
    seed: int = 0
    _polys: dict = field(default_factory=dict, repr=False)

    def P(self, lam):
        lam = check_partition(lam)
        got = self._polys.get(lam)
        if got is None:
            got = build_P(lam, self.params, self.seed)
            self._polys[lam] = got
        return got


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
            if mu == nu:
                continue
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
    diagonalize the lattice integrals in the label variable.  At a
    rational point (int or Fraction coordinates) the monomial values are
    read from the shared point record of dualop; at any other point
    they come from monomial_eval.
    """
    lam = check_partition(lam)
    z = tuple(z)
    params = family.params
    mono = _point(z, params).mono if all(isinstance(v, (int, Fraction)) for v in z) else None
    total = 0
    for target, c in hop_terms(l, lam, params):
        total += c * family.P(target).evaluate(z, mono)
    x = cosines_from_point(z)
    lhs = eval_Ehat_l(l, x, params) * family.P(lam).evaluate(z, mono)
    return total - lhs
