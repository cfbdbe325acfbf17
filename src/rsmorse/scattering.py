"""Factorized scattering matrix, square-root branches, and the free kernel.

The scattering data is built from unimodular quotients of infinite
q-products; the free side consists of the anti-invariant kernel chi and
the discrete Laplacian on the partition cone, whose eigen-identity
(including boundary sites, where the sign pairing cancels the missing
neighbors) is the machine-checkable core of the wave-operator picture.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from typing import Optional

from .combinatorics import SignedPermutation, _cone_stencil, _cone_steps, check_partition
from .errors import IrregularPointError, ParamDomainError, PoleError
from .latticeop import LatticeFunction
from .qcore import qpoch_infinite

__all__ = [
    "s_pair",
    "s_one",
    "S_hat",
    "sqrt_branch_s",
    "sqrt_branch_s0",
    "branch_deviation",
    "chi",
    "apply_H0",
    "free_eigen_residual",
    "ScatterPoint",
    "sorting_permutation",
    "S_hat_sorted",
]

# below this, a gradient component or a gap between two of them counts as zero
SORT_TOL = 1e-12


def _phase(value):
    mod = abs(value)
    if mod == 0:
        raise PoleError("vanishing modulus in a square-root branch quotient")
    return value / mod


def _pair_products(x, params, tol):
    """Yield (q e^{ix})_inf, then (t e^{ix})_inf: the q-products of s(x), each formed when read."""
    q = float(params.q)
    t = float(params.t)
    z = cmath.exp(1j * x)
    yield qpoch_infinite(q * z, q, tol)
    yield qpoch_infinite(t * z, q, tol)


def _one_body_products(x, params, tol):
    """Yield (q e^{2ix})_inf, then (that_r e^{ix})_inf for r = 0, 1, 2: the q-products
    of s0(x), each formed when read."""
    q = float(params.q)
    z = cmath.exp(1j * x)
    yield qpoch_infinite(q * z * z, q, tol)
    for th in params.that:
        yield qpoch_infinite(float(th) * z, q, tol)


def _branch(products):
    """(phase of the first product divided by the phase of each later one, the products read).

    Each product is checked as it is read, so a vanishing one raises
    before the next is formed.
    """
    products = iter(products)
    read = [next(products)]
    out = _phase(read[0])
    for value in products:
        out /= _phase(value)
        read.append(value)
    return out, read


def _pair_quotient(a, b):
    """a conj(b) / (conj(a) b): s(x) from its products a = (q e^{ix})_inf, b = (t e^{ix})_inf."""
    num = a * b.conjugate()
    den = a.conjugate() * b
    if den == 0:
        raise PoleError("two-particle factor pole")
    return num / den


def _one_body_quotient(products):
    """s0(x) from its products (q e^{2ix})_inf, (that_r e^{ix})_inf, read in that order."""
    products = iter(products)
    c = next(products)
    out = c / c.conjugate()
    for den in products:
        if den == 0:
            raise PoleError("one-particle factor pole")
        out *= den.conjugate() / den
    return out


def s_pair(x, params, tol=1e-14):
    """Two-particle factor (q e^{ix}, t e^{-ix})_inf / (q e^{-ix}, t e^{ix})_inf.

    q and t are real, so (c e^{-ix}; q)_inf is the complex conjugate of
    (c e^{ix}; q)_inf: a = (q e^{ix})_inf and b = (t e^{ix})_inf are
    formed once and the e^{-ix} factors are taken as their conjugates.
    """
    return _pair_quotient(*_pair_products(x, params, tol))


def s_one(x, params, tol=1e-14):
    """One-particle factor (q e^{2ix})_inf/(q e^{-2ix})_inf
    * prod_r (that_r e^{-ix})_inf/(that_r e^{ix})_inf.

    q and the that_r are real, so each e^{-ix} factor is the complex
    conjugate of its e^{ix} factor, formed once.
    """
    return _one_body_quotient(_one_body_products(x, params, tol))


def S_hat(xi, params, tol=1e-14):
    """Full factorized matrix prod_{j<k} s(xi_j - xi_k) s(xi_j + xi_k) prod_j s0(xi_j)."""
    xi = [float(v) for v in xi]
    n = len(xi)
    out = complex(1)
    for j in range(n):
        for k in range(j + 1, n):
            out *= s_pair(xi[j] - xi[k], params, tol) * s_pair(xi[j] + xi[k], params, tol)
    for j in range(n):
        out *= s_one(xi[j], params, tol)
    return out


def sqrt_branch_s(x, params, tol=1e-14):
    """Branch (q e^{ix})_inf/|...| * |(t e^{ix})_inf|/(t e^{ix})_inf; squares to s(x)."""
    return _branch(_pair_products(x, params, tol))[0]


def sqrt_branch_s0(x, params, tol=1e-14):
    """Branch (q e^{2ix})_inf/|...| * prod_r |(that_r e^{ix})_inf|/(that_r e^{ix})_inf."""
    return _branch(_one_body_products(x, params, tol))[0]


def branch_deviation(x, params, tol=1e-14):
    """(|sqrt_branch_s(x)^2 - s_pair(x)|, |sqrt_branch_s0(x)^2 - s_one(x)|).

    Each factor forms its q-products once and reads both its branch and
    its value from them; the products, the float operations and the
    exceptions raised are those of the four separate calls, in the same
    order.
    """
    root, (a, b) = _branch(_pair_products(x, params, tol))
    pair = abs(root**2 - _pair_quotient(a, b))
    root0, products = _branch(_one_body_products(x, params, tol))
    return pair, abs(root0**2 - _one_body_quotient(products))


def _signed_group(n):
    for sigma in itertools.permutations(range(n)):
        for signs in itertools.product((1, -1), repeat=n):
            yield SignedPermutation(sigma=sigma, signs=signs)


def _angles(xi, n):
    """xi as a list of n floats; another length raises ParamDomainError."""
    xi = [float(v) for v in xi]
    if len(xi) != n:
        raise ParamDomainError(f"xi has {len(xi)} angles, the label lam has {n} parts")
    return xi


def chi(xi, lam):
    """Anti-invariant free kernel.

    (2 pi)^(-n/2) i^(-n^2) sum over signed permutations w of
    sign(w) e^{i <w(rho0 + lam), xi>} with rho0 = (n, ..., 1).
    """
    lam = check_partition(lam)
    n = len(lam)
    xi = _angles(xi, n)
    v = [n - j + lam[j] for j in range(n)]
    total = complex(0)
    for w in _signed_group(n):
        u = w.apply(v)
        total += w.sign() * cmath.exp(1j * sum(a * b for a, b in zip(u, xi)))
    return (2 * math.pi) ** (-n / 2) * (1j) ** (-(n * n)) * total


def apply_H0(f):
    """Discrete Laplacian: sum of the admissible nearest neighbors on the cone."""
    return LatticeFunction(f.n, _cone_stencil(f.values, lambda lam, j, s, nb: f[nb]))


def free_eigen_residual(xi, lam):
    """(H0 chi_xi)(lam) - (sum_j 2 cos xi_j) chi_xi(lam); zero also at boundary sites."""
    lam = check_partition(lam)
    xi = _angles(xi, len(lam))
    acc = sum(chi(xi, nb) for _, _, nb in _cone_steps(lam))
    return acc - sum(2 * math.cos(v) for v in xi) * chi(xi, lam)


@dataclass(frozen=True)
class ScatterPoint:
    """Alcove point with its regularity flag and sorting permutation.

    regular iff the gradient components -2 sin(xi_j) are nonzero with
    pairwise distinct absolute values; w then maps the gradient to
    positive, strictly decreasing components.
    """

    xi: tuple
    regular: bool
    w: Optional[SignedPermutation]


def sorting_permutation(xi):
    xi = tuple(float(v) for v in xi)
    grad = [-2.0 * math.sin(v) for v in xi]
    mags = [abs(g) for g in grad]
    n = len(xi)
    regular = all(m > SORT_TOL for m in mags) and all(
        abs(mags[a] - mags[b]) > SORT_TOL for a in range(n) for b in range(a + 1, n)
    )
    if not regular:
        return ScatterPoint(xi=xi, regular=False, w=None)
    order = sorted(range(n), key=lambda i: -mags[i])
    sigma = [0] * n
    for rank, idx in enumerate(order):
        sigma[idx] = rank
    signs = tuple(1 if g > 0 else -1 for g in grad)
    w = SignedPermutation(sigma=tuple(sigma), signs=signs)
    applied = w.apply(grad)
    if any(applied[a] <= applied[a + 1] for a in range(n - 1)) or applied[-1] <= 0:
        raise IrregularPointError(f"sorting failed at {xi}: got {applied}")
    return ScatterPoint(xi=xi, regular=True, w=w)


def S_hat_sorted(xi, params, tol=1e-14):
    """Scattering matrix evaluated at w_xi xi, defined on regular points only."""
    point = sorting_permutation(xi)
    if not point.regular:
        raise IrregularPointError(
            f"point {tuple(xi)} has a vanishing or tied gradient component"
        )
    return S_hat(point.w.apply(list(point.xi)), params, tol)
