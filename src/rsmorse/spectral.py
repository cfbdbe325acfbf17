"""Spectral weight, norms, orthogonality quadrature, and lattice dynamics.

This is the float side and the only module that loads numpy.  The exact
norm ratios and their detailed balance live in latticeop, next to the
hop coefficients they balance; here the ratio is read by norm_Delta
(times the transcendental prefactor norm_delta0_n) and by the symmetric
conjugated matrices.  Floats only enter where an infinite product or an
integral is genuinely required.
"""

from __future__ import annotations

import functools
import math
import numbers
import sys
import warnings
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .combinatorics import check_partition, orbit, partitions_max_weight
from .errors import ParamDomainError, StructureError
# detailed_balance_residual stays bound here: bench/workload.py reads it from spectral
from .latticeop import LatticeFunction, detailed_balance_residual, epsilon0, hop_terms, norm_ratio
from .qcore import qpoch_finite, qpoch_infinite, truncation_order

__all__ = [
    "weight_grid",
    "norm_delta0_n",
    "norm_Delta",
    "QuadSpec",
    "evaluate_P_grid",
    "gram_report",
    "fourier_forward",
    "fourier_inverse",
    "ConjugatedMatrix",
    "conjugated_H_matrix",
    "evolve",
]


def weight_grid(points, params, tol=1e-12):
    """Spectral weight evaluated on an (m, n) array of angle vectors.

    No alcove check: the defining product is W-invariant, so off-alcove
    evaluation is used internally for symmetrized quadrature.  The
    one-body factors depend on one angle each, so they are evaluated
    once per distinct angle of each column and scattered back; the
    (xi_j + xi_k) pair factors once per distinct sum of two columns (on a
    tensor grid each sum occurs twice), the (xi_j - xi_k) ones at every
    point.  A zero-width array raises
    ParamDomainError; an (0, n) array gives an empty weight.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    m, n = points.shape
    if n == 0:
        raise ParamDomainError("weight_grid needs points with at least one angle, got width 0")
    q = float(params.q)
    nfac = truncation_order(1, params.q, tol)
    total = np.full(m, (2.0 * math.pi) ** (-n))
    for j in range(n):
        angles, where = np.unique(points[:, j], return_inverse=True)
        z = np.exp(1j * angles)
        num = qpoch_finite(z * z, nfac, q)
        den = np.ones(len(angles), dtype=complex)
        for th in params.that:
            den = den * qpoch_finite(float(th) * z, nfac, q)
        total = total * (np.abs(num / den) ** 2)[where]
    t = float(params.t)
    for j in range(n):
        for k in range(j + 1, n):
            sums, where = np.unique(points[:, j] + points[:, k], return_inverse=True)
            zsum = np.exp(1j * sums)
            zdif = np.exp(1j * (points[:, j] - points[:, k]))
            num = qpoch_finite(zsum, nfac, q)[where] * qpoch_finite(zdif, nfac, q)
            den = qpoch_finite(t * zsum, nfac, q)[where] * qpoch_finite(t * zdif, nfac, q)
            total = total * np.abs(num / den) ** 2
    return total


# truncation tolerance of the infinite q-products in the lattice norms
NORM_TOL = 1e-14


@functools.cache
def norm_delta0_n(n, params):
    """Transcendental prefactor of the lattice norms.

    prod_j ( (q)_inf (t^j)_inf / (t)_inf * prod_{r<s} (that_r that_s t^(n-j))_inf );
    depends on the rank, so the cache key includes n.  Raises
    ParamDomainError when the value leaves double precision (0 or not
    finite), as it does for q near 1.
    """
    q = float(params.q)
    t = float(params.t)
    th = [float(v) for v in params.that]
    out = 1.0
    for j in range(1, n + 1):
        out *= (
            qpoch_infinite(q, q, NORM_TOL)
            * qpoch_infinite(t**j, q, NORM_TOL)
            / qpoch_infinite(t, q, NORM_TOL)
        )
        for r in range(3):
            for s in range(r + 1, 3):
                out *= qpoch_infinite(th[r] * th[s] * t ** (n - j), q, NORM_TOL)
    if out == 0 or not math.isfinite(out):
        raise ParamDomainError(f"lattice norm prefactor at n={n}, q={params.q} is {out} in floats")
    return out


def norm_Delta(lam, params):
    """Lattice norm Delta_lam as a float: norm_delta0_n times the exact norm_ratio."""
    lam = check_partition(lam)
    return norm_delta0_n(len(lam), params) * float(norm_ratio(lam, params))


#: most nodes of a 1-D rule (leggauss builds a nodes x nodes matrix)
MAX_QUAD_NODES = 1000
#: most points of a tensor grid, nodes**n
MAX_QUAD_POINTS = 10**6


@dataclass(frozen=True)
class QuadSpec:
    """Tensor Gauss-Legendre rule on [0, pi]^n.

    A rule of more than MAX_QUAD_NODES nodes, or a grid of more than
    MAX_QUAD_POINTS points, is refused with ParamDomainError before any
    array is allocated.
    """

    nodes: int
    tol: float = 1e-12

    def __post_init__(self):
        if not isinstance(self.nodes, numbers.Integral) or self.nodes < 1:
            raise ParamDomainError(f"quadrature nodes must be an integer >= 1, got {self.nodes!r}")
        if self.nodes > MAX_QUAD_NODES:
            raise ParamDomainError(
                f"quadrature rule of {self.nodes} nodes exceeds the bound of {MAX_QUAD_NODES}"
            )

    @functools.cached_property
    def _rule(self):
        """Nodes and weights of the 1-D rule on [0, pi], solved once per instance."""
        u, w = np.polynomial.legendre.leggauss(self.nodes)
        return (u + 1.0) * (math.pi / 2.0), w * (math.pi / 2.0)

    def grid(self, n):
        """Fresh (points, weights) arrays of the n-fold tensor rule."""
        size = int(self.nodes) ** n
        if size > MAX_QUAD_POINTS:
            raise ParamDomainError(
                f"quadrature grid of {self.nodes}^{n} = {size} points exceeds the bound of {MAX_QUAD_POINTS}"
            )
        x, wx = self._rule
        axes = np.meshgrid(*([x] * n), indexing="ij")
        points = np.stack([a.reshape(-1) for a in axes], axis=-1)
        wgt = np.ones(points.shape[0])
        waxes = np.meshgrid(*([wx] * n), indexing="ij")
        for a in waxes:
            wgt = wgt * a.reshape(-1)
        return points, wgt


def _angles(points, n):
    """points as an (m, n) float array; another width raises ParamDomainError."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if points.shape[1] != n:
        raise ParamDomainError(f"points have width {points.shape[1]}, the rank is {n}")
    return points


def _monomial_grid(mu, points):
    """Real grid of m_mu at an (m, n) array of angles.

    m_mu(xi) = sum over the signed-permutation orbit of mu of
    exp(i <nu, xi>); the orbit closes under nu -> -nu, so the sum is
    real, and the real part cos <nu, xi> of each exponential is added
    up in orbit order.  nu and -nu share one cosine grid, taken at the
    first of the two and reused at the second.
    """
    mono = np.zeros(points.shape[0])
    unpaired = {}
    for nu in orbit(mu):
        grid = unpaired.pop(tuple(-v for v in nu), None)
        if grid is None:
            grid = unpaired[nu] = np.cos(points @ np.asarray(nu, dtype=float))
        mono = mono + grid
    return mono


def _P_grid(poly, points, grids):
    """poly at points, combined in poly.values order from grids (mu -> _monomial_grid).

    A monomial missing from grids is built and added to it, so a caller
    that passes one dict for many polynomials builds each m_mu once.
    """
    total = np.zeros(points.shape[0])
    for mu, c in poly.values.items():
        grid = grids.get(mu)
        if grid is None:
            grid = grids[mu] = _monomial_grid(mu, points)
        total = total + float(c) * grid
    return total


def evaluate_P_grid(poly, points):
    """Evaluate an invariant polynomial at an (m, n) array of angles.

    Real for real angles, so the result is a real array; points of a
    width other than the rank of poly raise ParamDomainError.
    """
    return _P_grid(poly, _angles(points, poly.n), {})


def _weighted_grid(n, params, quad):
    """Points of quad.grid(n) and the Gauss weight times the spectral weight there."""
    points, wgt = quad.grid(n)
    wgt *= weight_grid(points, params, quad.tol)
    return points, wgt


def _gram_table(labels, family, quad):
    """(L, L) table of (1/n!) integral over [0, pi]^n of P_a P_b weight.

    One grid, one weight, one real grid per distinct monomial m_mu and
    one P grid per label, combined from those: row a of V holds
    P_a sqrt(w rho) (Gauss weight w > 0, spectral weight rho >= 0),
    scaled in place, and the table is V V^T / n!, taken as one dot per
    pair of rows: that stays within 4.4e-16 of the sum of w P_a P_b rho,
    where the BLAS product V @ V.T drifts 1.1e-15 (n = 1, 200 nodes).
    """
    ranks = sorted({len(lam) for lam in labels})
    if len(ranks) > 1:
        raise ParamDomainError(f"labels of mixed rank {ranks} in one Gram table")
    n = ranks[0]
    points, root = _weighted_grid(n, family.params, quad)
    np.sqrt(root, out=root)
    table = np.empty((len(labels), points.shape[0]))
    grids = {}
    for row, lam in zip(table, labels):
        row[:] = _P_grid(family.P(lam), points, grids)
        row *= root
    return np.array([[np.dot(a, b) for b in table] for a in table]) / math.factorial(n)


def gram_report(labels, family, quad):
    """Orthogonality table rows: lambda, mu, value, target, abs_err, rel_err.

    The whole table is one product over one quadrature grid: the weight,
    each monomial grid m_mu, each P_lam grid and each norm Delta_lam are
    evaluated once (the P_lam are combined from the m_mu grids they
    share), and row lam of the product is P_lam sqrt(w rho) with w the
    Gauss weight and rho the spectral weight.  rel_err is normalized by
    Delta_lam^(-1/2) Delta_mu^(-1/2), which on the diagonal reduces to the
    plain relative error; the square roots are taken one by one where
    the product Delta_lam Delta_mu underflows.  The norms come first, so
    a norm outside double precision fails before the quadrature.  Labels
    must share one rank.
    """
    labels = [check_partition(l) for l in labels]
    if not labels:
        return []
    norms = [norm_Delta(lam, family.params) for lam in labels]
    table = _gram_table(labels, family, quad)
    rows = []
    for a, lam in enumerate(labels):
        for b in range(a, len(labels)):
            mu = labels[b]
            val = float(table[a, b])
            target = 1.0 / norms[a] if lam == mu else 0.0
            abs_err = abs(val - target)
            na, nb = norms[a], norms[b]
            scale = math.sqrt(na * nb) if na * nb >= sys.float_info.min else math.sqrt(na) * math.sqrt(nb)
            rows.append(
                {
                    "lambda": list(lam),
                    "mu": list(mu),
                    "value": val,
                    "target": target,
                    "abs_err": abs_err,
                    "rel_err": abs_err * scale,
                }
            )
    return rows


def fourier_forward(f, points, family):
    """Transform of a finitely supported lattice function, sampled on angles.

    (F f)(xi) = sum_lam f(lam) conj(P_lam(xi)) Delta_lam; P_lam is real
    at real angles, so the conjugation is vacuous but kept for shape.
    The P_lam share one real grid per distinct monomial m_mu; points of
    a width other than the rank of f raise ParamDomainError.
    """
    points = _angles(points, f.n)
    params = family.params
    out = np.zeros(points.shape[0], dtype=float)
    grids = {}
    for lam, val in f.values.items():
        dl = norm_Delta(lam, params)
        out = out + float(val) * dl * _P_grid(family.P(lam), points, grids)
    return out


def fourier_inverse(fhat_values, lam, family, quad):
    """Inverse transform at one site from samples on the quadrature grid.

    (F^{-1} fhat)(lam) = (1/n!) sum_k w_k fhat(xi_k) P_lam(xi_k) weight(xi_k);
    fhat_values must be sampled on quad.grid(n) in order.
    """
    lam = check_partition(lam)
    n = len(lam)
    points, wrho = _weighted_grid(n, family.params, quad)
    fhat_values = np.asarray(fhat_values)
    if fhat_values.shape[0] != points.shape[0]:
        raise ParamDomainError("sample array does not match the quadrature grid")
    vals = fhat_values * evaluate_P_grid(family.P(lam), points)
    return complex(np.dot(wrho, vals)) / math.factorial(n)


@dataclass
class ConjugatedMatrix:
    """Symmetric truncation of Delta^(1/2) (H_l + eps0 when l=1) Delta^(-1/2).

    Off-diagonal entries are filled symmetrically from the exact rational
    product of the two opposite hop coefficients (the Delta ratios cancel
    by detailed balance, which is asserted, not assumed); dropped lists
    the hops leaving the cutoff.
    """

    labels: list
    matrix: np.ndarray
    dropped: list


def conjugated_H_matrix(l, cutoff, params, n):
    """The symmetric matrix of H_l on the labels partitions_max_weight(n, cutoff).

    Read from the hop tables of the labels (hop_terms).  The diagonal
    entry at lam is the staying coefficient c(lam -> lam), plus epsilon0
    at l = 1.  The off-diagonal entries at (lam, mu) and (mu, lam) are
    sqrt(c c_back) with the sign of c, where c = c(lam -> mu) and
    c_back = c(mu -> lam).  dropped lists each hop from a label to a
    target past the cutoff, as {"source", "target", "coeff"} with a float
    coefficient.  Raises StructureError when a hop inside the cutoff has
    no reverse hop, when detailed balance (norm_ratio(lam) c =
    norm_ratio(mu) c_back) fails, or when c and c_back differ in sign.
    """
    labels = partitions_max_weight(n, cutoff)
    index = {lam: i for i, lam in enumerate(labels)}
    eps = epsilon0(params, n) if l == 1 else Fraction(0)
    size = len(labels)
    mat = np.zeros((size, size))
    hops = {}
    dropped = []
    for lam in labels:
        for target, c in hop_terms(l, lam, params):
            if target == lam:
                mat[index[lam], index[lam]] = float(c + eps)
            elif target in index:
                hops[(lam, target)] = c
            else:
                dropped.append({"source": list(lam), "target": list(target), "coeff": float(c)})
    ratios = {lam: norm_ratio(lam, params) for lam in labels}
    done = set()
    for (lam, mu), c in hops.items():
        if (lam, mu) in done:
            continue
        done.add((lam, mu))
        done.add((mu, lam))
        cback = hops.get((mu, lam))
        if cback is None:
            raise StructureError(f"one-sided hop {lam} -> {mu}: no reverse coefficient")
        if ratios[lam] * c != ratios[mu] * cback:
            raise StructureError(f"detailed balance fails on hop {lam} -> {mu}")
        prod = c * cback
        if prod < 0:
            raise StructureError(f"opposite hop coefficients differ in sign on {lam} -> {mu}")
        entry = math.sqrt(float(prod))
        if c < 0:
            entry = -entry
        mat[index[lam], index[mu]] = entry
        mat[index[mu], index[lam]] = entry
    return ConjugatedMatrix(labels=labels, matrix=mat, dropped=dropped)


@functools.cache
def _evolution_basis(cutoff, params, n):
    """conjugated_H_matrix(1, cutoff, params, n) and the eigh of its matrix."""
    conj = conjugated_H_matrix(1, cutoff, params, n)
    return conj, np.linalg.eigh(conj.matrix)


def evolve(initial, time, cutoff, params, n):
    """Unitary evolution exp(i C time) of a truncated state.

    C is conjugated_H_matrix(1, cutoff, params, n), built and
    diagonalized once per (cutoff, params, n) and shared.  initial:
    LatticeFunction or mapping partition -> value; values may be complex.
    Returns a dict partition -> complex amplitude.  Support at the cutoff
    boundary triggers a leakage warning estimated from the dropped hop
    coefficients acting on the initial state.
    """
    values = initial.values if isinstance(initial, LatticeFunction) else dict(initial)
    values = {check_partition(k): complex(v) for k, v in values.items() if v != 0}
    for lam in values:
        if len(lam) != n:
            raise ParamDomainError(f"initial support {lam} has rank {len(lam)}, not the rank n={n}")
    conj, (evals, evecs) = _evolution_basis(cutoff, params, n)
    index = {lam: i for i, lam in enumerate(conj.labels)}
    for lam in values:
        if lam not in index:
            raise ParamDomainError(f"initial support {lam} exceeds the cutoff {cutoff}")
    leak = sum(
        abs(r["coeff"] * values.get(tuple(r["source"]), 0.0)) for r in conj.dropped
    )
    if leak > 0:
        warnings.warn(
            f"initial support touches the truncation boundary; leakage estimate {leak:.3e}",
            RuntimeWarning,
            stacklevel=2,
        )
    v0 = np.zeros(len(conj.labels), dtype=complex)
    for lam, val in values.items():
        v0[index[lam]] = val
    phases = np.exp(1j * evals * float(time))
    vt = evecs @ (phases * (evecs.T @ v0))
    return {lam: complex(vt[i]) for lam, i in index.items() if vt[i] != 0}
