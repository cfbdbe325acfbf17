"""Exact linear solves by fraction-free (Bareiss) elimination.

Each row of [A | B] is brought to integers: its entries are read through
.numerator and .denominator (ints and Fractions alike), scaled by the
lcm of the denominators and divided by the row's content (the gcd of its
entries), with no Fraction formed per entry.  The one-step Bareiss
division is then exact and keeps intermediate entries at determinant
size instead of exploding combinatorially.  Back substitution runs on
d * X, d the last pivot, which is integral by Cramer's rule; one
Fraction is formed per entry of X.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .errors import SingularMatrixError

__all__ = ["solve_exact"]


def _integer_row(row):
    """The row scaled to coprime ints: times the lcm of its denominators, over its content."""
    den = lcm(*(v.denominator for v in row))
    out = [v.numerator * (den // v.denominator) for v in row]
    content = gcd(*out)
    if content > 1:
        out = [v // content for v in out]
    return out


def solve_exact(A, B):
    """Solve A X = B exactly for rational A (n x n) and B (n x m).

    Entries are ints or Fractions.  Returns X as a list of n rows of m
    Fractions.  Raises SingularMatrixError when A has no inverse.
    """
    n = len(A)
    if any(len(row) != n for row in A):
        raise SingularMatrixError("matrix must be square")
    m = len(B[0]) if B else 0
    if len(B) != n or any(len(row) != m for row in B):
        raise SingularMatrixError("right-hand side shape mismatch")

    M = [_integer_row(list(A[i]) + list(B[i])) for i in range(n)]
    width = n + m
    prev = 1
    for k in range(n):
        if M[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if M[i][k] != 0), None)
            if pivot is None:
                raise SingularMatrixError(f"singular system (no pivot in column {k})")
            M[k], M[pivot] = M[pivot], M[k]
        pivot_row = M[k]
        p = pivot_row[k]
        tail = pivot_row[k + 1 : width]
        for i in range(k + 1, n):
            row = M[i]
            f = row[k]
            row[k + 1 :] = [(a * p - f * b) // prev for a, b in zip(row[k + 1 :], tail)]
            row[k] = 0
        prev = p

    # y = d x with d the last pivot (+-det of the integer matrix): integral,
    # so every division below is exact
    d = prev
    X = [[None] * m for _ in range(n)]
    for col in range(m):
        y = [0] * n
        for i in range(n - 1, -1, -1):
            row = M[i]
            acc = d * row[n + col]
            for j in range(i + 1, n):
                acc -= row[j] * y[j]
            y[i] = acc // row[i]
            X[i][col] = Fraction(y[i], d)
    return X
