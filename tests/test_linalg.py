import random
from fractions import Fraction

import pytest

from rsmorse.errors import SingularMatrixError
from rsmorse.linalg import solve_exact


def test_known_system():
    A = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(3)]]
    B = [[Fraction(5)], [Fraction(10)]]
    X = solve_exact(A, B)
    assert X == [[Fraction(1)], [Fraction(3)]]


def test_multi_rhs():
    A = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 5), Fraction(1)]]
    B = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
    X = solve_exact(A, B)
    for i in range(2):
        for j in range(2):
            got = sum(A[i][k] * X[k][j] for k in range(2))
            assert got == (1 if i == j else 0)


def test_random_exact_residual():
    rng = random.Random(13)
    for _ in range(10):
        n = rng.randint(2, 5)
        A = [[Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(n)] for _ in range(n)]
        B = [[Fraction(rng.randint(-9, 9))] for _ in range(n)]
        try:
            X = solve_exact(A, B)
        except SingularMatrixError:
            continue
        for i in range(n):
            assert sum(A[i][k] * X[k][0] for k in range(n)) == B[i][0]


def test_pivoting():
    A = [[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]]
    B = [[Fraction(3)], [Fraction(4)]]
    assert solve_exact(A, B) == [[Fraction(4)], [Fraction(3)]]


def test_singular():
    A = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
    B = [[Fraction(1)], [Fraction(1)]]
    with pytest.raises(SingularMatrixError):
        solve_exact(A, B)


def test_shape_errors():
    with pytest.raises(SingularMatrixError):
        solve_exact([[Fraction(1), Fraction(2)]], [[Fraction(1)]])
    with pytest.raises(SingularMatrixError):
        solve_exact([[Fraction(1)]], [[Fraction(1)], [Fraction(2)]])


def test_int_rows_and_scaled_rows_match_fraction_input():
    # the rows are read through .numerator/.denominator and divided by their
    # content, so ints, Fractions and a row times a large integer all agree
    rng = random.Random(29)
    checked = 0
    for _ in range(20):
        n, m = rng.randint(2, 6), rng.randint(1, 3)
        A = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        B = [[rng.randint(-9, 9) for _ in range(m)] for _ in range(n)]
        try:
            X = solve_exact([list(map(Fraction, row)) for row in A], [list(map(Fraction, row)) for row in B])
        except SingularMatrixError:
            continue
        checked += 1
        assert solve_exact(A, B) == X
        k, big = rng.randrange(n), 3**80 * 10**40
        scaled_A = [[v * big for v in row] if i == k else row for i, row in enumerate(A)]
        scaled_B = [[v * big for v in row] if i == k else row for i, row in enumerate(B)]
        got = solve_exact(scaled_A, scaled_B)
        assert got == X
        assert all(type(v) is Fraction for row in got for v in row)
        shrunk_A = [[Fraction(v, big) for v in row] if i == k else row for i, row in enumerate(A)]
        shrunk_B = [[Fraction(v, big) for v in row] if i == k else row for i, row in enumerate(B)]
        assert solve_exact(shrunk_A, shrunk_B) == X
    assert checked > 10
