"""Exact rank and nullspace via fraction-free elimination."""

import random
from fractions import Fraction

import pytest

from sym3inv.exact_algebra import (
    RationalMatrix,
    normalize_integer_vector,
    nullspace,
    rank,
)

F = Fraction


def random_rank_r_matrix(rng, rows, cols, r):
    """Product of random rows x r and r x cols integer matrices has rank r."""
    while True:
        left = [[rng.randint(-5, 5) for _ in range(r)] for _ in range(rows)]
        right = [[rng.randint(-5, 5) for _ in range(cols)] for _ in range(r)]
        if rank(RationalMatrix(left)) == r and rank(RationalMatrix(right)) == r:
            break
    prod = [
        [sum(left[i][k] * right[k][j] for k in range(r)) for j in range(cols)]
        for i in range(rows)
    ]
    return RationalMatrix(prod)


def test_identity_nullspace_empty():
    m = RationalMatrix.identity(3)
    assert nullspace(m) == []
    assert rank(m) == 3


def test_rank_one_by_inspection():
    m = RationalMatrix([[1, 2], [2, 4]])
    assert rank(m) == 1
    assert nullspace(m) == [(2, -1)]


def test_zero_matrix():
    m = RationalMatrix([[0, 0, 0], [0, 0, 0]])
    assert rank(m) == 0
    assert nullspace(m) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]


def test_constructed_rank_matrices():
    rng = random.Random(42)
    for r in (3, 7, 12):
        m = random_rank_r_matrix(rng, 20, 30, r)
        assert rank(m) == r
        basis = nullspace(m)
        assert len(basis) == 30 - r
        for vec in basis:
            assert m.multiply_vector(vec) == (0,) * 20


def test_rank_plus_nullity():
    rng = random.Random(7)
    for _ in range(10):
        rows = rng.randint(2, 8)
        cols = rng.randint(2, 8)
        m = RationalMatrix([[rng.randint(-4, 4) for _ in range(cols)]
                            for _ in range(rows)])
        assert rank(m) + len(nullspace(m)) == cols


def test_determinism():
    rng = random.Random(9)
    entries = [[rng.randint(-9, 9) for _ in range(12)] for _ in range(8)]
    m1 = RationalMatrix(entries)
    m2 = RationalMatrix(entries)
    assert nullspace(m1) == nullspace(m2)
    assert rank(m1) == rank(m2)


def test_fraction_entries():
    m = RationalMatrix([[F(1, 2), F(1, 3)], [F(1, 4), F(1, 6)]])
    assert rank(m) == 1
    assert nullspace(m) == [(2, -3)]


def test_normalization_contract():
    rng = random.Random(13)
    m = random_rank_r_matrix(rng, 10, 8, 5)
    for vec in nullspace(m):
        from math import gcd

        g = 0
        for v in vec:
            g = gcd(g, abs(v))
        assert g == 1
        assert next(v for v in vec if v) > 0
        assert all(isinstance(v, int) for v in vec)


def test_normalize_integer_vector():
    assert normalize_integer_vector([F(-2, 3), F(4, 3)]) == (1, -2)
    assert normalize_integer_vector([0, F(0), F(5, 7)]) == (0, 0, 1)


def test_200_digit_stress():
    big = 10 ** 200 + 7919
    a = F(big, big + 1)
    # field axioms hold exactly at this size
    assert a * (1 / a) == 1
    assert (a + a) / 2 == a
    m = RationalMatrix([[a, 2 * a], [3 * a, 6 * a]])
    assert rank(m) == 1
    basis = nullspace(m)
    assert basis == [(2, -1)]
    assert m.multiply_vector(basis[0]) == (0, 0)


def test_big_integer_elimination_exact():
    rng = random.Random(77)
    scale = 10 ** 60
    m = random_rank_r_matrix(rng, 6, 9, 4)
    big = RationalMatrix([[e * scale for e in row] for row in m.entries])
    assert rank(big) == 4
    for vec in nullspace(big):
        assert big.multiply_vector(vec) == (0,) * 6


def test_ragged_and_empty_rejected():
    with pytest.raises(ValueError):
        RationalMatrix([[1, 2], [3]])
    with pytest.raises(ValueError):
        RationalMatrix([])
    with pytest.raises(TypeError):
        RationalMatrix([[0.5, 1.0]])


def test_pure_python_int_fallback_matches(monkeypatch):
    # without gmpy2 the elimination runs on plain ints; results are identical
    import sym3inv.exact_algebra as ea

    rng = random.Random(314)
    m = random_rank_r_matrix(rng, 12, 15, 6)
    want_rank = rank(m)
    want_null = nullspace(m)
    monkeypatch.setattr(ea, "_mpz", int)
    monkeypatch.setattr(ea, "_divexact", lambda a, b: a // b)
    assert rank(m) == want_rank
    assert nullspace(m) == want_null


def full_elimination_nullspace(m):
    """Reference: Bareiss over every row of m, then back-substitution."""
    import sym3inv.exact_algebra as ea

    a, pivot_cols = ea._echelon(ea._integer_rows(m), m.cols)
    return ea._kernel_basis(a, pivot_cols, m.cols)


def record_eliminations(monkeypatch):
    """Row count of every Bareiss elimination nullspace runs."""
    import sym3inv.exact_algebra as ea

    counts = []
    original = ea._echelon

    def counting(a, ncols):
        counts.append(len(a))
        return original(a, ncols)

    monkeypatch.setattr(ea, "_echelon", counting)
    return counts


def test_unlucky_prime_forces_certified_retry(monkeypatch):
    # every entry of the first row is a multiple of p, so the mod-p pass
    # misses it; the certificate must catch the kernel vector (1, 0)
    from sym3inv.exact_algebra import _PRIME as p

    counts = record_eliminations(monkeypatch)
    assert nullspace(RationalMatrix([[p, 0], [0, 1], [0, 2], [0, 3]])) == []
    assert counts == [1, 2]

    counts.clear()
    m = RationalMatrix([[p, 2 * p, 0], [0, 0, 1], [3 * p, 1, 0], [0, 0, 5]])
    assert nullspace(m) == full_elimination_nullspace(m) == []
    assert counts[:2] == [2, 3]


def test_selected_rows_equal_rank_without_retry(monkeypatch):
    rng = random.Random(51)
    m = random_rank_r_matrix(rng, 60, 12, 7)
    counts = record_eliminations(monkeypatch)
    basis = nullspace(m)
    assert counts == [7]
    assert len(basis) == 12 - 7


def test_certified_nullspace_equals_full_elimination():
    rng = random.Random(52)
    for trial in range(40):
        cols = rng.randint(1, 9)
        rows = rng.randint(cols, 4 * cols + 6)
        r = rng.randint(0, cols)
        if r == 0:
            entries = [[0] * cols for _ in range(rows)]
        else:
            entries = [list(row) for row in random_rank_r_matrix(rng, rows, cols, r).entries]
        if trial % 2:
            entries = [[F(e, rng.randint(1, 30)) for e in row] for row in entries]
        if trial % 5 == 0:
            entries = [[e * 10 ** 40 + (e if k % 3 else 0) for k, e in enumerate(row)]
                       for row in entries]
        m = RationalMatrix(entries)
        assert nullspace(m) == full_elimination_nullspace(m)
