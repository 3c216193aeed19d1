"""Exact rank and nullspace: modular elimination, certified exactly on every row."""

import random
from fractions import Fraction

import numpy as np
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


def test_residues_of_an_int_matrix_are_its_entries_mod_p():
    p = 101
    m = RationalMatrix([[1, -2, 3], [4, 0, 6 * p + 5]])
    res = m.residues(p)
    assert res.dtype == np.int64
    assert res.tolist() == [[1, p - 2, 3], [4, 0, 5]]
    # l1 norms 6 and 4 + 6p + 5 = 615 < 2^10
    assert m.row_bits == 10


def test_residues_clear_fraction_denominators_row_by_row():
    m = RationalMatrix([[F(1, 2), F(1, 3), 1], [2, 4, 6], [F(-3, 4), 0, F(5, 6)]])
    # the integer rows are [3, 2, 6], [2, 4, 6] and [-9, 0, 10]
    for p in (101, 2 ** 31 - 1):
        assert m.residues(p).tolist() == [[3, 2, 6], [2, 4, 6], [p - 9, 0, 10]]
    assert m.row_bits == (9 + 10).bit_length()


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
    for row in ([0.5, 1.0], [1, np.float64(2.0)]):
        with pytest.raises(TypeError):
            RationalMatrix([row])


def test_pure_python_int_fallback_matches():
    # every path runs on plain Python ints; rank and kernel equal the
    # Fraction reference
    rng = random.Random(314)
    m = random_rank_r_matrix(rng, 12, 15, 6)
    want_null = reference_nullspace(m)
    assert rank(m) == 15 - len(want_null) == 6
    assert nullspace(m) == want_null


def reference_nullspace(m):
    """Reference: Gauss-Jordan over Fraction on every row of m.

    One kernel vector per free column f, with x_f = 1 and zeros at the other
    free columns, normalized like nullspace's.
    """
    a = [[F(e) for e in row] for row in m.entries]
    pivots = []
    for c in range(m.cols):
        r = len(pivots)
        i = next((i for i in range(r, len(a)) if a[i][c]), None)
        if i is None:
            continue
        a[r], a[i] = a[i], a[r]
        a[r] = [x / a[r][c] for x in a[r]]
        for k in range(len(a)):
            if k != r and a[k][c]:
                f = a[k][c]
                a[k] = [x - f * y for x, y in zip(a[k], a[r])]
        pivots.append(c)
    basis = []
    for fc in (c for c in range(m.cols) if c not in pivots):
        x = [F(0)] * m.cols
        x[fc] = F(1)
        for r, pc in enumerate(pivots):
            x[pc] = -a[r][fc]
        basis.append(normalize_integer_vector(x))
    return basis


def record_reductions(monkeypatch):
    """(row count, prime) of every modular reduction nullspace runs."""
    import sym3inv.exact_algebra as ea

    calls = []
    original = ea._kernel_mod

    def counting(p, res, ncols):
        calls.append((len(res), p))
        return original(p, res, ncols)

    monkeypatch.setattr(ea, "_kernel_mod", counting)
    return calls


def test_reference_nullspace_by_inspection():
    assert reference_nullspace(RationalMatrix([[1, 2], [2, 4]])) == [(2, -1)]
    assert reference_nullspace(RationalMatrix([[0, 1, 1], [0, 0, 0]])) == [(1, 0, 0), (0, 1, -1)]
    assert reference_nullspace(RationalMatrix.identity(3)) == []


def test_prime_sequence_descends_from_the_mersenne_prime():
    from sym3inv.exact_algebra import _PRIME, _prime

    primes = [_prime(k) for k in range(6)]
    assert primes[0] == _PRIME == 2 ** 31 - 1
    assert primes == sorted(primes, reverse=True) and len(set(primes)) == 6
    # the odd numbers between consecutive primes are composite
    for hi, lo in zip(primes, primes[1:]):
        for n in range(lo + 2, hi, 2):
            assert any(n % d == 0 for d in range(3, 50_000, 2))


def test_unlucky_prime_forces_certified_retry(monkeypatch):
    # every entry of the first row is a multiple of p, so the mod-p pass
    # misses it; the certificate must catch the kernel vector (1, 0)
    from sym3inv.exact_algebra import _prime

    p = _prime(0)
    calls = record_reductions(monkeypatch)
    assert nullspace(RationalMatrix([[p, 0], [0, 1], [0, 2], [0, 3]])) == []
    # (1, 0) is the kernel mod p but fails row 0 exactly, so a second
    # prime settles the rank
    assert calls == [(4, p), (4, _prime(1))]

    calls.clear()
    m = RationalMatrix([[p, 2 * p, 0], [0, 0, 1], [3 * p, 1, 0], [0, 0, 5]])
    assert nullspace(m) == reference_nullspace(m) == []
    assert calls == [(4, p), (4, _prime(1))]


def test_certificate_checks_every_prime_its_bound_needs(monkeypatch):
    # the first row is p0 p1 p2: it vanishes modulo the first three primes,
    # so each of them eliminates to the false kernel vector (1, 0).  The
    # bound |row . v| < 2^(row_bits + bitlen |v|_inf) = 2^94 needs a fourth
    # prime, the only one that rejects (1, 0); a certificate that stops one
    # prime short returns [(1, 0)]
    from sym3inv.exact_algebra import _prime

    primes = [_prime(k) for k in range(4)]
    q = primes[0] * primes[1] * primes[2]
    m = RationalMatrix([[q, 0], [0, 1], [0, 2]])
    assert m.row_bits + 1 == 94 and q.bit_length() == 93
    calls = record_reductions(monkeypatch)
    assert nullspace(m) == reference_nullspace(m) == []
    assert calls == [(3, p) for p in primes]


def test_certificate_bound_counts_the_vector_entries():
    # row (0, p0 p1) has 62 bits and v = (1, p2) has 31: row . v = p0 p1 p2
    # passes modulo the first three primes, and the 93-bit bound needs a
    # fourth, which a bound on the row alone would skip
    from sym3inv.exact_algebra import _certified, _prime

    primes = [_prime(k) for k in range(4)]
    m = RationalMatrix([[0, primes[0] * primes[1]]])
    asked = []

    def residues(k):
        asked.append(k)
        return primes[k], m.residues(primes[k])

    assert not _certified([(1, primes[2])], residues, m.row_bits)
    assert asked == [0, 1, 2, 3]
    asked.clear()
    assert _certified([(1, 0)], residues, m.row_bits)
    assert asked == [0, 1, 2]


def test_entries_divisible_by_the_first_two_primes():
    # modulo the first two primes these matrices lose rank (to zero, or in
    # every other column); the pivot comparison must drop those primes and
    # the result equal the reference
    from sym3inv.exact_algebra import _prime

    q = _prime(0) * _prime(1)
    rng = random.Random(61)
    base = random_rank_r_matrix(rng, 9, 7, 4)
    uniform = RationalMatrix([[e * q for e in row] for row in base.entries])
    assert nullspace(uniform) == reference_nullspace(uniform) == nullspace(base)
    odd_columns = RationalMatrix([[e * q if k % 2 else e for k, e in enumerate(row)]
                                  for row in base.entries])
    assert nullspace(odd_columns) == reference_nullspace(odd_columns)
    assert rank(uniform) == rank(odd_columns) == 4


def test_large_kernel_entry_needs_several_primes(monkeypatch):
    # the reduced kernel vector is (10^-40, 1): its denominator needs a
    # modulus above 2 * 10^80, so Chinese remaindering over several primes
    calls = record_reductions(monkeypatch)
    m = RationalMatrix([[10 ** 40, -1], [2 * 10 ** 40, -2]])
    assert nullspace(m) == reference_nullspace(m) == [(1, 10 ** 40)]
    assert len({p for _, p in calls}) >= 9


def test_selected_rows_equal_rank_without_retry(monkeypatch):
    from sym3inv.exact_algebra import _prime

    rng = random.Random(51)
    m = random_rank_r_matrix(rng, 60, 12, 7)
    calls = record_reductions(monkeypatch)
    basis = nullspace(m)
    # one modular reduction per prime; the kernel entries have up to 19
    # bits, past the 15-bit bound one prime reconstructs, so two primes
    assert max(v.bit_length() for vec in basis for v in vec) == 19
    assert calls == [(60, _prime(0)), (60, _prime(1))]
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
        want = reference_nullspace(m)
        assert nullspace(m) == want
        assert rank(m) == cols - len(want)
        assert rank(RationalMatrix(tuple(zip(*entries)))) == cols - len(want)


def record_eliminations(monkeypatch):
    """(rows, cols) of every residue block that ``_eliminate`` reduces."""
    import sym3inv.exact_algebra as ea

    calls = []
    original = ea._eliminate

    def counting(res, p):
        calls.append(res.shape)
        return original(res, p)

    monkeypatch.setattr(ea, "_eliminate", counting)
    return calls


def test_rank_deficient_leading_block_takes_a_second_pass(monkeypatch):
    # the first 6 rows have rank 3 and the 4 after them raise the rank to 5:
    # the leading block's kernel is too large, those 4 rows fail it, and the
    # second pass must give what elimination over all rows gives
    from sym3inv.exact_algebra import _eliminate, _kernel_mod, _prime

    rng = random.Random(53)
    while True:
        left = [[rng.randint(-5, 5) if k < 3 or i >= 6 else 0 for k in range(5)]
                for i in range(10)]
        right = [[rng.randint(-5, 5) for _ in range(6)] for _ in range(5)]
        m = RationalMatrix([[sum(a * b for a, b in zip(row, col)) for col in zip(*right)]
                            for row in left])
        # ranks from the reference, so that a kernel_mod missing its second
        # pass fails the checks below instead of looping in nullspace here
        if (len(reference_nullspace(RationalMatrix(m.entries[:6]))) == 3
                and len(reference_nullspace(m)) == 1):
            break
    p = _prime(0)
    res = m.residues(p)
    full = res.copy()
    pivot_rows, pivots = _eliminate(full, p)
    free = [c for c in range(6) if c not in pivots]
    got_p, got_pivots, got_free, got_k = _kernel_mod(p, res, m.cols)
    assert (got_p, got_pivots, got_free) == (p, pivots, free)
    assert got_k.tolist() == (-full[pivot_rows][:, free] % p).tolist()
    assert res.tolist() == m.residues(p).tolist()

    calls = record_eliminations(monkeypatch)
    basis = nullspace(m)
    assert basis == reference_nullspace(m) and len(basis) == 1
    # per prime: the 6 leading rows, then their 3 pivot rows and the 4 rows that failed
    assert calls[:2] == [(6, 6), (7, 6)]


def test_discovery_sectors_eliminate_at_most_their_column_count(monkeypatch):
    from sym3inv import discover_relations
    from sym3inv.syzygy import ELEVEN

    calls = record_eliminations(monkeypatch)
    assert len(discover_relations(ELEVEN, 16, seed=1, sample_count=446)) == 3
    # one prime and one pass for each sector (2, 14) ... (16, 0), none of
    # them over all 446 rows
    assert len(calls) == 15
    assert all(rows <= cols for rows, cols in calls)


def test_certified_rejects_a_last_vector_that_fails_one_row():
    # all vectors are checked in one product; (1, 1, 0, 1) is zero on rows 0
    # and 2 and fails row 1 alone, with row 1 . v = -1
    from sym3inv.exact_algebra import _certified, _prime

    m = RationalMatrix([[1, -1, 0, 0], [0, 0, 1, -1], [2, -2, 0, 0]])
    good = [(1, 1, 0, 0), (0, 0, 1, 1), (1, 1, 2, 2)]

    def residues(k):
        return _prime(k), m.residues(_prime(k))

    assert _certified(good, residues, m.row_bits)
    assert not _certified(good + [(1, 1, 0, 1)], residues, m.row_bits)


def test_matmul_mod_is_exact_past_2_to_the_16_columns():
    # products of p - 1 and p - 1 summed over 2^17 columns pass 2^63 unless
    # the sum is reduced block by block
    from sym3inv.exact_algebra import _matmul_mod, _PRIME as p

    rng = np.random.default_rng(54)
    for n in (2 ** 16 - 1, 2 ** 17):
        res = np.full((2, n), p - 1, dtype=np.int64)
        res[1] = rng.integers(0, p, n)
        x = np.full((n, 2), p - 1, dtype=np.int64)
        x[:, 1] = rng.integers(0, p, n)
        want = [[sum(a * b for a, b in zip(row, col)) % p for col in x.T.tolist()]
                for row in res.tolist()]
        assert _matmul_mod(res, x, p).tolist() == want
