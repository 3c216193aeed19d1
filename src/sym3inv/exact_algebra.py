"""Exact rational linear algebra: rank and nullspace over arbitrary precision.

Elimination is fraction-free (Bareiss): rows are first scaled to integers,
then each step applies m[i][c] <- (piv*m[i][c] - f*pivrow[c]) / prev_piv,
where the division is exact.  Intermediate entries are minors of the input,
which bounds their growth; all arithmetic is arbitrary precision, so results
are exact for any input size.  Pivoting scans columns left to right and
takes the first remaining row with a nonzero entry, so the computation is
deterministic.

``nullspace`` eliminates only rows it has chosen, and certifies the result
on all of them.  One vectorised elimination modulo the prime 2^31 - 1 picks
rows that are independent mod p, hence independent over Q; Bareiss then
runs on those rows alone, and every kernel vector is checked with exact
integer dot products against every row of the matrix.  A row that fails
the check is independent of the chosen ones over Q (an unlucky prime made
the mod-p rank fall short), so it is added and the elimination repeated;
the rank grows with each repeat, so at most ``cols`` rounds are needed.
Once the check passes, the chosen rows have the kernel of the whole matrix,
hence its row space and its reduced echelon form, so the pivot columns and
the normalized basis are exactly those of elimination over all rows (Dixon,
Numer. Math. 40, 1982; von zur Gathen & Gerhard, Modern Computer Algebra,
ch. 5).  For tall matrices, such as evaluation matrices sampled at many
more points than they have columns, this eliminates rank-many rows instead
of all of them, and the entries stay minors of that smaller system.

gmpy2 integers are used inside the elimination when available (identical
results, considerably faster on large problems); plain Python ints are the
fallback.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

import numpy as np

try:
    from gmpy2 import divexact as _divexact, mpz as _mpz
except ImportError:  # pragma: no cover - exercised only without gmpy2
    _mpz = int

    def _divexact(a, b):
        return a // b


@dataclass(frozen=True)
class RationalMatrix:
    """Dense matrix of exact scalars (int or Fraction), row-major."""

    entries: tuple

    def __post_init__(self):
        rows = tuple(tuple(row) for row in self.entries)
        object.__setattr__(self, "entries", rows)
        if not rows or not rows[0]:
            raise ValueError("matrix must have at least one row and one column")
        if any(len(r) != len(rows[0]) for r in rows):
            raise ValueError("ragged rows")
        if any(isinstance(e, float) for r in rows for e in r):
            raise TypeError("RationalMatrix holds exact scalars only (int or Fraction)")

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0])

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        return cls(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    def multiply_vector(self, x):
        return tuple(sum(a * b for a, b in zip(row, x)) for row in self.entries)


# Row selection works modulo this prime (2^31 - 1): products of two residues
# stay below 2^62, inside numpy int64.
_PRIME = 2 ** 31 - 1


def _integer_rows(m: RationalMatrix):
    """Clear denominators row by row (row scaling leaves rank and nullspace alone)."""
    out = []
    for row in m.entries:
        scale = 1
        for e in row:
            if isinstance(e, Fraction):
                scale = lcm(scale, e.denominator)
        if scale == 1:
            out.append([_mpz(int(e)) for e in row])
        else:
            out.append([_mpz(int(e * scale)) for e in row])
    return out


def _echelon(a, ncols):
    """Fraction-free row echelon form of a list of integer rows (may be empty).

    Works on the list in place; returns (rows, pivot column list).
    """
    nrows = len(a)
    pivot_cols = []
    prev = _mpz(1)
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, nrows) if a[i][c]), None)
        if pivot_row is None:
            continue
        if pivot_row != r:
            a[r], a[pivot_row] = a[pivot_row], a[r]
        piv = a[r][c]
        top = a[r]
        for i in range(r + 1, nrows):
            f = a[i][c]
            if f:
                a[i] = [_divexact(piv * x - f * y, prev) for x, y in zip(a[i], top)]
            else:
                a[i] = [_divexact(piv * x, prev) for x in a[i]]
        prev = piv
        pivot_cols.append(c)
        r += 1
        if r == nrows:
            break
    return a, pivot_cols


def _independent_rows(a):
    """Indices of rows of integer matrix ``a`` that are independent mod _PRIME.

    Gaussian elimination over GF(p), one vectorised step per column: the
    pivot is the first not-yet-chosen row with a nonzero residue, and it is
    eliminated from the rows not yet chosen.  Rows independent mod p are
    independent over Q, so the result has at most rank(a) rows.
    """
    res = np.array([[int(x % _PRIME) for x in row] for row in a], dtype=np.int64)
    free = np.ones(len(a), dtype=bool)
    chosen = []
    for c in range(res.shape[1]):
        candidates = np.flatnonzero(free & (res[:, c] != 0))
        if not candidates.size:
            continue
        i = candidates[0]
        free[i] = False
        chosen.append(int(i))
        rest = np.flatnonzero(free)
        f = res[rest, c] * pow(int(res[i, c]), -1, _PRIME) % _PRIME
        res[rest] = (res[rest] - f[:, None] * res[i] % _PRIME) % _PRIME
    return chosen


def _kernel_basis(a, pivot_cols, ncols):
    """Normalized kernel vectors of echelon rows ``a``, one per free column."""
    pivots = set(pivot_cols)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        x = [Fraction(0)] * ncols
        x[fc] = Fraction(1)
        # echelon rows are integer; back-substitute over the pivot columns
        for row_idx in range(len(pivot_cols) - 1, -1, -1):
            pc = pivot_cols[row_idx]
            row = a[row_idx]
            s = Fraction(0)
            for c in range(pc + 1, ncols):
                if x[c]:
                    s += Fraction(int(row[c])) * x[c]
            x[pc] = -s / int(row[pc])
        basis.append(normalize_integer_vector(x))
    return basis


def rank(m: RationalMatrix) -> int:
    """Exact rank via fraction-free elimination."""
    _, pivot_cols = _echelon(_integer_rows(m), m.cols)
    return len(pivot_cols)


def normalize_integer_vector(vec):
    """Scale to integer entries with gcd 1 and positive first nonzero entry."""
    scale = 1
    for v in vec:
        if isinstance(v, Fraction):
            scale = lcm(scale, v.denominator)
    ints = [int(v * scale) for v in vec]
    g = 0
    for v in ints:
        g = gcd(g, abs(v))
    if g > 1:
        ints = [v // g for v in ints]
    lead = next((v for v in ints if v), 0)
    if lead < 0:
        ints = [-v for v in ints]
    return tuple(ints)


def nullspace(m: RationalMatrix):
    """Basis of {x : m x = 0}, one normalized integer vector per free column.

    Vectors are ordered by their free column index; each satisfies m x = 0
    exactly and the basis size is cols - rank(m).  Empty list for a trivial
    nullspace.  Only independent rows are eliminated; the basis is then
    checked exactly against every row (see the module notes).
    """
    a = _integer_rows(m)
    ncols = m.cols
    chosen = _independent_rows(a)
    while True:
        echelon, pivot_cols = _echelon([a[i] for i in sorted(chosen)], ncols)
        basis = _kernel_basis(echelon, pivot_cols, ncols)
        failing = next((i for vec in basis for i, row in enumerate(a)
                        if sum(x * y for x, y in zip(row, vec))), None)
        if failing is None:
            return basis
        chosen.append(failing)
