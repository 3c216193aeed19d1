"""Exact rational linear algebra: rank and nullspace, computed modulo primes.

``nullspace`` returns the reduced echelon basis of the kernel over Q, but
eliminates only modulo word-size primes and then proves the result exact
(the multi-modular method: von zur Gathen & Gerhard, Modern Computer
Algebra, ch. 5; rational reconstruction after Wang).  It reads three things
from its matrix: ``cols``, ``residues(p)`` (the rows, each scaled to
integers, modulo p as an int64 array; row scaling leaves the kernel alone)
and ``row_bits`` (every scaled row has l1 norm below 2^row_bits).
``RationalMatrix`` derives them from its entries; a caller that knows its
rows' residues and size another way can pass any object that has them.

1. Each prime 2^31 - 1 = p0 > p1 > ... brings the first min(rows, cols)
   rows to reduced row echelon form, in numpy int64 (a product of two
   residues stays below 2^62).  That block's mod-p kernel, one vector per
   free column f with x_f = 1 and zeros at the other free columns, is
   checked against every row by one matmul.  The rows that fail are
   eliminated once more together with the block's pivot rows.  That gives
   the row space mod p of all rows, so its reduced echelon form, pivot
   columns and kernel are those that eliminating every row gives.  A prime
   whose pivots differ from the best seen (the most pivots, then the
   leftmost) is unlucky and left out; the others are combined by Chinese
   remaindering, and each entry is rationally reconstructed.
2. All vectors v, scaled to coprime integers, are certified against every
   row at once: row . v = 0 is checked modulo p0, p1, ... until their
   product reaches 2^(row_bits + bitlen |v|_inf), by one matmul per prime.
   An entry that does not reconstruct, or a residue that is not zero, asks
   for one more prime.

Why two passes suffice: let K1 be the kernel of the first block mod p and
K2 that of its pivot rows and the failing rows, so K2 is inside K1.  A row
that vanishes on K1 lies in the first block's row space, hence vanishes on
K2 too, and every failing row is in the second block: no row fails K2, and
the second block spans the row space of all rows.  The matmuls are exact in
int64: v mod p is split into 16-bit limbs, and the columns are summed in
blocks of 2^15, reduced after each block.

Why the certificate is a proof: |row . v| <= |row|_1 |v|_inf is below
2^(row_bits + bitlen |v|_inf), hence below the product of the primes, and
an integer below a modulus in absolute value that the modulus divides is 0.
Why a certified basis is exact: the vectors lie in the kernel over Q, are
independent, and number cols - rank_p, while rank_p <= rank over Q.  So
they span the kernel.  Vector f is supported on f and on pivot columns left
of f, so column f depends on the columns before it and is free over Q too:
the free columns are those of exact elimination over all rows, and the
basis is the unique one with x_f = 1 and zeros at the other free columns,
the basis that elimination gives.  Each round adds a prime; all but finitely
many primes are lucky, and enough of them reconstruct any rational entry,
so the loop ends.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections import namedtuple
from functools import cached_property, lru_cache
from itertools import chain
from math import gcd, isqrt

import numpy as np

from .tensor_core import _clear_denominators


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
        if any(issubclass(t, float) for t in set(map(type, chain.from_iterable(rows)))):
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

    @cached_property
    def _integer_rows(self):
        """Rows with denominators cleared row by row."""
        return [_clear_denominators(row)[1] for row in self.entries]

    def residues(self, p: int):
        """The integer rows modulo ``p``, as an int64 array."""
        return np.array([[x % p for x in row] for row in self._integer_rows], dtype=np.int64)

    @property
    def row_bits(self) -> int:
        """Bit length of the largest l1 norm of an integer row."""
        return max(sum(map(abs, row)) for row in self._integer_rows).bit_length()


# The first prime of the sequence.
_PRIME = 2 ** 31 - 1


@lru_cache(maxsize=None)
def _prime(k: int) -> int:
    """The k-th prime of the sequence that descends from _PRIME (trial division)."""
    n = _PRIME if k == 0 else _prime(k - 1) - 2
    while any(n % d == 0 for d in range(3, isqrt(n) + 1, 2)):
        n -= 2
    return n


def _eliminate(res, p):
    """Reduce the residue matrix ``res`` (int64, entries in [0, p)) in place.

    Gauss-Jordan elimination over GF(p) without row swaps, one vectorised
    step per column: the pivot of column c is the first row not yet used
    with a nonzero entry there; it is scaled to 1 and eliminated from every
    other row.  Returns the pivot rows and the pivot columns, in column
    order.  The pivot rows are independent mod p, hence over Q, and
    ``res[pivot rows]`` is the reduced row echelon form of ``res``.
    """
    unused = np.ones(len(res), dtype=bool)
    rows, cols = [], []
    for c in range(res.shape[1]):
        candidates = np.flatnonzero(unused & (res[:, c] != 0))
        if not candidates.size:
            continue
        i = int(candidates[0])
        unused[i] = False
        res[i, c:] = res[i, c:] * pow(int(res[i, c]), -1, p) % p
        f = res[:, c].copy()
        f[i] = 0
        # row i is zero left of column c, so those columns need no update;
        # |f * res[i]| < p^2 < 2^62, so one reduction after the subtraction suffices
        res[:, c:] = (res[:, c:] - f[:, None] * res[i, c:]) % p
        rows.append(i)
        cols.append(c)
    return rows, cols


def _matmul_mod(res, x, p):
    """``res @ x`` modulo ``p``, exactly, for int64 matrices with entries in [0, p).

    x is split into 16-bit limbs and the columns of res are summed in blocks
    of 2^15, reduced after each block: a product of a residue (below 2^31)
    and a limb (below 2^16) is below 2^47, so a block sum stays below 2^62.
    """
    lo, hi = x & 0xFFFF, x >> 16
    out = np.zeros((res.shape[0], x.shape[1]), dtype=np.int64)
    for s in range(0, res.shape[1], 2 ** 15):
        block = slice(s, s + 2 ** 15)
        a = res[:, block]
        out = (out + a @ lo[block] % p + ((a @ hi[block] % p) << 16)) % p
    return out


def _kernel_mod(p, res, ncols):
    """Pivot columns, free columns and kernel of the residue matrix ``res`` modulo ``p``.

    Returns (p, pivot columns, free columns, K) where K[i][j] is entry
    pivots[i] of the kernel vector of free column j: -R[i][free j], R the
    reduced row echelon form mod p of all rows.  Only the first ncols rows
    are eliminated; every row is checked against their kernel, and the rows
    that fail are eliminated once more with the block's pivot rows (see the
    module notes).  ``res`` itself is left as it is.
    """
    block = res[:ncols].copy()
    pivot_rows, pivots = _eliminate(block, p)
    free = [c for c in range(ncols) if c not in pivots]
    kernel = np.zeros((ncols, len(free)), dtype=np.int64)
    kernel[free, range(len(free))] = 1
    kernel[pivots] = -block[pivot_rows][:, free] % p
    failing = _matmul_mod(res, kernel, p).any(axis=1)
    if failing.any():
        block = np.vstack([block[pivot_rows], res[failing]])
        pivot_rows, pivots = _eliminate(block, p)
        free = [c for c in range(ncols) if c not in pivots]
    return p, pivots, free, -block[pivot_rows][:, free] % p


def _crt(images):
    """Combine (prime, residue matrix) pairs into (modulus, matrix of Python ints)."""
    m, x = 1, 0
    for p, k in images:
        x = x + m * ((k.astype(object) - x) * pow(m, -1, p) % p)
        m *= p
    return m, x


# A reduced fraction as its integer pair, read like a Fraction by _clear_denominators.
_Ratio = namedtuple("_Ratio", "numerator denominator")


def _rational(u, m):
    """The reduced pair n/d = u mod m with |n|, d <= sqrt(m/2), d > 0, or None (Wang)."""
    bound = isqrt(m // 2)
    r0, r1, s0, s1 = m, u, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, s0, s1 = r1, r0 - q * r1, s1, s0 - q * s1
    if abs(s1) > bound or gcd(r1, s1) != 1:
        return None
    return _Ratio(r1, s1) if s1 > 0 else _Ratio(-r1, -s1)


def _kernel_vectors(pivots, free, m, entries):
    """Normalized kernel vectors from CRT-combined entries, or None if one fails."""
    basis = []
    ncols = len(pivots) + len(free)
    for j, fc in enumerate(free):
        x = [0] * ncols
        x[fc] = 1
        for i, pc in enumerate(pivots):
            x[pc] = _rational(entries[i, j], m)
            if x[pc] is None:
                return None
        basis.append(normalize_integer_vector(x))
    return basis


def rank(m: RationalMatrix) -> int:
    """Exact rank: columns minus nullity, of m or of its transpose if that is taller."""
    if m.rows < m.cols:
        m = RationalMatrix(tuple(zip(*m.entries)))
    return m.cols - len(nullspace(m))


def normalize_integer_vector(vec):
    """Scale exact entries to integers with gcd 1 and positive first nonzero entry."""
    ints = _clear_denominators(vec)[1]
    g = gcd(*ints) or 1
    if next((v for v in ints if v), 0) < 0:
        g = -g
    return tuple(v // g for v in ints)


def _certified(basis, residues, row_bits):
    """Whether every integer vector of ``basis`` is in the kernel over Q.

    ``residues(k)`` gives the k-th prime and the matrix modulo it.  Each
    product row . v is checked modulo successive primes until their product
    reaches 2^(row_bits + bitlen |v|_inf), past any nonzero |row . v| (see
    the module notes).  All vectors are checked at once, by one
    ``_matmul_mod`` per prime.
    """
    need = row_bits + max(abs(x) for v in basis for x in v).bit_length()
    vectors = np.array(basis, dtype=object).T
    k, modulus = 0, 1
    while modulus.bit_length() <= need:
        p, res = residues(k)
        if _matmul_mod(res, (vectors % p).astype(np.int64), p).any():
            return False
        k, modulus = k + 1, modulus * p
    return True


def nullspace(m):
    """Basis of {x : m x = 0}, one normalized integer vector per free column.

    ``m`` is a ``RationalMatrix`` or any matrix with ``cols``, ``residues(p)``
    and ``row_bits`` (see the module notes).  Vectors are ordered by their
    free column index; each satisfies m x = 0 exactly and the basis size is
    cols - rank(m).  Empty list for a trivial nullspace.  Elimination runs
    modulo primes; the basis is then certified modulo enough primes to be
    exact.
    """
    cache = {}

    def residues(k):
        if k not in cache:
            cache[k] = _prime(k), m.residues(_prime(k))
        return cache[k]

    images = []
    while True:
        images.append(_kernel_mod(*residues(len(images)), m.cols))
        _, pivots, free, _ = min(images, key=lambda image: (-len(image[1]), image[1]))
        basis = _kernel_vectors(pivots, free,
                                *_crt((p, k) for p, piv, _, k in images if piv == pivots))
        if basis is not None and (not basis or _certified(basis, residues, m.row_bits)):
            return basis
