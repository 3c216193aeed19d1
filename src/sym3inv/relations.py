"""Built-in polynomial relations among the thirteen invariants.

Each relation is a dict mapping a product term to its exact coefficient;
a product term is a tuple of (invariant name, exponent) pairs in canonical
name order.  The sum of coefficient * product vanishes identically on every
symmetric third-order 3D tensor; this is the single transcription shared by
the syzygy verifier and the basis reconstruction, so the exact zero-residual
tests certify every coefficient below once.

TEN_A and TEN_B are the two degree-10 relations over the full thirteen
invariants.  TEN_A is linear in I8 with cofactor 6*J2 and TEN_B is linear
in K6 with cofactor 2*I2*J2 - 3*J4; solving them for those terms expresses
I8 and K6 through the eleven remaining invariants.

SIXTEEN_A, SIXTEEN_B and SIXTEEN_C are degree-16 relations among those
eleven invariants alone (neither K6 nor I8 appears).  They are bihomogeneous
of bidegree (8,8), (9,7) and (10,6) in (D, u) respectively.
"""

from __future__ import annotations

from fractions import Fraction

from .invariants import NAMES


def _canon(term):
    """Sort a product term's factors into canonical invariant-name order."""
    return tuple(sorted(term, key=lambda ne: NAMES.index(ne[0])))


def _table(raw: dict) -> dict:
    out = {}
    for term, coeff in raw.items():
        key = _canon(term)
        if key in out:
            raise ValueError(f"duplicate term {key}")
        if coeff == 0:
            raise ValueError(f"zero coefficient for {key}")
        out[key] = coeff
    return out


TEN_A = _table({
    (("J2", 1), ("I8", 1)): 6,
    (("I2", 2), ("J2", 1), ("K4", 1)): 1,
    (("I2", 3), ("L4", 1)): 1,
    (("I2", 1), ("I4", 1), ("L4", 1)): -3,
    (("I2", 1), ("J4", 1), ("K4", 1)): 3,
    (("J2", 1), ("I4", 1), ("K4", 1)): -4,
    (("I2", 2), ("J6", 1)): -2,
    (("I2", 1), ("J2", 1), ("L6", 1)): -3,
    (("L4", 1), ("I6", 1)): 3,
    (("I4", 1), ("J6", 1)): 6,
    (("J4", 1), ("L6", 1)): -3,
    (("K4", 1), ("K6", 1)): -6,
})

TEN_B = _table({
    (("I2", 1), ("J2", 1), ("K6", 1)): 2,
    (("I2", 2), ("J2", 1), ("J4", 1)): 1,
    (("I2", 1), ("J4", 2)): -1,
    (("I2", 1), ("K4", 1), ("L4", 1)): 2,
    (("J2", 1), ("K4", 2)): 3,
    (("J2", 1), ("I4", 1), ("J4", 1)): -2,
    (("J2", 2), ("I6", 1)): 1,
    (("I2", 2), ("M6", 1)): -2,
    (("K4", 1), ("J6", 1)): -12,
    (("L4", 1), ("L6", 1)): 6,
    (("I4", 1), ("M6", 1)): 6,
    (("J4", 1), ("K6", 1)): -3,
})

SIXTEEN_A = _table({
    (("I2", 3), ("J2", 3), ("J4", 1)): 2,
    (("I2", 1), ("J2", 3), ("I4", 1), ("J4", 1)): -4,
    (("J2", 3), ("J4", 1), ("I6", 1)): -6,
    (("I2", 2), ("J2", 2), ("J4", 2)): -9,
    (("J2", 2), ("I4", 1), ("J4", 2)): 18,
    (("J4", 4),): 9,
    (("I2", 1), ("J2", 1), ("J6", 2)): 36,
    (("J4", 1), ("J6", 2)): -54,
    (("I2", 1), ("J2", 2), ("K4", 1), ("J6", 1)): -48,
    (("J2", 1), ("J4", 1), ("K4", 1), ("J6", 1)): 144,
    (("I2", 1), ("J2", 3), ("K4", 2)): 12,
    (("J2", 2), ("J4", 1), ("K4", 2)): -36,
    (("I2", 2), ("J2", 1), ("L4", 1), ("J6", 1)): -24,
    (("I2", 1), ("J4", 1), ("L4", 1), ("J6", 1)): 36,
    (("I2", 2), ("J2", 2), ("K4", 1), ("L4", 1)): 12,
    (("I2", 1), ("J2", 1), ("J4", 1), ("K4", 1), ("L4", 1)): -18,
    (("J4", 2), ("K4", 1), ("L4", 1)): -18,
    (("I2", 3), ("J2", 1), ("L4", 2)): 6,
    (("I2", 1), ("J2", 1), ("I4", 1), ("L4", 2)): -6,
    (("I2", 2), ("J4", 1), ("L4", 2)): -9,
    (("I4", 1), ("J4", 1), ("L4", 2)): 9,
    (("J2", 1), ("J4", 1), ("L4", 1), ("L6", 1)): -36,
    (("I2", 3), ("J2", 2), ("M6", 1)): -6,
    (("I2", 1), ("J2", 2), ("I4", 1), ("M6", 1)): 12,
    (("J2", 2), ("I6", 1), ("M6", 1)): 9,
    (("I2", 2), ("J2", 1), ("J4", 1), ("M6", 1)): 36,
    (("J2", 1), ("I4", 1), ("J4", 1), ("M6", 1)): -72,
    (("I2", 1), ("J4", 2), ("M6", 1)): -18,
    (("K4", 1), ("J6", 1), ("M6", 1)): -108,
    (("J2", 1), ("K4", 2), ("M6", 1)): 27,
    (("I2", 1), ("K4", 1), ("L4", 1), ("M6", 1)): 18,
    (("L4", 1), ("L6", 1), ("M6", 1)): 54,
    (("I2", 2), ("M6", 2)): -18,
    (("I4", 1), ("M6", 2)): 54,
})

SIXTEEN_B = _table({
    (("I2", 3), ("J2", 3), ("K4", 1)): Fraction(4, 9),
    (("I2", 4), ("J2", 2), ("L4", 1)): Fraction(2, 9),
    (("I2", 3), ("J2", 1), ("J4", 1), ("L4", 1)): Fraction(4, 3),
    (("I2", 1), ("J2", 3), ("I4", 1), ("K4", 1)): Fraction(-8, 9),
    (("I2", 2), ("J2", 2), ("I4", 1), ("L4", 1)): Fraction(-4, 9),
    (("I2", 2), ("J2", 2), ("J4", 1), ("K4", 1)): Fraction(-4, 3),
    (("I2", 2), ("J4", 2), ("L4", 1)): -2,
    (("I2", 2), ("K4", 1), ("L4", 2)): 2,
    (("J2", 2), ("K4", 3)): 2,
    (("I2", 1), ("J2", 1), ("J4", 2), ("K4", 1)): 4,
    (("I2", 1), ("J2", 1), ("K4", 2), ("L4", 1)): 5,
    (("I2", 1), ("J2", 1), ("I4", 1), ("J4", 1), ("L4", 1)): -4,
    (("I2", 3), ("J2", 2), ("J6", 1)): Fraction(-4, 3),
    (("J2", 3), ("K4", 1), ("I6", 1)): Fraction(2, 3),
    (("I2", 1), ("J2", 2), ("L4", 1), ("I6", 1)): Fraction(1, 3),
    (("I2", 1), ("J2", 2), ("I4", 1), ("J6", 1)): Fraction(8, 3),
    (("I2", 2), ("J2", 1), ("J4", 1), ("J6", 1)): Fraction(4, 3),
    (("I2", 3), ("L4", 1), ("M6", 1)): -2,
    (("J2", 1), ("J4", 1), ("L4", 1), ("I6", 1)): 1,
    (("I2", 1), ("K4", 1), ("L4", 1), ("J6", 1)): -16,
    (("J2", 1), ("K4", 2), ("J6", 1)): -14,
    (("I2", 1), ("L4", 2), ("L6", 1)): 6,
    (("J2", 1), ("K4", 1), ("L4", 1), ("L6", 1)): 4,
    (("I2", 1), ("I4", 1), ("L4", 1), ("M6", 1)): 6,
    (("I2", 1), ("J4", 1), ("K4", 1), ("M6", 1)): -2,
    (("J2", 1), ("I4", 1), ("K4", 1), ("M6", 1)): 4,
    (("I2", 2), ("J6", 1), ("M6", 1)): 4,
    (("J2", 2), ("I6", 1), ("J6", 1)): -2,
    (("I2", 1), ("J2", 1), ("L6", 1), ("M6", 1)): -4,
    (("I4", 1), ("J6", 1), ("M6", 1)): -12,
    (("J4", 1), ("L6", 1), ("M6", 1)): 6,
    (("K4", 1), ("J6", 2)): 24,
    (("L4", 1), ("J6", 1), ("L6", 1)): -12,
    (("J4", 3), ("K4", 1)): -4,
    (("I4", 1), ("J4", 2), ("L4", 1)): 4,
    (("J4", 1), ("K4", 2), ("L4", 1)): -1,
})

SIXTEEN_C = _table({
    (("I2", 5), ("J2", 3)): Fraction(1, 18),
    (("I2", 3), ("J2", 3), ("I4", 1)): Fraction(-2, 9),
    (("I2", 1), ("J2", 3), ("I4", 2)): Fraction(2, 9),
    (("I2", 2), ("J2", 3), ("I6", 1)): Fraction(1, 12),
    (("J2", 3), ("I4", 1), ("I6", 1)): Fraction(-1, 6),
    (("I2", 4), ("J2", 2), ("J4", 1)): Fraction(-1, 6),
    (("I2", 2), ("J2", 2), ("I4", 1), ("J4", 1)): Fraction(1, 3),
    (("I2", 1), ("J2", 2), ("J4", 1), ("I6", 1)): Fraction(1, 2),
    (("I2", 3), ("J2", 1), ("J4", 2)): Fraction(1, 2),
    (("I2", 1), ("J2", 1), ("I4", 1), ("J4", 2)): -1,
    (("J2", 1), ("J4", 2), ("I6", 1)): Fraction(-3, 4),
    (("I2", 2), ("J4", 3)): Fraction(-1, 2),
    (("I4", 1), ("J4", 3)): 1,
    (("I2", 2), ("J2", 1), ("K4", 1), ("J6", 1)): -1,
    (("J2", 1), ("I4", 1), ("K4", 1), ("J6", 1)): 2,
    (("I2", 2), ("J2", 2), ("K4", 2)): Fraction(1, 4),
    (("J2", 2), ("I4", 1), ("K4", 2)): Fraction(-1, 2),
    (("I2", 1), ("J2", 1), ("J4", 1), ("K4", 2)): Fraction(3, 2),
    (("J4", 2), ("K4", 2)): Fraction(-9, 4),
    (("I2", 3), ("J2", 1), ("K4", 1), ("L4", 1)): Fraction(1, 2),
    (("I2", 1), ("J2", 1), ("I4", 1), ("K4", 1), ("L4", 1)): -1,
    (("I2", 2), ("J4", 1), ("K4", 1), ("L4", 1)): Fraction(-1, 2),
    (("I4", 1), ("J4", 1), ("K4", 1), ("L4", 1)): 1,
    (("I2", 1), ("J2", 1), ("J6", 1), ("L6", 1)): 2,
    (("J4", 1), ("J6", 1), ("L6", 1)): -3,
    (("I2", 1), ("J2", 2), ("K4", 1), ("L6", 1)): -2,
    (("J2", 1), ("J4", 1), ("K4", 1), ("L6", 1)): 3,
    (("I2", 2), ("J2", 1), ("L4", 1), ("L6", 1)): Fraction(-1, 2),
    (("J2", 1), ("I4", 1), ("L4", 1), ("L6", 1)): -1,
    (("I2", 1), ("J4", 1), ("L4", 1), ("L6", 1)): Fraction(3, 2),
    (("I2", 4), ("J2", 1), ("M6", 1)): Fraction(-1, 6),
    (("I2", 2), ("J2", 1), ("I4", 1), ("M6", 1)): Fraction(5, 6),
    (("J2", 1), ("I4", 2), ("M6", 1)): -1,
    (("I2", 1), ("J2", 1), ("I6", 1), ("M6", 1)): -1,
    (("J4", 1), ("I6", 1), ("M6", 1)): Fraction(3, 2),
})

DEGREE_TEN = {"ten_a": TEN_A, "ten_b": TEN_B}
DEGREE_SIXTEEN = {"sixteen_a": SIXTEEN_A, "sixteen_b": SIXTEEN_B, "sixteen_c": SIXTEEN_C}
