"""Reconstruction of K6 and I8 from the eleven-invariant function basis.

{I2, J2, I4, J4, K4, L4, I6, J6, L6, M6, I10} is a function basis: the two
invariants dropped from the thirteen-invariant integrity basis are recovered
by solving the built-in degree-10 relations for their unique K6- and
I8-bearing terms,

    (2 I2 J2 - 3 J4) * K6 = <polynomial in the eleven>
    6 J2           * I8 = <polynomial in the eleven and K6>

with the degenerate branches: K6 = 0 whenever 2 I2 J2 - 3 J4 = 0 (which
happens only for D = 0 or u = 0), and I8 = 0 whenever J2 = 0 (i.e. u = 0).

Exact values (int and Fraction) are solved in integers.  Both relations are
weighted-homogeneous of degree 10, and every invariant in them has degree
at least 2.  With m the lcm of the denominators of the values a relation
uses, y_n = x_n * m**deg(n) is therefore an integer, and each term is m**10
times its value at x: the integer cofactor den_y is m**(10 - deg(target))
times den, and the target is -num_y / (den_y * m**deg(target)), one Fraction
built at the end.  den_y is zero exactly when den is.

Zero tests near the degenerate locus are exact in the rational field.  In
the float field a cofactor counts as zero when it is at most 1e-12 times a
quantity of the same bidegree that vanishes only on the degenerate branch:
I2*J2 for the K6 cofactor, which the gap bound keeps at or above I2*J2 / 5,
and J2 for the I8 cofactor 6 J2.  Both tests are invariant under scaling D
and u separately, so the branch taken does not depend on the magnitude of
the data; the factor 1e-12 is implementation-defined, not part of the
underlying mathematics.
"""

from __future__ import annotations

from fractions import Fraction

from .invariants import DEGREE, NAMES, InvariantVector
from .relations import TEN_A, TEN_B
from .tensor_core import FLOAT, _clear_denominators, _is_exact, field_of

ELEVEN_NAMES = tuple(n for n in NAMES if n not in ("K6", "I8"))

FLOAT_ZERO_RTOL = 1e-12

# Each rebuilt invariant: its relation, the other invariants in it, and the
# quantity that scales the float zero test of its cofactor.
_SOLVED_FROM = {
    t: (table, tuple(sorted({n for term in table for n, _ in term} - {t})), scale)
    for t, table, scale in (("K6", TEN_B, lambda v: v["I2"] * v["J2"]),
                            ("I8", TEN_A, lambda v: v["J2"]))
}


class ElevenBasis(InvariantVector):
    """Values of the eleven-invariant function basis, aligned with ELEVEN_NAMES."""

    _names = ELEVEN_NAMES
    _index = {name: i for i, name in enumerate(_names)}

    @classmethod
    def from_invariants(cls, iv: InvariantVector) -> "ElevenBasis":
        return cls(tuple(iv[n] for n in ELEVEN_NAMES))


def _solve_linear_term(table, target: str, values: dict):
    """Split a relation into target cofactor and remainder: den*target + num = 0."""
    den = 0
    num = 0
    for term, coeff in table.items():
        prod = coeff
        has_target = False
        for name, exp in term:
            if name == target:
                if exp != 1:
                    raise ValueError(f"relation is not linear in {target}")
                has_target = True
            else:
                prod = prod * values[name] ** exp
        if has_target:
            den = den + prod
        else:
            num = num + prod
    return num, den


def _solve_for(target: str, vals: dict, field: str):
    """target from its relation den*target + num = 0; 0 when den is zero.

    den is zero exactly in the rational field; in floats when
    |den| <= 1e-12 |scale|, scale of the same bidegree as den.  Exact values
    are solved in integers, as the module notes explain.
    """
    table, names, scale = _SOLVED_FROM[target]
    if field != FLOAT and _is_exact(vals[n] for n in names):
        m, ints = _clear_denominators([vals[n] for n in names])
        y = {n: x * m ** (DEGREE[n] - 1) for n, x in zip(names, ints)}
        num, den = _solve_linear_term(table, target, y)
        return Fraction(0) if den == 0 else Fraction(-num, den * m ** DEGREE[target])
    num, den = _solve_linear_term(table, target, vals)
    if field == FLOAT:
        return 0.0 if abs(den) <= FLOAT_ZERO_RTOL * abs(scale(vals)) else -num / den
    return Fraction(0) if den == 0 else -Fraction(num) / Fraction(den)


def reconstruct_K6(b: ElevenBasis):
    """K6 from the eleven basis values; 0 on the degenerate branch.

    The cofactor of K6 is 2 I2 J2 - 3 J4; when it vanishes, K6 itself is 0.
    """
    return _solve_for("K6", b.as_dict(), field_of(b.values))


def reconstruct_I8(b: ElevenBasis, k6):
    """I8 from the eleven basis values plus K6; 0 when J2 = 0 (u = 0)."""
    return _solve_for("I8", {**b.as_dict(), "K6": k6}, field_of(b.values))


def recover_full_vector(b: ElevenBasis) -> InvariantVector:
    """All thirteen invariant values from the eleven-basis values alone."""
    k6 = reconstruct_K6(b)
    i8 = reconstruct_I8(b, k6)
    full = {**b.as_dict(), "K6": k6, "I8": i8}
    return InvariantVector(tuple(full[n] for n in NAMES))
