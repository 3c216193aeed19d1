"""Exact reference arithmetic for the benchmark's correctness checks.

Everything here is written from the definitions and shares no code with
``sym3inv``: its own 27-entry expansion, its own harmonic split, the thirteen
invariants as literal index sums, and its own Gaussian elimination over
``Fraction``.  It is slow on purpose and runs only outside the timed regions.

Exactness: inputs are converted with ``Fraction`` (exact for floats too) and
scaled to integers.  If D and u are both multiplied by s, an invariant of
total degree n is multiplied by s**n, so the sums run over Python integers
and the scale is divided out once at the end.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import product
from math import lcm, prod

INVARIANT_NAMES = ("I2", "J2", "I4", "J4", "K4", "L4", "I6", "J6", "K6", "L6",
                   "M6", "I8", "I10")

# (degree in D, degree in u) of each invariant.
BIDEGREE = {
    "I2": (2, 0), "J2": (0, 2), "I4": (4, 0), "J4": (2, 2), "K4": (3, 1),
    "L4": (1, 3), "I6": (6, 0), "J6": (3, 3), "K6": (4, 2), "L6": (5, 1),
    "M6": (2, 4), "I8": (7, 1), "I10": (10, 0),
}

# Component order of a symmetric tensor A and of a traceless deviator D
# (0-based index triples); the other D entries follow from D_ill = 0.
SYM_TRIPLES = ((0, 0, 0), (0, 0, 1), (0, 0, 2), (0, 1, 1), (0, 1, 2),
               (0, 2, 2), (1, 1, 1), (1, 1, 2), (1, 2, 2), (2, 2, 2))
DEV_TRIPLES = ((0, 0, 0), (0, 0, 1), (0, 0, 2), (0, 1, 1), (0, 1, 2),
               (1, 1, 1), (1, 1, 2))

# Defining index formulas, one factor per (operand, indices).  v and w are
# the auxiliary vectors v_p = D_ijk D_ijl D_klp and w_k = D_ijk u_i u_j.
V_FORMULA = (("D", "ijk"), ("D", "ijl"), ("D", "klp"))
W_FORMULA = (("D", "ijk"), ("u", "i"), ("u", "j"))
FORMULAS = {
    "I2": (("D", "ijk"), ("D", "ijk")),
    "J2": (("u", "i"), ("u", "i")),
    "I4": (("D", "ijk"), ("D", "ijl"), ("D", "pqk"), ("D", "pql")),
    "J4": (("D", "ijk"), ("u", "k"), ("D", "ijl"), ("u", "l")),
    "K4": (("D", "ijk"), ("D", "ijl"), ("D", "klp"), ("u", "p")),
    "L4": (("D", "ijk"), ("u", "k"), ("u", "j"), ("u", "i")),
    "I6": (("v", "i"), ("v", "i")),
    "J6": (("D", "ijk"), ("D", "ijl"), ("u", "k"), ("D", "lpq"), ("u", "p"),
           ("u", "q")),
    "K6": (("v", "k"), ("w", "k")),
    "L6": (("D", "ijk"), ("D", "ijl"), ("u", "k"), ("v", "l")),
    "M6": (("D", "ijk"), ("D", "pqk"), ("u", "i"), ("u", "j"), ("u", "p"),
           ("u", "q")),
    "I8": (("D", "ijk"), ("D", "ijl"), ("u", "k"), ("D", "pql"), ("D", "pqr"),
           ("v", "r")),
    "I10": (("D", "ijk"), ("v", "i"), ("v", "j"), ("v", "k")),
}


@cache
def _index_table(formula, free):
    """For each value of the free indices, the (operand, index tuple) lists
    of every term of the sum over the other indices."""
    summed = sorted({c for _, idx in formula for c in idx} - set(free))
    table = {}
    for fixed in product(range(3), repeat=len(free)):
        terms = []
        for values in product(range(3), repeat=len(summed)):
            env = dict(zip(free, fixed))
            env.update(zip(summed, values))
            terms.append(tuple((name, tuple(env[c] for c in idx)) for name, idx in formula))
        table[fixed] = terms
    return table


def _contract(formula, operands, free=""):
    """Sum of the product of the factors over every index not in ``free``.

    ``operands`` maps an operand name to a dict keyed by index tuples.
    Returns a scalar, or a dict keyed by values of the free indices.
    """
    out = {fixed: sum(prod(operands[name][key] for name, key in term) for term in terms)
           for fixed, terms in _index_table(formula, free).items()}
    return out[()] if not free else out


def _full_symmetric(components, triples):
    """27-entry dict (i, j, k) -> value from the listed independent entries."""
    by_sorted = dict(zip(triples, components))
    return {ijk: by_sorted[tuple(sorted(ijk))] for ijk in product(range(3), repeat=3)}


def _to_integers(values):
    """Exact values scaled by the lcm of their denominators, and that lcm."""
    exact = [Fraction(v) for v in values]
    scale = lcm(*(x.denominator for x in exact))
    return [int(x * scale) for x in exact], scale


def _integer_invariants(dev, vec):
    """Thirteen invariants of integer (D, u); D is the full 27-entry dict."""
    ops = {"D": dev, "u": {(i,): vec[i] for i in range(3)}}
    ops["v"] = _contract(V_FORMULA, ops, "p")
    ops["w"] = _contract(W_FORMULA, ops, "k")
    return {name: _contract(FORMULAS[name], ops) for name in INVARIANT_NAMES}


def _descale(values, scale):
    return {name: Fraction(x, scale ** sum(BIDEGREE[name]))
            for name, x in values.items()}


def harmonic_split(components):
    """Exact (D, u) of a symmetric tensor from its 10 stored components.

    u_i = A_ill and D_ijk = A_ijk - (u_k d_ij + u_j d_ik + u_i d_jk) / 5.
    Returns the 7 independent entries of D (in DEV_TRIPLES order) and u, as
    Fractions.
    """
    a = _full_symmetric([Fraction(c) for c in components], SYM_TRIPLES)
    u = tuple(sum(a[i, l, l] for l in range(3)) for i in range(3))
    dev = tuple(a[i, j, k] - Fraction(u[k] * (i == j) + u[j] * (i == k)
                                      + u[i] * (j == k), 5)
                for (i, j, k) in DEV_TRIPLES)
    return dev, u


def parts_invariants(deviator7, vector):
    """Exact thirteen invariants of harmonic parts given as 7 + 3 numbers."""
    ints, scale = _to_integers(list(deviator7) + list(vector))
    d111, d112, d113, d122, d123, d222, d223 = ints[:7]
    comps = (d111, d112, d113, d122, d123, -d111 - d122, d222, d223,
             -d112 - d222, -d113 - d223)
    dev = _full_symmetric(comps, SYM_TRIPLES)
    return _descale(_integer_invariants(dev, ints[7:]), scale)


def tensor_invariants(components):
    """Exact thirteen invariants of a symmetric tensor, keyed by name."""
    return parts_invariants(*harmonic_split(components))


def evaluate_relation(table, values):
    """Sum of coefficient * product of powers; table maps ((name, exp), ...) -> coeff."""
    return sum(coeff * prod(values[n] ** e for n, e in term)
               for term, coeff in table.items())


def rank(rows):
    """Exact rank of a list of equal-length rows, by Gaussian elimination."""
    work = [[Fraction(x) for x in row] for row in rows]
    r = 0
    for c in range(len(work[0]) if work else 0):
        pivot = next((i for i in range(r, len(work)) if work[i][c]), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        for i in range(r + 1, len(work)):
            if work[i][c]:
                f = work[i][c] / work[r][c]
                work[i] = [x - f * y for x, y in zip(work[i], work[r])]
        r += 1
    return r


def in_span(tables, table):
    """Whether ``table`` is an exact linear combination of ``tables``."""
    keys = sorted({k for t in tables for k in t} | set(table))
    rows = [[t.get(k, 0) for k in keys] for t in tables]
    return rank(rows + [[table.get(k, 0) for k in keys]]) == rank(rows)
