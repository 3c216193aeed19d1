"""The three workloads: seeded inputs, the timed library calls, and their checks.

A workload is run in rounds.  ``inputs`` builds round r's inputs from the
seed (untimed), ``run`` makes the library calls and times its two parts,
``main_s`` and ``side_s``, and ``check`` verifies the outputs against
``refeval`` or a property the method must have (untimed).  Every round
attempts the same operations, so the share of failed operations is the same
in every run.

``run`` looks every library function up on the ``sym3inv`` module at call
time, so the traced run sees the calls through the wrappers it installs.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from time import perf_counter

import refeval

# Float results must agree with the exact ones within this share of the
# invariant's natural size I2**(a/2) * J2**(b/2), (a, b) its bidegree.
# Measured float errors are below 3e-15 of it.
FLOAT_RTOL = 1e-9


@dataclass
class Outcome:
    """What ``check`` found in one round."""

    attempted: int
    failed: int = 0
    problems: list = field(default_factory=list)
    failed_by_scale: dict = field(default_factory=dict)


def _natural_size(name, i2, j2):
    a, b = refeval.BIDEGREE[name]
    return abs(i2) ** (a / 2) * abs(j2) ** (b / 2)


def _close(name, value, expected, i2, j2):
    return abs(value - expected) <= FLOAT_RTOL * _natural_size(name, i2, j2)


def _quaternion_rotation(rng, reflect):
    """Uniform random rotation from a unit quaternion; a reflection if asked."""
    w, x, y, z = (rng.gauss(0.0, 1.0) for _ in range(4))
    n = math.sqrt(w * w + x * x + y * y + z * z)
    w, x, y, z = w / n, x / n, y / n, z / n
    rows = [
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ]
    if reflect:
        rows[0] = [-e for e in rows[0]]
    return rows


# ---------------------------------------------------------------------------
# discover16
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DiscoverSpec:
    basis: str
    degree: int
    samples: int
    expected: int


class Discover16:
    """Exact rediscovery of the degree-16 and degree-10 relations.

    main_s: one ``discover_relations`` over the eleven at degree 16 with 446
    samples (the paper's three relations).  side_s: ``side_calls`` calls over
    the thirteen at degree 10 with 100 samples (two relations each), at
    distinct seeds, half before and half after the main call.  The calls are
    about 75 ms each, and the machine's speed drifts by more than a tenth
    within seconds, so the part is made long enough (about 7 s) and split in
    two to average over it.
    """

    name = "discover16"
    FRESH_POINTS = 2
    FRESH_BOUND = 10 ** 6

    def __init__(self, main=DiscoverSpec("eleven", 16, 446, 3),
                 side=DiscoverSpec("thirteen", 10, 100, 2), side_calls=100):
        self.main, self.side, self.side_calls = main, side, side_calls

    def inputs(self, s, seed, r):
        rng = random.Random(f"{self.name}:{seed}:{r}")
        calls = [(self.side, rng.randrange(2 ** 31)) for _ in range(self.side_calls)]
        calls.insert(self.side_calls // 2, (self.main, rng.randrange(2 ** 31)))
        bound = self.FRESH_BOUND
        points = [[([rng.randint(-bound, bound) for _ in range(7)],
                    [rng.randint(-bound, bound) for _ in range(3)])
                   for _ in range(self.FRESH_POINTS)] for _ in calls]
        return calls, points

    def run(self, s, inputs):
        calls, _ = inputs
        found, times = [], {"main_s": 0.0, "side_s": 0.0}
        for spec, seed in calls:
            t0 = perf_counter()
            found.append(s.discover_relations(spec.basis, spec.degree, seed=seed,
                                              sample_count=spec.samples))
            times["main_s" if spec is self.main else "side_s"] += perf_counter() - t0
        return found, times

    def check(self, s, inputs, found):
        calls, points = inputs
        out = Outcome(attempted=len(calls))
        builtin = {10: list(s.relations.DEGREE_TEN.values()),
                   16: list(s.relations.DEGREE_SIXTEEN.values())}
        for (spec, seed), rels, pts in zip(calls, found, points):
            where = f"{spec.basis} degree {spec.degree} seed {seed}"
            if len(rels) != spec.expected:
                out.problems.append(f"{where}: {len(rels)} relations, expected {spec.expected}")
            tables = [{term.exponents: c for c, term in rel.terms} for rel in rels]
            values = [refeval.parts_invariants(dev, vec) for dev, vec in pts]
            for k, table in enumerate(tables):
                if any(refeval.evaluate_relation(table, iv) != 0 for iv in values):
                    out.problems.append(f"{where}: relation {k} does not vanish")
            for k, table in enumerate(builtin[spec.degree]):
                if any(refeval.evaluate_relation(table, iv) != 0 for iv in values):
                    out.problems.append(f"{where}: built-in relation {k} does not vanish")
                if not tables or not refeval.in_span(tables, table):
                    out.problems.append(f"{where}: built-in relation {k} not in span")
        return out


# ---------------------------------------------------------------------------
# invariant_stream
# ---------------------------------------------------------------------------


class InvariantStream:
    """Exact and float tensors through decompose, invariants and reconstruction.

    main_s: ``exact_count`` exact tensors, alternately integer and ``p/q``
    components.  side_s: ``float_count`` seeded float tensors plus the fixed
    small-magnitude slice; each float tensor is also rotated (or reflected)
    and evaluated again.

    The slice is ``SLICE_PER_SCALE`` integer tensors that do not depend on the
    seed, times each of ``SLICE_SCALES``.  Its float K6 and I8 are compared
    with the exact values of the integer tensor times scale**6 and
    scale**8; a mismatch counts as a failed operation.  Anything else that
    fails a check makes the run incorrect.
    """

    name = "invariant_stream"
    SLICE_SCALES = (1e-8, 1e-6, 1e-5, 1e-4)
    SLICE_PER_SCALE = 40
    EXACT_REF_EVERY = 30
    FLOAT_REF_EVERY = 200

    def __init__(self, exact_count=150, float_count=1000):
        self.exact_count, self.float_count = exact_count, float_count
        self._slice = None

    def _slice_base(self):
        """Fixed integer tensors of the slice and their exact invariants."""
        if self._slice is None:
            rng = random.Random(f"{self.name}:small-magnitude slice")
            base = [tuple(rng.randint(-9, 9) for _ in range(10))
                    for _ in range(self.SLICE_PER_SCALE)]
            rots = [_quaternion_rotation(rng, k % 2) for k in range(len(base))]
            self._slice = [(n, q, refeval.tensor_invariants(n))
                           for n, q in zip(base, rots)]
        return self._slice

    def inputs(self, s, seed, r):
        rng = random.Random(f"{self.name}:{seed}:{r}")
        exact = []
        for k in range(self.exact_count):
            if k % 2:
                comps = [Fraction(rng.randint(-30, 30), rng.randint(1, 6)) for _ in range(10)]
            else:
                comps = [rng.randint(-9, 9) for _ in range(10)]
            exact.append(s.Sym3Tensor(comps))
        floats = [(s.Sym3Tensor([rng.uniform(-9.0, 9.0) for _ in range(10)]),
                   s.Orthogonal3(_quaternion_rotation(rng, k % 2)), None)
                  for k in range(self.float_count)]
        for scale in self.SLICE_SCALES:
            floats += [(s.Sym3Tensor([x * scale for x in n]), s.Orthogonal3(q), scale)
                       for n, q, _ in self._slice_base()]
        return exact, floats

    def run(self, s, inputs):
        exact, floats = inputs
        t0 = perf_counter()
        exact_out = []
        for a in exact:
            iv = s.all_invariants(s.decompose(a))
            b = s.ElevenBasis.from_invariants(iv)
            k6 = s.reconstruct_K6(b)
            exact_out.append((iv, k6, s.reconstruct_I8(b, k6)))
        t1 = perf_counter()
        float_out = []
        for a, q, _ in floats:
            iv = s.all_invariants(s.decompose(a))
            b = s.ElevenBasis.from_invariants(iv)
            k6 = s.reconstruct_K6(b)
            i8 = s.reconstruct_I8(b, k6)
            float_out.append((iv, k6, i8, s.all_invariants(s.decompose(s.rotate(a, q)))))
        t2 = perf_counter()
        return (exact_out, float_out), {"main_s": t1 - t0, "side_s": t2 - t1}

    def check(self, s, inputs, outputs):
        exact, floats = inputs
        exact_out, float_out = outputs
        out = Outcome(attempted=len(exact) + len(floats),
                      failed_by_scale={str(sc): 0 for sc in self.SLICE_SCALES})
        for k, (a, (iv, k6, i8)) in enumerate(zip(exact, exact_out)):
            if k6 != iv["K6"] or i8 != iv["I8"]:
                out.problems.append(f"exact tensor {k}: rebuilt K6/I8 differ from direct")
            if k % self.EXACT_REF_EVERY == 0:
                dev, vec = refeval.harmonic_split(a.components)
                h = s.decompose(a)
                if tuple(h.deviator.components) != dev or tuple(h.vector) != vec:
                    out.problems.append(f"exact tensor {k}: harmonic split differs")
                if iv.as_dict() != refeval.tensor_invariants(a.components):
                    out.problems.append(f"exact tensor {k}: invariants differ from reference")
        slice_exact = [ref for _, _, ref in self._slice_base()]
        regular = 0
        for k, ((a, _, scale), (iv, k6, i8, ivr)) in enumerate(zip(floats, float_out)):
            got = iv.as_dict()
            i2, j2 = got["I2"], got["J2"]
            if any(not _close(n, ivr[n], got[n], i2, j2) for n in got):
                out.problems.append(f"float tensor {k}: rotated invariants differ")
            if scale is None:
                if regular % self.FLOAT_REF_EVERY == 0:
                    ref = refeval.tensor_invariants(a.components)
                    if any(not _close(n, got[n], float(ref[n]), i2, j2) for n in got):
                        out.problems.append(f"float tensor {k}: invariants differ from reference")
                regular += 1
                if not (_close("K6", k6, got["K6"], i2, j2)
                        and _close("I8", i8, got["I8"], i2, j2)):
                    out.problems.append(f"float tensor {k}: rebuilt K6/I8 differ from direct")
                continue
            ref = slice_exact[(k - self.float_count) % self.SLICE_PER_SCALE]
            want = {n: float(v) * scale ** sum(refeval.BIDEGREE[n]) for n, v in ref.items()}
            i2, j2 = want["I2"], want["J2"]
            if any(not _close(n, got[n], want[n], i2, j2) for n in got):
                out.problems.append(f"slice tensor {k}: invariants differ from scaled exact")
            if not (_close("K6", k6, want["K6"], i2, j2) and _close("I8", i8, want["I8"], i2, j2)):
                out.failed += 1
                out.failed_by_scale[str(scale)] += 1
        return out


# ---------------------------------------------------------------------------
# gap_probe
# ---------------------------------------------------------------------------


class GapProbe:
    """The numerical probe of 2*I2*J2 - 3*J4 >= 0.2 on unit-norm (D, u).

    main_s: ``minimize`` at the fixed seed MINIMIZE_SEED with ``starts``
    starts of 500 iterations.  The descent's cost per start is bimodal (about
    one start in six runs all its iterations, 60 times the cost of the
    others), so a seed-dependent batch of this size would vary by more than
    the metric's bound; a fixed seed makes the work the same in every run.
    side_s: ``samples`` calls of ``sample_feasible_values`` with 1e5 points
    each, at seeds drawn from the workload seed.
    """

    name = "gap_probe"
    MINIMIZE_SEED = 2024
    ITERS = 500
    POINTS = 100_000

    def __init__(self, starts=20, samples=10):
        self.starts, self.samples = starts, samples

    def inputs(self, s, seed, r):
        rng = random.Random(f"{self.name}:{seed}:{r}")
        return [rng.randrange(2 ** 63) for _ in range(self.samples)]

    def run(self, s, seeds):
        t0 = perf_counter()
        result = s.minimize(seed=self.MINIMIZE_SEED, starts=self.starts, iters=self.ITERS)
        t1 = perf_counter()
        values = [s.optimizer.sample_feasible_values(sd, self.POINTS) for sd in seeds]
        t2 = perf_counter()
        return (result, values), {"main_s": t1 - t0, "side_s": t2 - t1}

    def check(self, s, seeds, outputs):
        result, values = outputs
        out = Outcome(attempted=1 + len(seeds))
        if not 0.2 - 1e-6 <= result.value <= 0.2 + 1e-3:
            out.problems.append(f"minimum {result.value!r} outside [0.2 - 1e-6, 0.2 + 1e-3]")
        iv = refeval.parts_invariants(result.point.deviator.components, result.point.vector)
        if abs(iv["I2"] - 1) > 1e-9 or abs(iv["J2"] - 1) > 1e-9:
            out.problems.append(f"point infeasible: I2 = {float(iv['I2'])}, J2 = {float(iv['J2'])}")
        recomputed = float(2 * iv["I2"] * iv["J2"] - 3 * iv["J4"])
        if abs(recomputed - result.value) > 1e-9:
            out.problems.append(f"value {result.value!r} but 2*I2*J2 - 3*J4 = {recomputed!r}")
        for sd, vals in zip(seeds, values):
            if len(vals) != self.POINTS or not all(math.isfinite(v) for v in (vals.min(), vals.max())):
                out.problems.append(f"sampling seed {sd}: wrong count or non-finite values")
            elif vals.min() < 0.2 - 1e-6:
                out.problems.append(f"sampling seed {sd}: value {vals.min()!r} below 0.2")
        return out


WORKLOADS = {w.name: w for w in (Discover16, InvariantStream, GapProbe)}
