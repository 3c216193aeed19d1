"""The traced run: spans around sym3inv's functions and the per-layer metrics.

``Tracer.install`` replaces each traced function at the names its callers
look up (``sym3inv.decompose`` for the benchmark's own calls,
``sym3inv.syzygy.nullspace`` for the call inside ``discover_relations``, and
so on) with a wrapper that records a span: label, parent span, start, end
and a little metadata taken before the clock starts.  ``remove`` puts the
originals back.  Spans stay in memory; the run writes them out at its end.

The product-matrix build inside ``discover_relations`` is not wrapped: it
is one ``ProductTerm.evaluate`` per matrix entry, about 200,000 per
discovery, too many and too short to time one by one without distorting
them.  It is reported as the remainder of the ``discover_relations`` span
after its traced children, each counted from the moment its wrapper was
entered, so the wrappers' own work stays out of the remainder.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from time import perf_counter

# Bidegree sectors with at least two product columns, for the eleven at
# degree 16 and the thirteen at degree 10: discover_relations eliminates each
# of them once, in this (sorted) order.
SECTORS = {
    ("eleven", 16): tuple((a, 16 - a) for a in range(2, 17)),
    ("thirteen", 10): tuple((a, 10 - a) for a in range(2, 11)),
}

# The per-layer metrics, in the order BENCHMARK.json lists them: name, unit.
LAYER_METRICS = (
    ("tensor_core.decompose_exact_us", "us"),
    ("tensor_core.decompose_float_us", "us"),
    ("tensor_core.rotate_us", "us"),
    ("invariants.eval_exact_us", "us"),
    ("invariants.eval_float_us", "us"),
    ("invariants.calls", "count"),
    ("function_basis.reconstruct_exact_us", "us"),
    ("function_basis.reconstruct_float_us", "us"),
    ("function_basis.degenerate_branches", "count"),
    ("syzygy.products", "count"),
    ("syzygy.sample_eval_s", "s"),
    ("syzygy.product_matrix_s", "s"),
    ("syzygy.reverify_s", "s"),
    ("syzygy.candidates", "count"),
    ("syzygy.relations_kept", "count"),
    ("exact_algebra.nullspace_s", "s"),
    ("exact_algebra.nullspace_calls", "count"),
    ("exact_algebra.rows_eliminated", "count"),
    ("exact_algebra.max_input_bits", "bits"),
) + tuple(
    (f"exact_algebra.sector_{a}_{b}_s", "s")
    for key in SECTORS for a, b in SECTORS[key]
) + (
    ("optimizer.eigh3_calls", "count"),
    ("optimizer.eigh3_s", "s"),
    ("optimizer.sample_s", "s"),
    ("trace.overhead_pct", "%"),
)


def _is_float(values):
    return any(isinstance(v, float) for v in values)


def _field_of_tensor(args):
    return "float" if _is_float(args[0].components) else "exact"


def _field_of_parts(args):
    h = args[0]
    return "float" if _is_float(h.deviator.components + h.vector) else "exact"


def _field_of_basis(args):
    return "float" if _is_float(args[0].values) else "exact"


def _matrix_shape(args):
    m = args[0]
    bits = max(max(abs(e.numerator).bit_length(), e.denominator.bit_length())
               for row in m.entries for e in row)
    return (m.rows, m.cols, bits)


class Tracer:
    """Spans of one traced round.

    A span is [label, parent index, start, end, meta, result size, entered]:
    ``entered`` is when the wrapper was called, ``start`` when the traced
    function was, after the wrapper computed ``meta``.
    """

    def __init__(self, s):
        self.s = s
        self.spans = []
        self._stack = []
        self._patches = []

    def _wrap(self, owner, attr, label, meta=None, size=None):
        original = getattr(owner, attr)
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            entered = perf_counter()
            span = [label, stack[-1] if stack else -1, 0.0, 0.0,
                    meta(args) if meta else None, None, entered]
            stack.append(len(spans))
            spans.append(span)
            span[2] = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                stack.pop()
            if size is not None:
                span[5] = size(result)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def sector_columns(self):
        """Column count of each SECTORS sector, from the product list."""
        out = {}
        for key, sectors in SECTORS.items():
            sizes = Counter(t.bidegree for t in self.s.syzygy.enumerate_products(*key))
            out[key] = [sizes[sec] for sec in sectors]
        return out

    def install(self):
        s = self.s
        self._wrap(s, "decompose", "decompose", _field_of_tensor)
        for mod in (s, s.invariants, s.syzygy, s.optimizer):
            self._wrap(mod, "all_invariants", "all_invariants", _field_of_parts)
        self._wrap(s, "rotate", "rotate")
        self._wrap(s, "reconstruct_K6", "reconstruct_K6", _field_of_basis,
                   lambda r: r == 0)
        self._wrap(s, "reconstruct_I8", "reconstruct_I8", _field_of_basis,
                   lambda r: r == 0)
        self._wrap(s, "discover_relations", "discover_relations",
                   lambda args: tuple(args[:2]), len)
        self._wrap(s.syzygy, "enumerate_products", "enumerate_products", None, len)
        self._wrap(s.syzygy, "nullspace", "nullspace", _matrix_shape, len)
        self._wrap(s.syzygy, "verify_relation", "verify_relation")
        self._wrap(s, "minimize", "minimize")
        self._wrap(s.optimizer, "symmetric_eigh3", "symmetric_eigh3")
        self._wrap(s.optimizer, "sample_feasible_values", "sample_feasible_values")

    def remove(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def take_spans(self):
        spans = list(self.spans)
        self.spans.clear()
        return spans


class LayerTotals:
    """Per-layer sums over the traced rounds of a run.

    ``sector_columns`` maps a (basis, degree) key of SECTORS to the column
    count of each of its sectors; a discovery whose nullspace calls do not
    have these shapes, in this order, is not attributed to sectors.
    """

    def __init__(self, sector_columns):
        self.sector_columns = sector_columns
        self.rounds = 0
        self.sums = defaultdict(float)
        self.counts = defaultdict(int)
        self.max_bits = 0
        self.unmatched_discoveries = 0
        self.untraced_s = 0.0
        self.traced_s = 0.0

    def add_round(self, spans, untraced_s, traced_s):
        self.rounds += 1
        self.untraced_s += untraced_s
        self.traced_s += traced_s
        sums, counts = self.sums, self.counts
        children = defaultdict(list)
        for span in spans:
            children[span[1]].append(span)
        for idx, (label, parent, t0, t1, meta, size, _) in enumerate(spans):
            dur = t1 - t0
            key = f"{label}.{meta}" if isinstance(meta, str) else label
            sums[key] += dur
            counts[key] += 1
            parent_label = spans[parent][0] if parent >= 0 else None
            if label == "all_invariants" and parent_label == "discover_relations":
                sums["sample_eval"] += dur
            elif label.startswith("reconstruct") and size:
                counts["degenerate"] += 1
            elif label == "nullspace":
                counts["rows"] += meta[0]
                counts["candidates"] += size
                self.max_bits = max(self.max_bits, meta[2])
            elif label == "enumerate_products" and parent_label == "discover_relations":
                counts["products"] += size
            elif label == "discover_relations":
                counts["kept"] += size
                sums["product_matrix"] += dur - sum(c[3] - c[6] for c in children[idx])
                self._add_sectors(meta, [c for c in children[idx] if c[0] == "nullspace"])

    def _add_sectors(self, key, nullspace_spans):
        if [span[4][1] for span in nullspace_spans] != self.sector_columns.get(key):
            self.unmatched_discoveries += 1
            return
        for (a, b), span in zip(SECTORS[key], nullspace_spans):
            self.sums[f"sector_{a}_{b}"] += span[3] - span[2]

    def metrics(self):
        """The LAYER_METRICS values: per traced round, or microseconds per call."""
        n = max(self.rounds, 1)
        sums, counts = self.sums, self.counts

        def per_call_us(*labels):
            calls = counts[labels[0]]
            return 1e6 * sum(sums[x] for x in labels) / calls if calls else 0.0

        values = {
            "tensor_core.decompose_exact_us": per_call_us("decompose.exact"),
            "tensor_core.decompose_float_us": per_call_us("decompose.float"),
            "tensor_core.rotate_us": per_call_us("rotate"),
            "invariants.eval_exact_us": per_call_us("all_invariants.exact"),
            "invariants.eval_float_us": per_call_us("all_invariants.float"),
            "invariants.calls": (counts["all_invariants.exact"]
                                 + counts["all_invariants.float"]) / n,
            "function_basis.reconstruct_exact_us": per_call_us(
                "reconstruct_K6.exact", "reconstruct_I8.exact"),
            "function_basis.reconstruct_float_us": per_call_us(
                "reconstruct_K6.float", "reconstruct_I8.float"),
            "function_basis.degenerate_branches": counts["degenerate"] / n,
            "syzygy.products": counts["products"] / n,
            "syzygy.sample_eval_s": sums["sample_eval"] / n,
            "syzygy.product_matrix_s": sums["product_matrix"] / n,
            "syzygy.reverify_s": sums["verify_relation"] / n,
            "syzygy.candidates": counts["candidates"] / n,
            "syzygy.relations_kept": counts["kept"] / n,
            "exact_algebra.nullspace_s": sums["nullspace"] / n,
            "exact_algebra.nullspace_calls": counts["nullspace"] / n,
            "exact_algebra.rows_eliminated": counts["rows"] / n,
            "exact_algebra.max_input_bits": self.max_bits,
            "optimizer.eigh3_calls": counts["symmetric_eigh3"] / n,
            "optimizer.eigh3_s": sums["symmetric_eigh3"] / n,
            "optimizer.sample_s": sums["sample_feasible_values"] / n,
            "trace.overhead_pct": (100.0 * (self.traced_s / self.untraced_s - 1.0)
                                   if self.untraced_s else 0.0),
        }
        for key in SECTORS:
            for a, b in SECTORS[key]:
                values[f"exact_algebra.sector_{a}_{b}_s"] = sums[f"sector_{a}_{b}"] / n
        return {name: {"value": values[name], "unit": unit} for name, unit in LAYER_METRICS}
