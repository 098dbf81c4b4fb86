"""In-process layer tracer for the benchmark.

The tracer wraps public functions and methods of ``diagramalg`` from the
outside: it replaces the function object in the module that defines it
and in every ``diagramalg`` module (or class) that bound the same object
under its own name, e.g. ``duality.commutant`` next to
``linalg.commutant``.  Nothing inside ``src/`` is changed.

Each wrapped call pushes a frame holding its start time and the time
covered by its wrapped children, so self time is duration minus child
coverage.  Ordinary calls become spans (name, start, end, parent) kept in
memory; hot calls are only aggregated per (name, parent) into count,
total and self time, so millions of calls cost a counter each rather
than a record each.  Counter-only wrappers count without timing.
"""
from __future__ import annotations

import importlib
import sys
import time
import weakref
from collections import Counter

# (module, attribute, class or None, tracer name, group, kind)
# kind: "span" records a span per call, "hot" aggregates per (name, parent),
# "count" only counts calls.  ``group`` names the union-time bucket: a call
# adds its duration to the bucket only when no call of the same group is
# already open, so nested builders are not counted twice.
TENSOR_BUILDERS = (
    "diagram_matrix", "mixed_diagram_matrix", "sigma_perm", "derivation_action",
    "reflection_matrix", "deranged_matrix", "adjoint_transport", "weight_vectors",
    "ad_action", "derivation_ops_sparse",
)
WRAPPED = [
    ("diagramalg.duality", "verify_duality", None, "duality.verify_duality", "duality", "span"),
    ("diagramalg.linalg", "solve_sparse_system", None, "linalg.solve_sparse_system", "solve", "span"),
    ("diagramalg.linalg", "intertwiner_kernel", None, "linalg.intertwiner_kernel", "intertwiner", "span"),
    ("diagramalg.linalg", "graded_commutant_dim", None, "linalg.graded_commutant_dim", "graded", "span"),
    ("diagramalg.linalg", "algebra_closure", None, "linalg.algebra_closure", "closure", "span"),
    ("diagramalg.linalg", "span_equal", None, "linalg.span_equal", "span_equal", "span"),
    ("diagramalg.combinatorics", "multiplicity_trivial", None,
     "combinatorics.multiplicity_trivial", "multiplicity", "span"),
    ("diagramalg.combinatorics", "multiplicity_adjoint", None,
     "combinatorics.multiplicity_adjoint", "multiplicity", "span"),
    *[("diagramalg.tensor", name, None, f"tensor.{name}", "tensor", "span")
      for name in TENSOR_BUILDERS],
    ("diagramalg.linalg", "insert", "ModRref", "linalg.ModRref.insert", "modp_insert", "hot"),
    ("diagramalg.linalg", "insert_sparse", "ModRref", "linalg.ModRref.insert_sparse",
     "modp_insert", "hot"),
    ("diagramalg.linalg", "__init__", "ModRref", "linalg.ModRref.__init__", "modp_init", "hot"),
    ("diagramalg.linalg", "kernel_modp_dense", None, "linalg.kernel_modp_dense", "graded_block", "hot"),
    ("diagramalg.linalg", "rational_reconstruct", None, "linalg.rational_reconstruct", "lift", "hot"),
    ("diagramalg.linalg", "insert", "ExactRref", "linalg.ExactRref.insert", "exact_rref", "hot"),
    ("diagramalg.linalg", "contains", "ExactRref", "linalg.ExactRref.contains", "exact_rref", "hot"),
    ("diagramalg.linalg", "mat_to_modp", None, "linalg.mat_to_modp", "to_modp", "hot"),
    ("diagramalg.algebra", "__mul__", "AlgebraElement", "algebra.AlgebraElement.__mul__",
     "algebra_mul", "hot"),
    ("diagramalg.diagrams", "compose", None, "diagrams.compose", "compose", "count"),
    ("diagramalg.ring", "__mul__", "QPoly", "ring.QPoly.__mul__", "qpoly_mul", "count"),
]


class Tracer:
    """Spans, per-(name, parent) aggregates and counters of one process."""

    def __init__(self):
        self.clock = time.perf_counter
        self.stack: list[list] = []        # [name, start, child_s, span_id]
        self.spans: list[tuple] = []       # (id, name, parent_id, command, start, end, self_s)
        self.agg: dict[tuple, list] = {}   # (name, parent) -> [calls, total_s, self_s]
        self.calls: Counter = Counter()    # name -> calls
        self.group_s: Counter = Counter()  # group -> union time
        self.self_s: Counter = Counter()   # name -> self time
        self.counts: Counter = Counter()   # derived counters (pivots, unknowns, ...)
        self._open: Counter = Counter()    # group -> open calls
        self._next_id = 0
        self.command = None
        self.table_live = 0
        self.table_peak = 0
        self._restore: list[tuple] = []

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, fn, name, group, kind, on_return=None):
        if kind == "count":
            calls = self.calls

            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return counted

        tracer = self
        record_span = kind == "span"

        def traced(*args, **kwargs):
            stack = tracer.stack
            parent = stack[-1] if stack else None
            if record_span:
                span_id = tracer._next_id
                tracer._next_id += 1
            else:
                span_id = parent[3] if parent else None
            frame = [name, 0.0, 0.0, span_id]
            stack.append(frame)
            outermost = tracer._open[group] == 0
            tracer._open[group] += 1
            frame[1] = start = tracer.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = tracer.clock()
                stack.pop()
                tracer._open[group] -= 1
                tracer._finish(frame, parent, group, outermost, start, end, record_span)
            if on_return is not None:
                on_return(tracer, args, kwargs, result)
            return result
        traced.__wrapped__ = fn
        return traced

    def _finish(self, frame, parent, group, outermost, start, end, record_span):
        name = frame[0]
        dur = end - start
        own = dur - frame[2]
        if parent is not None:
            parent[2] += dur
        key = (name, parent[0] if parent else None)
        rec = self.agg.get(key)
        if rec is None:
            rec = self.agg[key] = [0, 0.0, 0.0]
        rec[0] += 1
        rec[1] += dur
        rec[2] += own
        self.calls[name] += 1
        self.self_s[name] += own
        if outermost:
            self.group_s[group] += dur
        if record_span:
            parent_id = parent[3] if parent else None
            self.spans.append((frame[3], name, parent_id, self.command, start, end, own))

    # -- return hooks ------------------------------------------------------

    @staticmethod
    def _count_pivot(tracer, args, kwargs, result):
        if result:
            tracer.counts["linalg.modp_pivots"] += 1

    @staticmethod
    def _count_solve(tracer, args, kwargs, result):
        ncols = args[1] if len(args) > 1 else kwargs["ncols"]
        tracer.counts["linalg.solve_unknowns"] += ncols
        tracer.counts["linalg.solve_rank"] += result.rank
        tracer.counts["linalg.solve_nullity"] += result.nullity

    @staticmethod
    def _count_table(tracer, args, kwargs, result):
        # ModRref(ncols, p, max_rank) preallocates cap x ncols int64 pivot
        # rows plus cap int64 pivot indices.
        table, ncols = args[0], args[1]
        max_rank = args[3] if len(args) > 3 else kwargs.get("max_rank")
        cap = ncols if max_rank is None else min(max_rank, ncols)
        nbytes = 8 * cap * ncols + 8 * cap
        tracer.table_live += nbytes
        tracer.table_peak = max(tracer.table_peak, tracer.table_live)
        weakref.finalize(table, tracer._release_table, nbytes)

    def _release_table(self, nbytes):
        self.table_live -= nbytes

    # -- installation ------------------------------------------------------

    def install(self):
        """Wrap every entry of WRAPPED wherever a ``diagramalg`` module or
        class binds the original object; returns the number of bindings."""
        hooks = {
            "linalg.ModRref.insert": self._count_pivot,
            "linalg.ModRref.insert_sparse": self._count_pivot,
            "linalg.ModRref.__init__": self._count_table,
            "linalg.solve_sparse_system": self._count_solve,
        }
        modules = [m for key, m in list(sys.modules.items())
                   if key == "diagramalg" or key.startswith("diagramalg.")]
        bound = 0
        for mod_name, attr, cls_name, name, group, kind in WRAPPED:
            owner = importlib.import_module(mod_name)
            if cls_name is not None:
                owner = getattr(owner, cls_name)
                original = vars(owner)[attr]
                targets = [owner]
            else:
                original = getattr(owner, attr)
                targets = modules
            wrapper = self._wrap(original, name, group, kind, hooks.get(name))
            for target in targets:
                for key, value in list(vars(target).items()):
                    if value is original:
                        setattr(target, key, wrapper)
                        self._restore.append((target, key, original))
                        bound += 1
        return bound

    def uninstall(self):
        for target, key, original in reversed(self._restore):
            setattr(target, key, original)
        self._restore.clear()

    # -- results -----------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metrics (name -> value) derived from this trace."""
        c, g, s = self.calls, self.group_s, self.self_s
        inserts = ("linalg.ModRref.insert", "linalg.ModRref.insert_sparse")
        return {
            "duality.self_s": s["duality.verify_duality"],
            "tensor.build_s": g["tensor"],
            "tensor.build_calls": sum(c[f"tensor.{n}"] for n in TENSOR_BUILDERS),
            "linalg.modp_insert_s": g["modp_insert"],
            "linalg.modp_insert_calls": sum(c[n] for n in inserts),
            "linalg.modp_pivots": self.counts["linalg.modp_pivots"],
            "linalg.modp_table_mb": self.table_peak / 2 ** 20,
            "linalg.graded_s": g["graded"],
            "linalg.graded_calls": c["linalg.graded_commutant_dim"],
            "linalg.graded_blocks": c["linalg.kernel_modp_dense"],
            "linalg.solve_calls": c["linalg.solve_sparse_system"],
            "linalg.solve_unknowns": self.counts["linalg.solve_unknowns"],
            "linalg.solve_rank": self.counts["linalg.solve_rank"],
            "linalg.solve_nullity": self.counts["linalg.solve_nullity"],
            "linalg.solve_self_s": s["linalg.solve_sparse_system"],
            "linalg.intertwiner_self_s": s["linalg.intertwiner_kernel"],
            "linalg.lift_s": g["lift"],
            "linalg.lift_entries": c["linalg.rational_reconstruct"],
            "linalg.exact_rref_s": g["exact_rref"],
            "linalg.exact_rref_rows": (c["linalg.ExactRref.insert"]
                                       + c["linalg.ExactRref.contains"]),
            "linalg.closure_s": g["closure"],
            "linalg.closure_products": self._closure_products(),
            "linalg.to_modp_s": g["to_modp"],
            "linalg.span_equal_s": g["span_equal"],
            "algebra.mul_s": g["algebra_mul"],
            "algebra.mul_calls": c["algebra.AlgebraElement.__mul__"],
            "diagrams.compose_calls": c["diagrams.compose"],
            "ring.qpoly_mul_calls": c["ring.QPoly.__mul__"],
            "combinatorics.multiplicity_s": g["multiplicity"],
        }

    def _closure_products(self) -> int:
        # Candidates the closure tested: its modular screen inserts every
        # candidate once per prime (two primes), and its exact phase tests
        # every product for membership.
        screened = self.agg.get(("linalg.ModRref.insert", "linalg.algebra_closure"), [0])[0]
        exact = self.agg.get(("linalg.ExactRref.contains", "linalg.algebra_closure"), [0])[0]
        return screened // 2 + exact

    def graded_union_s(self) -> float:
        """Graded solve time plus modular insert time outside it."""
        inside = self.agg.get(("linalg.ModRref.insert", "linalg.kernel_modp_dense"), [0, 0.0])[1]
        return self.group_s["graded"] + self.group_s["modp_insert"] - inside

    def dump(self) -> dict:
        return {
            "spans": [dict(zip(("id", "name", "parent", "command", "start", "end", "self_s"), s))
                      for s in self.spans],
            "aggregates": [{"name": k[0], "parent": k[1], "calls": v[0], "total_s": v[1],
                            "self_s": v[2]} for k, v in sorted(self.agg.items(), key=str)],
            "counters": dict(self.calls),
        }
