"""Layer-boundary spans for a traced benchmark child, recorded from outside ffdecomp.

Tracer.install() replaces each boundary function below with a wrapper, under
every name an ffdecomp module looks it up by (`fpcore.make_field`,
`experiments.make_field`, `cli.run_query` → `decomp.max_packing`, ...).
Per-node internals such as `cyclic_shift` or the `FpSet` constructor are
deliberately not wrapped: their call counts are in the millions and the
wrapper would swamp what it measures.

Spans are kept in memory and reduced, as each one closes, to per-name call
counts, total seconds and self seconds; self time is a span's duration minus
the time covered by its child spans.  The sum of all self times is therefore
the duration of the root `cli` span.
"""

import sys
import time

SETALG = ("sumset", "productset", "affine", "iterated_sumset", "intersect_shifts", "growth_product")
SEARCHES = ("find_additive_decompositions", "find_self_decomposition", "max_packing")
REPORTS = (
    "w_identity_report",
    "n_count_report",
    "shkvyu_report",
    "growth_exponent_report",
    "packing_bound_harness",
    "subgroup_ratio_report",
    "interval_mult_report",
    "bourgain_report",
)

# (module, attribute, span name); "Class.method" wraps a method.
BOUNDARIES = [
    ("fpcore", "make_field", "fpcore.make_field"),
    ("fpcore", "subgroup", "fpcore.subgroup"),
    *[("setalg", name, f"setalg.{name}") for name in SETALG],
    ("charsum", "double_char_sum", "charsum.double_char_sum"),
    *[("decomp", name, "decomp.search") for name in SEARCHES],
    *[("experiments", name, "experiments.report") for name in REPORTS],
    ("reports", "BoundReport.to_dict", "reports.to_dict"),
    ("decomp", "DecompReport.to_dict", "reports.to_dict"),
    ("cli", "run", "cli"),
]


class Tracer:
    def __init__(self):
        self._open = []  # seconds covered by the children of each open span
        self._calls = {}
        self._total = {}
        self._self = {}
        self.searches = []  # [p, d, nodes_explored] per search, in call order

    def wrap(self, name, fn):
        open_spans = self._open
        calls, total, self_s = self._calls, self._total, self._self
        calls.setdefault(name, 0)
        total.setdefault(name, 0.0)
        self_s.setdefault(name, 0.0)
        searches = self.searches if name == "decomp.search" else None
        clock = time.perf_counter

        def traced(*args, **kwargs):
            open_spans.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                took = clock() - start
                covered = open_spans.pop()
                if open_spans:
                    open_spans[-1] += took
                calls[name] += 1
                total[name] += took
                self_s[name] += took - covered
            if searches is not None:
                query = args[0]
                searches.append([query.S.p, query.subgroup_d, result.nodes_explored])
            return result

        return traced

    def install(self):
        """Wrap every boundary; a missing one is an error, not a silent zero."""
        modules = [m for n, m in sys.modules.items() if n == "ffdecomp" or n.startswith("ffdecomp.")]
        for module_name, attr, name in BOUNDARIES:
            owner = sys.modules[f"ffdecomp.{module_name}"]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, method, self.wrap(name, getattr(cls, method)))
                continue
            original = getattr(owner, attr)
            wrapped = self.wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)

    def totals(self):
        """{span name: [calls, total seconds, self seconds]}."""
        return {n: [self._calls[n], self._total[n], self._self[n]] for n in self._calls}
