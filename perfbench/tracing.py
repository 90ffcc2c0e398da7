"""Outside-in tracing of chardeg.

The tracer wraps the public entry points of each module from the
benchmark's side; nothing in the program changes.  A function that another
module imported by value (``from .chars import inner_product``) is rebound
in that module too, or calls through the copied name would be missed.

Every wrapped call records a span (layer, start, end, parent span).  Spans
stay in memory until the pass ends.  A layer's self time is the summed
duration of its spans minus the time their child spans cover.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter
from time import perf_counter

# (self-time metric, call-count metric or None, module, entry points)
LAYERS = (
    ("bsgs.chain_s", "bsgs.chains_built", "chardeg.bsgs",
     ("StabilizerChain.__init__",)),
    ("bsgs.elements_s", None, "chardeg.groups", ("Group.elements",)),
    ("groups.classes_s", None, "chardeg.groups", ("ClassData.__init__",)),
    ("groups.normal_s", None, "chardeg.groups",
     ("normal_closure", "center", "derived_series", "minimal_normal_subgroups",
      "quotient_group", "is_p_solvable", "class_fusion")),
    ("dixon.class_matrix_s", "dixon.class_matrices_used", "chardeg.dixon",
     ("class_matrix",)),
    ("dixon.eigscan_s", None, "chardeg.dixon", ("batched_singular_values",)),
    ("dixon.rref_s", "dixon.rref_calls", "chardeg.dixon",
     ("rref_mod", "nullspace_mod")),
    ("dixon.split_s", None, "chardeg.dixon", ("central_character_vectors",)),
    ("dixon.lift_s", None, "chardeg.dixon",
     ("character_degree", "lift_character")),
    ("chars.table_s", "chars.tables_built", "chardeg.chars",
     ("CharacterTable.__init__",)),
    ("chars.inner_product_s", "chars.inner_product_calls", "chardeg.chars",
     ("inner_product",)),
    ("cyclotomic.reduce_s", "cyclotomic.reduce_calls", "chardeg.cyclotomic",
     ("reduce_to_power_basis",)),
    ("corpusio.entry_s", None, "chardeg.corpusio", ("Catalogue.entry",)),
    ("constructions.s", None, "chardeg.constructions",
     ("perm_from_matrix_group", "matrix_to_perm", "direct_product",
      "central_product", "fiber_product")),
    ("invariants.s", None, "chardeg.invariants",
     ("degrees", "n_d", "acd", "acd_rel", "acd_over", "lies_over",
      "theorem_A_inequality_equiv")),
    ("checks.s", None, "chardeg.checks", ("paper_check_suite", "theorem_scan")),
    ("cli.s", None, "chardeg.cli", ("main",)),
)


class Tracer:
    """Spans and counters of one traced pass."""

    def __init__(self):
        self.spans: list[list] = []  # [layer, start, end, parent index]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.prime_max = 0
        self.eigscan_bytes_max = 0
        self.entries: dict[int, object] = {}  # keeps built entries alive
        self.missing: list[str] = []

    # -- installing the wrappers -------------------------------------------

    def install(self):
        observers = {
            "batched_singular_values": self._observe_eigscan,
            "central_character_vectors": self._observe_split,
            "quotient_group": self._observe_quotient,
            "Catalogue.entry": self._observe_entry,
        }
        for metric, _, module, names in LAYERS:
            for name in names:
                self._patch(module, name, self._span_wrapper(
                    metric, observers.get(name)))
        self._patch("chardeg.perms", "Permutation.__mul__", self._counter(
            "perms.mul_calls"))
        self._patch("chardeg.chars", "character_table", self._counter(
            "chars.table_requests"))
        self._patch("chardeg.dixon", "dixon_prime", self._observer(
            self._observe_prime))

    def _patch(self, module_name: str, qualname: str, make_wrapper):
        module = sys.modules.get(module_name)
        owner_name, _, attr = qualname.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(f"{module_name}.{qualname}")
            return
        wrapper = functools.wraps(original)(make_wrapper(original))
        setattr(owner, attr, wrapper)
        if owner is module:  # rebind every copy imported by value
            for name, mod in list(sys.modules.items()):
                if name == "chardeg" or name.startswith("chardeg."):
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)

    def _span_wrapper(self, metric: str, observe=None):
        spans, stack = self.spans, self.stack

        def make(fn):
            def wrapper(*args, **kwargs):
                index = len(spans)
                spans.append([metric, perf_counter(), 0.0,
                              stack[-1] if stack else -1])
                stack.append(index)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    stack.pop()
                    spans[index][2] = perf_counter()
                if observe is not None:
                    observe(args, result)
                return result
            return wrapper
        return make

    def _counter(self, metric: str):
        counts = self.counts

        def make(fn):
            def wrapper(*args, **kwargs):
                counts[metric] += 1
                return fn(*args, **kwargs)
            return wrapper
        return make

    def _observer(self, observe):
        def make(fn):
            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                observe(args, result)
                return result
            return wrapper
        return make

    # -- counters read off arguments and return values ---------------------

    def _observe_prime(self, args, p):
        self.prime_max = max(self.prime_max, p)

    def _observe_eigscan(self, args, found):
        m, p = args[0], args[1]
        self.counts["dixon.eigscan_candidates"] += p
        self.counts["dixon.eigscan_hits"] += len(found)
        self.eigscan_bytes_max = max(self.eigscan_bytes_max,
                                     p * m.shape[0] ** 2 * 8)

    def _observe_split(self, args, vectors):
        self.counts["dixon.class_matrices_available"] += args[0].num_classes - 1

    def _observe_quotient(self, args, quotient):
        self.counts["groups.quotients_built"] += 1

    def _observe_entry(self, args, entry):
        self.entries[id(entry)] = entry

    # -- results -----------------------------------------------------------

    def metrics(self, wall: float) -> dict[str, float]:
        """Per-layer metrics of the pass, checking that the self times plus
        the unattributed remainder add up to the traced wall."""
        if self.stack:
            raise RuntimeError("trace: spans left open at the end of the pass")
        child = [0.0] * len(self.spans)
        roots = 0.0
        for layer, start, end, parent in self.spans:
            if parent < 0:
                roots += end - start
            else:
                child[parent] += end - start
        out: dict[str, float] = {metric: 0.0 for metric, *_ in LAYERS}
        calls = Counter()
        for (layer, start, end, _), covered in zip(self.spans, child):
            own = end - start - covered
            if own < -1e-9:
                raise RuntimeError(f"trace: negative self time in {layer}")
            out[layer] += own
            calls[layer] += 1
        for metric, count_metric, *_ in LAYERS:
            if count_metric:
                out[count_metric] = calls[metric]
        counts = self.counts
        out["perms.mul_calls"] = counts["perms.mul_calls"]
        out["groups.quotients_built"] = counts["groups.quotients_built"]
        out["dixon.class_matrix_use_ratio"] = _ratio(
            calls["dixon.class_matrix_s"],
            counts["dixon.class_matrices_available"])
        out["dixon.eigscan_candidates"] = counts["dixon.eigscan_candidates"]
        out["dixon.eigscan_hit_ratio"] = _ratio(
            counts["dixon.eigscan_hits"], counts["dixon.eigscan_candidates"])
        out["dixon.eigscan_bytes_max"] = self.eigscan_bytes_max
        out["dixon.prime_max"] = self.prime_max
        out["chars.table_requests"] = counts["chars.table_requests"]
        out["chars.table_cache_hit_ratio"] = _ratio(
            counts["chars.table_requests"] - calls["chars.table_s"],
            counts["chars.table_requests"])
        out["corpusio.entries_built"] = len(self.entries)
        out["trace.unattributed_s"] = wall - roots
        if wall - roots < -1e-6:
            raise RuntimeError("trace: spans outlast the traced wall")
        total = sum(out[metric] for metric, *_ in LAYERS)
        if abs(total + out["trace.unattributed_s"] - wall) > 1e-6 * max(wall, 1):
            raise RuntimeError(f"trace: self times {total} plus unattributed "
                               f"{wall - roots} differ from the wall {wall}")
        return out

    def write(self, path, header: dict):
        """Write every span of the pass as JSON: layer names once, then
        [layer index, start, end, parent index] per span."""
        layers = sorted({span[0] for span in self.spans})
        index = {layer: i for i, layer in enumerate(layers)}
        payload = dict(header, layers=layers, spans=[
            [index[layer], start, end, parent]
            for layer, start, end, parent in self.spans])
        with open(path, "w") as fh:
            json.dump(payload, fh, separators=(",", ":"))


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0
