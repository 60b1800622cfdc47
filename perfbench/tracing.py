"""Spans around the public calls into each lowrank_ar layer.

Tracing lives in the benchmark's files: install() replaces each traced
function, in every lowrank_ar module that holds a reference to it, by a
wrapper that records a span (name, start, end, parent); uninstall() puts
the originals back. Spans stay in memory and are written out when the run
ends. A span's self time is its duration minus the time its child spans
cover.

Modules are reached through sys.modules: the package re-exports the
function `field` under the name of its module, so `lowrank_ar.field` (and
`import lowrank_ar.field as m`) gives the function, not the module.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from dataclasses import dataclass, field


def _admm_attrs(result, args, kwargs, fn):
    state = result[1]
    cap = inspect.signature(fn).bind(*args, **kwargs)
    cap.apply_defaults()
    return {"iters": state.t, "capped": int(state.t >= cap.arguments["max_iters"])}


def _solve_attrs(result, args, kwargs, fn):
    state = result[1]
    return {"iters": state.t, "backtracks": sum(h.backtracks for h in state.history)}


# (module, attribute or Class.method, span name, attribute hook)
TARGETS = (
    ("synthetic", "gen_benchmark", "synthetic.generate", None),
    ("dataio", "read_ucr_file", "dataio.read", None),
    ("dataio", "read_text_documents", "dataio.read", None),
    ("dataio", "write_split_csv", "dataio.write", None),
    ("dataio", "write_labels_csv", "dataio.write", None),
    ("dataio", "write_matrix_csv", "dataio.write", None),
    ("embedding", "write_embedding_csv", "dataio.write", None),
    ("encoders", "encode_signals", "encoders.encode", None),
    ("encoders", "clean_text", "encoders.encode", None),
    ("encoders", "corpus_frequencies", "encoders.encode", None),
    ("encoders", "build_huffman", "encoders.encode", None),
    ("encoders", "encode_corpus", "encoders.encode", None),
    ("field", "EmpiricalField.__init__", "measurement.design", None),
    ("measurement", "sample_subwindow_slices", "measurement.draw", None),
    ("field", "EmpiricalField.field", "field.eval", None),
    ("field", "EmpiricalField.loss", "field.loss", None),
    ("nuclear", "prox_nuc", "nuclear.prox", None),
    ("solver", "least_squares_unconstrained", "solver.ols", None),
    ("solver", "constrained_least_squares", "solver.admm", _admm_attrs),
    ("solver", "solve", "solver.solve", _solve_attrs),
    ("evalkit", "lambda_search", "evalkit.search", None),
    ("evalkit", "kmeans", "evalkit.kmeans", None),
    ("evalkit", "select_k", "evalkit.knn", None),
    ("evalkit", "knn_classify", "evalkit.knn", None),
    ("embedding", "factorize", "embedding.factorize", None),
)


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    attrs: dict = field(default_factory=dict)


class Tracer:
    """Records spans while installed; one tracer per run."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._restore: list = []

    def _wrap(self, fn, name, hook):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, 0.0, parent=tracer._stack[-1] if tracer._stack else -1)
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
            if hook is not None:
                span.attrs = hook(result, args, kwargs, fn)
            return result

        return traced

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n.startswith("lowrank_ar.")]
        for module_name, attr, name, hook in TARGETS:
            module = sys.modules[f"lowrank_ar.{module_name}"]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[method]
                setattr(cls, method, self._wrap(original, name, hook))
                self._restore.append((cls, method, original))
                continue
            original = getattr(module, attr)
            wrapped = self._wrap(original, name, hook)
            for holder in modules:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, wrapped)
                        self._restore.append((holder, key, original))

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._restore):
            setattr(holder, key, original)
        self._restore.clear()

    def self_times(self) -> list[float]:
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.end - s.start
        return own

    def summary(self) -> dict:
        """Count, total and self seconds per span name."""
        out: dict = {}
        for s, own in zip(self.spans, self.self_times()):
            row = out.setdefault(s.name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
            row["count"] += 1
            row["total_s"] += s.end - s.start
            row["self_s"] += own
        return out

    def under(self, index: int, name: str) -> bool:
        """Whether span `index` has an ancestor called `name`."""
        parent = self.spans[index].parent
        while parent >= 0:
            if self.spans[parent].name == name:
                return True
            parent = self.spans[parent].parent
        return False


def per_layer(tracer: Tracer, rounds: int, overhead_s: float) -> dict:
    """The per-layer metrics of BENCHMARK.json, per traced round."""
    summ = tracer.summary()
    own = tracer.self_times()

    def get(name, key):
        return summ.get(name, {}).get(key, 0)

    def per_call_ms(name, key="self_s"):
        count = get(name, "count")
        return 1e3 * get(name, key) / count if count else 0.0

    admm = [(s, t) for s, t in zip(tracer.spans, own) if s.name == "solver.admm"]
    admm_iters = sum(s.attrs["iters"] for s, _ in admm)
    mirror = [s for s in tracer.spans if s.name == "solver.solve"]
    radii = sum(
        1 for i, s in enumerate(tracer.spans)
        if s.name == "solver.admm" and tracer.under(i, "evalkit.search")
    )
    return {
        "synthetic.generate_s": get("synthetic.generate", "total_s") / rounds,
        "dataio.read_s": get("dataio.read", "total_s") / rounds,
        "dataio.write_s": get("dataio.write", "total_s") / rounds,
        "encoders.encode_s": get("encoders.encode", "total_s") / rounds,
        "measurement.design_s": get("measurement.design", "total_s") / rounds,
        "measurement.draws": get("measurement.draw", "count") / rounds,
        "measurement.draw_ms": per_call_ms("measurement.draw", "total_s"),
        "field.evals": get("field.eval", "count") / rounds,
        "field.eval_ms": per_call_ms("field.eval"),
        "field.loss_evals": get("field.loss", "count") / rounds,
        "field.loss_ms": per_call_ms("field.loss"),
        "nuclear.prox_calls": get("nuclear.prox", "count") / rounds,
        "nuclear.prox_ms": per_call_ms("nuclear.prox"),
        "solver.admm_solves": sum(1 for s, _ in admm if s.attrs["iters"] > 0) / rounds,
        "solver.admm_iters": admm_iters / rounds,
        "solver.admm_ms_per_iter": 1e3 * sum(t for _, t in admm) / admm_iters if admm_iters else 0.0,
        "solver.admm_capped": sum(s.attrs["capped"] for s, _ in admm) / rounds,
        "solver.ols_calls": get("solver.ols", "count") / rounds,
        "solver.ols_s": get("solver.ols", "total_s") / rounds,
        "solver.iters": sum(s.attrs["iters"] for s in mirror) / rounds,
        "solver.backtracks": sum(s.attrs["backtracks"] for s in mirror) / rounds,
        "solver.self_s": get("solver.solve", "self_s") / rounds,
        "evalkit.search_s": get("evalkit.search", "total_s") / rounds,
        "evalkit.search_radii": radii / rounds,
        "evalkit.kmeans_s": get("evalkit.kmeans", "total_s") / rounds,
        "evalkit.knn_s": get("evalkit.knn", "total_s") / rounds,
        "embedding.factorize_s": get("embedding.factorize", "total_s") / rounds,
        "trace.overhead_s": overhead_s,
    }
