"""Layer spans recorded from outside the package.

The tracer replaces public functions of ``vdwcomplex`` modules with
wrappers that record a span per call: name, start, end, parent span and
the id of the input item (one complex) the call belongs to.  Spans stay
in memory; the caller writes them out when the run ends.  A function that
no longer exists is listed in ``missing`` and the layer metrics that
depend on it are left out; nothing else changes.

Only the traced run installs wrappers, so end-to-end numbers never carry
tracing cost.
"""

from __future__ import annotations

import importlib
import json
import sys
import time

# (module, attribute, span name).  An attribute "Class.method" wraps a
# classmethod.  Every vdwcomplex module attribute bound to the same
# function object is replaced, so names imported elsewhere (the CLI, the
# package namespace) are traced too.
TARGETS = [
    ("vdwcomplex.cli", "main", "cli.main"),
    ("vdwcomplex.vdw", "vdw_complex", "vdw.vdw_complex"),
    ("vdwcomplex.complexes", "SimplicialComplex.from_facets", "complexes.from_facets"),
    ("vdwcomplex.homology", "is_cohen_macaulay", "homology.is_cohen_macaulay"),
    ("vdwcomplex._kernels", "rank_bareiss", "kernels.rank_bareiss"),
    ("vdwcomplex._kernels", "rank_mod_p", "kernels.rank_mod_p"),
    ("vdwcomplex._kernels", "search_shelling", "kernels.search_shelling"),
    ("vdwcomplex.decompose", "is_vertex_decomposable", "decompose.is_vertex_decomposable"),
    ("vdwcomplex.decompose", "is_shellable", "decompose.is_shellable"),
    ("vdwcomplex.ideals", "dual_ideal", "ideals.dual_ideal"),
    ("vdwcomplex.ideals", "is_linearly_presented", "ideals.is_linearly_presented"),
]

# each vdW record of a sweep starts by building its complex
ITEM_START = "vdw.vdw_complex"

# per-layer metric -> span names it is computed from
METRIC_SOURCES = {
    "vdw.build_s": ["vdw.vdw_complex"],
    "complexes.construct_s": ["complexes.from_facets"],
    "kernels.rank_q_s": ["kernels.rank_bareiss"],
    "kernels.rank_q_calls": ["kernels.rank_bareiss"],
    "kernels.rank_q_cells": ["kernels.rank_bareiss"],
    "kernels.rank_f2_s": ["kernels.rank_mod_p"],
    "kernels.rank_f2_calls": ["kernels.rank_mod_p"],
    "kernels.rank_f2_cells": ["kernels.rank_mod_p"],
    "homology.cm_q.self_s": ["homology.is_cohen_macaulay", "kernels.rank_bareiss"],
    "homology.cm_f2.self_s": ["homology.is_cohen_macaulay", "kernels.rank_mod_p"],
    "homology.cm_calls": ["homology.is_cohen_macaulay"],
    "kernels.shelling_s": ["kernels.search_shelling"],
    "kernels.shelling_nodes": ["kernels.search_shelling"],
    "kernels.shelling_decided_ratio": ["kernels.search_shelling"],
    "decompose.shelling.self_s": ["decompose.is_shellable", "kernels.search_shelling"],
    "decompose.vd_s": ["decompose.is_vertex_decomposable"],
    "decompose.vd_subproblems": ["decompose.is_vertex_decomposable"],
    "ideals.dual_s": ["ideals.dual_ideal"],
    "ideals.linpres_s": ["ideals.is_linearly_presented"],
    "ideals.generators": ["ideals.is_linearly_presented"],
    "ideals.nonlinear_pairs": ["ideals.is_linearly_presented"],
    # a missing child would leave its time in the CLI's self time
    "cli.overhead_s": [name for _, _, name in TARGETS if name != "complexes.from_facets"],
    "trace.attributed_s": [name for _, _, name in TARGETS],
}


def _unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    return "ratio" if metric.endswith("_ratio") else "count"


def _field_of(args, kwargs):
    field = kwargs.get("field", args[1] if len(args) > 1 else "Q")
    return "Q" if field in (None, 0, "Q", "QQ", "0") else "F2" if field in (2, "F2") else str(field)


def _vd_prepare(args, kwargs):
    # the memo a call fills is its subproblem count
    if len(args) < 2 and kwargs.get("memo") is None:
        kwargs["memo"] = {}
    memo = args[1] if len(args) > 1 else kwargs["memo"]
    return {"memo": memo, "before": len(memo)}


def _cells(args, kwargs):
    rows, ncols = args[0], args[1]
    return len(rows) * ncols


def _nonlinear_pairs(masks, witness):
    """Generator pairs the linear-presentation test sends to the graph search."""
    if len(masks) <= 1:
        return 0
    d = masks[0].bit_count()
    count = 0
    for i in range(len(masks)):
        for j in range(i + 1, len(masks)):
            if (masks[i] | masks[j]).bit_count() != d + 1:
                count += 1
            if witness == (i, j):
                return count
    return count


def _note(name, args, kwargs, result, state):
    """Data attached to a finished span.

    Runs while the parent span is still open, so it must stay O(1);
    anything costlier is derived later, in ``layer_metrics``.
    """
    if name == "kernels.rank_bareiss":
        return {"cells": _cells(args, kwargs)}
    if name == "kernels.rank_mod_p":
        return {"cells": _cells(args, kwargs), "p": args[2] if len(args) > 2 else kwargs["p"]}
    if name == "kernels.search_shelling":
        return {"status": result[0], "nodes": result[2]}
    if name == "homology.is_cohen_macaulay":
        return {"field": _field_of(args, kwargs)}
    if name == "decompose.is_vertex_decomposable":
        return {"subproblems": len(state["memo"]) - state["before"]}
    if name == "ideals.is_linearly_presented":
        ideal = args[0] if args else kwargs["ideal"]
        return {"masks": ideal.generator_masks, "witness": result.witness}
    return None


class Tracer:
    """Span recorder bound to the currently imported ``vdwcomplex``."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [id, name, start_ns, end_ns, parent, item, note]
        self.stack: list[int] = []
        self.item = 0
        self.active = False
        self.missing: list[str] = []
        self.installed: set[str] = set()

    def install(self) -> None:
        for module_name, attr, name in TARGETS:
            owner, _, method = attr.rpartition(".")
            try:
                module = importlib.import_module(module_name)
                holder = getattr(module, owner) if owner else module
                original = getattr(holder, method)
                if owner:
                    wrapped = classmethod(self._wrap(name, holder.__dict__[method].__func__))
            except (ImportError, AttributeError, KeyError):
                self.missing.append(f"{module_name}.{attr}")
                continue
            if owner:
                setattr(holder, method, wrapped)
            else:
                wrapped = self._wrap(name, original)
                for mod_name, mod in list(sys.modules.items()):
                    if mod is None or not (mod_name == "vdwcomplex" or mod_name.startswith("vdwcomplex.")):
                        continue
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapped)
            self.installed.add(name)

    def _wrap(self, name, fn):
        tracer = self
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            state = _vd_prepare(args, kwargs) if name == "decompose.is_vertex_decomposable" else None
            if name == ITEM_START:
                tracer.item += 1
            span = [len(tracer.spans), name, 0, 0, tracer.stack[-1] if tracer.stack else None, tracer.item, None]
            tracer.spans.append(span)
            tracer.stack.append(span[0])
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                tracer.stack.pop()
            span[6] = _note(name, args, kwargs, result, state)
            return result

        traced.__wrapped__ = fn
        return traced

    def clear(self) -> None:
        self.spans = []
        self.item = 0

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for sid, name, start, end, parent, item, note in self.spans:
                if note and "masks" in note:
                    note = {"generators": len(note["masks"]), "witness": note["witness"]}
                fh.write(
                    json.dumps(
                        {"id": sid, "name": name, "start_ns": start, "end_ns": end,
                         "parent": parent, "item": item, "note": note},
                        separators=(",", ":"),
                    )
                    + "\n"
                )

    def layer_metrics(self) -> dict:
        """Per-layer totals of the spans recorded since the last ``clear``."""
        child_ns = [0] * len(self.spans)
        for span in self.spans:
            if span[4] is not None:
                child_ns[span[4]] += span[3] - span[2]
        self_s: dict = {}
        dur_s: dict = {}
        count: dict = {}

        def add(table, key, value):
            table[key] = table.get(key, 0) + value

        for sid, name, start, end, _, _, note in self.spans:
            dur = (end - start) / 1e9
            own = dur - child_ns[sid] / 1e9
            add(self_s, name, own)
            add(dur_s, name, dur)
            add(count, name, 1)
            if note is None:  # the call raised; the run counts it as failed
                continue
            if name == "kernels.rank_mod_p" and note["p"] == 2:
                add(dur_s, "rank_f2", dur)
                add(count, "rank_f2", 1)
                add(count, "rank_f2_cells", note["cells"])
            elif name == "kernels.rank_bareiss":
                add(count, "rank_q_cells", note["cells"])
            elif name == "kernels.search_shelling":
                add(count, "shelling_nodes", note["nodes"])
                add(count, "shelling_decided", note["status"] != 2)
            elif name == "homology.is_cohen_macaulay":
                add(self_s, "cm_" + note["field"].lower(), own)
            elif name == "decompose.is_vertex_decomposable":
                add(count, "vd_subproblems", note["subproblems"])
            elif name == "ideals.is_linearly_presented":
                add(count, "generators", len(note["masks"]))
                add(count, "nonlinear_pairs", _nonlinear_pairs(note["masks"], note["witness"]))
        shelling_calls = count.get("kernels.search_shelling", 0)
        values = {
            "vdw.build_s": self_s.get("vdw.vdw_complex", 0.0),
            "complexes.construct_s": self_s.get("complexes.from_facets", 0.0),
            "kernels.rank_q_s": dur_s.get("kernels.rank_bareiss", 0.0),
            "kernels.rank_q_calls": count.get("kernels.rank_bareiss", 0),
            "kernels.rank_q_cells": count.get("rank_q_cells", 0),
            "kernels.rank_f2_s": dur_s.get("rank_f2", 0.0),
            "kernels.rank_f2_calls": count.get("rank_f2", 0),
            "kernels.rank_f2_cells": count.get("rank_f2_cells", 0),
            "homology.cm_q.self_s": self_s.get("cm_q", 0.0),
            "homology.cm_f2.self_s": self_s.get("cm_f2", 0.0),
            "homology.cm_calls": count.get("homology.is_cohen_macaulay", 0),
            "kernels.shelling_s": dur_s.get("kernels.search_shelling", 0.0),
            "kernels.shelling_nodes": count.get("shelling_nodes", 0),
            "kernels.shelling_decided_ratio": (
                count.get("shelling_decided", 0) / shelling_calls if shelling_calls else 1.0
            ),
            "decompose.shelling.self_s": self_s.get("decompose.is_shellable", 0.0),
            "decompose.vd_s": dur_s.get("decompose.is_vertex_decomposable", 0.0),
            "decompose.vd_subproblems": count.get("vd_subproblems", 0),
            "ideals.dual_s": dur_s.get("ideals.dual_ideal", 0.0),
            "ideals.linpres_s": dur_s.get("ideals.is_linearly_presented", 0.0),
            "ideals.generators": count.get("generators", 0),
            "ideals.nonlinear_pairs": count.get("nonlinear_pairs", 0),
            "cli.overhead_s": self_s.get("cli.main", 0.0),
            # time inside any recorded layer; the rest of a pass is the harness loop
            "trace.attributed_s": sum(self_s.get(name, 0.0) for _, _, name in TARGETS),
        }
        return {
            key: (value, _unit(key))
            for key, value in values.items()
            if all(src in self.installed for src in METRIC_SOURCES[key])
        }
