"""The benchmark's tracer still finds every function it wraps.

``perfbench/spans.py`` wraps package functions by name from outside.  A
name it cannot resolve is only listed as missing, and the per-layer
metrics built on it silently drop out of the benchmark, so a rename has
to fail here instead.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest
from conftest import RP2

import vdwcomplex
from vdwcomplex import _kernels
from vdwcomplex.certify import _reduced_betti

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "module_name, attr",
    [pytest.param(module, attr, id=name) for module, attr, name in _load_spans().TARGETS],
)
def test_trace_target_resolves(module_name, attr):
    owner, _, method = attr.rpartition(".")
    holder = importlib.import_module(module_name)
    if owner:
        holder = getattr(holder, owner)
        # the tracer rewraps the function under the classmethod
        assert isinstance(holder.__dict__[method], classmethod)
    assert callable(getattr(holder, method))


def test_kernels_named_pure():
    assert vdwcomplex.implementation_name() == "pure"


def test_mask_attributes_read_by_benchmark():
    # spans._note reads MonomialIdeal.generator_masks; run.py reads SimplicialComplex.facet_masks
    cx = vdwcomplex.vdw_complex(7, 2)
    ideal = vdwcomplex.dual_ideal(cx)
    for masks in (cx.facet_masks, ideal.generator_masks):
        assert isinstance(masks, tuple) and masks
        assert all(type(m) is int for m in masks)


def test_vd_subproblems_from_memo_growth():
    # spans._vd_prepare and spans._note count the entries a call adds to the memo
    spans = _load_spans()
    cx = vdwcomplex.vdw_complex(30, 1)
    kwargs = {}
    state = spans._vd_prepare((cx,), kwargs)
    result = vdwcomplex.is_vertex_decomposable(cx, **kwargs)
    note = spans._note("decompose.is_vertex_decomposable", (cx,), kwargs, result, state)
    assert note == {"subproblems": 59}


def test_rank_kernels_get_dense_rows(monkeypatch):
    # spans._cells reads len(args[0]) * args[1], and rank_mod_p's p as args[2]
    calls = []
    for name in ("rank_bareiss", "rank_mod_p"):

        def recording(*args, _name=name, _kernel=getattr(_kernels, name), **kwargs):
            calls.append((_name, args, kwargs))
            return _kernel(*args, **kwargs)

        monkeypatch.setattr(_kernels, name, recording)
    # the reference path hands every boundary map of RP^2 to the dense kernels
    for char, name, tail in ((0, "rank_bareiss", ()), (3, "rank_mod_p", (3,))):
        calls.clear()
        _reduced_betti(RP2.facet_masks, char)
        shapes = []
        for called, (rows, ncols, *rest), kwargs in calls:
            assert called == name and tuple(rest) == tail and not kwargs
            assert isinstance(rows, list) and isinstance(ncols, int)
            assert all(isinstance(row, list) and len(row) == ncols for row in rows)
            assert all(type(x) is int for row in rows for x in row)
            shapes.append((len(rows), ncols))
        # RP^2 has 1, 6, 15 and 10 faces with 0, 1, 2 and 3 vertices
        assert shapes == [(1, 6), (6, 15), (15, 10)]
