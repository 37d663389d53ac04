"""Kernel selection: compiled extension when available, pure Python otherwise.

The compiled module ``_speedups`` is optional; set ``VDWCOMPLEX_PURE=1``
to force the pure kernels even when it is installed.  Both
implementations are exact and produce identical results (including
search order and node accounting), so the choice only affects speed.
``rank_mod_2_masks`` has no compiled twin: it eliminates int bitmasks,
which are already word-parallel in pure Python.
"""

from __future__ import annotations

import os

from vdwcomplex._kernels import pure as _pure
from vdwcomplex._kernels.pure import EXHAUSTED, FOUND, NOT_SHELLABLE, rank_mod_2_masks

_compiled = None
if os.environ.get("VDWCOMPLEX_PURE") != "1":
    try:
        from vdwcomplex._kernels import _speedups as _compiled
    except ImportError:
        _compiled = None

# the compiled search packs facet-subset state into one machine word
_COMPILED_MAX_FACETS = 64
_COMPILED_MAX_PRIME = 1 << 31


def implementation_name() -> str:
    return "compiled" if _compiled is not None else "pure"


def rank_bareiss(rows, ncols):
    impl = _compiled if _compiled is not None else _pure
    return impl.rank_bareiss(rows, ncols)


def rank_mod_p(rows, ncols, p):
    if _compiled is not None and p < _COMPILED_MAX_PRIME:
        return _compiled.rank_mod_p(rows, ncols, p)
    return _pure.rank_mod_p(rows, ncols, p)


def search_shelling(masks, budget):
    if (
        _compiled is not None
        and len(masks) <= _COMPILED_MAX_FACETS
        and all(m < (1 << 64) for m in masks)
    ):
        return _compiled.search_shelling(masks, budget)
    return _pure.search_shelling(masks, budget)
