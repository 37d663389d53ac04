"""Command-line front end.

Subcommands: generate, classify, sweep, inspect, verify-shelling.

Exit codes (stable): 0 success / agreement, 1 disagreement (or invalid
shelling order), 2 usage error, 3 decision budget exhausted, 4 internal
error (any other exception, so a crash never reads as a verdict).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import time
import traceback
import warnings
from concurrent.futures import ProcessPoolExecutor
from functools import partial

from vdwcomplex.certify import field_label, parse_field, verify_shelling
from vdwcomplex.complexes import MAX_VERTICES, SimplicialComplex
from vdwcomplex.decompose import DEFAULT_SHELLING_BUDGET, _Column, _shellable, _vertex_decomposable
from vdwcomplex.homology import cohen_macaulay_by_field
from vdwcomplex.ideals import LinearPresentationResult, dual_ideal, taylor_syzygies
from vdwcomplex.vdw import _validate_params as _validate_vdw_params
from vdwcomplex.vdw import (
    check_max_increment_overlap,
    check_odd_increment_overlap,
    classify_closed_form,
    progression_facets,
    vdw_complex,
)

EXIT_OK = 0
EXIT_DISAGREE = 1
EXIT_USAGE = 2
EXIT_UNDECIDED = 3
EXIT_ERROR = 4

CHECKS = ("vd", "shellable", "cm", "linpres")
SWEEP_LIMITS = {"cm": 41}  # every other check runs to the vertex bound

def _parse_checks(text: str) -> list[str]:
    checks = [c.strip() for c in text.split(",") if c.strip()]
    for c in checks:
        if c not in CHECKS:
            raise ValueError(f"unknown check {c!r}; choose from {','.join(CHECKS)}")
    if not checks:
        raise ValueError("no checks selected")
    return checks


def _parse_field_args(values) -> list[int]:
    if not values:
        return [0, 2]
    chars = []
    for v in values:
        char = parse_field(v)
        if char not in chars:
            chars.append(char)
    return chars


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {value}")
    return value


def _validate_params(n: int, k: int) -> None:
    _validate_vdw_params(n, k)
    if n > MAX_VERTICES:
        raise ValueError(f"n must be at most {MAX_VERTICES}, got {n}")


def compute_record(
    n: int,
    k: int,
    checks,
    field_chars,
    budget: int = DEFAULT_SHELLING_BUDGET,
    with_timings: bool = True,
    column: _Column | None = None,
) -> dict:
    """Run the selected deciders on vdW(n, k) against the closed form.

    The record carries a computed flag per selected check (None when a
    search was undecided), the predicted flags, and ``agreement`` over
    every selected check.  Linear presentation is compared with the
    predicted Cohen-Macaulayness: for vdW(n, k) the two coincide, by
    Eagon-Reiner in one direction and the paper's obstruction in the
    other.  The selected fields share one Reisner walk
    (:func:`cohen_macaulay_by_field`), so each ``cm_*`` key's timing is
    that walk's.

    ``column``, the sweep column k (see :class:`_Column`), last held
    vdW(n - 1, k); a fresh one is used when it is None.  It grows vdW(n, k)
    before any ``ms`` starts.  Its two carried verdicts, VD and the (S2)
    witness, each fold in the new facets and are decided once per record,
    in the ``ms`` of the first check that reads them.  VD is read by ``vd``
    and by ``shellable``, which hands the result and the column to
    :func:`_shellable`: a vertex-decomposable complex is shelled in its
    tree's order, walking only the nodes the previous record's replay did
    not cover.  The (S2) witness (``column.s2_witness``) is read by linpres
    always, and by shellable only with no shedding tree.
    """
    if column is None:
        column = _Column(k)
    elif column.k != k:
        raise ValueError(f"column k = {column.k} grows by one vertex, not to vdW({n}, {k})")
    pred = classify_closed_form(n, k)
    rec: dict = {
        "n": n,
        "k": k,
        "pred_vd": pred.vertex_decomposable,
        "pred_shellable": pred.shellable,
        "pred_cm": pred.cohen_macaulay,
    }
    cx = column.grow(n)
    # (record keys, predicted flag, decider returning one result per key);
    # an undecided None never agrees
    rows = []
    if "vd" in checks:
        rows.append((["vd"], pred.vertex_decomposable, lambda: [_vertex_decomposable(column)]))
    if "shellable" in checks:
        shellable = lambda: [
            _shellable(cx, budget, _vertex_decomposable(column), column.s2_witness, column)
        ]
        rows.append((["shellable"], pred.shellable, shellable))
    if "cm" in checks:  # one Reisner walk for every field
        keys = [_cm_key(c) for c in field_chars]
        rows.append((keys, pred.cohen_macaulay, lambda: cohen_macaulay_by_field(cx, field_chars)))
    if "linpres" in checks:
        presented = lambda: [LinearPresentationResult(column.s2_witness() is None)]
        rows.append((["linearly_presented"], pred.cohen_macaulay, presented))  # (S2) on cx, no ideal
    ms: dict = {}
    for keys, _, decide in rows:
        t0 = time.perf_counter()
        results = decide()
        elapsed = round((time.perf_counter() - t0) * 1000.0, 3)
        for key, result in zip(keys, results):
            rec[key] = result.value
            ms[key] = elapsed
    rec["agreement"] = all(rec[key] == predicted for keys, predicted, _ in rows for key in keys)
    if with_timings:
        rec["ms"] = ms
    return rec


def _sweep_column(k: int, n_max: int, checks, field_chars, budget: int, with_timings: bool) -> list:
    """The records of vdW(n, k) for n = k + 1 .. n_max, on one :class:`_Column`.

    The facets of vdW(n, k) that avoid n are those of vdW(n - 1, k), in
    the same order, so the column builds, validates and folds only the
    facets through n, and holds exactly what each record's own search and
    (S2) walk would build.
    """
    column = _Column(k)
    return [
        compute_record(n, k, checks, field_chars, budget, with_timings, column)
        for n in range(k + 1, n_max + 1)
    ]


def _cm_key(char: int) -> str:
    return "cm_" + field_label(char).replace("Fp:", "f").lower()  # cm_q, cm_f2, cm_f3, ...


def _columns(field_chars) -> list[str]:
    """The record keys in column order, with a verdict and a timing column per odd-prime field."""
    odd = [_cm_key(c) for c in field_chars if c not in (0, 2)]
    verdicts = ["vd", "shellable", "cm_q", "cm_f2", *odd, "linearly_presented"]
    timings = ["ms_" + v for v in verdicts]
    return ["n", "k", "pred_vd", "pred_shellable", "pred_cm", *verdicts, "agreement", *timings]


def _record_is_undecided(rec: dict) -> bool:
    return "shellable" in rec and rec["shellable"] is None


def _cell(value) -> str:
    if value is None:
        return "undecided"
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _records_to_csv(records, columns) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for rec in records:
        cells = {**rec, **{"ms_" + key: ms for key, ms in rec.get("ms", {}).items()}}
        writer.writerow([_cell(cells[col]) if col in cells else "" for col in columns])
    return buf.getvalue()


def _records_to_text(records, columns) -> str:
    shown = [c for c in columns if not c.startswith("ms_")]
    rows = [shown]
    for rec in records:
        rows.append([_cell(rec[c]) if c in rec else "-" for c in shown])
    widths = [max(len(r[i]) for r in rows) for i in range(len(shown))]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in rows]
    return "\n".join(lines) + "\n"


def _render(fmt: str, records, field_chars, data) -> str:
    """``records`` as a CSV or text table, or ``data`` as JSON."""
    if fmt == "json":
        return json.dumps(data, separators=(",", ":")) + "\n"
    render = _records_to_csv if fmt == "csv" else _records_to_text
    return render(records, _columns(field_chars))


def _emit(text: str, output: str | None) -> None:
    if output:
        with open(output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# -- subcommands -----------------------------------------------------


def cmd_generate(args) -> int:
    _validate_params(args.n, args.k)
    if args.format == "text":
        facets = progression_facets(args.n, args.k)
        text = "\n".join(" ".join(map(str, f.vertices)) for f in facets) + "\n"
    elif args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["start", "increment", "vertices"])
        for f in progression_facets(args.n, args.k):
            writer.writerow([f.start, f.increment, " ".join(map(str, f.vertices))])
        text = buf.getvalue()
    else:
        text = vdw_complex(args.n, args.k).to_json() + "\n"
    _emit(text, args.output)
    return EXIT_OK


def cmd_classify(args) -> int:
    _validate_params(args.n, args.k)
    checks = _parse_checks(args.checks)
    field_chars = _parse_field_args(args.field)
    rec = compute_record(
        args.n, args.k, checks, field_chars, args.budget, with_timings=not args.no_timings
    )
    _emit(_render(args.format, [rec], field_chars, rec), args.output)
    if _record_is_undecided(rec):
        return EXIT_UNDECIDED
    return EXIT_OK if rec["agreement"] else EXIT_DISAGREE


def cmd_sweep(args) -> int:
    if not 1 <= args.n_max <= MAX_VERTICES:
        raise ValueError(f"n_max must be in 1..{MAX_VERTICES}, got {args.n_max}")
    if args.jobs < 1:
        raise ValueError(f"--jobs must be at least 1, got {args.jobs}")
    checks = _parse_checks(args.checks)
    if not args.force:
        for check in checks:
            if args.n_max > SWEEP_LIMITS.get(check, MAX_VERTICES):
                raise ValueError(
                    f"check {check!r} is limited to n_max <= {SWEEP_LIMITS[check]} "
                    f"(use --force to override)"
                )
    field_chars = _parse_field_args(args.field)
    column = partial(
        _sweep_column,
        n_max=args.n_max,
        checks=checks,
        field_chars=field_chars,
        budget=args.budget,
        with_timings=not args.no_timings,
    )
    ks = range(1, args.n_max)
    workers = min(args.jobs, len(ks), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            columns = list(pool.map(column, ks))
    else:
        columns = map(column, ks)
    records = sorted((r for col in columns for r in col), key=lambda r: (r["n"], r["k"]))
    _emit(_render(args.format, records, field_chars, records), args.output)
    agree = sum(1 for r in records if r["agreement"])
    sys.stdout.write(f"sweep n<={args.n_max}: {agree}/{len(records)} records agree\n")
    if any(_record_is_undecided(r) for r in records):
        return EXIT_UNDECIDED
    return EXIT_OK if agree == len(records) else EXIT_DISAGREE


def cmd_inspect(args) -> int:
    _validate_params(args.n, args.k)
    cx = vdw_complex(args.n, args.k)
    if args.what in ("link", "deletion"):
        if args.vertex is None:
            raise ValueError(f"inspect {args.what} needs a vertex argument")
        sub = cx.link(args.vertex) if args.what == "link" else cx.deletion(args.vertex)
        text = sub.to_json() + "\n"
    elif args.vertex is not None:
        raise ValueError(f"inspect {args.what} takes no vertex argument")
    elif args.what == "dual":
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            dual = cx.alexander_dual()
        for warning in caught:  # the message, without Python's source location
            sys.stderr.write(f"warning: {warning.message}\n")
        text = dual.to_json() + "\n"
    elif args.what == "ideal":
        text = dual_ideal(cx).to_json() + "\n"
    elif args.what == "syzygies":
        syz = taylor_syzygies(dual_ideal(cx))
        text = json.dumps([s.to_dict() for s in syz], separators=(",", ":")) + "\n"
    else:  # lemmas
        if args.k == 2:
            check = check_odd_increment_overlap(args.n)
        elif args.k > 2:
            check = check_max_increment_overlap(args.n, args.k)
        else:
            raise ValueError("no overlap bound applies for k = 1")
        data = check.to_dict()
        data["increments"] = sorted({f.increment for f in progression_facets(args.n, args.k)})
        text = json.dumps(data, separators=(",", ":")) + "\n"
    _emit(text, args.output)
    return EXIT_OK


def cmd_verify_shelling(args) -> int:
    with open(args.complex_file) as fh:
        cx = SimplicialComplex.from_dict(json.load(fh))
    with open(args.order_file) as fh:
        order = json.load(fh)
    if isinstance(order, dict):
        if "order" not in order:
            raise ValueError('an order object must have the key "order"')
        order = order["order"]
    if not isinstance(order, list) or not all(isinstance(f, list) for f in order):
        raise ValueError("a shelling order must be a list of facets")
    valid = verify_shelling(cx, order)
    _emit(json.dumps({"valid": valid}, separators=(",", ":")) + "\n", args.output)
    return EXIT_OK if valid else EXIT_DISAGREE


# -- parser ----------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    # Option groups, so that each subcommand takes exactly the options it reads.
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--output", metavar="PATH", help="write output to PATH instead of stdout")
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument(
        "--format", choices=("json", "csv", "text"), default="json", help="output format"
    )
    decide = argparse.ArgumentParser(add_help=False)
    decide.add_argument(
        "--field",
        action="append",
        metavar="F",
        help="coefficient field: Q, F2 or Fp:<p>; repeatable (default: Q and F2)",
    )
    decide.add_argument(
        "--budget",
        type=_nonnegative_int,
        default=DEFAULT_SHELLING_BUDGET,
        metavar="NODES",
        help="node budget for the shellability search",
    )
    jobs = argparse.ArgumentParser(add_help=False)
    jobs.add_argument("--jobs", type=int, default=1, metavar="N", help="parallel workers")

    parser = argparse.ArgumentParser(
        prog="vdw", description="Exact combinatorics of van der Waerden complexes vdW(n, k)."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", parents=[output, fmt], help="emit the facet list of vdW(n, k)")
    p.add_argument("n", type=int)
    p.add_argument("k", type=int)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser(
        "classify",
        parents=[output, fmt, decide],
        help="run the deciders against the closed-form predicate",
    )
    p.add_argument("n", type=int)
    p.add_argument("k", type=int)
    p.add_argument(
        "--checks",
        default="vd,shellable,cm,linpres",
        metavar="LIST",
        help="comma-separated subset of vd,shellable,cm,linpres",
    )
    p.add_argument("--no-timings", action="store_true", help="omit timings (deterministic output)")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser(
        "sweep",
        parents=[output, fmt, decide, jobs],
        help="classify every (n, k) with 0 < k < n <= n_max",
    )
    p.add_argument("n_max", type=int)
    p.add_argument(
        "--checks",
        default="vd,shellable,cm,linpres",
        metavar="LIST",
        help="comma-separated subset of vd,shellable,cm,linpres",
    )
    p.add_argument("--no-timings", action="store_true", help="omit timings (deterministic output)")
    p.add_argument("--force", action="store_true", help="override the per-check n_max limits")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser(
        "inspect", parents=[output], help="print a derived object of vdW(n, k) as JSON"
    )
    p.add_argument("n", type=int)
    p.add_argument("k", type=int)
    p.add_argument("what", choices=("link", "deletion", "dual", "ideal", "syzygies", "lemmas"))
    p.add_argument("vertex", nargs="?", type=int, default=None)
    p.set_defaults(func=cmd_inspect)

    p = sub.add_parser(
        "verify-shelling",
        parents=[output],
        help="check a facet order (JSON file) against a complex (JSON file)",
    )
    p.add_argument("complex_file")
    p.add_argument("order_file")
    p.set_defaults(func=cmd_verify_shelling)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except Exception as exc:  # a crash, not a verdict; KeyboardInterrupt is not an Exception
        traceback.print_exc()
        sys.stderr.write(f"error: internal: {type(exc).__name__}: {exc}\n")
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
