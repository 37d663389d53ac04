"""Benchmark of the vdwcomplex deciders, end to end and per layer.

    python3 perfbench/run.py --workload vdw-grid --seed 1 --seconds 40 --trace 0

Workloads are described in README.md next to this file.  The run imports
the package from ``src/`` of the checkout it sits in, builds the inputs
from ``--seed``, repeats passes over them until ``--seconds`` of passes
have been measured, checks every verdict outside the timed region, and
prints one JSON object as its last line of standard output.  With
``--trace 0`` the metrics are end to end; with ``--trace 1`` the
package's public functions are wrapped (see spans.py) and the metrics are
per layer.  Spans, the environment and every metric are written under
``.perfbench_out/`` of the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import random
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# set-up is repeated and its median reported, so one slow import does not
# decide the number
SETUP_REPEATS = 7

CHECKS = ("vd_s", "shellable_s", "cm_q_s", "cm_f2_s", "linpres_s")


# -- machine speed --------------------------------------------------------

# Other load on the host slows every instruction of a run, by a third or
# more, for seconds up to minutes. Each timed stretch is therefore scaled
# to a fixed machine speed: a fixed piece of work in the style of the
# package's kernels is timed next to it, and the stretch is reported as it
# would take on a machine where that work takes REFERENCE_S.
REFERENCE_S = 0.001
_REF_MATRIX = [[(i * 7 + j * 3) % 5 - 2 for j in range(14)] for i in range(10)]
_REF_MASKS = [(i * 2654435761) & 0x3FF for i in range(1, 100)]


def reference_work() -> int:
    """Fraction-free elimination on small integers, bitmask tests, dict and set traffic."""
    m = [row[:] for row in _REF_MATRIX]
    prev, r = 1, 0
    for c in range(14):
        piv = next((i for i in range(r, 10) if m[i][c]), -1)
        if piv < 0:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(r + 1, 10):
            f = m[i][c]
            for j in range(c + 1, 14):
                m[i][j] = (m[i][j] * m[r][c] - f * m[r][j]) // prev
            m[i][c] = 0
        prev, r = m[r][c], r + 1
        if r == 10:
            break
    seen = set()
    table = {}
    for a in _REF_MASKS:
        for b in _REF_MASKS:
            u = a | b
            if u not in seen and (a & ~b).bit_count() == 1:
                seen.add(u)
                table[(a, b)] = u.bit_count()
    return r + len(seen) + len(table)


class Speed:
    """Reference timings taken through a stretch of work."""

    def __init__(self) -> None:
        self.points: list[float] = []
        self.spent = 0.0  # time taken by the reference work itself

    def sample(self) -> int:
        """Add a point, the median of three timings; returns its index.

        The median keeps the point from depending on whether the first
        run found the reference work's code and data in the caches.
        """
        runs = []
        for _ in range(3):
            t0 = time.perf_counter()
            reference_work()
            runs.append(time.perf_counter() - t0)
        self.spent += sum(runs)
        self.points.append(statistics.median(runs))
        return len(self.points) - 1

    @contextlib.contextmanager
    def ticking(self, interval: float = 0.1):
        """Add a point every ``interval`` seconds while the block runs.

        For one long call, such as a whole sweep, that cannot be split.
        The timer handler runs between bytecodes of the main thread.
        """

        def tick(signum, frame):
            self.sample()

        previous = signal.signal(signal.SIGALRM, tick)
        signal.setitimer(signal.ITIMER_REAL, interval, interval)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def scale(self, lo: int = 0, hi: int | None = None) -> float:
        """Factor that takes the time spent while points[lo:hi] were taken to
        the fixed machine speed."""
        return REFERENCE_S / statistics.fmean(self.points[lo:hi])

    def scaled(self, times):
        """Per-item times at the fixed speed; each item names its points in "_points"."""
        return [
            {k: v * self.scale(*item["_points"]) for k, v in item.items() if k != "_points"}
            for item in times
        ]


def fresh_import(modules):
    """Import the package from scratch, as a new process would."""
    for name in [m for m in sys.modules if m == "vdwcomplex" or m.startswith("vdwcomplex.")]:
        del sys.modules[name]
    vc = importlib.import_module("vdwcomplex")
    for name in modules:
        importlib.import_module(name)
    return vc


# -- vdw-grid ----------------------------------------------------------

# One sweep per check, in-process through the CLI, each at the n bound
# where it takes about 1-2 s with the pure kernels on 2 CPUs: (CLI flags,
# bound, record field, closed-form flag it must equal).  The dual ideal
# is linearly presented exactly when vdW(n, k) is Cohen-Macaulay.
SWEEPS = {
    "cm_q_s": (["--checks", "cm", "--field", "Q"], 9, "cm_q", "cohen_macaulay"),
    "cm_f2_s": (["--checks", "cm", "--field", "F2"], 10, "cm_f2", "cohen_macaulay"),
    "vd_s": (["--checks", "vd"], 30, "vd", "vertex_decomposable"),
    "shellable_s": (["--checks", "shellable"], 11, "shellable", "shellable"),
    "linpres_s": (["--checks", "linpres"], 18, "linearly_presented", "cohen_macaulay"),
}


class VdwGrid:
    """Every (n, k) with 0 < k < n <= bound, one `vdw sweep` per check."""

    modules = ("vdwcomplex.cli",)

    def build(self, vc, seed: int) -> None:
        self.cli = sys.modules["vdwcomplex.cli"]
        self.expected = {
            metric: {
                (n, k): getattr(vc.classify_closed_form(n, k), flag)
                for n in range(2, n_max + 1)
                for k in range(1, n)
            }
            for metric, (_, n_max, _, flag) in SWEEPS.items()
        }
        # the seed only fixes the order of the sweeps within a pass
        self.order = list(SWEEPS)
        random.Random(seed).shuffle(self.order)
        self.sample_masks = [list(vc.vdw_complex(n, k).facet_masks) for n, k in ((8, 1), (8, 2), (9, 3))]

    def run_pass(self, speed, tracer=None):
        times = []
        outputs = {}
        for metric in self.order:
            first = speed.sample()
            flags, n_max, _, _ = SWEEPS[metric]
            path = OUT / f"sweep-{metric[:-2]}.json"
            path.unlink(missing_ok=True)
            argv = ["sweep", str(n_max), *flags, "--force", "--no-timings", "--output", str(path)]
            stdout = io.StringIO()
            spent = speed.spent
            t0 = time.perf_counter()
            try:
                # spans would count the ticks as layer time, so a traced pass does not tick
                ticking = speed.ticking() if tracer is None else contextlib.nullcontext()
                with contextlib.redirect_stdout(stdout), ticking:
                    rc = self.cli.main(argv)
            except Exception as exc:  # a crash is a failed verdict for every record
                rc = repr(exc)
            elapsed = time.perf_counter() - t0 - (speed.spent - spent)
            last = speed.sample()
            times.append({metric: elapsed, "wall_s": elapsed, "_points": (first, last + 1)})
            outputs[metric] = (rc, stdout.getvalue(), path)
        return times, outputs

    def verdicts(self, outputs):
        """{(check, n, k): verdict} read back from the sweep outputs."""
        found = {}
        for metric, (_, _, path) in outputs.items():
            if not path.is_file():
                continue
            key = SWEEPS[metric][2]
            for rec in json.loads(path.read_text()):
                found[(metric, rec["n"], rec["k"])] = rec.get(key)
        return found

    def check(self, vc, outputs):
        """(attempted, failed, problems) for one pass."""
        found = self.verdicts(outputs)
        attempted = failed = 0
        problems = [f"sweep {m[:-2]} exited with {rc}" for m, (rc, _, _) in outputs.items() if rc != 0]
        for metric, table in self.expected.items():
            for (n, k), want in table.items():
                attempted += 1
                got = found.get((metric, n, k), "missing")
                if got is not want:  # None (undecided) never passes
                    failed += 1
                    problems.append(f"{metric[:-2]} vdW({n},{k}): got {got}, expected {want}")
        return attempted, failed, problems


# -- random-pure -------------------------------------------------------

# Pairs cycle through every (vertices, facet size, facet count) cell, so a
# seed changes the shapes but not the mix of sizes: an exhaustive
# negative costs about twice as much per extra facet, and a random mix
# would make the pass time depend on how many large ones a seed drew.
RANDOM_CELLS = [
    (n, size, count)
    for n in (8, 9, 10)
    for size in (3, 4)  # dimension 2 or 3
    for count in range(10, 14)
]
RANDOM_PAIRS = 40 * len(RANDOM_CELLS)


def _singles(f: int, placed) -> int:
    """Vertices x of f with f minus {x} inside some placed facet."""
    out = 0
    for g in placed:
        diff = f & ~g
        if diff & (diff - 1) == 0:
            out |= diff
    return out


def _extends_shelling(f: int, placed) -> bool:
    # pairwise shelling condition for appending f after the placed facets
    singles = _singles(f, placed)
    return all(f & ~g & singles for g in placed)


def grow_shellable(rng: random.Random, n: int, size: int, count: int) -> list[int]:
    """Facet masks whose order is a shelling, grown one facet at a time."""
    while True:
        order = [sum(1 << v for v in rng.sample(range(n), size))]
        for _ in range(50 * count):
            g = rng.choice(order)
            drop = rng.choice([v for v in range(n) if g >> v & 1])
            add = rng.choice([v for v in range(n) if not g >> v & 1])
            f = g & ~(1 << drop) | 1 << add
            if f not in order and _extends_shelling(f, order):
                order.append(f)
                if len(order) == count:
                    return order


def _vertices(mask: int) -> tuple[int, ...]:
    return tuple(v + 1 for v in range(mask.bit_length()) if mask >> v & 1)


def random_pure_facets(seed: int):
    """[(n, facets, growth order or None)]: grown complexes, each followed by
    the same complex with one facet replaced by a random face."""
    rng = random.Random(seed)
    out = []
    for i in range(RANDOM_PAIRS):
        n, size, count = RANDOM_CELLS[i % len(RANDOM_CELLS)]
        grown = [_vertices(m) for m in grow_shellable(rng, n, size, count)]
        out.append((n, grown, grown))
        variant = list(grown)
        while True:
            face = tuple(sorted(rng.sample(range(1, n + 1), size)))
            if face not in variant:
                break
        variant[rng.randrange(count)] = face
        out.append((n, variant, None))
    return out


def _link(cx, face):
    for v in face:
        cx = cx.link(v)
    return cx


class RandomPure:
    """Seeded random pure complexes through the public decider API."""

    modules = ()

    def build(self, vc, seed: int) -> None:
        self.vc = vc
        self.items = [
            (vc.SimplicialComplex.from_facets(n, facets), growth)
            for n, facets, growth in random_pure_facets(seed)
        ]
        self.sample_masks = [list(cx.facet_masks) for cx, _ in self.items[:20]]

    def run_pass(self, speed, tracer=None):
        vc = self.vc
        calls = (
            ("vd_s", lambda cx: vc.is_vertex_decomposable(cx)),
            ("shellable_s", lambda cx: vc.is_shellable(cx)),
            ("cm_q_s", lambda cx: vc.is_cohen_macaulay(cx, "Q")),
            ("cm_f2_s", lambda cx: vc.is_cohen_macaulay(cx, "F2")),
            ("linpres_s", lambda cx: vc.is_linearly_presented(vc.dual_ideal(cx))),
        )
        clock = time.perf_counter
        times = []
        outputs = []
        for index, (cx, _) in enumerate(self.items):
            if index % 32 == 0:
                at = speed.sample()
            if tracer is not None:
                tracer.item = index
            row = {}
            spent = {}
            start = clock()
            for metric, call in calls:
                t0 = clock()
                try:
                    row[metric] = call(cx)
                except Exception as exc:  # counted as a failed verdict
                    row[metric] = exc
                spent[metric] = clock() - t0
            spent["wall_s"] = clock() - start
            spent["_points"] = (at, at + 2)
            times.append(spent)
            outputs.append(row)
        speed.sample()
        return times, outputs

    def verdicts(self, outputs):
        """{(complex, check): verdict}, comparable between passes."""
        return {
            (index, metric): repr(r) if isinstance(r, Exception) else getattr(r, "status", r.value)
            for index, row in enumerate(outputs)
            for metric, r in row.items()
        }

    def _cm_witness_replays(self, cx, res, field) -> bool:
        if res.witness_face is None:
            return False
        betti = self.vc.reduced_homology(_link(cx, res.witness_face), field).betti
        return betti.get(res.witness_degree, 0) != 0

    def check(self, vc, outputs):
        attempted = failed = 0
        problems = []
        for index, ((cx, growth), row) in enumerate(zip(self.items, outputs)):
            bad = {m for m, r in row.items() if isinstance(r, Exception)}
            if not bad:
                vd, sh, cm_q, cm_f2, lp = (row[m] for m in CHECKS)
                if vd.value and not vc.verify_shedding_tree(cx, vd.tree):
                    bad.add("vd_s")
                if sh.value is None or (sh.value and not vc.verify_shelling(cx, sh.order)):
                    bad.add("shellable_s")  # undecided counts as failed
                if growth is not None and (sh.value is not True or not vc.verify_shelling(cx, growth)):
                    bad.add("shellable_s")
                for metric, res, field in (("cm_q_s", cm_q, "Q"), ("cm_f2_s", cm_f2, "F2")):
                    if not res.value and not self._cm_witness_replays(cx, res, field):
                        bad.add(metric)
                # VD => shellable => CM over F2 => CM over Q => linearly presented
                chain = [
                    ("vd_s", vd.value),
                    ("shellable_s", sh.value),
                    ("cm_f2_s", cm_f2.value),
                    ("cm_q_s", cm_q.value),
                    ("linpres_s", lp.value),
                ]
                for (_, a), (metric, b) in zip(chain, chain[1:]):
                    if a and b is False:
                        bad.add(metric)
            attempted += len(CHECKS)
            failed += len(bad)
            problems.extend(f"complex {index}: {m[:-2]} failed" for m in sorted(bad))
        return attempted, failed, problems


WORKLOADS = {"vdw-grid": VdwGrid, "random-pure": RandomPure}


# -- checks shared by the workloads -----------------------------------


def _top_boundary(masks):
    """Signed boundary matrix from the top faces to the faces one smaller."""
    size = max(m.bit_count() for m in masks)
    top = sorted({m for m in masks if m.bit_count() == size})
    lower = sorted({m ^ (1 << b) for m in top for b in range(m.bit_length()) if m >> b & 1})
    index = {m: r for r, m in enumerate(lower)}
    rows = [[0] * len(top) for _ in lower]
    for col, m in enumerate(top):
        sign = 1
        for b in range(m.bit_length()):
            if m >> b & 1:
                rows[index[m ^ (1 << b)]][col] = sign
                sign = -sign
    return rows, len(top)


def compiled_parity(sample_masks):
    """(checked, problems) comparing compiled and pure kernels, when compiled exists."""
    try:
        from vdwcomplex._kernels import _speedups, pure
    except ImportError:
        return 0, []
    checked = 0
    problems = []
    for masks in sample_masks:
        rows, ncols = _top_boundary(masks)
        cases = [
            ("rank_bareiss", lambda impl: impl.rank_bareiss(rows, ncols)),
            ("rank_mod_p 2", lambda impl: impl.rank_mod_p(rows, ncols, 2)),
            ("rank_mod_p 101", lambda impl: impl.rank_mod_p(rows, ncols, 101)),
        ]
        if len(masks) <= 64:
            cases.append(("search_shelling", lambda impl: impl.search_shelling(masks, 10**7)))
        for name, case in cases:
            checked += 1
            if case(pure) != case(_speedups):
                problems.append(f"compiled and pure {name} disagree on {len(masks)} facets")
    return checked, problems


def environment(vc, seed: int) -> dict:
    # a checkout without .git still identifies its code by the sources' digest
    digest = hashlib.sha256()
    sources = [*(SRC / "vdwcomplex").rglob("*.py"), *(SRC / "vdwcomplex").rglob("*.pyx")]
    for path in sorted(sources):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    head = ROOT / ".git" / "HEAD"
    commit = None
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else ref[5:]
        else:
            commit = ref
    kernels = vc.implementation_name()
    return {
        "kernels": kernels,
        "kernels_note": (
            "compiled extension not built; results are for the pure kernels"
            if kernels == "pure"
            else "results are for the compiled kernels"
        ),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "seed": seed,
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "VDWCOMPLEX_PURE": os.environ.get("VDWCOMPLEX_PURE"),
    }


def _median_metrics(samples):
    """Median of each metric over a list of {name: (value, unit)}."""
    return {
        name: (statistics.median(s[name][0] for s in samples), unit)
        for name, (_, unit) in samples[0].items()
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "vdwcomplex" / "__init__.py").is_file():
        sys.stderr.write(f"error: no vdwcomplex package under {SRC}; run from a checkout of the repository\n")
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload]()

    setup_s = []
    construct = []
    tracer = None
    for _ in range(SETUP_REPEATS):
        speed = Speed()
        speed.sample()
        t0 = time.perf_counter()
        vc = fresh_import(workload.modules)
        if args.trace:
            tracer = Tracer()
            tracer.install()
            tracer.active = True
        workload.build(vc, args.seed)
        elapsed = time.perf_counter() - t0
        speed.sample()
        setup_s.append(elapsed * speed.scale())
        if tracer is not None:
            tracer.active = False
            construct.append(tracer.layer_metrics().get("complexes.construct_s", (0.0, "s"))[0] * speed.scale())
            tracer.clear()
    # each pass starts from a collected heap, so garbage from set-up or an
    # earlier pass neither costs a pass time nor moves the memory peak
    gc.collect()

    attempted = failed = 0
    problems = []
    reference = None
    pass_metrics = []  # untraced passes: {metric: (seconds at the fixed speed, unit)}
    untraced_walls = []  # the same passes' wall time at the fixed speed
    layer_samples = []  # traced passes
    raw_walls = []  # unscaled, kept in the result file
    scales = []
    measured = 0.0
    # stop before a pass that would overrun --seconds, once each kind of pass ran
    while (
        not untraced_walls
        or (tracer is not None and not layer_samples)
        or measured * (1 + 1 / (len(untraced_walls) + len(layer_samples))) <= args.seconds
    ):
        traced = tracer is not None and len(layer_samples) < len(untraced_walls)
        if traced:
            tracer.clear()
            tracer.active = True
        speed = Speed()
        t0 = time.perf_counter()
        times, outputs = workload.run_pass(speed, tracer if traced else None)
        wall = time.perf_counter() - t0
        measured += wall
        wall -= speed.spent
        scale = speed.scale()
        raw_walls.append(wall)
        scales.append(scale)
        if traced:
            tracer.active = False
            layers = {
                k: (v * scale if unit == "s" else v, unit) for k, (v, unit) in tracer.layer_metrics().items()
            }
            layers["trace.pass_s"] = (wall * scale, "s")
            layer_samples.append(layers)
        else:
            untraced_walls.append(wall * scale)
            items = speed.scaled(times)
            pass_metrics.append({m: (sum(item.get(m, 0.0) for item in items), "s") for m in ("wall_s",) + CHECKS})
        # verdicts are checked outside the timed region: the first pass in
        # full, every later pass by agreement with it
        verdicts = workload.verdicts(outputs)
        if reference is None:
            a, f, p = workload.check(vc, outputs)
            reference = verdicts
        else:
            a = len(reference)
            f = sum(verdicts.get(key, "missing") != want for key, want in reference.items())
            p = [f"{f} verdicts of a later pass differ from the checked pass"] if f else []
        attempted, failed, problems = attempted + a, failed + f, problems + p
        del times, outputs, verdicts
        gc.collect()
    checked, parity = compiled_parity(workload.sample_masks)
    attempted += checked
    failed += len(parity)
    problems += parity

    env = environment(vc, args.seed)
    if tracer is None:
        metrics = _median_metrics(pass_metrics)
        metrics["setup_s"] = (statistics.median(setup_s), "s")
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    else:
        metrics = _median_metrics(layer_samples)
        if "complexes.construct_s" in metrics:
            metrics["complexes.construct_s"] = (statistics.median(construct), "s")
        metrics["trace.overhead_s"] = (metrics["trace.pass_s"][0] - statistics.median(untraced_walls), "s")
        tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "passes": len(untraced_walls) + len(layer_samples),
        "pass_wall_s_unscaled": raw_walls,
        "pass_speed_scale": scales,
        "environment": env,
        "missing_functions": tracer.missing if tracer is not None else [],
        "problems": problems[:100],
        "result": result,
    }
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")
    sys.stderr.write(
        f"{args.workload} seed={args.seed}: {env['kernels']} kernels, Python {env['python']}, "
        f"{env['cpu_count']} CPUs, commit {env['commit']}; {record['passes']} passes, "
        f"{failed}/{attempted} failed\n"
    )
    if tracer is not None and tracer.missing:
        sys.stderr.write("layer metrics absent, functions not found: " + ", ".join(tracer.missing) + "\n")
    for line in problems[:20]:
        sys.stderr.write(f"problem: {line}\n")
    print(json.dumps(result, separators=(",", ":")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
