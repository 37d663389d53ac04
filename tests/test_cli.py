"""CLI behaviour: formats, exit codes, golden outputs, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from vdwcomplex import _kernels, cli, decompose, ideals
from vdwcomplex.cli import main
from vdwcomplex.decompose import ShellingResult


def run_cli(capsys, *argv):
    """Invoke the CLI in-process; returns (exit_code, stdout, stderr)."""
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def _undecided_search(monkeypatch):
    """Make every shellability decision in the CLI run out of budget.

    Every Cohen-Macaulay vdW(n, k) is vertex decomposable, so its shedding
    tree gives the order and no vdW input reaches the search; this keeps
    the "undecided" paths of the CLI covered.
    """

    def undecided(cx, budget, vd, s2_witness, column=None):
        return ShellingResult("undecided", None, budget + 1)

    monkeypatch.setattr(cli, "_shellable", undecided)


class TestGenerate:
    def test_text_lists_progressions(self, capsys):
        code, out, _ = run_cli(capsys, "generate", "5", "2", "--format", "text")
        assert code == 0
        assert out == "1 2 3\n2 3 4\n3 4 5\n1 3 5\n"

    def test_simplex(self, capsys):
        code, out, _ = run_cli(capsys, "generate", "6", "5", "--format", "text")
        assert code == 0
        assert out == "1 2 3 4 5 6\n"

    def test_json_is_canonical(self, capsys):
        code, out, _ = run_cli(capsys, "generate", "5", "2")
        assert code == 0
        assert out == '{"n":5,"facets":[[1,2,3],[1,3,5],[2,3,4],[3,4,5]]}\n'

    def test_csv(self, capsys):
        code, out, _ = run_cli(capsys, "generate", "5", "2", "--format", "csv")
        assert code == 0
        assert out.splitlines()[0] == "start,increment,vertices"
        assert "1,2,1 3 5" in out

    def test_invalid_params_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "generate", "2", "2")
        assert code == 2
        assert err.strip().startswith("error:")
        assert len(err.strip().splitlines()) == 1

    def test_too_many_vertices_exit_2(self, capsys):
        code, out, err = run_cli(capsys, "generate", "65", "2", "--format", "text")
        assert code == 2
        assert out == "" and "at most 64" in err

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "c.json"
        code, out, _ = run_cli(capsys, "generate", "5", "2", "--output", str(target))
        assert code == 0 and out == ""
        assert json.loads(target.read_text())["n"] == 5


class TestClassify:
    def test_negative_case_agrees(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "7", "2", "--no-timings")
        assert code == 0
        rec = json.loads(out)
        assert rec["vd"] is False and rec["shellable"] is False
        assert rec["cm_q"] is False and rec["cm_f2"] is False
        assert rec["linearly_presented"] is False
        assert rec["agreement"] is True

    def test_positive_case_agrees(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "6", "2", "--no-timings")
        assert code == 0
        rec = json.loads(out)
        assert all(rec[k] is True for k in ("vd", "shellable", "cm_q", "cm_f2"))

    def test_boundary_case(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "8", "4", "--no-timings")
        assert code == 0
        rec = json.loads(out)
        assert rec["vd"] is True and rec["agreement"] is True

    def test_shellable_negative_decided_at_n15(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "15", "2", "--checks", "shellable", "--no-timings")
        assert code == 0
        assert '"shellable":false' in out

    @pytest.mark.parametrize("k, shellable", [(2, False), (1, True)])
    def test_shellable_at_n64(self, capsys, monkeypatch, k, shellable):
        # vdW(64, 2) fails (S2) and vdW(64, 1) is certified by its shedding
        # tree; neither the shelling search nor its greedy pass runs on
        # either (the search as a probe once took 30 s on vdW(64, 2))
        def no_search(*args):
            raise AssertionError("the shelling search ran")

        monkeypatch.setattr(_kernels, "search_shelling", no_search)
        monkeypatch.setattr(_kernels, "greedy_shelling", no_search)
        code, out, _ = run_cli(
            capsys, "classify", "64", str(k), "--checks", "shellable", "--no-timings"
        )
        assert code == 0
        rec = json.loads(out)
        assert rec["shellable"] is shellable and rec["agreement"] is True

    def test_budget_exhaustion_exit_3(self, capsys, monkeypatch):
        _undecided_search(monkeypatch)
        code, out, _ = run_cli(
            capsys, "classify", "6", "2", "--checks", "shellable", "--budget", "1", "--no-timings"
        )
        assert code == 3
        assert json.loads(out)["shellable"] is None

    def test_budget_spares_the_shedding_tree(self, capsys):
        # vdW(6, 2) is vertex decomposable: its tree gives the order, no search runs
        code, out, _ = run_cli(
            capsys, "classify", "6", "2", "--checks", "shellable", "--budget", "0", "--no-timings"
        )
        assert code == 0
        assert json.loads(out)["shellable"] is True

    def test_negative_budget_exit_2(self, capsys):
        code, out, err = run_cli(
            capsys, "classify", "6", "2", "--checks", "shellable", "--budget", "-5", "--no-timings"
        )
        assert code == 2
        assert out == "" and "--budget" in err

    def test_budget_zero_is_valid(self, capsys):
        # no search room at all, yet the Reisner test refutes the negative
        code, out, _ = run_cli(
            capsys, "classify", "7", "2", "--checks", "shellable", "--budget", "0", "--no-timings"
        )
        assert code == 0
        assert json.loads(out)["shellable"] is False

    def test_check_subset(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "7", "3", "--checks", "vd", "--no-timings")
        assert code == 0
        rec = json.loads(out)
        assert "shellable" not in rec and "cm_q" not in rec

    def test_unknown_check_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "classify", "5", "2", "--checks", "bogus")
        assert code == 2

    def test_no_check_selected_exit_2(self, capsys):
        code, out, err = run_cli(capsys, "classify", "7", "2", "--checks", ",")
        assert code == 2
        assert out == "" and "no checks selected" in err

    def test_undecided_csv_cell(self, capsys, monkeypatch):
        _undecided_search(monkeypatch)
        code, out, _ = run_cli(
            capsys, "classify", "6", "2", "--checks", "shellable", "--budget", "0", "--format", "csv"
        )
        assert code == 3
        header, row = out.splitlines()
        assert dict(zip(header.split(","), row.split(",")))["shellable"] == "undecided"

    def test_custom_field(self, capsys):
        code, out, _ = run_cli(
            capsys, "classify", "6", "2", "--checks", "cm", "--field", "Fp:5", "--no-timings"
        )
        assert code == 0
        assert json.loads(out)["cm_f5"] is True

    @pytest.mark.parametrize("fmt", ["csv", "text"])
    def test_odd_prime_field_columns(self, capsys, fmt):
        code, out, _ = run_cli(
            capsys, "classify", "7", "2", "--checks", "cm", "--field", "Fp:3", "--format", fmt
        )
        assert code == 0
        header, row = out.splitlines()
        if fmt == "csv":
            cells = dict(zip(header.split(","), row.split(",")))
            columns = list(cells)
            assert columns.index("cm_f3") == columns.index("cm_f2") + 1
            assert columns.index("ms_cm_f3") == columns.index("ms_cm_f2") + 1
            assert float(cells["ms_cm_f3"]) >= 0 and cells["ms_cm_f2"] == ""
        else:
            cells = dict(zip(header.split(), row.split()))
            assert "ms_cm_f3" not in cells
        assert cells["cm_f3"] == "false" and cells["agreement"] == "true"

    def test_odd_prime_fields_keep_requested_order(self, capsys):
        code, out, _ = run_cli(
            capsys, "classify", "6", "2", "--checks", "cm", "--no-timings", "--format", "csv",
            "--field", "Fp:5", "--field", "Q", "--field", "Fp:3",
        )
        assert code == 0
        header, row = out.splitlines()
        assert header == (
            "n,k,pred_vd,pred_shellable,pred_cm,vd,shellable,cm_q,cm_f2,cm_f5,cm_f3,"
            "linearly_presented,agreement,ms_vd,ms_shellable,ms_cm_q,ms_cm_f2,ms_cm_f5,ms_cm_f3,"
            "ms_linearly_presented"
        )
        assert row == "6,2,true,true,true,,,true,,true,true,,true,,,,,,,"

    def test_large_prime_field(self, capsys):
        code, out, _ = run_cli(
            capsys, "classify", "5", "2", "--checks", "cm", "--no-timings",
            "--field", "Fp:1000000000000000003",
        )
        assert code == 0
        assert json.loads(out)["cm_f1000000000000000003"] is True

    def test_shellable_above_recursion_limit(self, capsys):
        code, out, _ = run_cli(
            capsys, "classify", "50", "1", "--checks", "shellable", "--no-timings"
        )
        assert code == 0
        assert json.loads(out)["shellable"] is True

    def test_timings_present_by_default(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "5", "2", "--checks", "vd")
        rec = json.loads(out)
        assert "ms" in rec and "vd" in rec["ms"]

    def test_fields_share_one_cm_walk(self, capsys, monkeypatch):
        walks = []
        walk = cli.cohen_macaulay_by_field

        def recording(cx, fields):
            walks.append(list(fields))
            return walk(cx, fields)

        monkeypatch.setattr(cli, "cohen_macaulay_by_field", recording)
        code, out, _ = run_cli(
            capsys, "classify", "8", "2", "--checks", "cm",
            "--field", "Q", "--field", "F2", "--field", "Fp:3",
        )
        assert code == 0 and walks == [[0, 2, 3]]
        rec = json.loads(out)
        assert [rec[key] for key in ("cm_q", "cm_f2", "cm_f3")] == [False] * 3
        # each cm key carries the one walk's time
        assert rec["ms"]["cm_q"] == rec["ms"]["cm_f2"] == rec["ms"]["cm_f3"]


class TestSweep:
    def test_sweep_6_all_true(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "6", "--no-timings")
        assert code == 0
        lines = out.splitlines()
        records = json.loads(lines[0])
        assert len(records) == 15
        assert all(r["agreement"] for r in records)
        assert all(r["vd"] and r["shellable"] and r["cm_q"] and r["cm_f2"] for r in records)
        assert lines[-1] == "sweep n<=6: 15/15 records agree"

    def test_sweep_9_vd_negative_pairs(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "9", "--checks", "vd", "--no-timings")
        assert code == 0
        records = json.loads(out.splitlines()[0])
        non_vd = [(r["n"], r["k"]) for r in records if not r["vd"]]
        assert non_vd == [(7, 2), (7, 3), (8, 2), (8, 3), (9, 2), (9, 3), (9, 4)]

    def test_sweep_1_empty(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "1")
        assert code == 0
        assert json.loads(out.splitlines()[0]) == []

    @pytest.mark.parametrize("check", ["vd", "shellable", "linpres"])
    def test_limit_enforced_exit_2(self, capsys, check):
        # only cm has a sweep limit; the others stop at the vertex bound
        code, _, err = run_cli(capsys, "sweep", "65", "--checks", check)
        assert code == 2
        assert "n_max must be in 1..64" in err

    def test_cm_limit_enforced_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "42", "--checks", "cm")
        assert code == 2
        assert "--force" in err

    def test_cm_sweep_11_within_limit(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "11", "--checks", "cm", "--no-timings")
        assert code == 0
        records = json.loads(out.splitlines()[0])
        assert len(records) == 55
        assert all(r["agreement"] for r in records)

    def test_cm_sweep_21_over_q_needs_no_bareiss(self, capsys, monkeypatch, tmp_path):
        # unit pivots decide every rational rank the mod-2 filter leaves open
        calls = []
        bareiss = _kernels.rank_bareiss

        def counting(rows, ncols):
            calls.append((len(rows), ncols))
            return bareiss(rows, ncols)

        monkeypatch.setattr(_kernels, "rank_bareiss", counting)
        out_file = tmp_path / "sweep.json"
        code, out, _ = run_cli(
            capsys, "sweep", "21", "--checks", "cm", "--field", "Q", "--no-timings",
            "--output", str(out_file),
        )
        assert code == 0 and out == "sweep n<=21: 210/210 records agree\n"
        assert calls == []

    def test_shellable_sweep_16_within_limit(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "16", "--checks", "shellable", "--no-timings")
        assert code == 0
        records = json.loads(out.splitlines()[0])
        assert len(records) == 120
        assert all(r["agreement"] for r in records)

    def test_above_vertex_bound_exit_2_before_any_record(self, capsys, monkeypatch):
        def no_record(*args):
            raise AssertionError("a record was computed")

        monkeypatch.setattr(cli, "compute_record", no_record)
        code, out, err = run_cli(capsys, "sweep", "65", "--checks", "linpres", "--force")
        assert code == 2
        assert out == "" and "n_max must be in 1..64" in err

    def test_linpres_sweep_24_within_limit(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "24", "--checks", "linpres", "--no-timings")
        assert code == 0
        records = json.loads(out.splitlines()[0])
        assert len(records) == 276
        assert all(r["agreement"] for r in records)
        assert any(r["linearly_presented"] is False for r in records)

    def test_wrong_linpres_verdict_disagrees(self, capsys, monkeypatch):
        def never_a_witness(column):
            return None

        monkeypatch.setattr(decompose._Column, "s2_witness", never_a_witness)
        code, out, _ = run_cli(capsys, "sweep", "7", "--checks", "linpres", "--no-timings")
        assert code == 1
        records = json.loads(out.splitlines()[0])
        assert [(r["n"], r["k"]) for r in records if not r["agreement"]] == [(7, 2), (7, 3)]

    def test_csv_column_order(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "4", "--format", "csv", "--no-timings")
        assert code == 0
        header = out.splitlines()[0]
        assert header == (
            "n,k,pred_vd,pred_shellable,pred_cm,vd,shellable,cm_q,cm_f2,"
            "linearly_presented,agreement,ms_vd,ms_shellable,ms_cm_q,ms_cm_f2,"
            "ms_linearly_presented"
        )

    def test_deterministic_output(self, capsys):
        _, first, _ = run_cli(capsys, "sweep", "5", "--format", "csv", "--no-timings")
        _, second, _ = run_cli(capsys, "sweep", "5", "--format", "csv", "--no-timings")
        assert first == second

    def test_parallel_matches_serial(self, capsys):
        # columns k = 1 .. 8 of unequal length go through the pool
        _, serial, _ = run_cli(capsys, "sweep", "9", "--format", "csv", "--no-timings")
        _, parallel, _ = run_cli(
            capsys, "sweep", "9", "--format", "csv", "--no-timings", "--jobs", "3"
        )
        assert serial == parallel

    def test_sweep_matches_records_one_at_a_time(self, capsys):
        # each column of a sweep shares one VD memo; fresh memos give the same records
        code, out, _ = run_cli(capsys, "sweep", "20", "--no-timings")
        assert code == 0
        records = json.loads(out.splitlines()[0])
        expected = [
            cli.compute_record(n, k, cli.CHECKS, [0, 2], with_timings=False)
            for n in range(2, 21)
            for k in range(1, n)
        ]
        assert records == expected

    def test_negative_budget_exit_2(self, capsys):
        code, out, err = run_cli(capsys, "sweep", "4", "--checks", "shellable", "--budget", "-1")
        assert code == 2
        assert out == "" and "--budget" in err

    def test_n_max_below_one_exit_2(self, capsys):
        code, out, err = run_cli(capsys, "sweep", "0")
        assert code == 2
        assert out == "" and "n_max" in err

    def test_undecided_sweep_exit_3(self, capsys, monkeypatch):
        _undecided_search(monkeypatch)
        code, out, _ = run_cli(capsys, "sweep", "6", "--checks", "shellable", "--budget", "0")
        assert code == 3
        records = json.loads(out.splitlines()[0])
        assert any(r["shellable"] is None for r in records)

    def test_jobs_below_one_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "3", "--jobs", "0")
        assert code == 2
        assert "--jobs" in err

    def test_jobs_clamped(self, capsys, monkeypatch):
        pools = []

        class RecordingPool:
            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
        code, _, _ = run_cli(capsys, "sweep", "3", "--checks", "vd", "--jobs", "3")
        assert code == 0 and pools == [2]  # three tasks, two CPUs
        code, _, _ = run_cli(capsys, "sweep", "2", "--checks", "vd", "--jobs", "3")
        assert code == 0 and pools == [2]  # one task runs in-process


class TestSharedS2Witness:
    """A record runs the (S2) walk at most once, and only when a check needs it."""

    @staticmethod
    def _counting_walk(monkeypatch):
        calls = []
        walk = ideals._S2Walk.witness
        reisner = decompose._first_failures

        def counting(s2):
            calls.append(s2.dim)
            return walk(s2)

        def public_walk(facet_masks, dim, chars, below=None):
            if below == 1:
                raise AssertionError("the shellable check ran its own (S2) walk")
            return reisner(facet_masks, dim, chars, below)

        monkeypatch.setattr(ideals._S2Walk, "witness", counting)
        monkeypatch.setattr(decompose, "_first_failures", public_walk)
        return calls

    def test_shellable_and_linpres_share_one_walk(self, monkeypatch):
        calls = self._counting_walk(monkeypatch)
        for checks in (["shellable", "linpres"], ["vd", "shellable", "linpres"], cli.CHECKS):
            for n, k in ((9, 2), (12, 3), (6, 2), (9, 5)):  # two not VD, two VD
                del calls[:]
                rec = cli.compute_record(n, k, checks, [2], with_timings=False)
                assert rec["agreement"] and len(calls) == 1, (checks, n, k)

    def test_sweep_walks_once_per_record(self, capsys, monkeypatch):
        calls = self._counting_walk(monkeypatch)
        code, out, _ = run_cli(
            capsys, "sweep", "14", "--checks", "vd,shellable,linpres", "--no-timings"
        )
        assert code == 0 and out.endswith("sweep n<=14: 91/91 records agree\n")
        assert len(calls) == 91

    @staticmethod
    def _counting_folds(monkeypatch, state="s2"):
        """The number of facets each fold of the column's (S2) walk or VD state takes in."""
        folded = []
        owner, name, count = {
            "s2": (ideals._S2Walk, "_fold", "folded"),
            "vd": (decompose._Column, "_fold_vd", "vd_folded"),
        }[state]
        fold = getattr(owner, name)

        def counting(self):
            before = getattr(self, count)
            fold(self)
            folded.append(getattr(self, count) - before)

        monkeypatch.setattr(owner, name, counting)
        return folded

    def test_vertex_decomposable_records_fold_nothing(self, capsys, monkeypatch):
        folded = self._counting_folds(monkeypatch)
        code, out, _ = run_cli(capsys, "sweep", "6", "--checks", "shellable", "--no-timings")
        assert code == 0 and out.endswith("sweep n<=6: 15/15 records agree\n")
        records = cli._sweep_column(1, 30, ["shellable"], [2], 0, False)  # vdW(n, 1): all VD
        assert all(r["shellable"] for r in records)
        assert folded == []

    def test_records_not_vd_fold_each_facet_once(self, monkeypatch):
        folded = self._counting_folds(monkeypatch)
        records = cli._sweep_column(2, 12, ["shellable"], [2], 0, False)
        assert [r["n"] for r in records if not r["shellable"]] == list(range(7, 13))
        # vdW(7, 2) folds all its facets, vdW(8, 2) .. vdW(12, 2) only those through n
        sizes = [len(cli.vdw_complex(n, 2).facet_masks) for n in range(6, 13)]
        assert folded == [sizes[1]] + [b - a for a, b in zip(sizes[1:], sizes[2:])]

    def test_vd_decided_once_per_record(self, monkeypatch):
        folded = self._counting_folds(monkeypatch, "vd")
        for checks in (["vd", "shellable"], ["shellable", "linpres"]):
            del folded[:]
            records = cli._sweep_column(3, 20, checks, [2], 0, False)
            assert all(r["agreement"] for r in records)
            # one fold per record, of vdW(4, 3), then of the facets through n
            sizes = [0] + [len(cli.vdw_complex(n, 3).facet_masks) for n in range(4, 21)]
            assert folded == [b - a for a, b in zip(sizes, sizes[1:])], checks

    def test_cm_sweep_folds_no_column_state(self, monkeypatch):
        folded_vd = self._counting_folds(monkeypatch, "vd")
        folded_s2 = self._counting_folds(monkeypatch)
        records = cli._sweep_column(2, 14, ["cm"], [0, 2], 0, False)
        assert all(r["agreement"] for r in records)
        assert folded_vd == folded_s2 == []


class TestInspect:
    def test_deletion(self, capsys):
        code, out, _ = run_cli(capsys, "inspect", "6", "2", "deletion", "6")
        assert code == 0
        assert json.loads(out)["facets"] == [[1, 2, 3], [1, 3, 5], [2, 3, 4], [3, 4, 5]]

    def test_link(self, capsys):
        code, out, _ = run_cli(capsys, "inspect", "5", "2", "link", "5")
        assert code == 0
        assert json.loads(out)["facets"] == [[1, 3], [3, 4]]

    def test_link_without_vertex_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "inspect", "5", "2", "link")
        assert code == 2

    def test_ideal(self, capsys):
        code, out, _ = run_cli(capsys, "inspect", "5", "2", "ideal")
        assert code == 0
        data = json.loads(out)
        assert data["generators"] == [[1, 2], [1, 5], [2, 4], [4, 5]]
        assert all(len(g) == 2 for g in data["generators"])

    def test_dual(self, capsys):
        code, out, _ = run_cli(capsys, "inspect", "5", "2", "dual")
        assert code == 0
        assert json.loads(out)["facets"] == [[1, 3, 4], [2, 3, 5]]

    def test_syzygies(self, capsys):
        code, out, _ = run_cli(capsys, "inspect", "5", "2", "syzygies")
        assert code == 0
        syz = json.loads(out)
        assert len(syz) == 6  # 4 choose 2
        assert all(set(s) >= {"i", "j", "sigma_ji", "sigma_ij", "linear"} for s in syz)

    def test_lemmas(self, capsys):
        code, out, _ = run_cli(capsys, "inspect", "7", "2", "lemmas")
        assert code == 0
        data = json.loads(out)
        assert data["holds"] is True
        assert data["chosen_increment"] == 3
        assert data["increments"] == [1, 2, 3]

    def test_lemmas_max_increment_overlap(self, capsys):
        code, out, _ = run_cli(capsys, "inspect", "9", "3", "lemmas")
        assert code == 0
        data = json.loads(out)
        assert data["kind"] == "max-increment-overlap" and data["holds"] is True

    def test_lemmas_k1_exit_2(self, capsys):
        code, _, _ = run_cli(capsys, "inspect", "7", "1", "lemmas")
        assert code == 2

    @pytest.mark.parametrize("what", ["ideal", "dual"])
    def test_vertex_not_read_is_rejected(self, capsys, what):
        code, out, err = run_cli(capsys, "inspect", "9", "2", what, "5")
        assert code == 2
        assert out == "" and "takes no vertex" in err


class TestVerifyShelling:
    def test_valid_and_invalid(self, capsys, tmp_path):
        import vdwcomplex as V

        cx = V.vdw_complex(5, 2)
        cf = tmp_path / "cx.json"
        cf.write_text(cx.to_json())
        good = tmp_path / "good.json"
        good.write_text(json.dumps({"order": [[3, 4, 5], [2, 3, 4], [1, 2, 3], [1, 3, 5]]}))
        code, out, _ = run_cli(capsys, "verify-shelling", str(cf), str(good))
        assert code == 0 and json.loads(out)["valid"] is True

        bad_cx = V.SimplicialComplex.from_facets(4, [[1, 2], [3, 4]])
        cf.write_text(bad_cx.to_json())
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps([[1, 2], [3, 4]]))
        code, out, _ = run_cli(capsys, "verify-shelling", str(cf), str(bad))
        assert code == 1 and json.loads(out)["valid"] is False

    def test_not_a_permutation_exit_2(self, capsys, tmp_path):
        import vdwcomplex as V

        cf = tmp_path / "cx.json"
        cf.write_text(V.vdw_complex(5, 2).to_json())
        of = tmp_path / "order.json"
        of.write_text(json.dumps([[1, 2, 3]]))
        code, _, err = run_cli(capsys, "verify-shelling", str(cf), str(of))
        assert code == 2

    @pytest.mark.parametrize(
        "complex_data, order_data",
        [
            ({"n": 5}, [[1, 2, 3]]),
            ({"facets": [[1, 2, 3]]}, [[1, 2, 3]]),
            ({"n": 5, "facets": [[1, 2, 3]]}, {"orders": [[1, 2, 3]]}),
            ({"n": 5, "facets": [[1, 2, 3]]}, [1, 2, 3]),
            ({"n": 5, "facets": [[1, 2], [2, 3]]}, [[1, "a"], [2, 3]]),
            ({"n": 5, "facets": [[1, 2], [2, 3]]}, [[1.5, 2], [2, 3]]),
        ],
        ids=["no-facets", "no-n", "no-order", "order-not-facets", "str-vertex", "float-vertex"],
    )
    def test_malformed_input_exit_2(self, capsys, tmp_path, complex_data, order_data):
        cf = tmp_path / "cx.json"
        cf.write_text(json.dumps(complex_data))
        of = tmp_path / "order.json"
        of.write_text(json.dumps(order_data))
        code, _, err = run_cli(capsys, "verify-shelling", str(cf), str(of))
        assert code == 2
        assert err.startswith("error:")

    def test_missing_file_exit_2(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "verify-shelling", "/nonexistent/a", "/nonexistent/b")
        assert code == 2


class TestOptions:
    @pytest.mark.parametrize(
        "argv",
        [
            ["generate", "4", "2", "--jobs", "2"],
            ["generate", "4", "2", "--field", "F2"],
            ["generate", "4", "2", "--budget", "1"],
            ["classify", "4", "2", "--jobs", "2"],
            ["inspect", "5", "2", "ideal", "--format", "csv"],
            ["verify-shelling", "a.json", "b.json", "--field", "Q"],
        ],
        ids=" ".join,
    )
    def test_option_not_read_is_rejected(self, capsys, argv):
        code, _, err = run_cli(capsys, *argv)
        assert code == 2
        assert "unrecognized arguments" in err

    @pytest.mark.parametrize("command", ["classify", "sweep"])
    def test_checks_help(self, capsys, command):
        code, out, _ = run_cli(capsys, command, "--help")
        assert code == 0
        assert "--checks LIST comma-separated subset of vd,shellable,cm,linpres" in " ".join(
            out.split()
        )


class TestInternalErrors:
    @pytest.mark.parametrize("exc", [RuntimeError, AssertionError])
    @pytest.mark.parametrize(
        "argv",
        [["classify", "7", "2", "--checks", "vd"], ["sweep", "4", "--checks", "vd"]],
        ids=" ".join,
    )
    def test_crash_exits_4_not_a_verdict(self, capsys, monkeypatch, argv, exc):
        def crashing(*args):
            raise exc("decider crashed")

        monkeypatch.setattr(cli, "_vertex_decomposable", crashing)
        code, out, err = run_cli(capsys, *argv)
        assert code == cli.EXIT_ERROR == 4
        assert out == "" and err.startswith("Traceback")
        assert err.endswith(f"\nerror: internal: {exc.__name__}: decider crashed\n")

    def test_keyboard_interrupt_propagates(self, capsys, monkeypatch):
        def interrupted(*args):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "_vertex_decomposable", interrupted)
        with pytest.raises(KeyboardInterrupt):
            main(["classify", "7", "2", "--checks", "vd"])


def _checkout_env() -> dict:
    """The environment with this checkout's ``src`` first on the module path."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "vdwcomplex.cli", "generate", "5", "2"],
            capture_output=True,
            text=True,
            env=_checkout_env(),
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["n"] == 5

    def test_dual_of_the_simplex_warns_in_one_line(self):
        proc = subprocess.run(
            [sys.executable, "-m", "vdwcomplex.cli", "inspect", "13", "12", "dual"],
            capture_output=True,
            text=True,
            env=_checkout_env(),
        )
        assert proc.returncode == 0
        assert proc.stdout == '{"n":13,"facets":[]}\n'
        assert proc.stderr == "warning: Alexander dual of the full simplex is the void complex\n"

    def test_usage_error_exit_2(self):
        proc = subprocess.run(
            [sys.executable, "-m", "vdwcomplex.cli", "nonsense"],
            capture_output=True,
            text=True,
            env=_checkout_env(),
        )
        assert proc.returncode == 2
