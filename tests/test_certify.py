"""Replays trust no decider: the certify module's import rule and the Reisner witness replay."""

import ast
import dataclasses
import random
from pathlib import Path

import pytest
from conftest import (
    RP2,
    benchmark_random_pure,
    complex_from_masks,
    enumerate_antichains,
    graph_connected,
    random_pure_complex,
)

import vdwcomplex
from vdwcomplex import certify, decompose
from vdwcomplex.certify import verify_cohen_macaulay_witness, verify_s2_witness
from vdwcomplex.complexes import SimplicialComplex
from vdwcomplex.decompose import is_shellable, is_vertex_decomposable
from vdwcomplex.homology import _first_failures, cohen_macaulay_by_field, is_cohen_macaulay
from vdwcomplex.ideals import _witness_pair, dual_ideal, is_linearly_presented
from vdwcomplex.vdw import vdw_complex

SRC = Path(vdwcomplex.__file__).resolve().parent
FIELDS = ("Q", "F2", "Fp:3")


def _package_imports(tree):
    """The package modules a module imports, as dotted names."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out |= {a.name for a in node.names if a.name.split(".")[0] == "vdwcomplex"}
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "vdwcomplex":
            if node.module == "vdwcomplex":
                out |= {f"vdwcomplex.{a.name}" for a in node.names}
            else:
                out.add(node.module)
    return out


class TestModuleBoundary:
    def test_certify_imports_no_decider(self):
        tree = ast.parse((SRC / "certify.py").read_text())
        assert _package_imports(tree) == {"vdwcomplex.complexes", "vdwcomplex._kernels"}

    def test_the_package_exports_certify_names(self):
        assert vdwcomplex.SheddingTree is decompose.SheddingTree is certify.SheddingTree
        for name in ("verify_shedding_tree", "verify_shelling", "parse_field", "field_label"):
            assert getattr(vdwcomplex, name) is getattr(certify, name)
        assert len(vdwcomplex.__all__) == 40
        assert "verify_cohen_macaulay_witness" not in vdwcomplex.__all__

    def test_no_private_function_is_used_only_by_tests(self):
        # every `def _name` in the package is referenced by package code
        # outside its own body; names in docstrings are not references
        trees = [ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))]
        refs: dict[str, list[int]] = {}
        defs = []
        for tree in trees:
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    refs.setdefault(node.id, []).append(id(node))
                elif isinstance(node, ast.Attribute):
                    refs.setdefault(node.attr, []).append(id(node))
                elif isinstance(node, ast.FunctionDef) and node.name.startswith("_"):
                    if not node.name.startswith("__"):
                        defs.append(node)
        unused = []
        for fn in defs:
            inside = {id(node) for node in ast.walk(fn)}
            if all(ref in inside for ref in refs.get(fn.name, [])):
                unused.append(fn.name)
        assert unused == []


class TestCohenMacaulayWitnessReplay:
    @staticmethod
    def _replays_every_witness(cx):
        failing = 0
        for result in cohen_macaulay_by_field(cx, FIELDS):
            if not result.value:
                assert verify_cohen_macaulay_witness(cx, result), (cx.facets, result)
                failing += 1
            else:
                assert not verify_cohen_macaulay_witness(cx, result)
        return failing

    def test_every_pure_complex_on_5_vertices(self):
        failing = checked = 0
        for masks in enumerate_antichains(5):
            if masks and len({m.bit_count() for m in masks}) == 1:
                failing += self._replays_every_witness(complex_from_masks(5, masks))
                checked += 1
        assert checked == 2110 and failing > 500

    def test_vdw_complexes_to_n14(self):
        failing = sum(
            self._replays_every_witness(vdw_complex(n, k))
            for n in range(2, 15)
            for k in range(1, n)
        )
        assert failing > 0

    def test_every_shelling_refutation_replays(self):
        rng = random.Random(211)
        degrees = []
        for _ in range(300):
            cx = random_pure_complex(rng, 7)
            vd = is_vertex_decomposable(cx)
            for res in (is_shellable(cx), is_shellable(cx, vd=vd)):
                if res.refutation is not None:
                    assert verify_cohen_macaulay_witness(cx, res.refutation), cx.facets
                    degrees.append(res.refutation.witness_degree)
        assert degrees.count(0) > 10 and len(degrees) > degrees.count(0)  # (S2) and F2 walk

    def test_mutated_rp2_witness_rejected(self):
        # RP^2 over F2: the empty face, H~_1 = H~_2 = 1 and H~_0 = 0; dim lk () = 2
        res = is_cohen_macaulay(RP2, "F2")
        assert (res.witness_face, res.witness_degree) == ((), 1)
        assert verify_cohen_macaulay_witness(RP2, res)
        for mutated in (
            dataclasses.replace(res, field="Q"),  # H~_1(RP^2; Q) = 0
            dataclasses.replace(res, witness_degree=0),  # a Betti number 0
            dataclasses.replace(res, witness_degree=2),  # nonzero, but not below dim lk
            dataclasses.replace(res, witness_degree=True),
            dataclasses.replace(res, field="F4"),
            dataclasses.replace(res, value=True),
        ):
            assert not verify_cohen_macaulay_witness(RP2, mutated), mutated

    def test_witness_face_must_lie_in_a_facet(self):
        # two triangles sharing vertex 1, and vertex 6 in no facet: lk {1} is two edges
        cx = SimplicialComplex.from_facets(6, [[1, 2, 3], [1, 4, 5]])
        res = is_cohen_macaulay(cx, "F2")
        assert (res.witness_face, res.witness_degree) == ((1,), 0)
        assert verify_cohen_macaulay_witness(cx, res)
        for face, degree in (((6,), 0), ((2, 4), -1), ((7,), 0), ((0,), 0), ((1, 1), 0), (None, 0)):
            mutated = dataclasses.replace(res, witness_face=face, witness_degree=degree)
            assert not verify_cohen_macaulay_witness(cx, mutated), mutated

    def test_nonpure_complex_rejected(self):
        # the same disconnected link of {1}, beside a facet of another dimension
        res = is_cohen_macaulay(SimplicialComplex.from_facets(6, [[1, 2, 3], [1, 4, 5]]), "F2")
        nonpure = SimplicialComplex.from_facets(6, [[1, 2, 3], [1, 4, 5], [6]])
        assert not verify_cohen_macaulay_witness(nonpure, res)



def _s2_witness(cx):
    """The pair of the (S2) walk's failing face (the Reisner walk capped below degree 1)."""
    failure = _first_failures(cx.facet_masks, cx.dim, [2], below=1)[2]
    return None if failure is None else _witness_pair(cx.facet_masks, failure[0])


class TestS2WitnessReplay:
    def test_every_vdw_witness_to_n40_replays(self):
        witnesses = 0
        for n in range(2, 41):
            for k in range(1, n):
                cx = vdw_complex(n, k)
                witness = _s2_witness(cx)
                if witness is not None:
                    assert verify_s2_witness(cx, witness), (n, k, witness)
                    witnesses += 1
        assert witnesses == 340

    @pytest.mark.parametrize("seed", [1, 2])
    def test_public_linpres_witness_replays_on_the_complex(self, seed):
        # generator p of dual_ideal(cx) is the complement of facet m - 1 - p,
        # so the ideal's witness (i, j) is the complex's pair (m - 1 - j, m - 1 - i)
        complexes = benchmark_random_pure(seed)
        complexes += [vdw_complex(n, k) for n in range(2, 25) for k in range(1, n)]
        witnesses = 0
        for cx in complexes:
            witness = is_linearly_presented(dual_ideal(cx)).witness
            if witness is not None:
                m, (i, j) = len(cx.facet_masks), witness
                pair = (m - 1 - j, m - 1 - i)
                assert verify_s2_witness(cx, pair), (cx.facets, witness)
                face = cx.facet_masks[pair[0]] & cx.facet_masks[pair[1]]
                assert _first_failures(cx.facet_masks, cx.dim, [2], below=1)[2] == (face, 0)
                witnesses += 1
        assert witnesses == {1: 716, 2: 702}[seed]

    def test_tampered_pairs_refused(self):
        cx = vdw_complex(9, 2)  # 16 facets; (1, 2, 3) and (1, 4, 7) meet in {1}
        assert _first_failures(cx.facet_masks, cx.dim, [2], below=1)[2] == (0b1, 0)
        assert _s2_witness(cx) == (0, 2)
        assert verify_s2_witness(cx, (0, 2)) and verify_s2_witness(cx, [0, 2])
        for pair in (
            (2, 0), (0, 0), (0, 16), (-1, 2), (0, 2, 2), (0,), None, "02",
            (0.0, 2), (0, 2.0), (False, 2),
        ):
            assert not verify_s2_witness(cx, pair), pair

    def test_a_pair_replays_only_on_a_disconnected_link(self):
        # accepted pairs meet exactly in the faces whose link has dimension
        # >= 1 and is disconnected, and each such face has an accepted pair
        found = []
        for cx in (vdw_complex(9, 2), vdw_complex(10, 3), vdw_complex(8, 4), RP2):
            masks = cx.facet_masks
            failing, accepted = set(), set()
            for i in range(len(masks)):
                for j in range(i + 1, len(masks)):
                    face = masks[i] & masks[j]
                    link = [g ^ face for g in masks if g & face == face]
                    if cx.dim - face.bit_count() >= 1 and not graph_connected(link):
                        failing.add(face)
                    if verify_s2_witness(cx, (i, j)):
                        accepted.add(face)
            assert accepted == failing, cx.facets
            found.append(len(failing))
        assert found[0] > 0 and found[1] > 0 and found[2:] == [0, 0]

    def test_nonpure_complex_rejected(self):
        pure = SimplicialComplex.from_facets(6, [[1, 2, 3], [1, 4, 5]])
        assert verify_s2_witness(pure, (0, 1))
        nonpure = SimplicialComplex.from_facets(6, [[1, 2, 3], [1, 4, 5], [6]])
        assert not verify_s2_witness(nonpure, (0, 1))
