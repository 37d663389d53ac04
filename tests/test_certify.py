"""Replays trust no decider: the certify module's import rule and the Reisner witness replay."""

import ast
import dataclasses
import random
from pathlib import Path

from conftest import RP2, complex_from_masks, enumerate_antichains, random_pure_complex

import vdwcomplex
from vdwcomplex import certify, decompose
from vdwcomplex.certify import verify_cohen_macaulay_witness
from vdwcomplex.complexes import SimplicialComplex
from vdwcomplex.decompose import is_shellable, is_vertex_decomposable
from vdwcomplex.homology import cohen_macaulay_by_field, is_cohen_macaulay
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

