"""The library's records: immutable values with field reprs, imported
without ``dataclasses``."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from sullivan.cdga import CdgaMorphism, Generator, SullivanAlgebra
from sullivan.criteria import SurjectivityVerdict
from sullivan.models import GroupData, GroupDiagram, RestrictionMap

SRC = Path(__file__).resolve().parent.parent / "src"

T1 = GroupData("T1", 1, 1, (1,))
TRIVIAL = GroupData("trivial", 0, 0, ())
T1_REPR = (
    "GroupData(name='T1', rank=1, dimension=1, exterior_degrees=(1,), "
    "connected=True, pi1_torsion_free=False, steinberg=False)"
)
TRIVIAL_REPR = (
    "GroupData(name='trivial', rank=0, dimension=0, exterior_degrees=(), "
    "connected=True, pi1_torsion_free=False, steinberg=False)"
)

# (build one record, its repr, a field to try to set)
RECORDS = {
    "Generator": (lambda: Generator("x", 2), "Generator(name='x', degree=2)", "degree"),
    "GroupData": (lambda: GroupData("T1", 1, 1, (1,)), T1_REPR, "rank"),
    "RestrictionMap": (
        lambda: RestrictionMap(T1, TRIVIAL),
        f"RestrictionMap(source={T1_REPR}, target={TRIVIAL_REPR}, assignment={{}}, "
        "right_assignment=None)",
        "assignment",
    ),
    "GroupDiagram": (
        lambda: GroupDiagram(T1, TRIVIAL, T1, T1, {"u1": "em"}, {"u1": "ep"}, (1, 1)),
        f"GroupDiagram(g={T1_REPR}, h={TRIVIAL_REPR}, k_minus={T1_REPR}, k_plus={T1_REPR}, "
        "restriction_minus={'u1': 'em'}, restriction_plus={'u1': 'ep'}, sphere_dims=(1, 1))",
        "sphere_dims",
    ),
    "SurjectivityVerdict": (
        lambda: SurjectivityVerdict("homogeneous", 0, 2, True, True, None, True, None),
        "SurjectivityVerdict(context='homogeneous', rank_gap=0, chi_pi=2, rank_criterion=True, "
        "direct_check=True, first_failing_degree=None, odd_direct_check=True, "
        "odd_first_failing_degree=None, hypotheses_hold=True, cutoff=0, citation='')",
        "direct_check",
    ),
}


def test_import_needs_no_dataclasses():
    probe = "import sys, sullivan.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


@pytest.mark.parametrize("name", sorted(RECORDS))
class TestRecord:
    def test_fields_cannot_be_set(self, name):
        build, _, field = RECORDS[name]
        record = build()
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))

    def test_equal_constructions_compare_equal(self, name):
        build, _, _ = RECORDS[name]
        first, second = build(), build()
        assert first is not second
        assert first == second

    def test_repr_names_every_field(self, name):
        build, expected, _ = RECORDS[name]
        assert repr(build()) == expected


def test_restriction_map_default_assignment_is_fresh():
    first, second = RestrictionMap(T1, TRIVIAL), RestrictionMap(T1, TRIVIAL)
    assert first.assignment == {} and first.assignment is not second.assignment


class TestMorphismRecord:
    algebra = SullivanAlgebra([Generator("x", 2)], 4)

    def build(self):
        return CdgaMorphism(self.algebra, self.algebra, {"x": self.algebra.gen("x")})

    def test_fields_cannot_be_set(self):
        morphism = self.build()
        for field in ("source", "target", "assignment"):
            with pytest.raises(AttributeError):
                setattr(morphism, field, getattr(morphism, field))

    def test_equal_constructions_compare_equal(self):
        assert self.build() == self.build()
        other = SullivanAlgebra([Generator("x", 2)], 4)
        assert self.build() != CdgaMorphism(self.algebra, other, {"x": other.gen("x")})

    def test_repr_names_every_field(self):
        a = self.algebra
        assert repr(self.build()) == (
            f"CdgaMorphism(source={a!r}, target={a!r}, assignment={{'x': {a.gen('x')!r}}})"
        )
