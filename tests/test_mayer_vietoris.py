"""The Betti numbers of a cohomogeneity-one manifold against the
Mayer–Vietoris sequence of its orbits.

M is the homotopy pushout of G/K- <- G/H -> G/K+, so its rational
cohomology satisfies

    b_n(M) = dim ker φ_n + dim coker φ_{n-1},
    φ_n = (f-*, -f+*): H^n(G/K-) ⊕ H^n(G/K+) -> H^n(G/H).

Each f± is the map of orbit models (``models.orbit_models``) sending
every generator to its namesake and e± to 0: the common restriction
image is the minus or plus one with e± killed, so it is a chain map.
Its matrices come from ``induced_reference.induced_map``, which solves
for class coordinates and reads no rank count of the library.  The
manifold model's gluing dq_i = plus + minus - common is checked degree
by degree, where the report's Euler identity sees only alternating
sums; the restriction images, which the orbits and the manifold share,
are not checked.
"""

import random

import pytest

from induced_reference import induced_map
from instance_generators import random_circle_diagram
from sullivan.catalog import DIAGRAM_PRESETS
from sullivan.cdga import CdgaMorphism
from sullivan.cohomology import betti_numbers, cohomology
from sullivan.documents import load_diagram
from sullivan.linalg import rank_rows
from sullivan.models import EULER_MINUS, EULER_PLUS, cohomogeneity_one_model, orbit_models


def mayer_vietoris_betti(diagram) -> tuple[int, ...]:
    """b_0..b_dim M from the orbits' tables and the ranks of φ_n."""
    top = diagram.manifold_dimension
    orbits = [model.with_cutoff(top) for model in orbit_models(diagram)]
    tables = [cohomology(model) for model in orbits]
    principal = orbits[2]
    maps = []
    for orbit, table, killed in zip(orbits, tables, (EULER_MINUS, EULER_PLUS)):
        assignment = {
            g.name: principal.zero() if g.name == killed else principal.gen(g.name)
            for g in orbit.generators
        }
        maps.append(induced_map(CdgaMorphism(orbit, principal, assignment), table, tables[2]))
    ranks = [
        rank_rows(m + tuple(-x for x in p) for m, p in zip(maps[0][n].entries, maps[1][n].entries))
        for n in range(top + 1)
    ]
    minus, plus, common = (table.betti for table in tables)
    return tuple(
        minus[n] + plus[n] - ranks[n] + (common[n - 1] - ranks[n - 1] if n else 0)
        for n in range(top + 1)
    )


@pytest.mark.parametrize("name", sorted(DIAGRAM_PRESETS))
def test_presets(name):
    diagram = load_diagram(DIAGRAM_PRESETS[name])
    assert mayer_vietoris_betti(diagram) == betti_numbers(cohomogeneity_one_model(diagram))


def test_random_circle_diagrams():
    """Seeded circle diagrams of T2 and SU(2)^2; the population holds
    both groups and equal and unequal circles."""
    rng = random.Random(17)
    seen = set()
    for _ in range(40):
        document = random_circle_diagram(rng)
        diagram = load_diagram(document)
        betti = betti_numbers(cohomogeneity_one_model(diagram))
        assert mayer_vietoris_betti(diagram) == betti, document
        seen.add((document["G"], betti))
    assert seen == {
        ("T2", (1, 0, 0, 1)),
        ("T2", (1, 1, 1, 1)),
        ("SU(2)^2", (1, 0, 2, 0, 0, 2, 0, 1)),
        ("SU(2)^2", (1, 0, 2, 1, 1, 2, 0, 1)),
    }
