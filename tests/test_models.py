"""Model builders: groups, classifying spaces, quotients, diagrams."""

import pytest

from sullivan.catalog import lookup, standard_restriction
from sullivan.cohomology import (
    betti_numbers,
    euler_characteristic,
    even_degree_surjectivity,
)
from sullivan.errors import (
    DegreeMismatch,
    DisconnectedGroup,
    EvenSphere,
    InvalidDegrees,
    InvalidDiagram,
    UnknownGenerator,
)
from sullivan.models import (
    GroupData,
    GroupDiagram,
    RestrictionMap,
    biquotient_model,
    borel_model_cohomogeneity_one,
    borel_model_homogeneous,
    classifying_space_model,
    cohomogeneity_one_model,
    lie_group_model,
)

SU2 = lookup("SU(2)")
T1 = lookup("T1")
TRIVIAL = lookup("e")


class TestGroupData:
    def test_rank_degree_consistency(self):
        with pytest.raises(InvalidDegrees):
            GroupData("bad", 2, 3, (3,))
        with pytest.raises(InvalidDegrees):
            GroupData("bad", 1, 4, (3,))
        with pytest.raises(InvalidDegrees):
            GroupData("bad", 1, 4, (4,))

    def test_catalog_degrees(self):
        assert lookup("SU(3)").exterior_degrees == (3, 5)
        assert lookup("SU(4)").exterior_degrees == (3, 5, 7)
        assert lookup("G2").exterior_degrees == (3, 11)
        assert lookup("SU(2)^2").rank == 2


class TestGroupModels:
    def test_su2(self):
        a = lie_group_model(SU2)
        assert [(g.name, g.degree) for g in a.generators] == [("q1", 3)]
        assert all(img.is_zero for img in a.differential)

    def test_torus(self):
        a = lie_group_model(lookup("T2"))
        assert [g.degree for g in a.generators] == [1, 1]

    def test_su3(self):
        assert [g.degree for g in lie_group_model(lookup("SU(3)")).generators] == [3, 5]

    def test_classifying_spaces(self):
        assert [g.degree for g in classifying_space_model(SU2).generators] == [4]
        assert [g.degree for g in classifying_space_model(T1).generators] == [2]
        assert [g.degree for g in classifying_space_model(lookup("G2")).generators] == [4, 12]


class TestBiquotientModel:
    def test_two_sphere(self):
        model = biquotient_model(SU2, T1, standard_restriction("SU(2)", "T1"))
        assert model.is_pure()
        assert betti_numbers(model) == (1, 0, 1)
        assert model.homotopy_euler_characteristic() == 0

    def test_trivial_subgroup(self):
        model = biquotient_model(SU2, TRIVIAL, RestrictionMap(SU2, TRIVIAL, {}))
        assert betti_numbers(model) == (1, 0, 0, 1)

    def test_diagonal_subgroup_gives_sphere(self):
        # both generators restrict to the same class, so their difference
        # is closed: rationally a three-sphere
        g = lookup("SU(2)^2")
        model = biquotient_model(g, SU2, standard_restriction("SU(2)^2", "SU(2)", "diagonal"))
        assert betti_numbers(model) == (1, 0, 0, 1)

    def test_two_sided_difference(self):
        # left and right copies of the maximal torus with equal maps give
        # dq = 0: the differential is the left image minus the right one
        restriction = RestrictionMap(SU2, T1, {"u1": "-u1^2"}, {"u1": "-u1^2"})
        model = biquotient_model(SU2, T1, restriction, cutoff=4)
        assert all(img.is_zero for img in model.differential)

    def test_degree_mismatch(self):
        with pytest.raises(DegreeMismatch):
            biquotient_model(SU2, T1, RestrictionMap(SU2, T1, {"u1": "u1"}))

    def test_unknown_generator_in_map(self):
        with pytest.raises(UnknownGenerator):
            RestrictionMap(SU2, T1, {"nope": "u1^2"})

    def test_chi_pi_is_rank_gap(self):
        for g_name, h_name, kind in [
            ("SU(2)", "T1", None),
            ("SU(3)", "T2", None),
            ("SU(2)^2", "SU(2)", "diagonal"),
            ("SU(2)^3", "T1", "diagonal-circle"),
        ]:
            g, h = lookup(g_name), lookup(h_name)
            model = biquotient_model(g, h, standard_restriction(g_name, h_name, kind))
            assert model.homotopy_euler_characteristic() == g.rank - h.rank

    def test_equal_rank_iff_no_odd_cohomology(self):
        cases = [
            ("SU(2)", "T1", None, True),
            ("SU(3)", "T2", None, True),
            ("SU(2)^2", "T2", None, True),
            ("SU(2)^2", "SU(2)", "diagonal", False),
            ("SU(2)", "e", None, False),
        ]
        for g_name, h_name, kind, equal_rank in cases:
            g, h = lookup(g_name), lookup(h_name)
            model = biquotient_model(g, h, standard_restriction(g_name, h_name, kind))
            betti = betti_numbers(model)
            no_odd = all(b == 0 for n, b in enumerate(betti) if n % 2 == 1)
            assert (g.rank == h.rank) == equal_rank == no_odd

    def test_dimension_parity(self):
        for g_name, h_name, kind in [("SU(2)", "T1", None), ("SU(2)^2", "SU(2)", "diagonal")]:
            g, h = lookup(g_name), lookup(h_name)
            assert (g.dimension - h.dimension - (g.rank - h.rank)) % 2 == 0


class TestBorelHomogeneous:
    def test_two_sphere_package(self):
        package = borel_model_homogeneous(SU2, T1, standard_restriction("SU(2)", "T1"))
        assert [g.degree for g in package.borel.generators] == [2]
        ok, failing = even_degree_surjectivity(package.forgetful)
        assert ok and failing is None

    def test_trivial_subgroup_package(self):
        package = borel_model_homogeneous(SU2, TRIVIAL, RestrictionMap(SU2, TRIVIAL, {}))
        assert package.borel.generators == ()
        ok, _ = even_degree_surjectivity(package.forgetful)
        assert ok  # H^even(S^3) is Q in degree 0 only

    def test_full_flag_of_su3(self):
        package = borel_model_homogeneous(
            lookup("SU(3)"), lookup("T2"), standard_restriction("SU(3)", "T2")
        )
        betti = betti_numbers(package.space)
        assert betti == (1, 0, 2, 0, 2, 0, 1)
        assert euler_characteristic(betti) == 6
        ok, _ = even_degree_surjectivity(package.forgetful)
        assert ok


def cp2_diagram():
    return GroupDiagram(
        SU2,
        TRIVIAL,
        T1,
        T1,
        {"u1": "-em^2"},
        {"u1": "-ep^2"},
        (1, 1),
    )


class TestCohomogeneityOne:
    def test_cp2sum_model(self):
        model = cohomogeneity_one_model(cp2_diagram())
        assert model.cutoff == 4
        assert model.is_pure()
        assert model.homotopy_euler_characteristic() == 0
        assert betti_numbers(model) == (1, 0, 2, 0, 1)
        assert euler_characteristic(betti_numbers(model)) == 4

    def test_product_with_sphere(self):
        # equal-rank diagram: chi_pi = 0 forces vanishing odd cohomology
        g = lookup("SU(2)^2")
        diagram = GroupDiagram(
            g,
            T1,
            lookup("T2"),
            lookup("T2"),
            {"u1": "-em^2", "u2": "-u1^2"},
            {"u1": "-ep^2", "u2": "-u1^2"},
            (1, 1),
        )
        model = cohomogeneity_one_model(diagram)
        assert model.homotopy_euler_characteristic() == 0
        betti = betti_numbers(model)
        assert all(b == 0 for n, b in enumerate(betti) if n % 2 == 1)
        assert euler_characteristic(betti) == 8

    def test_gap_two_surjectivity_fails(self):
        g = lookup("SU(2)^3")
        diagram = GroupDiagram(
            g,
            TRIVIAL,
            T1,
            T1,
            {name: "-em^2" for name in g.bg_names},
            {name: "-ep^2" for name in g.bg_names},
            (1, 1),
        )
        model = cohomogeneity_one_model(diagram)
        assert model.homotopy_euler_characteristic() == 2
        package = borel_model_cohomogeneity_one(diagram)
        ok, failing = even_degree_surjectivity(package.forgetful)
        assert not ok and failing == 6

    def test_borel_ring_dimensions(self):
        # H*(BH)[e+,e-]/(e+ e-) with trivial H: one monomial in degree 0,
        # two (powers of e+ and of e-) in each positive even degree
        package = borel_model_cohomogeneity_one(cp2_diagram(), cutoff=8)
        betti = betti_numbers(package.borel)
        assert betti == (1, 0, 2, 0, 2, 0, 2, 0, 2)
        low = borel_model_cohomogeneity_one(cp2_diagram(), cutoff=4)
        ok, _ = even_degree_surjectivity(low.forgetful)
        assert ok

    def _quotient_monomial_count(self, h, sphere_degrees, degree):
        # direct enumeration of monomials of H*(BH)[e+,e-]/(e+ e-): both
        # sphere classes never appear together
        from itertools import product

        degrees = list(h.bg_degrees) + list(sphere_degrees)
        count = 0
        ranges = [range(degree // d + 1) for d in degrees]
        for exponents in product(*ranges):
            if exponents[-1] and exponents[-2]:
                continue
            if sum(e * d for e, d in zip(exponents, degrees)) == degree:
                count += 1
        return count

    def test_borel_betti_match_quotient_ring_counts(self):
        g = lookup("SU(2)^2")
        diagram = GroupDiagram(
            g,
            T1,
            lookup("T2"),
            lookup("T2"),
            {"u1": "-em^2", "u2": "-u1^2"},
            {"u1": "-ep^2", "u2": "-u1^2"},
            (1, 1),
        )
        package = borel_model_cohomogeneity_one(diagram, cutoff=10)
        betti = betti_numbers(package.borel)
        for n in range(11):
            assert betti[n] == self._quotient_monomial_count(diagram.h, (2, 2), n)

    def test_forgetful_image_is_even_subalgebra_part(self):
        # rank of the induced map per even degree equals the dimension of
        # the part of cohomology represented by the even subalgebra
        from induced_reference import induced_map
        from sullivan.cohomology import h0_dims

        package = borel_model_cohomogeneity_one(cp2_diagram())
        matrices = induced_map(package.forgetful)
        h0 = h0_dims(package.space)
        from sullivan.linalg import rank

        for n in h0:
            assert rank(matrices[n]) == h0[n]

    def test_homogeneous_models_have_manifold_duality(self):
        # closed-manifold models: top class in degree dim G - dim H and
        # symmetric Betti numbers; the dimension parity equals the rank
        # parity
        cases = [
            ("SU(2)", "T1", None),
            ("SU(3)", "T2", None),
            ("SU(2)^2", "SU(2)", "diagonal"),
            ("T3", "T1", None),
            ("SU(2)", "e", None),
        ]
        from sullivan.cohomology import poincare_duality_holds

        for g_name, h_name, kind in cases:
            g, h = lookup(g_name), lookup(h_name)
            if h.is_trivial:
                restriction = RestrictionMap(g, h, {})
            else:
                restriction = standard_restriction(g_name, h_name, kind)
            model = biquotient_model(g, h, restriction)
            betti = betti_numbers(model)
            fdim = g.dimension - h.dimension
            assert betti[fdim] == 1
            assert poincare_duality_holds(betti, fdim)
            assert (fdim - (g.rank - h.rank)) % 2 == 0

    def test_even_sphere_rejected(self):
        with pytest.raises(EvenSphere):
            GroupDiagram(SU2, TRIVIAL, T1, T1, {}, {}, (2, 1))

    def test_rank_condition_enforced(self):
        with pytest.raises(InvalidDiagram):
            GroupDiagram(SU2, TRIVIAL, lookup("T2"), T1, {}, {}, (1, 1))

    def test_disconnected_singular_isotropy_always_rejected(self):
        # only finite principal isotropy may be disconnected; a
        # disconnected K (such as the orthogonal group of the plane) is
        # outside the implemented class even with the escape hatch
        o2 = GroupData("O(2)", 1, 1, (1,), connected=False)
        diagram = GroupDiagram(
            lookup("T1xSO(3)"),
            lookup("Z2"),
            T1,
            o2,
            {"u1": "em", "u2": "0"},
            {"u1": "ep", "u2": "0"},
            (1, 1),
        )
        with pytest.raises(DisconnectedGroup):
            cohomogeneity_one_model(diagram, allow_disconnected=True)

    def test_disconnected_rejected_by_default(self):
        diagram = GroupDiagram(
            SU2,
            lookup("Z2"),
            T1,
            T1,
            {"u1": "-em^2"},
            {"u1": "-ep^2"},
            (1, 1),
        )
        with pytest.raises(DisconnectedGroup):
            cohomogeneity_one_model(diagram)
        model = cohomogeneity_one_model(diagram, allow_disconnected=True)
        assert betti_numbers(model) == (1, 0, 2, 0, 1)

    def test_inconsistent_restrictions_rejected(self):
        g = lookup("SU(2)^2")
        with pytest.raises(InvalidDiagram):
            cohomogeneity_one_model(
                GroupDiagram(
                    g,
                    T1,
                    lookup("T2"),
                    lookup("T2"),
                    {"u1": "-em^2", "u2": "-u1^2"},
                    {"u1": "-ep^2", "u2": "-2*u1^2"},
                    (1, 1),
                )
            )

    def test_odd_three_sphere_fibres(self):
        diagram = GroupDiagram(
            SU2, TRIVIAL, SU2, SU2, {"u1": "em"}, {"u1": "ep"}, (3, 3)
        )
        model = cohomogeneity_one_model(diagram)
        assert betti_numbers(model)[:5] == (1, 0, 0, 0, 1)  # the four-sphere

    def test_join_of_two_three_spheres(self):
        # gluing the two projections of a product of three-spheres gives
        # the seven-sphere
        g = lookup("SU(2)^2")
        diagram = GroupDiagram(
            g,
            TRIVIAL,
            SU2,
            SU2,
            {"u1": "em", "u2": "0"},
            {"u1": "0", "u2": "ep"},
            (3, 3),
        )
        model = cohomogeneity_one_model(diagram)
        assert betti_numbers(model) == (1, 0, 0, 0, 0, 0, 0, 1)


class TestBuilderInvariants:
    def test_every_built_model_is_pure_with_valid_differential(self):
        from sullivan.catalog import DIAGRAM_PRESETS
        from sullivan.documents import load_diagram

        models = []
        for g_name, h_name, kind in [
            ("SU(2)", "T1", None),
            ("SU(3)", "T2", None),
            ("SU(2)^2", "SU(2)", "diagonal"),
            ("SU(2)^3", "T1", "diagonal-circle"),
            ("T3", "T2", None),
        ]:
            g, h = lookup(g_name), lookup(h_name)
            models.append(biquotient_model(g, h, standard_restriction(g_name, h_name, kind)))
        for name in DIAGRAM_PRESETS:
            diagram = load_diagram(DIAGRAM_PRESETS[name])
            models.append(cohomogeneity_one_model(diagram))
            models.append(borel_model_cohomogeneity_one(diagram).borel)
        for model in models:
            assert model.verify_d_squared()
            assert model.is_pure()


class TestCatalogDataValidation:
    def test_rank_one_quotients_are_spheres(self):
        # SO(3) and Sp(1) torus data must reproduce the two-sphere
        for name in ("SO(3)", "Sp(1)"):
            g = lookup(name)
            model = biquotient_model(g, T1, standard_restriction(name, "T1"))
            assert betti_numbers(model) == (1, 0, 1)

    def test_mixed_product_maximal_torus(self):
        # per-factor torus variables are allocated left to right
        g = lookup("SU(2)xT1")
        restriction = standard_restriction("SU(2)xT1", "T2")
        assert restriction.assignment == {"u1": "-u1^2", "u2": "u2"}
        model = biquotient_model(g, lookup("T2"), restriction)
        assert betti_numbers(model) == (1, 0, 1)

    def test_symplectic_flag_manifold(self):
        # full flag of the rank-two symplectic group: Weyl group order 8
        g, h = lookup("Sp(2)"), lookup("T2")
        model = biquotient_model(g, h, standard_restriction("Sp(2)", "T2"))
        betti = betti_numbers(model)
        assert euler_characteristic(betti) == 8
        assert betti[8] == 1
        assert all(b == 0 for n, b in enumerate(betti) if n % 2 == 1)

    def test_quaternionic_presentation_of_the_four_sphere(self):
        # the product of two rank-one symplectic groups inside the
        # rank-two one: total class u1 + u2, top class u1 u2
        g, h = lookup("Sp(2)"), lookup("Sp(1)^2")
        restriction = RestrictionMap(g, h, {"u1": "u1+u2", "u2": "u1*u2"})
        model = biquotient_model(g, h, restriction)
        assert betti_numbers(model) == (1, 0, 0, 0, 1)

    def test_symplectic_block_gives_seven_sphere(self):
        g, h = lookup("Sp(2)"), lookup("Sp(1)")
        model = biquotient_model(g, h, standard_restriction("Sp(2)", "Sp(1)", "block"))
        assert betti_numbers(model) == (1, 0, 0, 0, 0, 0, 0, 1)

    def test_rank_one_exceptional_symmetric_space(self):
        # inline presentation: the degree-4 class restricts to one
        # generator, the degree-12 class to the cube of the other; the
        # quotient is the rank-one exceptional symmetric space with
        # cohomology in degrees 0, 4, 8
        g = lookup("G2")
        so4 = GroupData("SO(4)", 2, 6, (3, 3))
        restriction = RestrictionMap(g, so4, {"u1": "u1", "u2": "u2^3"})
        model = biquotient_model(g, so4, restriction)
        betti = betti_numbers(model)
        assert betti == (1, 0, 0, 0, 1, 0, 0, 0, 1)
        assert euler_characteristic(betti) == 3
        from sullivan.ktheory import rational_k_dimensions, stable_class_infinitude

        assert rational_k_dimensions(betti) == (3, 0, 3)
        assert stable_class_infinitude(betti)


class TestLargerFlagManifold:
    def test_su4_full_flag(self):
        g, h = lookup("SU(4)"), lookup("T3")
        package = borel_model_homogeneous(g, h, standard_restriction("SU(4)", "T3"))
        betti = betti_numbers(package.space)
        assert euler_characteristic(betti) == 24  # Weyl group order
        assert all(b == 0 for n, b in enumerate(betti) if n % 2 == 1)
        assert betti[12] == 1 and betti[2] == 3
        ok, _ = even_degree_surjectivity(package.forgetful)
        assert ok
