"""Exact rational-homotopy computations for homogeneous spaces,
biquotients and cohomogeneity-one manifolds: Sullivan models, ordinary
and Borel-equivariant cohomology, surjectivity criteria and rational
K-theory dimension counts."""

from .cdga import AlgebraElement, CdgaMorphism, Generator, SullivanAlgebra
from .cohomology import CohomologyTable
from .linalg import RationalMatrix, SubspaceBasis
from .models import GroupData, GroupDiagram, RestrictionMap

__all__ = [
    "AlgebraElement",
    "CdgaMorphism",
    "CohomologyTable",
    "Generator",
    "GroupData",
    "GroupDiagram",
    "RationalMatrix",
    "RestrictionMap",
    "SubspaceBasis",
    "SullivanAlgebra",
]
