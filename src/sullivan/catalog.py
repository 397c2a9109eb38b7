"""Catalog of standard compact groups and subgroup restriction maps.

Entries carry the classical exterior degrees; product names are parsed
on demand (``SU(2)^3``, ``SU(2)xT2``), each power at least 1 and the
product's rank at most ``MAX_PRODUCT_RANK``.  Restriction maps for the
standard embeddings (maximal torus, block/coordinate, diagonal,
diagonal circle) are generated from symmetric-function data; signs
follow the Chern-class convention (the restriction of the rank-one
generator of an SU(2)-type factor to a weight-w circle is -w^2 u^2).
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .cdga import _decimal
from .errors import DegreeMismatch, UnknownCatalogName
from .models import GroupData, RestrictionMap

_BASE: dict[str, tuple[GroupData, str]] = {}


def _register(group: GroupData, description: str) -> None:
    _BASE[group.name] = (group, description)


_register(GroupData("e", 0, 0, (), pi1_torsion_free=True, steinberg=True), "trivial group")
for _n in range(1, 5):
    _register(
        GroupData(f"T{_n}", _n, _n, (1,) * _n, pi1_torsion_free=True, steinberg=True),
        f"torus of rank {_n}",
    )
_register(
    GroupData("SU(2)", 1, 3, (3,), pi1_torsion_free=True, steinberg=True),
    "special unitary group, rank 1",
)
_register(
    GroupData("SU(3)", 2, 8, (3, 5), pi1_torsion_free=True, steinberg=True),
    "special unitary group, rank 2",
)
_register(
    GroupData("SU(4)", 3, 15, (3, 5, 7), pi1_torsion_free=True, steinberg=True),
    "special unitary group, rank 3",
)
_register(
    GroupData("Sp(1)", 1, 3, (3,), pi1_torsion_free=True, steinberg=True),
    "compact symplectic group, rank 1",
)
_register(
    GroupData("Sp(2)", 2, 10, (3, 7), pi1_torsion_free=True, steinberg=True),
    "compact symplectic group, rank 2",
)
_register(
    GroupData("SO(3)", 1, 3, (3,), pi1_torsion_free=False, steinberg=False),
    "rotation group, rank 1",
)
_register(
    GroupData("SO(5)", 2, 10, (3, 7), pi1_torsion_free=False, steinberg=False),
    "rotation group, rank 2",
)
_register(
    GroupData("G2", 2, 14, (3, 11), pi1_torsion_free=True, steinberg=True),
    "exceptional group of rank 2 (degrees only; no torus data)",
)
_register(
    GroupData("Z2", 0, 0, (), connected=False),
    "finite cyclic group (rationally trivial, disconnected)",
)


@dataclass(frozen=True)
class CatalogEntry:
    group: GroupData
    factors: tuple[tuple[str, int], ...]
    description: str


_FACTOR = re.compile(r"^(?P<base>[A-Za-z0-9()]+?)(?:\^(?P<power>\d+))?$")

_ALIASES = {"S1": "T1", "S^1": "T1"}

# Largest rank of a product group: above the 5,000-generator models that
# report, and small enough that a product's degree list fits in memory.
MAX_PRODUCT_RANK = 10_000


def resolve(name: str) -> CatalogEntry:
    """Resolve a catalog name, including products like ``SU(2)^2xT1``."""
    name = _ALIASES.get(name, name)
    if name in _BASE:
        group, description = _BASE[name]
        return CatalogEntry(group, ((name, 1),), description)
    factors: list[tuple[str, int]] = []
    for chunk in name.split("x"):
        match = _FACTOR.match(chunk)
        if not match or match.group("base") not in _BASE:
            raise UnknownCatalogName(f"unknown catalog group {name!r}")
        try:
            power = _decimal(match.group("power") or "1", "power")
        except ValueError as exc:
            raise UnknownCatalogName(f"unknown catalog group: {exc}") from None
        if power < 1:
            raise UnknownCatalogName(f"unknown catalog group {name!r}: power below 1")
        factors.append((match.group("base"), power))
    if len(factors) == 1 and factors[0][1] == 1:
        raise UnknownCatalogName(f"unknown catalog group {name!r}")
    rank = sum(_BASE[base][0].rank * power for base, power in factors)
    if rank > MAX_PRODUCT_RANK:
        raise UnknownCatalogName(f"product group {name!r} has rank above {MAX_PRODUCT_RANK}")
    dimension = 0
    degrees: list[int] = []
    connected = pi1 = steinberg = True
    for base, power in factors:
        g = _BASE[base][0]
        dimension += g.dimension * power
        degrees.extend(g.exterior_degrees * power)
        connected &= g.connected
        pi1 &= g.pi1_torsion_free
        steinberg &= g.steinberg
    group = GroupData(
        name,
        rank,
        dimension,
        tuple(degrees),
        connected=connected,
        pi1_torsion_free=pi1,
        steinberg=steinberg,
    )
    return CatalogEntry(group, tuple(factors), f"product group {name}")


def lookup(name: str) -> GroupData:
    return resolve(name).group


def catalog_list() -> list[CatalogEntry]:
    return [CatalogEntry(g, ((name, 1),), d) for name, (g, d) in sorted(_BASE.items())]


# -- standard restriction maps -----------------------------------------

# Maximal-torus images of the classifying-space generators of each simple
# factor, written over torus variables t1..t_rank (renamed on expansion).
# Unitary factors use the elementary symmetric polynomials of the torus
# weights (sum of weights zero), symplectic/orthogonal ones those of the
# squared weights, with alternating Chern-convention signs.
_TORUS_DATA: dict[str, list[str]] = {
    "SU(2)": ["-t1^2"],
    "Sp(1)": ["-t1^2"],
    "Sp(2)": ["-t1^2-t2^2", "t1^2*t2^2"],
    "SO(3)": ["-4*t1^2"],
    "SO(5)": ["-t1^2-t2^2", "t1^2*t2^2"],
    "SU(3)": ["-t1^2-t1*t2-t2^2", "-t1^2*t2-t1*t2^2"],
    "SU(4)": [
        "-t1^2-t2^2-t3^2-t1*t2-t1*t3-t2*t3",
        "-t1^2*t2-t1^2*t3-t2^2*t1-t2^2*t3-t3^2*t1-t3^2*t2-2*t1*t2*t3",
        "-t1^2*t2*t3-t1*t2^2*t3-t1*t2*t3^2",
    ],
}
for _n in range(1, 5):
    _TORUS_DATA[f"T{_n}"] = [f"t{_i + 1}" for _i in range(_n)]


def _rename_torus_polynomial(poly: str, offset: int) -> str:
    return re.sub(r"t(\d+)", lambda m: f"u{int(m.group(1)) + offset}", poly)


EMBEDDING_KINDS = ("trivial", "block", "coordinate", "maximal-torus", "diagonal", "diagonal-circle")


def standard_restriction(g_name: str, h_name: str, kind: str | None = None) -> RestrictionMap:
    """Restriction map H*(BG) -> H*(BH) for a named standard embedding.

    ``kind`` may be omitted when it is unambiguous (trivial subgroup,
    maximal torus of matching rank, coordinate inclusion of tori).
    """
    g_entry, h_entry = resolve(g_name), resolve(h_name)
    g, h = g_entry.group, h_entry.group
    if kind is None:
        kind = _infer_kind(g_entry, h_entry)
    if kind not in EMBEDDING_KINDS:
        raise UnknownCatalogName(
            f"unknown embedding kind {kind!r}; choose from {', '.join(EMBEDDING_KINDS)}"
        )
    if kind == "trivial":
        if not h.is_trivial and h.connected:
            raise DegreeMismatch("the trivial embedding needs a rationally trivial subgroup")
        return RestrictionMap(g, h, {})
    if kind in ("block", "coordinate"):
        assignment = {}
        for i, name in enumerate(g.bg_names):
            if i < h.rank:
                if g.bg_degrees[i] != h.bg_degrees[i]:
                    raise DegreeMismatch(
                        f"positional embedding mismatches degrees at generator {i + 1}"
                    )
                assignment[name] = h.bg_names[i]
            else:
                assignment[name] = "0"
        return RestrictionMap(g, h, assignment)
    if kind == "maximal-torus":
        if h.rank != g.rank or set(h.exterior_degrees) != {1}:
            raise DegreeMismatch("maximal torus must be a torus of full rank")
        assignment = {}
        gen_index = 0
        torus_offset = 0
        for base, power in g_entry.factors:
            data = _TORUS_DATA.get(base)
            if data is None:
                raise UnknownCatalogName(f"no standard maximal-torus data for {base}")
            for _ in range(power):
                for poly in data:
                    assignment[g.bg_names[gen_index]] = _rename_torus_polynomial(
                        poly, torus_offset
                    )
                    gen_index += 1
                torus_offset += _BASE[base][0].rank
        return RestrictionMap(g, h, assignment)
    if kind == "diagonal":
        if len({base for base, _ in g_entry.factors}) != 1:
            raise DegreeMismatch("diagonal embedding needs a power of a single factor")
        base = g_entry.factors[0][0]
        base_group = _BASE[base][0]
        if h.name != base:
            raise DegreeMismatch(f"diagonal subgroup of {g.name} must be {base}")
        assignment = {}
        for i, name in enumerate(g.bg_names):
            assignment[name] = h.bg_names[i % base_group.rank]
        return RestrictionMap(g, h, assignment)
    # diagonal-circle
    if h.rank != 1 or h.exterior_degrees != (1,):
        raise DegreeMismatch("diagonal-circle embedding needs a rank-one torus")
    assignment = {}
    for name, degree in zip(g.bg_names, g.bg_degrees):
        if degree == 2:
            assignment[name] = "u1"
        elif degree == 4:
            assignment[name] = "-u1^2"
        else:
            raise DegreeMismatch(
                "diagonal-circle embedding is defined for rank-one factors only"
            )
    return RestrictionMap(g, h, assignment)


def _infer_kind(g_entry: CatalogEntry, h_entry: CatalogEntry) -> str:
    g, h = g_entry.group, h_entry.group
    if h.is_trivial or not h.connected:
        return "trivial"
    if set(h.exterior_degrees) == {1} and h.rank == g.rank:
        return "maximal-torus"
    if set(g.exterior_degrees) == {1} and set(h.exterior_degrees) == {1}:
        return "coordinate"
    raise UnknownCatalogName(
        f"no default embedding of {h.name} in {g.name}; pass an explicit kind "
        f"from {', '.join(EMBEDDING_KINDS)}"
    )


# -- diagram presets -----------------------------------------------------

DIAGRAM_PRESETS: dict[str, dict] = {
    # Connected sum of the complex projective plane with its reverse:
    # double mapping cylinder over two circles in SU(2).
    "cp2-sum": {
        "kind": "diagram",
        "G": "SU(2)",
        "H": "e",
        "Kminus": "T1",
        "Kplus": "T1",
        "sphere_dims": [1, 1],
        "embeddings": {
            "G->Kminus": {"u1": "-em^2"},
            "G->Kplus": {"u1": "-ep^2"},
        },
    },
    # The same manifold times a two-sphere (rank-two equal-rank diagram).
    "cp2-sum-times-sphere": {
        "kind": "diagram",
        "G": "SU(2)^2",
        "H": "T1",
        "Kminus": "T2",
        "Kplus": "T2",
        "sphere_dims": [1, 1],
        "embeddings": {
            "G->Kminus": {"u1": "-em^2", "u2": "-u1^2"},
            "G->Kplus": {"u1": "-ep^2", "u2": "-u1^2"},
        },
    },
    # Rank gap one: diagonal circles in a product of two SU(2)'s.
    "gap-one-diagonal": {
        "kind": "diagram",
        "G": "SU(2)^2",
        "H": "e",
        "Kminus": "T1",
        "Kplus": "T1",
        "sphere_dims": [1, 1],
        "embeddings": {
            "G->Kminus": {"u1": "-em^2", "u2": "-em^2"},
            "G->Kplus": {"u1": "-ep^2", "u2": "-ep^2"},
        },
    },
    # Rank gap two: diagonal circles in a product of three SU(2)'s; the
    # surjectivity check must fail, with an explicit witness degree.
    "gap-two-diagonal": {
        "kind": "diagram",
        "G": "SU(2)^3",
        "H": "e",
        "Kminus": "T1",
        "Kplus": "T1",
        "sphere_dims": [1, 1],
        "embeddings": {
            "G->Kminus": {"u1": "-em^2", "u2": "-em^2", "u3": "-em^2"},
            "G->Kplus": {"u1": "-ep^2", "u2": "-ep^2", "u3": "-ep^2"},
        },
    },
    # Rank gap three: diagonal circles in a product of four SU(2)'s.
    "gap-three-diagonal": {
        "kind": "diagram",
        "G": "SU(2)^4",
        "H": "e",
        "Kminus": "T1",
        "Kplus": "T1",
        "sphere_dims": [1, 1],
        "embeddings": {
            "G->Kminus": {"u1": "-em^2", "u2": "-em^2", "u3": "-em^2", "u4": "-em^2"},
            "G->Kplus": {"u1": "-ep^2", "u2": "-ep^2", "u3": "-ep^2", "u4": "-ep^2"},
        },
    },
    # The four-sphere: both singular isotropy groups are all of SU(2).
    "sphere-s4": {
        "kind": "diagram",
        "G": "SU(2)",
        "H": "e",
        "Kminus": "SU(2)",
        "Kplus": "SU(2)",
        "sphere_dims": [3, 3],
        "embeddings": {
            "G->Kminus": {"u1": "em"},
            "G->Kplus": {"u1": "ep"},
        },
    },
    # The seven-sphere as a join of two three-spheres.
    "sphere-s7": {
        "kind": "diagram",
        "G": "SU(2)^2",
        "H": "e",
        "Kminus": "SU(2)",
        "Kplus": "SU(2)",
        "sphere_dims": [3, 3],
        "embeddings": {
            "G->Kminus": {"u1": "em", "u2": "0"},
            "G->Kplus": {"u1": "0", "u2": "ep"},
        },
    },
}
