"""Document formats and the analysis orchestrator.

Documents are JSON objects dispatched on a ``kind`` field:

- ``model``: explicit generators/differential/cutoff;
- ``homogeneous`` / ``biquotient``: a group pair with restriction maps
  (polynomial strings over the subgroup's classifying generators, or a
  named standard embedding);
- ``diagram``: a cohomogeneity-one group diagram, with the restriction
  maps written over the principal classifying generators plus the
  sphere classes ``ep``/``em``;
- ``betti``: a bare Betti table (K-theory input).

Polynomials use the grammar ``coef*gen^k*...`` joined by ``+``/``-``
with integer or ``a/b`` coefficients.  Reports echo fully resolved
inputs (groups inline, maps explicit, cutoff fixed), so they are
self-contained and re-runnable; identical inputs give byte-identical
structured reports.
"""

from __future__ import annotations

import json

from . import catalog, criteria, ktheory
from . import cohomology as ch
from .cdga import Generator, SullivanAlgebra
from .errors import SchemaError, ValidationError
from .models import (
    GroupData,
    GroupDiagram,
    RestrictionMap,
    biquotient_model,  # noqa: F401  (perfbench/tracer.py patches it here)
    borel_model_cohomogeneity_one,  # noqa: F401  (perfbench/tracer.py patches it here)
    cohomogeneity_one_model,  # noqa: F401  (perfbench/tracer.py patches it here)
)

# The keys each kind of document reads; any other key is rejected.
DOCUMENT_KEYS = {
    "model": ("kind", "generators", "differential", "cutoff"),
    "homogeneous": ("kind", "G", "H", "embedding", "cutoff"),
    "biquotient": ("kind", "G", "H", "left", "right", "cutoff"),
    "diagram": ("kind", "G", "H", "Kminus", "Kplus", "sphere_dims", "embeddings", "cutoff", "allow_disconnected"),
    "betti": ("kind", "betti"),
}
SCHEMA_KINDS = tuple(DOCUMENT_KEYS)


def _is_int(value) -> bool:
    """An integer, not a bool (JSON ``true`` loads as a Python int)."""
    return isinstance(value, int) and not isinstance(value, bool)


def _require(doc: dict, key: str, kind, path: str):
    if key not in doc:
        raise SchemaError(f"{path}: missing key {key!r}")
    value = doc[key]
    if kind is not None and not (_is_int(value) if kind is int else isinstance(value, kind)):
        raise SchemaError(f"{path}.{key}: expected {kind.__name__}, got {type(value).__name__}")
    return value


def _flag(obj: dict, key: str, default: bool, path: str) -> bool:
    """An optional JSON boolean; any other value is a schema error."""
    return _require(obj, key, bool, path) if key in obj else default


def _reject_unknown(obj: dict, keys, path: str) -> None:
    unknown = next((key for key in obj if key not in keys), None)
    if unknown is not None:
        raise SchemaError(f"{path}: unknown key {unknown!r}")


def load_group(obj, path: str) -> GroupData:
    """A group reference: a catalog name or an inline description."""
    if isinstance(obj, str):
        return catalog.lookup(obj)
    if not isinstance(obj, dict):
        raise SchemaError(f"{path}: expected a catalog name or a group object")
    _reject_unknown(obj, ("name", "rank", "dim", "degrees", "flags"), path)
    name = _require(obj, "name", str, path)
    rank = _require(obj, "rank", int, path)
    dim = _require(obj, "dim", int, path)
    degrees = _require(obj, "degrees", list, path)
    if not all(_is_int(d) for d in degrees):
        raise SchemaError(f"{path}.degrees: expected integers")
    flags = obj.get("flags", {})
    if not isinstance(flags, dict):
        raise SchemaError(f"{path}.flags: expected an object")
    _reject_unknown(flags, ("connected", "pi1_torsion_free", "steinberg"), f"{path}.flags")
    return GroupData(
        name,
        rank,
        dim,
        tuple(degrees),
        connected=_flag(flags, "connected", True, f"{path}.flags"),
        pi1_torsion_free=_flag(flags, "pi1_torsion_free", False, f"{path}.flags"),
        steinberg=_flag(flags, "steinberg", False, f"{path}.flags"),
    )


def group_document(g: GroupData) -> dict:
    return {
        "name": g.name,
        "rank": g.rank,
        "dim": g.dimension,
        "degrees": list(g.exterior_degrees),
        "flags": {
            "connected": g.connected,
            "pi1_torsion_free": g.pi1_torsion_free,
            "steinberg": g.steinberg,
        },
    }


def _load_polynomial_map(obj, path: str) -> dict[str, str]:
    if not isinstance(obj, dict):
        raise SchemaError(f"{path}: expected an object of generator -> polynomial")
    out = {}
    for key, value in obj.items():
        if not isinstance(value, str):
            raise SchemaError(f"{path}.{key}: expected a polynomial string")
        out[key] = value
    return out


def _resolve_embedding(doc: dict, g_ref, h_ref, path: str) -> RestrictionMap:
    embedding = doc.get("embedding", None)
    g = load_group(g_ref, f"{path}.G")
    h = load_group(h_ref, f"{path}.H")
    if embedding is None or isinstance(embedding, str):
        if not isinstance(g_ref, str) or not isinstance(h_ref, str):
            raise SchemaError(
                f"{path}.embedding: named embeddings need catalog group names"
            )
        return catalog.standard_restriction(g_ref, h_ref, embedding)
    return RestrictionMap(g, h, _load_polynomial_map(embedding, f"{path}.embedding"))


def load_homogeneous(doc: dict, path: str = "$") -> tuple[GroupData, GroupData, RestrictionMap]:
    g_ref = _require(doc, "G", None, path)
    h_ref = _require(doc, "H", None, path)
    restriction = _resolve_embedding(doc, g_ref, h_ref, path)
    return restriction.source, restriction.target, restriction


def load_biquotient(doc: dict, path: str = "$") -> tuple[GroupData, GroupData, RestrictionMap]:
    g = load_group(_require(doc, "G", None, path), f"{path}.G")
    h = load_group(_require(doc, "H", None, path), f"{path}.H")
    left = _load_polynomial_map(doc.get("left", {}), f"{path}.left")
    right = _load_polynomial_map(doc.get("right", {}), f"{path}.right")
    return g, h, RestrictionMap(g, h, left, right)


def load_diagram(doc: dict, path: str = "$") -> GroupDiagram:
    g = load_group(_require(doc, "G", None, path), f"{path}.G")
    h = load_group(_require(doc, "H", None, path), f"{path}.H")
    k_minus = load_group(_require(doc, "Kminus", None, path), f"{path}.Kminus")
    k_plus = load_group(_require(doc, "Kplus", None, path), f"{path}.Kplus")
    sphere_dims = _require(doc, "sphere_dims", list, path)
    if len(sphere_dims) != 2 or not all(_is_int(x) for x in sphere_dims):
        raise SchemaError(f"{path}.sphere_dims: expected two integers [l-, l+]")
    embeddings = _require(doc, "embeddings", dict, path)
    _reject_unknown(embeddings, ("G->Kminus", "G->Kplus"), f"{path}.embeddings")
    minus = _load_polynomial_map(
        _require(embeddings, "G->Kminus", dict, f"{path}.embeddings"),
        f"{path}.embeddings.G->Kminus",
    )
    plus = _load_polynomial_map(
        _require(embeddings, "G->Kplus", dict, f"{path}.embeddings"),
        f"{path}.embeddings.G->Kplus",
    )
    return GroupDiagram(g, h, k_minus, k_plus, minus, plus, tuple(sphere_dims))


def load_model(doc: dict, path: str = "$") -> SullivanAlgebra:
    generators = _require(doc, "generators", list, path)
    cutoff = _require(doc, "cutoff", int, path)
    gens = []
    for i, spec in enumerate(generators):
        if (
            not isinstance(spec, list)
            or len(spec) != 2
            or not isinstance(spec[0], str)
            or not _is_int(spec[1])
        ):
            raise SchemaError(f"{path}.generators[{i}]: expected [name, degree]")
        try:
            gens.append(Generator(spec[0], spec[1]))
        except ValidationError as exc:
            raise SchemaError(f"{path}.generators[{i}]: {exc}") from exc
    differential = _load_polynomial_map(doc.get("differential", {}), f"{path}.differential")
    draft = SullivanAlgebra(gens, cutoff)
    images = {}
    for name, text in differential.items():
        try:
            images[name] = draft.parse(text)
        except ValueError as exc:
            raise SchemaError(f"{path}.differential.{name}: {exc}") from exc
    return SullivanAlgebra(gens, cutoff, images)


def model_document(a: SullivanAlgebra) -> dict:
    return {
        "kind": "model",
        "generators": [[g.name, g.degree] for g in a.generators],
        "differential": {
            g.name: a.format_element(img)
            for g, img in zip(a.generators, a.differential)
            if not img.is_zero
        },
        "cutoff": a.cutoff,
    }


def load_document(doc: dict, path: str = "$"):
    if not isinstance(doc, dict) or not doc:
        raise SchemaError(f"{path}: expected a non-empty document object")
    kind = _require(doc, "kind", str, path)
    if kind not in SCHEMA_KINDS:
        raise SchemaError(f"{path}.kind: unknown kind {kind!r}; expected one of {SCHEMA_KINDS}")
    _reject_unknown(doc, DOCUMENT_KEYS[kind], path)
    if kind == "model":
        payload = load_model(doc, path)
    elif kind == "homogeneous":
        payload = load_homogeneous(doc, path)
    elif kind == "biquotient":
        payload = load_biquotient(doc, path)
    elif kind == "diagram":
        payload = load_diagram(doc, path)
    else:
        payload = tuple(_require(doc, "betti", list, path))
        if not all(_is_int(b) and b >= 0 for b in payload):
            raise SchemaError(f"{path}.betti: expected non-negative integers")
    if "cutoff" in doc:
        _require(doc, "cutoff", int, path)
    return kind, payload


# -- report assembly -----------------------------------------------------


def _pair_input_document(kind: str, g, h, r: RestrictionMap, cutoff: int) -> dict:
    doc = {
        "kind": kind,
        "G": group_document(g),
        "H": group_document(h),
        "cutoff": cutoff,
    }
    if kind == "homogeneous":
        doc["embedding"] = dict(sorted(r.assignment.items()))
    else:
        doc["left"] = dict(sorted(r.assignment.items()))
        doc["right"] = dict(sorted((r.right_assignment or {}).items()))
    return doc


def diagram_document(d: GroupDiagram) -> dict:
    return {
        "kind": "diagram",
        "G": group_document(d.g),
        "H": group_document(d.h),
        "Kminus": group_document(d.k_minus),
        "Kplus": group_document(d.k_plus),
        "sphere_dims": list(d.sphere_dims),
        "embeddings": {
            "G->Kminus": dict(sorted(d.restriction_minus.items())),
            "G->Kplus": dict(sorted(d.restriction_plus.items())),
        },
    }


def _k_dimensions(betti) -> dict:
    k0, k1, ko = ktheory.rational_k_dimensions(betti)
    infinite = ktheory.stable_class_infinitude(betti)
    return {"k0_dim": k0, "k1_dim": k1, "ko_dim": ko, "infinite_stable_classes": infinite}


def _space_summary(table: ch.CohomologyTable) -> dict:
    a, betti = table.algebra, table.betti
    fdim = table.formal_dimension()
    return {
        "model": model_document(a),
        "betti": list(betti),
        "euler_characteristic": ch.euler_characteristic(betti),
        "chi_pi": a.homotopy_euler_characteristic(),
        "pure": a.is_pure(),
        "formal_dimension": fdim,
        "poincare_duality": ch.poincare_duality_holds(betti, fdim),
        "representatives": {
            str(n): [a.format_element(rep) for rep in table.representatives(n)]
            for n in range(table.cutoff + 1)
            if table.betti[n]
        },
    }


def run_analysis(doc: dict, cutoff: int | None = None) -> dict:
    """Run the full analysis for a document and return the structured
    report (a JSON-serializable, deterministically ordered dict)."""
    kind, payload = load_document(doc)
    if cutoff is None:
        cutoff = doc.get("cutoff")
    if kind == "betti":
        return {
            "kind": kind,
            "input": {"kind": "betti", "betti": list(payload)},
            "ktheory": {
                **_k_dimensions(payload),
                "citations": [ktheory.CITATION_CHERN, ktheory.CITATION_KO],
            },
        }
    if kind == "model":
        if cutoff is not None and cutoff != payload.cutoff:
            payload = payload.with_cutoff(cutoff)
        return _analyze_model(payload)
    if kind in ("homogeneous", "biquotient"):
        g, h, restriction = payload
        return _analyze_pair(kind, g, h, restriction, cutoff)
    return _analyze_diagram(payload, cutoff, _flag(doc, "allow_disconnected", False, "$"))


def _analyze_model(a: SullivanAlgebra) -> dict:
    table = ch.cohomology(a)
    betti = table.betti
    report = {
        "kind": "model",
        "input": model_document(a),
        "space": _space_summary(table),
        "ktheory": _k_dimensions(betti),
    }
    citations = [ktheory.CITATION_CHERN, ktheory.CITATION_KO]
    if a.is_pure():
        lg = ch.LowerGradedTable(table)
        report["space"]["lower_grading"] = [
            {str(i): d for i, d in sorted(lg.dims(n).items())} for n in range(a.cutoff + 1)
        ]
        if ch.top_window_vanishes(a, betti):
            coverage = criteria.pure_h0_equals_heven(table)
            formality = criteria.pure_formality(table)
            report["even_coverage"] = {
                "h0_equals_heven": coverage.h0_equals_heven,
                "chi_pi": coverage.chi_pi,
                "first_uncovered_degree": coverage.first_uncovered_degree,
            }
            report["formality"] = formality._asdict()
            citations.append(coverage.citation)
    report["citations"] = sorted(set(citations))
    return report


def _analyze_pair(kind, g, h, restriction: RestrictionMap, cutoff) -> dict:
    package, verdict = criteria.pair_analysis(kind, g, h, restriction, cutoff)
    table = criteria.space_table(package, verdict.context)
    input_doc = _pair_input_document(kind, g, h, restriction, table.cutoff)
    flags = ktheory.StabilizationFlags.from_homogeneous(g, h)
    return _verdict_report(kind, input_doc, table, verdict, flags)


def _analyze_diagram(diagram: GroupDiagram, cutoff, allow_disconnected: bool) -> dict:
    package, verdict = criteria.cohomogeneity_one_analysis(diagram, cutoff, allow_disconnected)
    table = criteria.space_table(package, verdict.context)
    euler = criteria.euler_characteristic_relations(diagram, table)
    input_doc = diagram_document(diagram)
    input_doc["cutoff"] = table.cutoff
    if allow_disconnected:
        input_doc["allow_disconnected"] = True
    flags = ktheory.StabilizationFlags.from_diagram(diagram)
    sections = {
        "borel": {
            "model": model_document(package.borel),
            "betti": list(ch.betti_numbers(package.borel)),
        },
        "euler_relations": euler._asdict(),
        "theorem_applicability": criteria.theorem_a_applicability(diagram)._asdict(),
    }
    return _verdict_report("diagram", input_doc, table, verdict, flags, sections, (euler.citation,))


def _verdict_report(kind, input_doc, table, verdict, flags, sections=None, citations=()) -> dict:
    """The report of a space with a verdict: its input, space summary,
    verdict, the kind's own ``sections``, K-theory, and the citations of
    the verdict, the K-theory and ``citations``."""
    k_report = ktheory.stabilization_report(verdict, flags, table.betti)._asdict()
    return {
        "kind": kind,
        "input": input_doc,
        "space": _space_summary(table),
        "verdict": verdict._asdict(),
        **(sections or {}),
        "ktheory": k_report,
        "citations": sorted({verdict.citation, *citations, *k_report["citations"]}),
    }


def to_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def to_text(report: dict) -> str:
    """Human-readable rendering; the structured form is the contract."""
    lines = [f"kind: {report['kind']}"]
    space = report.get("space")
    if space:
        lines.append(f"betti: {space['betti']}")
        lines.append(f"euler characteristic: {space['euler_characteristic']}")
        lines.append(f"homotopy euler characteristic: {space['chi_pi']}")
        lines.append(f"formal dimension: {space['formal_dimension']}")
    if "borel" in report:
        lines.append(f"borel betti: {report['borel']['betti']}")
    verdict = report.get("verdict")
    if verdict:
        lines.append(
            "even surjectivity: rank criterion "
            f"{verdict['rank_criterion']}, direct check {verdict['direct_check']}"
            + (
                f", first failing degree {verdict['first_failing_degree']}"
                if verdict["first_failing_degree"] is not None
                else ""
            )
        )
    if "euler_relations" in report:
        er = report["euler_relations"]
        lines.append(
            f"euler identity: chi(M) = {er['chi_m']} = "
            f"{er['chi_orbit_minus']} + {er['chi_orbit_plus']} - {er['chi_principal']}"
        )
    kt = report.get("ktheory")
    if kt:
        lines.append(
            f"rational K-theory: k0 = {kt['k0_dim']}, k1 = {kt['k1_dim']}, "
            f"ko = {kt['ko_dim']}"
        )
        if "stabilization_conclusion" in kt:
            lines.append(f"stabilization: {kt['stabilization_conclusion']}")
    for citation in report.get("citations", []):
        lines.append(f"cites: {citation}")
    return "\n".join(lines) + "\n"
