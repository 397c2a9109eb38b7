"""Command-line surface.

Verbs: ``catalog list|show``, ``model build``, ``cohomology``,
``check homogeneous|biquotient|coho1``, ``ktheory``, ``report``.
Global flags: ``--cutoff N`` (every verb but ``catalog``), ``--output
PATH``, ``--format text|structured``.  Exit codes: 0 success, 1
validation error (a usage error too), 2 computation error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import catalog, documents
from .cdga import _decimal
from .errors import SchemaError, SullivanError, ValidationError


def _common_flags(parser: argparse.ArgumentParser, cutoff: bool = True) -> None:
    if cutoff:
        parser.add_argument("--cutoff", type=int, default=None, help="maximum degree tracked")
    parser.add_argument("--output", default=None, help="write the report to this path")
    parser.add_argument(
        "--format",
        choices=("text", "structured"),
        default="text",
        help="text for reading, structured (JSON) as the stable contract",
    )


def _emit(args, report: dict) -> None:
    text = documents.to_json(report) if args.format == "structured" else documents.to_text(report)
    _write(args, text)


def _write(args, text: str) -> None:
    """Write to ``--output`` when given, else to stdout."""
    if args.output:
        try:
            with open(args.output, "w", encoding="ascii") as handle:
                handle.write(text)
        except OSError as exc:
            raise ValidationError(f"cannot write output: {exc}") from exc
    else:
        sys.stdout.write(text)


def _load_file(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle, parse_int=lambda digits: _decimal(digits, "integer"))
    except OSError as exc:
        raise SchemaError(f"cannot read document: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        raise SchemaError(f"document is not valid JSON: {exc}") from exc


def _document_from_args(args, kind: str | None = None) -> dict:
    """The document of ``--file``, ``--preset`` or ``--g``/``--h`` of the
    given kind (None: any file, or a preset); two sources are an error."""
    given = [flag for flag in ("file", "preset", "group", "g", "h") if getattr(args, flag, None)]
    if len(given) > 1 and given != ["g", "h"]:
        raise SchemaError("pass one document source, not " + " and ".join(f"--{f}" for f in given))
    if getattr(args, "embedding", None) and (args.file or args.preset):
        raise SchemaError("--embedding goes with --g and --h; a --file or --preset document has its own maps")
    if args.file:
        doc = _load_file(args.file)
        got = doc.get("kind") if isinstance(doc, dict) else None
        if kind is not None and got != kind:
            raise SchemaError(f"expected a {kind!r} document, got kind {got!r}")
        return doc
    if kind in (None, "diagram"):
        preset = args.preset
        if preset:
            if preset not in catalog.DIAGRAM_PRESETS:
                raise SchemaError(
                    f"unknown preset {preset!r}; available: "
                    + ", ".join(sorted(catalog.DIAGRAM_PRESETS))
                )
            return dict(catalog.DIAGRAM_PRESETS[preset])
        raise SchemaError("pass --file or --preset")
    if kind == "homogeneous":
        if not (args.g and args.h):
            raise SchemaError("pass --file or both --g and --h")
        doc = {"kind": "homogeneous", "G": args.g, "H": args.h}
        if args.embedding:
            doc["embedding"] = args.embedding
        return doc
    raise SchemaError("pass --file")


def cmd_catalog(args) -> None:
    if args.action == "list" and args.name is not None:
        raise SchemaError(f"catalog list takes no group name, got {args.name!r}")
    if args.action == "show" and args.name is None:
        raise SchemaError("catalog show needs a group name")
    if args.action == "list":
        entries = catalog.catalog_list()
        if args.format == "structured":
            report = {
                "kind": "catalog",
                "groups": [
                    {**documents.group_document(e.group), "description": e.description}
                    for e in entries
                ],
                "diagram_presets": sorted(catalog.DIAGRAM_PRESETS),
            }
            _emit(args, report)
        else:
            lines = [
                f"{e.group.name:8s} rank {e.group.rank}  dim {e.group.dimension:3d}  "
                f"degrees {list(e.group.exterior_degrees)}  - {e.description}"
                for e in entries
            ]
            lines.append("diagram presets: " + ", ".join(sorted(catalog.DIAGRAM_PRESETS)))
            _write(args, "\n".join(lines) + "\n")
    else:
        entry = catalog.resolve(args.name)
        report = {
            "kind": "catalog-entry",
            "group": documents.group_document(entry.group),
            "description": entry.description,
            "classifying_generators": dict(
                zip(entry.group.bg_names, entry.group.bg_degrees)
            ),
        }
        if args.format == "structured":
            _emit(args, report)
        else:
            g = entry.group
            lines = [
                f"name: {g.name}",
                f"rank: {g.rank}",
                f"dimension: {g.dimension}",
                f"exterior degrees: {list(g.exterior_degrees)}",
                f"classifying generators: "
                + ", ".join(f"{n}:{d}" for n, d in zip(g.bg_names, g.bg_degrees)),
                f"flags: connected={g.connected} "
                f"pi1_torsion_free={g.pi1_torsion_free} steinberg={g.steinberg}",
            ]
            _write(args, "\n".join(lines) + "\n")


def cmd_model_build(args) -> None:
    from .models import classifying_space_model, lie_group_model

    if args.file:
        _, algebra = documents.load_document(_document_from_args(args, "model"))
        if args.cutoff is not None:
            algebra = algebra.with_cutoff(args.cutoff)
    else:
        if not args.group:
            raise SchemaError("pass --file or --group")
        group = catalog.lookup(args.group)
        builder = lie_group_model if args.type == "lie" else classifying_space_model
        algebra = builder(group, args.cutoff)
    _emit(args, {"kind": "model", **documents.model_document(algebra)})


# The verbs that report a --file document of given kinds: their help, the
# kinds they accept, and how their error message names those kinds.
FILE_VERBS = {
    "cohomology": ("Betti table and invariants of a model", ("model",), "a model document"),
    "ktheory": ("rational K-theory dimensions", ("model", "betti"), "a model or betti document"),
}


def cmd_file_verb(args) -> None:
    _, kinds, expected = FILE_VERBS[args.command]
    doc = _load_file(args.file)
    if not isinstance(doc, dict) or doc.get("kind") not in kinds:
        raise SchemaError(f"{args.command} expects {expected}")
    _emit(args, documents.run_analysis(doc, args.cutoff))


def cmd_check(args) -> None:
    doc = _document_from_args(args, "diagram" if args.space == "coho1" else args.space)
    report = documents.run_analysis(doc, args.cutoff)
    _emit(args, report)
    if not report["verdict"]["direct_check"]:
        sys.stderr.write(
            "note: even-degree surjectivity fails at degree "
            f"{report['verdict']['first_failing_degree']}\n"
        )


def cmd_report(args) -> None:
    report = documents.run_analysis(_document_from_args(args), args.cutoff)
    _emit(args, report)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it
    unchanged, so every ``main`` call reuses it."""
    parser = argparse.ArgumentParser(
        prog="sullivan",
        description=(
            "Exact rational cohomology of homogeneous spaces, biquotients and "
            "cohomogeneity-one manifolds, with equivariant surjectivity verdicts "
            "and rational K-theory counts"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_catalog = sub.add_parser("catalog", help="list or inspect catalog groups")
    p_catalog.add_argument("action", choices=("list", "show"))
    p_catalog.add_argument("name", nargs="?", default=None)
    _common_flags(p_catalog, cutoff=False)
    p_catalog.set_defaults(func=cmd_catalog)

    p_model = sub.add_parser("model", help="build a model document")
    p_model.add_argument("action", choices=("build",))
    p_model.add_argument("--file", default=None, help="model document to validate/echo")
    p_model.add_argument("--group", default=None, help="catalog group name")
    p_model.add_argument("--type", choices=("lie", "classifying"), default="lie")
    _common_flags(p_model)
    p_model.set_defaults(func=cmd_model_build)

    for verb, (help_text, _, _) in FILE_VERBS.items():
        p_file = sub.add_parser(verb, help=help_text)
        p_file.add_argument("--file", required=True)
        _common_flags(p_file)
        p_file.set_defaults(func=cmd_file_verb)

    p_check = sub.add_parser("check", help="run a surjectivity criterion")
    p_check.add_argument("space", choices=("homogeneous", "biquotient", "coho1"))
    p_check.add_argument("--file", default=None)
    p_check.add_argument("--preset", default=None, help="named diagram preset (coho1)")
    p_check.add_argument("--g", default=None, help="catalog name of the group")
    p_check.add_argument("--h", default=None, help="catalog name of the subgroup")
    p_check.add_argument(
        "--embedding", default=None, help="named standard embedding (homogeneous)"
    )
    _common_flags(p_check)
    p_check.set_defaults(func=cmd_check)

    p_report = sub.add_parser("report", help="full analysis of any document")
    p_report.add_argument("--file", default=None)
    p_report.add_argument("--preset", default=None)
    _common_flags(p_report)
    p_report.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse has printed help (exit 0) or a usage error (exit 2); a
        # usage error is a validation error.
        return 1 if exc.code else 0
    try:
        args.func(args)
    except ValidationError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except SullivanError as exc:
        sys.stderr.write(f"computation error: {exc}\n")
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
