"""Hostile documents through ``sullivan report --file``: documents of
every kind, built from small catalog groups, presets and polynomial
fragments, some with unreadable generator names or malformed
polynomials and at most one field replaced by a value of the wrong
kind, either give a report (exit 0) or a validation error (exit 1),
never a traceback or a computation error.  Cutoffs stay at most 8, so
every example is small."""

import contextlib
import io
import json
import os
import tempfile

from hypothesis import given, settings, strategies as st

from sullivan.catalog import DIAGRAM_PRESETS, EMBEDDING_KINDS
from sullivan.cli import main

NAMES = ["x", "y", "a", "b", "u1", "q1", "x-y", "2", "", "u^2"]
TOKENS = ["x", "u1", "2", "1/2", "/0", "^", "^2", "*", "+", "-", " "]

leaf = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 8),
    st.floats(allow_nan=False, allow_infinity=False, width=16),
    st.text(max_size=4),
)
junk = st.recursive(
    leaf,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3), st.dictionaries(st.text(max_size=3), inner, max_size=3)
    ),
    max_leaves=6,
)
cutoffs = st.integers(-1, 8)


def _polynomials(variables):
    """Polynomials in the given variables with integer, fractional or
    zero-denominator coefficients, or fragments of the grammar's tokens."""
    factors = st.tuples(st.sampled_from(variables), st.integers(1, 3)).map(
        lambda t: f"{t[0]}^{t[1]}" if t[1] > 1 else t[0]
    )
    terms = st.tuples(
        st.sampled_from(["", "2*", "-", "1/2*", "3/0*"]), st.lists(factors, min_size=1, max_size=3)
    ).map(lambda t: t[0] + "*".join(t[1]))
    return st.one_of(
        st.lists(terms, min_size=1, max_size=3).map("+".join),
        st.lists(st.sampled_from(TOKENS), max_size=6).map("".join),
    )


def _polynomial_maps(variables):
    return st.dictionaries(st.sampled_from(variables), _polynomials(variables), max_size=3)


def _model(generators):
    names = [name for name, _ in generators] or ["x"]
    return st.fixed_dictionaries(
        {
            "kind": st.just("model"),
            "generators": st.just(generators),
            "differential": _polynomial_maps(names),
            "cutoff": cutoffs,
        }
    )


groups = st.one_of(
    st.sampled_from(["SU(2)", "SU(3)", "Sp(1)", "SO(3)", "T1", "T2", "e", "Z2", "E8"]),
    st.tuples(st.sampled_from([(1, 3, [3]), (1, 1, [1]), (2, 6, [3, 3]), (1, 2, [1])]), st.booleans()).map(
        lambda t: {
            "name": "G",
            "rank": t[0][0],
            "dim": t[0][1],
            "degrees": t[0][2],
            "flags": {"connected": t[1]},
        }
    ),
)
classifying_maps = _polynomial_maps(["u1", "u2"])

models = st.lists(
    st.tuples(st.sampled_from(NAMES), st.integers(0, 4)).map(list),
    max_size=4,
    unique_by=lambda g: g[0],
).flatmap(_model)
pairs = st.fixed_dictionaries(
    {
        "kind": st.sampled_from(["homogeneous", "biquotient"]),
        "G": groups,
        "H": groups,
        "cutoff": cutoffs,
    },
    optional={
        "embedding": st.one_of(st.sampled_from(EMBEDDING_KINDS), classifying_maps),
        "left": classifying_maps,
        "right": classifying_maps,
    },
)
diagrams = st.tuples(
    st.sampled_from(sorted(DIAGRAM_PRESETS)),
    st.one_of(
        st.just({}),
        st.fixed_dictionaries(
            {},
            optional={
                "G": groups,
                "H": groups,
                "Kminus": groups,
                "Kplus": groups,
                "sphere_dims": st.lists(st.integers(-1, 4), max_size=3),
                "embeddings": st.fixed_dictionaries(
                    {
                        "G->Kminus": _polynomial_maps(["u1", "u2", "em"]),
                        "G->Kplus": _polynomial_maps(["u1", "u2", "ep"]),
                    }
                ),
                "allow_disconnected": st.booleans(),
            },
        ),
    ),
    cutoffs,
).map(lambda t: {**DIAGRAM_PRESETS[t[0]], **t[1], "cutoff": t[2]})
bettis = st.fixed_dictionaries(
    {"kind": st.just("betti"), "betti": st.lists(st.integers(-1, 4), max_size=6)}
)


def _break_one_field(doc):
    """The document, or in about one case of four the document with one
    field replaced by junk; a cutoff is never dropped to its default,
    which can exceed 8."""
    broken = st.sampled_from(sorted(doc)).flatmap(
        lambda key: (junk.filter(lambda v: v is not None) if key == "cutoff" else junk).map(
            lambda value: {**doc, key: value}
        )
    )
    return st.integers(0, 3).flatmap(lambda k: broken if k == 0 else st.just(doc))


documents = st.one_of(
    *(kind.flatmap(_break_one_field) for kind in (models, pairs, diagrams, bettis)), junk
)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(documents)
def test_report_file_exits_zero_or_one(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["report", "--file", path, "--format", "structured"])
    assert code in (0, 1), err.getvalue()
    if code == 0:
        assert json.loads(out.getvalue())["kind"] == doc["kind"]
    else:
        assert err.getvalue().startswith("error: ")
