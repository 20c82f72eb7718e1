"""Mutated scenario documents through the CLI: every one is reported
with a documented exit code and well-formed output, never a traceback."""

from __future__ import annotations

import contextlib
import copy
import csv
import io
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from symcond import fig1_scenario_path
from symcond.cli import main
from symcond.scenario import matrix_to_pairs

EXIT_CODES = {0, 2, 3, 4, 5}

BUNDLED = json.loads(fig1_scenario_path().read_text())

# A swap of two qubits read in the |±⟩ basis: the smallest explicit model.
SWAP = [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]]
EXPLICIT = {
    "model": {
        "kind": "explicit",
        "unitary": matrix_to_pairs(SWAP),
        "apparatus_state": {"matrix": matrix_to_pairs([[1, 0], [0, 0]])},
        "pointer": {
            "outcomes": ["+", "-"],
            "projectors": [matrix_to_pairs([[0.5, 0.5], [0.5, 0.5]]), matrix_to_pairs([[0.5, -0.5], [-0.5, 0.5]])],
        },
    },
    "system_state": {"coherent": {"polar": 1.0, "phase": 0.5}},
    "observable": "sigma_z",
    "conserved": {"system": matrix_to_pairs([[0, 1], [1, 0]]), "apparatus": matrix_to_pairs([[0, 1], [1, 0]])},
}

# Integers stay tiny or far past every size bound, so no example builds a large model.
VALUES = st.one_of(
    st.sampled_from(
        [None, True, "x", "", [], {}, 0, -1, 1, 3, 2**40, 10**30, 1e308, -1e308, 1e-308, 5e-324, -0.0,
         float("nan"), float("inf"), [[1e308, 0.0]]]
    ),
    st.floats(),
    st.text(max_size=4),
)
NUMBERS = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, 1e-300, 1e300, 1e308, -1.0]), st.floats(-10, 10))
LABELS = st.one_of(
    st.sampled_from(["+\n0.5,+,1,2,3,4", "a\rb", "\x00", "\t", " ", "a,b", '"']),
    st.text(st.characters(max_codepoint=0x9F), min_size=1, max_size=4),
)


def paths(node, prefix=()):
    """Every position in a JSON document, the root included."""
    yield prefix
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from paths(child, prefix + (key,))


def at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


@st.composite
def documents(draw):
    doc = copy.deepcopy(draw(st.sampled_from([BUNDLED, EXPLICIT])))
    for _ in range(draw(st.integers(1, 2))):
        action = draw(st.sampled_from(["drop", "replace", "number", "relabel"]))
        if action == "relabel":
            outcomes = doc
            for key in ("model", "pointer", "outcomes"):
                outcomes = outcomes.get(key) if isinstance(outcomes, dict) else None
            if isinstance(outcomes, list) and outcomes:
                outcomes[draw(st.integers(0, len(outcomes) - 1))] = draw(LABELS)
            continue
        if action == "number":
            numbers = [path for path in paths(doc) if type(at(doc, path)) is float]
            if numbers:
                *keys, last = draw(st.sampled_from(numbers))
                at(doc, keys)[last] = draw(NUMBERS)
            continue
        path = draw(st.sampled_from(list(paths(doc))))
        if not path:
            doc = draw(VALUES)
            continue
        *keys, last = path
        if action == "drop":
            del at(doc, keys)[last]
        else:
            at(doc, keys)[last] = draw(VALUES)
    return doc


def call(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    assert rc in EXIT_CODES, (argv, rc, err.getvalue())
    return rc, out.getvalue()


def refuse(constant):
    raise ValueError(f"non-finite JSON constant {constant}")


def check_json(text):
    json.loads(text, parse_constant=refuse)


def check_csv(text):
    lines = text.splitlines()
    data = [line for line in lines if not line.startswith("#")]
    columns = len(next(csv.reader(data[:1])))
    for line in data:
        assert len(next(csv.reader([line]))) == columns, (line, text)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(documents())
def test_mutated_documents_exit_cleanly_with_well_formed_output(tmp_path_factory, doc):
    path = tmp_path_factory.mktemp("fuzz") / "case.scenario"
    path.write_text(json.dumps(doc))
    grid = ["--from", "0", "--to", "1", "--steps", "3"]
    for argv, check in (
        (["run", str(path), "--format", "json"], check_json),
        (["run", str(path), "--format", "csv"], check_csv),
        (["theorems", str(path), "--format", "json"], check_json),
        (["sweep", str(path), *grid, "--format", "json"], check_json),
        (["sweep", str(path), *grid, "--format", "csv"], check_csv),
    ):
        rc, out = call(argv)
        # A rejected document writes nothing to stdout; a report is whole.
        assert rc in (0, 5) or out == "", (argv, out)
        if out:
            check(out)
