"""Malformed documents through the command line: Hypothesis mutates a
valid city document and a valid solution document (its trace included)
and sends them through `solve`, `verify`, `render` and `oracle --max 3`
by `cityguard.cli.main`.  Every run returns 0, 2, 3 or 4 and raises
nothing; a run that exits 2 writes one `validation error:` line."""

from copy import deepcopy
from functools import lru_cache

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cityguard.cli import main
from cityguard.instances import GeneratorParams, gen_random_city
from cityguard.io import canonical_json, city_doc, solution_doc
from cityguard.placement import BUILDINGS_ONLY, city_guarding

# values that a document must refuse, or survive: bools for ints, a zero
# denominator, float spellings, a numerator past the digit limit of int(),
# one within it, nested arrays and wrong kinds
ODD_VALUES = (True, False, None, 0, -1, 7, 1.5, float("inf"), "1/0", "-3/0", "nan",
              "1e400", "x", "", "1/3", "1" + "0" * 5000, f"{10 ** 60 + 1}/3", 10 ** 80,
              [], {}, [[[[1]]]], [1, [2, [3, "a"]]], {"a": 1}, ["case0"], [["case0"]])


@lru_cache(maxsize=1)
def documents():
    """A k = 2 city and its buildings-only city placement, whose trace
    holds a case label and the mode."""
    city = gen_random_city(GeneratorParams(k=2, seed=3, grid=20))
    return city_doc(city), solution_doc(city_guarding(city, BUILDINGS_ONLY))


def _paths(doc, path=()):
    """Every (container path, key) in a JSON document."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        yield path, key
        if isinstance(value, (dict, list)):
            yield from _paths(value, path + (key,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


# JSON values, and traces built of them: entries that start with a label
# and entries that do not, holding strings, integers, bools, floats, nulls,
# lists and objects
JSON = st.recursive(
    st.one_of(st.text(max_size=3), st.integers(), st.booleans(), st.floats(), st.none()),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=2), inner,
                                                                 max_size=2),
    max_leaves=6)
TRACES = st.lists(st.one_of(st.builds(lambda label, rest: [label] + rest,
                                      st.text(max_size=3), st.lists(JSON, max_size=3)),
                            JSON), min_size=1, max_size=3) | JSON


@st.composite
def mutated(draw, doc):
    """A copy of doc with one to three mutations: a key or an item
    dropped, duplicated under another key or at another index, or given
    an odd value, or, in a solution, its trace replaced whole."""
    doc = deepcopy(doc)
    if "trace" in doc and draw(st.booleans()):
        doc["trace"] = draw(TRACES)
        return doc
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_paths(doc))
        if not paths:
            break
        path, key = draw(st.sampled_from(paths))
        parent = _at(doc, path)
        kind = draw(st.sampled_from(("drop", "duplicate", "retype", "retype")))
        if kind == "drop":
            del parent[key]
        elif kind == "duplicate":
            value = deepcopy(parent[key])
            if isinstance(parent, dict):
                parent[draw(st.sampled_from(("base", "quad", "trace", "guards", "extra")))] = value
            else:
                parent.insert(draw(st.integers(0, len(parent))), value)
        else:
            parent[key] = deepcopy(draw(st.sampled_from(ODD_VALUES)))
    return doc


def _run(argv, capsys):
    code = main(argv)
    err = capsys.readouterr().err
    assert code in (0, 2, 3, 4), (argv, code, err)
    if code == 2:
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("validation error: "), err


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_mutated_documents_exit_cleanly(tmp_path, capsys, data):
    city, sol = documents()
    which = data.draw(st.sampled_from(("city", "solution", "both")))
    if which != "solution":
        city = data.draw(mutated(city))
    if which != "city":
        sol = data.draw(mutated(sol))
    scene, solution, out = tmp_path / "city.json", tmp_path / "sol.json", tmp_path / "out"
    scene.write_text(canonical_json(city))
    solution.write_text(canonical_json(sol))
    _run(["solve", "--algo", "walls-main", "--in", str(scene), "--out", str(out)], capsys)
    _run(["verify", "--scene", str(scene), "--solution", str(solution), "--city"], capsys)
    _run(["render", "--scene", str(scene), "--solution", str(solution), "--out", str(out)],
         capsys)
    _run(["oracle", "--scene", str(scene), "--max", "3"], capsys)
