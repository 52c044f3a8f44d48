"""Property tests over the scenario schema table.

The strategies are built from the table in xrlayout.scenario: walking it
alongside a bundled document gives every table path, and probing each leaf
kind with sample values tells which value generators it accepts.  From
that come valid documents (a bundled session with one table leaf redrawn
within its constraints) and mutants (a bundled session with one table path
replaced by any JSON value, deleted, or given an extra key).  The
properties are the parser's promises: parsing raises nothing but
ScenarioError, serialize(parse(x)) is a fixed point, and a parsed scenario
simulates and scores under every strategy raising nothing outside
XRLayoutError.

Each edit is kept as the session's text split around the edited path, so
an example costs a draw and a parse, not a copy and a dump of the session.
"""

import functools
import json
import sys

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from xrlayout import designspace
from xrlayout.agent import simulate_session
from xrlayout.errors import ScenarioError, XRLayoutError
from xrlayout.metrics import session_metrics
from xrlayout.placement import Strategy
from xrlayout.scenario import (
    _SCENARIO,
    CATEGORIES,
    SCAN_POLICIES,
    SETTINGS,
    USER_STATES,
    _Block,
    _ListOf,
    _MapOf,
    bundled_scenario_names,
    bundled_scenario_text,
    parse_scenario,
    serialize_scenario,
)

pytestmark = pytest.mark.filterwarnings("ignore::xrlayout.placement.PlacementWarning")

# Deterministic runs: the examples are the same on every machine and run.
RUN = dict(deadline=None, derandomize=True, suppress_health_check=list(HealthCheck))

DOCS = [
    json.loads(bundled_scenario_text(n)) for n in bundled_scenario_names() if n.endswith("_env_ref")
]
CONTAINERS = (_Block, _ListOf, _MapOf)


def nodes(kind, value, path=()):
    """(path, kind) of every value in a document that the table describes."""
    yield path, kind
    if isinstance(kind, _Block) and isinstance(value, dict):
        for row in kind.rows:
            if row.key in value:
                yield from nodes(row.kind, value[row.key], path + (row.key,))
    elif isinstance(kind, _ListOf) and isinstance(value, list):
        for i, item in enumerate(value):
            yield from nodes(kind.item, item, path + (i,))
    elif isinstance(kind, _MapOf) and isinstance(value, dict):
        for key, item in value.items():
            yield from nodes(kind.item, item, path + (key,))


def accepts(kind, value) -> bool:
    diags = []
    return kind.read(value, "", diags) is not None and not diags


def _strings(doc):
    if isinstance(doc, dict):
        doc = list(doc.values())
    if isinstance(doc, list):
        for item in doc:
            yield from _strings(item)
    elif isinstance(doc, str):
        yield doc


EXTREMES = [5e-324, sys.float_info.max]
finite = st.floats(allow_nan=False, allow_infinity=False)
positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
xyz = st.lists(finite, min_size=3, max_size=3)
# Words the table's choices draw on: every string in the bundled sessions and
# every option the package defines.
VOCABULARY = sorted(
    {s for doc in DOCS for s in _strings(doc)}
    | set(CATEGORIES + SETTINGS + USER_STATES + SCAN_POLICIES)
    | {s.value for s in Strategy}
    | set(designspace.AVAILABILITY + designspace.AVAILABILITY_MUTABILITY)
    | set(designspace.IMMERSION + designspace.MODALITY + designspace.INTERACTIVITY)
    | {"hold"}
)
# (probe, generator): a leaf kind that accepts the probe gets the generator.
GENERATORS = [
    (-1.5, finite),
    # the extremes overflow derived sizes, e.g. width / aspect ratio
    (1.5, positive | st.sampled_from(EXTREMES)),
    (-3, st.integers()),
    (3, st.integers(min_value=0)),
    (True, st.booleans()),
    ("zq", st.text(max_size=8)),
    ([1.0, 2.0, 3.0], xyz),
    ([0.0, [0.0, 0.0, 0.0], 0.0], st.tuples(finite, xyz, finite)),
    ({}, st.dictionaries(st.text(max_size=8), st.integers() | st.text(max_size=8), max_size=3)),
    (["a"], st.lists(st.text(max_size=8), min_size=1, max_size=8)),
    ([1.0], st.lists(finite, min_size=1, max_size=8)),
]


@functools.cache  # leaf kinds are shared objects; probe each once
def valid_values(kind):
    """Generators of the values a leaf kind accepts, or None if it takes none of them."""
    words = [word for word in VOCABULARY if accepts(kind, word)]
    gens = [gen for probe, gen in GENERATORS if accepts(kind, probe)]
    gens += [st.sampled_from(words)] if words else []
    return st.one_of(gens) if gens else None


scalars = (
    st.none()
    | st.booleans()
    | st.floats()
    | st.integers()
    | st.sampled_from([10**400, -(10**400)])
    | st.text(max_size=8)
    | st.sampled_from(VOCABULARY)
)
json_values = (
    scalars
    | st.lists(scalars, max_size=4)
    | st.dictionaries(st.text(max_size=6), scalars, max_size=3)
)

_MARK = "\x00mark"


def _at(doc, path):
    for step in path:
        doc = doc[step]
    return doc


def _split(doc):
    pre, post = json.dumps(doc).split(json.dumps(_MARK))
    return pre, post


def _edits(doc):
    """(path, kind, how, text before, text after) for each edit at each table path.

    A mutant is before + the new JSON + after; a deletion is its before.
    Every edit is undone before the next one is made.
    """
    edits = []
    for path, kind in list(nodes(_SCENARIO, doc)):
        node = _at(doc, path)
        if isinstance(node, dict):
            node[_MARK] = None
            pre, post = _split(doc)
            del node[_MARK]
            edits.append((path, kind, "extra key", pre, post.removeprefix(": null")))
        if not path:
            edits.append((path, kind, "replace", "", ""))
            continue
        parent, key = _at(doc, path[:-1]), path[-1]
        parent[key] = _MARK
        edits.append((path, kind, "replace", *_split(doc)))
        del parent[key]
        edits.append((path, kind, "delete", json.dumps(doc), ""))
        if isinstance(parent, list):
            parent.insert(key, node)
        else:
            parent[key] = node  # moves the key last, which the parser ignores
    return edits


_ALL_EDITS = [edit for doc in DOCS for edit in _edits(doc)]
EDITS = [(how, pre, post) for _, _, how, pre, post in _ALL_EDITS]
# (path, before, after, generator) for each table leaf a generator can redraw.
LEAVES = [
    (path, pre, post, valid_values(kind))
    for path, kind, how, pre, post in _ALL_EDITS
    if how == "replace" and not isinstance(kind, CONTAINERS) and valid_values(kind) is not None
]
# The leaves that configure a run rather than the scene: the agent, fov and
# placement rows.  Most scene redraws break an invariant, so simulating
# these keeps the simulated examples from being mostly rejected parses.
RUN_LEAVES = [
    leaf for leaf in LEAVES if leaf[0][0] in ("agent", "fov", "placement") and len(leaf[0]) == 2
]


# Built once: a sampled_from strategy hashes its whole list for its label.
ANY_LEAF = st.sampled_from(LEAVES)
RUN_LEAF = st.sampled_from(RUN_LEAVES)
ANY_EDIT = st.sampled_from(EDITS)


@st.composite
def documents(draw, leaves=ANY_LEAF):
    """A bundled session with one table leaf redrawn within its kind."""
    _, pre, post, values = draw(leaves)
    return pre + json.dumps(draw(values)) + post


@st.composite
def mutants(draw):
    """A bundled session with one table path replaced by any JSON, deleted or given an extra key."""
    how, pre, post = draw(ANY_EDIT)
    if how == "delete":
        return pre
    value = json.dumps(draw(json_values))
    if how == "extra key":
        value = json.dumps(draw(st.text(min_size=1, max_size=6))) + ": " + value
    return pre + value + post


def parsed(text):
    """The parsed scenario, None when it is rejected; any other exception fails the test."""
    try:
        return parse_scenario(text)
    except ScenarioError:
        return None


@settings(max_examples=900, **RUN)
@given(mutants())
def test_parsing_a_mutant_raises_only_scenario_errors(text):
    parsed(text)


@settings(max_examples=900, **RUN)
@given(documents())
def test_parsing_a_redrawn_document_raises_only_scenario_errors_and_round_trips(text):
    scn = parsed(text)
    if scn is not None:
        canon = serialize_scenario(scn)
        assert serialize_scenario(parse_scenario(canon)) == canon


@settings(max_examples=200, **RUN)
@given(documents(RUN_LEAF))
def test_parsed_scenario_simulates_and_scores_under_every_strategy(text):
    scn = parsed(text)
    assume(scn is not None)
    for strategy in Strategy:
        try:
            session_metrics(simulate_session(scn, strategy=strategy))
        except XRLayoutError:
            pass


def test_extreme_panel_aspect_ratio_fails_inside_xrlayout_error():
    # found by the simulate property: the head-fixed panel height, width /
    # aspect ratio, overflowed and escaped as a bare ValueError
    doc = json.loads(bundled_scenario_text("dynamic_mobile_env_ref"))
    doc["placement"]["panel_aspect_ratio"] = 5e-324
    scn = parse_scenario(json.dumps(doc))
    with pytest.raises(XRLayoutError, match="non-finite vector component"):
        simulate_session(scn, strategy=Strategy.HEAD_FIXED)
