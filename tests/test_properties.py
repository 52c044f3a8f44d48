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
XRLayoutError.  The parameter constructors (AgentParams, PlacementParams,
FovSpec) accept exactly the values their table rows accept, and so do a
panel's five enum rows (the design-space domains) and its modality_params
keys (designspace.is_modality_param_key).

Each edit is kept as the session's text split around the edited path, so
an example costs a draw and a parse, not a copy and a dump of the session.
"""

import functools
import json
import sys

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from xrlayout import designspace
from xrlayout.agent import AgentParams, simulate_session
from xrlayout.errors import ScenarioError, XRLayoutError
from xrlayout.metrics import aggregate, results_to_json, session_metrics
from xrlayout.placement import PlacementParams, Strategy
from xrlayout.scenario import (
    _FOV,
    _SCENARIO,
    AGENT_ROWS,
    CATEGORIES,
    PARAMS_ROWS,
    SCAN_POLICIES,
    SETTINGS,
    USER_STATES,
    FovSpec,
    _Block,
    _ListOf,
    _MapOf,
    bundled_scenario_names,
    bundled_scenario_text,
    parse_scenario,
    scan_scenario,
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
    # the agent rows' ranges, ends included: confusion_prob's [0, 1], the
    # times' [0, 10] (fixation_min from 0.001) and yaw_rate_deg_s from 10 up
    (0.5, st.floats(0.0, 1.0) | st.sampled_from([0.0, 1.0])),
    (10.0, st.floats(0.0, 10.0) | st.sampled_from([0.0, 0.001, 10.0])),
    (1e3, st.floats(min_value=10.0, allow_infinity=False) | st.just(10.0)),
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
def redrawn(draw, leaves=ANY_LEAF):
    """(path, text): a bundled session with one table leaf, at path, redrawn within its kind."""
    path, pre, post, values = draw(leaves)
    return path, pre + json.dumps(draw(values)) + post


def documents(leaves=ANY_LEAF):
    """The text of a redrawn session."""
    return redrawn(leaves).map(lambda drawn: drawn[1])


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
@example("[" * 100_000)  # nested past the recursion limit
@example("1" * 5_000)  # an integer literal over the int-from-string digit limit
def test_parsing_a_mutant_raises_only_scenario_errors(text):
    parsed(text)


@settings(max_examples=900, **RUN)
@given(documents())
def test_parsing_a_redrawn_document_raises_only_scenario_errors_and_round_trips(text):
    scn = parsed(text)
    if scn is not None:
        canon = serialize_scenario(scn)
        assert serialize_scenario(parse_scenario(canon)) == canon


def session_output(scn, strategy, seed):
    """A session's results file bytes and warnings, or the XRLayoutError it raised."""
    try:
        trace = simulate_session(scn, strategy=strategy, seed=seed)
        rows = session_metrics(trace)
        text = results_to_json([aggregate(rows, seed=seed)], rows, meta={"seed": seed})
    except XRLayoutError as exc:
        return type(exc), str(exc)
    return text, trace.warnings


def _longest_jitter():
    doc = json.loads(bundled_scenario_text("static_stationary_env_ref"))
    doc["agent"]["dwell_jitter_s"] = 10.0
    return ("agent", "dwell_jitter_s"), json.dumps(doc)


def test_run_leaves_cover_every_agent_key():
    """Every agent parameter is redrawn: each bundled session states all of them."""
    agent_keys = [row.key for row in AGENT_ROWS]
    assert len(agent_keys) == 9
    for doc in DOCS:
        assert sorted(doc["agent"]) == sorted(agent_keys)
    assert {path[1] for path, *_ in RUN_LEAVES if path[0] == "agent"} == set(agent_keys)


@settings(max_examples=200, **RUN)
@given(redrawn(RUN_LEAF))
# The row's upper end; 7.43e307, which the row now rejects, once overflowed
# the mean's float sum.
@example(_longest_jitter())
def test_parsed_scenario_simulates_and_scores_under_every_strategy(drawn):
    """A redrawn agent leaf always scores: the agent rows' ranges keep every trial
    scorable.  Also: a plan warmed by other seeds gives the output of a fresh parse."""
    path, text = drawn
    scn = parsed(text)
    assume(scn is not None)
    for strategy in Strategy:
        for seed in (1, 2):
            text_or_error, _ = session_output(scn, strategy, seed)
            if path[0] == "agent":
                assert isinstance(text_or_error, str), (strategy, seed, text_or_error)
        assert session_output(scn, strategy, 7) == session_output(
            parse_scenario(text), strategy, 7
        ), strategy


def _extra_bearing():
    doc = json.loads(bundled_scenario_text("dynamic_mobile_env_ref"))
    doc["placement"]["body_bearings_deg"]["panel_extra"] = 20.0
    return json.dumps(doc)


@settings(max_examples=900, **RUN)
@given(mutants())
@example(_extra_bearing())  # a bearing for an undeclared panel once parsed, then crashed
def test_parsed_mutant_simulates_and_scores_under_every_strategy(text):
    """Mutants can add map keys, which redrawn leaves cannot."""
    scn = parsed(text)
    if scn is not None:
        for strategy in Strategy:
            session_output(scn, strategy, 1)


def test_extreme_panel_aspect_ratio_fails_inside_xrlayout_error():
    # found by the simulate property: the head-fixed panel height, width /
    # aspect ratio, overflowed and escaped as a bare ValueError
    doc = json.loads(bundled_scenario_text("dynamic_mobile_env_ref"))
    doc["placement"]["panel_aspect_ratio"] = 5e-324
    scn = parse_scenario(json.dumps(doc))
    with pytest.raises(XRLayoutError, match="non-finite vector component"):
        simulate_session(scn, strategy=Strategy.HEAD_FIXED)


# (constructor, field, row): every agent row, the placement block's number
# rows and the fov rows; each row's kind is the rule for its field.
PARAMETER_ROWS = [
    *((AgentParams, row.attr or row.key, row) for row in AGENT_ROWS),
    *((PlacementParams, row.attr.removeprefix("params."), row) for row in PARAMS_ROWS),
    *((FovSpec, row.key, row) for row in _FOV.rows),
]
parameter_values = (
    st.integers()
    | st.floats()  # +-0, subnormals, NaN and +-inf included
    | st.sampled_from([0.0, -0.0, 5e-324, float("nan"), float("inf"), float("-inf"), 10**400])
    | st.booleans()
    | st.text(max_size=8)
    | st.sampled_from(VOCABULARY)
)


@pytest.mark.parametrize(
    "build, attr, row", PARAMETER_ROWS, ids=[f"{b.__name__}.{a}" for b, a, _ in PARAMETER_ROWS]
)
@settings(max_examples=150, **RUN)
@given(value=parameter_values)
def test_a_parameter_constructor_accepts_exactly_what_its_row_accepts(build, attr, row, value):
    # A PlacementWarning (a distance outside the comfortable band) is not a rejection.
    if accepts(row.kind, value):
        build(**{attr: value})
    else:
        with pytest.raises(ValueError, match=f"^{attr}: expected "):
            build(**{attr: value})


# The five panel enum rows and the .scn domain of each: designspace's tuple.
# "hybrid" stays among the drawn strings below: no domain takes it.
PANEL_ENUMS = {
    "availability": designspace.AVAILABILITY,
    "availability_mutability": designspace.AVAILABILITY_MUTABILITY,
    "immersion": designspace.IMMERSION,
    "modality": designspace.MODALITY,
    "interactivity": designspace.INTERACTIVITY,
}
PANEL_DOC = json.loads(bundled_scenario_text("static_stationary_env_ref"))
panel_strings = st.text(max_size=12) | st.sampled_from(VOCABULARY + ["hybrid", "Open", " full"])


def with_panel(index, key, value):
    """The static stationary session with one panel key set."""
    doc = json.loads(json.dumps(PANEL_DOC))
    doc["panels"][index][key] = value
    return json.dumps(doc)


def round_trips(text):
    """The panels of the canonical text, which parses back to the same scenario."""
    scn = parse_scenario(text)
    canon = serialize_scenario(scn)
    assert parse_scenario(canon) == scn and serialize_scenario(parse_scenario(canon)) == canon
    return json.loads(canon)["panels"]


@settings(max_examples=300, **RUN)
@given(index=st.integers(0, 2), key=st.sampled_from(sorted(PANEL_ENUMS)), value=panel_strings)
def test_a_panel_enum_row_takes_exactly_its_domain(index, key, value):
    _, diags = scan_scenario(with_panel(index, key, value))
    if value in PANEL_ENUMS[key]:
        assert diags == []
    else:
        assert [(d.kind, d.path) for d in diags] == [("schema", f"panels[{index}].{key}")]


@pytest.mark.parametrize("key", sorted(PANEL_ENUMS))
def test_every_panel_enum_member_parses_and_round_trips(key):
    for value in PANEL_ENUMS[key]:
        assert round_trips(with_panel(1, key, value))[1][key] == value


param_keys = (
    st.text(max_size=12)
    | st.sampled_from(sorted(designspace.MODALITY_PARAM_KEYS))
    | st.text(max_size=8).map(designspace.CUSTOM_KEY_PREFIX.__add__)
    | st.sampled_from(["custom", "Custom.x", "visual.dpi", "visual.", "audio.volume "])
)


@settings(max_examples=300, **RUN)
@given(index=st.integers(0, 2), key=param_keys)
def test_a_modality_param_key_is_taken_exactly_when_the_key_rule_takes_it(index, key):
    text = with_panel(index, "modality_params", {key: 1})
    if designspace.is_modality_param_key(key):
        assert round_trips(text)[index]["modality_params"] == {key: 1}
    else:
        _, diags = scan_scenario(text)
        path = f"panels[{index}].modality_params.{key}"
        assert [(d.kind, d.path, d.message) for d in diags] == [("schema", path, "unknown key")]
