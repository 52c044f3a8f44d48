"""Every diagnostic the scenario parser reports, pinned as rendered text.

Each mutation applies one fault to a bundled session and lists the exact
``Diagnostic.render`` lines the parse reports, in order.  Together they
cover every schema path with each fault that path can have: a missing
key, a wrong JSON type, a non-finite number, an integer beyond the float
range, a non-positive value where a positive one is required, a bad
choice, an empty list and a malformed waypoint or [x, y, z] vector.  A few
mutations are valid on purpose and pin an empty list.  The raw-text cases
pin syntax errors, and the invalid fixtures pin the files shipped with the
package to show invariant errors and a panel enum typo's schema error.
"""

import json
from importlib import resources

import pytest

from xrlayout.errors import ScenarioError
from xrlayout.scenario import bundled_scenario_text, parse_scenario

DM = "dynamic_mobile_env_ref"
SS = "static_stationary_env_ref"
DELETE = object()
NAN = float("nan")
INF = float("inf")
BIG = 10**400  # an integer beyond the float range
SOURCE = "mutant.scn"
SS_PANELS = json.loads(bundled_scenario_text(SS))["panels"]
DM_TRIALS = json.loads(bundled_scenario_text(DM))["trials"]


def mutate(name: str, where: tuple | None, value: object) -> str:
    """The bundled session with one value replaced (or deleted) at a path.

    where=None replaces the whole document.
    """
    if where is None:
        return json.dumps(value)
    doc = json.loads(bundled_scenario_text(name))
    node = doc
    for key in where[:-1]:
        node = node[key]
    if value is DELETE:
        del node[where[-1]]
    else:
        node[where[-1]] = value
    return json.dumps(doc, indent=2, sort_keys=True)


def rendered(text: str, source: str = SOURCE) -> list[str]:
    try:
        parse_scenario(text, source=source)
    except ScenarioError as exc:
        return [d.render(source) for d in exc.diagnostics]
    return []


def _case_id(case) -> str:
    name, where, value, _ = case
    path = ".".join(map(str, where)) if where else "<doc>"
    if value is DELETE:
        shown = "missing"
    elif value is BIG:
        shown = "big-int"
    else:
        shown = repr(value)[:40]
    return f"{name.removesuffix('_env_ref')}:{path}={shown}"


# (session, path, value, rendered diagnostics)
MUTATIONS = [
    (SS, None, [], [
        'mutant.scn:1:1: schema: expected top-level object, got list',
    ]),
    (SS, None, 'scenario', [
        "mutant.scn:1:1: schema: expected top-level object, got str 'scenario'",
    ]),
    (SS, ('schema',), DELETE, [
        'mutant.scn:1:1: schema at schema: expected supported schema version 1, got nothing',
    ]),
    (SS, ('schema',), 99, [
        'mutant.scn:1:1: schema at schema: expected supported schema version 1, got int 99',
    ]),
    (SS, ('schema',), '1', [
        "mutant.scn:1:1: schema at schema: expected supported schema version 1, got str '1'",
    ]),
    (SS, ('name',), DELETE, [
        'mutant.scn:1:1: schema at name: expected string, got nothing',
    ]),
    (SS, ('name',), 5, [
        'mutant.scn:1:1: schema at name: expected string, got int 5',
    ]),
    (SS, ('setting',), DELETE, [
        'mutant.scn:1:1: schema at setting: expected string, got nothing',
    ]),
    (SS, ('setting',), 'hybrid', [
        "mutant.scn:1:1: schema at setting: expected one of ('static', 'dynamic'), got str 'hybrid'",
    ]),
    (DM, ('setting',), 3, [
        'mutant.scn:1:1: schema at setting: expected string, got int 3',
    ]),
    (DM, ('user_state',), 'walking', [
        "mutant.scn:1:1: schema at user_state: expected one of ('stationary', 'mobile'), got str 'walking'",
    ]),
    (DM, ('user_state',), None, [
        'mutant.scn:1:1: schema at user_state: expected string, got nothing',
    ]),
    (DM, ('metadata',), 'notes', [
        "mutant.scn:1:1: schema at metadata: expected object, got str 'notes'",
    ]),
    (DM, ('metadata',), DELETE, []),
    (SS, ('fov',), 'wide', [
        "mutant.scn:1:1: schema at fov: expected object, got str 'wide'",
    ]),
    (SS, ('fov',), DELETE, []),
    (SS, ('fov', 'diagonal_deg'), DELETE, [
        'mutant.scn:1:1: schema at fov.diagonal_deg: expected number, got nothing',
    ]),
    (SS, ('fov', 'diagonal_deg'), 0, [
        'mutant.scn:1:1: schema at fov.diagonal_deg: expected positive number, got int 0',
    ]),
    (SS, ('fov', 'diagonal_deg'), 200.0, [
        'mutant.scn:1:1: schema at fov.diagonal_deg: expected positive number below 180, got float 200.0',
    ]),
    (SS, ('fov', 'diagonal_deg'), BIG, [
        f'mutant.scn:1:1: schema at fov.diagonal_deg: expected finite number, got int {BIG}',
    ]),
    (SS, ('fov', 'aspect_ratio'), NAN, [
        'mutant.scn:1:1: schema at fov.aspect_ratio: expected finite number, got float nan',
    ]),
    (SS, ('fov', 'aspect_ratio'), '16:9', [
        "mutant.scn:1:1: schema at fov.aspect_ratio: expected finite number, got str '16:9'",
    ]),
    (DM, ('fov', 'aspect_ratio'), -1.0, [
        'mutant.scn:1:1: schema at fov.aspect_ratio: expected positive number, got float -1.0',
    ]),
    (SS, ('placement',), DELETE, [
        'mutant.scn:1:1: schema at placement: expected object, got nothing',
    ]),
    (SS, ('placement',), [], [
        'mutant.scn:1:1: schema at placement: expected object, got list',
    ]),
    (SS, ('placement', 'strategy'), DELETE, [
        'mutant.scn:1:1: schema at placement.strategy: expected string, got nothing',
    ]),
    (SS, ('placement', 'strategy'), 'levitating', [
        "mutant.scn:1:1: schema at placement.strategy: expected one of ('world_fixed', 'object_fixed', 'head_fixed', 'body_fixed', 'environment_referenced'), got str 'levitating'",
    ]),
    (DM, ('placement', 'strategy'), 1, [
        'mutant.scn:1:1: schema at placement.strategy: expected string, got int 1',
    ]),
    (DM, ('placement', 'strategy'), 'body_fixed', []),
    (SS, ('placement', 'panel_distance_m'), DELETE, []),
    (SS, ('placement', 'panel_distance_m'), 0, [
        'mutant.scn:1:1: schema at placement.panel_distance_m: expected positive number, got int 0',
    ]),
    (SS, ('placement', 'panel_distance_m'), 'far', [
        "mutant.scn:1:1: schema at placement.panel_distance_m: expected finite number, got str 'far'",
    ]),
    (SS, ('placement', 'panel_distance_m'), INF, [
        'mutant.scn:1:1: schema at placement.panel_distance_m: expected finite number, got float inf',
    ]),
    (SS, ('placement', 'panel_distance_m'), BIG, [
        f'mutant.scn:1:1: schema at placement.panel_distance_m: expected finite number, got int {BIG}',
    ]),
    (DM, ('placement', 'panel_distance_m'), True, [
        'mutant.scn:1:1: schema at placement.panel_distance_m: expected finite number, got bool True',
    ]),
    (SS, ('placement', 'panel_height_m'), 0.0, [
        'mutant.scn:1:1: schema at placement.panel_height_m: expected positive number, got float 0.0',
    ]),
    (SS, ('placement', 'panel_height_m'), DELETE, []),
    (DM, ('placement', 'eye_height_m'), -1.6, [
        'mutant.scn:1:1: schema at placement.eye_height_m: expected positive number, got float -1.6',
    ]),
    (DM, ('placement', 'eye_height_m'), NAN, [
        'mutant.scn:1:1: schema at placement.eye_height_m: expected finite number, got float nan',
    ]),
    (SS, ('placement', 'panel_aspect_ratio'), 0, [
        'mutant.scn:1:1: schema at placement.panel_aspect_ratio: expected positive number, got int 0',
    ]),
    (SS, ('placement', 'panel_aspect_ratio'), [1.75], [
        'mutant.scn:1:1: schema at placement.panel_aspect_ratio: expected finite number, got list',
    ]),
    (SS, ('placement', 'panel_scale'), [1.4, 0.8], [
        'mutant.scn:1:1: schema at placement.panel_scale: expected [x, y, z] numbers, got list',
    ]),
    (SS, ('placement', 'panel_scale'), [1.4, 'wide', 0.02], [
        'mutant.scn:1:1: schema at placement.panel_scale: expected [x, y, z] numbers, got list',
    ]),
    (SS, ('placement', 'panel_scale'), [1.4, NAN, 0.02], [
        'mutant.scn:1:1: schema at placement.panel_scale: expected finite [x, y, z], got list',
    ]),
    (SS, ('placement', 'panel_scale'), [1.4, BIG, 0.02], [
        'mutant.scn:1:1: schema at placement.panel_scale: expected finite [x, y, z], got list',
    ]),
    (SS, ('placement', 'panel_scale'), 'big', [
        "mutant.scn:1:1: schema at placement.panel_scale: expected [x, y, z] numbers, got str 'big'",
    ]),
    (DM, ('placement', 'panel_scale'), [-1.4, 0.8, 0.02], [
        'mutant.scn:1:1: schema at placement.panel_scale: expected positive x, y and z, got list',
    ]),
    (DM, ('placement', 'panel_scale'), DELETE, []),
    (SS, ('placement', 'body_bearings_deg'), DELETE, [
        'mutant.scn:1:1: schema at placement.body_bearings_deg: expected object, got nothing',
    ]),
    (SS, ('placement', 'body_bearings_deg'), [], [
        'mutant.scn:1:1: schema at placement.body_bearings_deg: expected object, got list',
    ]),
    (SS, ('placement', 'body_bearings_deg', 'panel_food'), 'east', [
        "mutant.scn:1:1: schema at placement.body_bearings_deg.panel_food: expected finite number, got str 'east'",
    ]),
    (SS, ('placement', 'body_bearings_deg', 'panel_food'), NAN, [
        'mutant.scn:1:1: schema at placement.body_bearings_deg.panel_food: expected finite number, got float nan',
    ]),
    (SS, ('placement', 'body_bearings_deg', 'panel_food'), 270.0, [
        'mutant.scn:1:1: schema at placement.body_bearings_deg.panel_food: expected bearing in (-180, 180], got float 270.0',
    ]),
    (SS, ('placement', 'body_bearings_deg', 'panel_food'), -180.0, [
        'mutant.scn:1:1: schema at placement.body_bearings_deg.panel_food: expected bearing in (-180, 180], got float -180.0',
    ]),
    (SS, ('placement', 'body_bearings_deg', 'panel_sports'), 180.0, []),
    (DM, ('placement', 'body_bearings_deg', 'panel_food'), DELETE, [
        "mutant.scn:1:1: invariant at placement.body_bearings_deg: panel 'panel_food' missing a body bearing",
    ]),
    (SS, ('placement', 'intermediaries'), DELETE, [
        'mutant.scn:1:1: schema at placement.intermediaries: expected object, got nothing',
    ]),
    (SS, ('placement', 'intermediaries'), 'posters', [
        "mutant.scn:1:1: schema at placement.intermediaries: expected object, got str 'posters'",
    ]),
    (SS, ('placement', 'intermediaries', 'panel_food'), 5, [
        'mutant.scn:1:1: schema at placement.intermediaries.panel_food: expected entity id string, got int 5',
    ]),
    (SS, ('placement', 'intermediaries', 'panel_food'), 'ghost', [
        "mutant.scn:1:1: invariant at placement.intermediaries: panel 'panel_food' intermediary 'ghost' is not a scene entity",
    ]),
    (SS, ('placement', 'intermediaries', 'panel_food'), 'poster_movies', [
        "mutant.scn:1:1: invariant at placement.intermediaries: panel 'panel_food' (topic 'food') mapped to 'poster_movies' with category 'movies'",
    ]),
    (DM, ('placement', 'intermediaries', 'panel_ghost'), 'host_food', [
        "mutant.scn:1:1: invariant at placement.intermediaries: intermediary map names unknown panel 'panel_ghost'",
    ]),
    (DM, ('agent',), 'greedy', [
        "mutant.scn:1:1: schema at agent: expected object, got str 'greedy'",
    ]),
    (DM, ('agent',), DELETE, []),
    (DM, ('agent', 'scan_policy'), 'bogus', [
        "mutant.scn:1:1: schema at agent.scan_policy: expected one of ('nearest_panel_first', 'bearing_order', 'random_seeded'), got str 'bogus'",
    ]),
    (DM, ('agent', 'scan_policy'), 3, [
        'mutant.scn:1:1: schema at agent.scan_policy: expected string, got int 3',
    ]),
    (DM, ('agent', 'fixation_min_s'), 0, [
        'mutant.scn:1:1: schema at agent.fixation_min_s: expected positive number, got int 0',
    ]),
    (DM, ('agent', 'fixation_min_s'), 'slow', [
        "mutant.scn:1:1: schema at agent.fixation_min_s: expected finite number, got str 'slow'",
    ]),
    (DM, ('agent', 'per_cell_scan_time_s'), -0.2, [
        'mutant.scn:1:1: schema at agent.per_cell_scan_time_s: expected positive number, got float -0.2',
    ]),
    (DM, ('agent', 'yaw_rate_deg_s'), 0.0, [
        'mutant.scn:1:1: schema at agent.yaw_rate_deg_s: expected positive number, got float 0.0',
    ]),
    (DM, ('agent', 'yaw_rate_deg_s'), BIG, [
        f'mutant.scn:1:1: schema at agent.yaw_rate_deg_s: expected finite number, got int {BIG}',
    ]),
    (DM, ('agent', 'tick_hz'), -50, [
        'mutant.scn:1:1: schema at agent.tick_hz: expected positive number, got int -50',
    ]),
    (DM, ('agent', 'tick_hz'), INF, [
        'mutant.scn:1:1: schema at agent.tick_hz: expected finite number, got float inf',
    ]),
    (DM, ('agent', 'confusion_prob'), NAN, [
        'mutant.scn:1:1: schema at agent.confusion_prob: expected finite number, got float nan',
    ]),
    (DM, ('agent', 'confusion_prob'), 'often', [
        "mutant.scn:1:1: schema at agent.confusion_prob: expected finite number, got str 'often'",
    ]),
    (DM, ('agent', 'dwell_jitter_s'), [0.02], [
        'mutant.scn:1:1: schema at agent.dwell_jitter_s: expected finite number, got list',
    ]),
    (DM, ('agent', 'known_grid'), 1, [
        'mutant.scn:1:1: schema at agent.known_grid: expected boolean, got int 1',
    ]),
    (DM, ('agent', 'seed'), 1.5, [
        'mutant.scn:1:1: schema at agent.seed: expected integer, got float 1.5',
    ]),
    (DM, ('agent', 'seed'), '42', [
        "mutant.scn:1:1: schema at agent.seed: expected integer, got str '42'",
    ]),
    (DM, ('agent', 'seed'), True, [
        'mutant.scn:1:1: schema at agent.seed: expected integer, got bool True',
    ]),
    (SS, ('entities',), DELETE, [
        'mutant.scn:1:1: schema at entities: expected list, got nothing',
    ]),
    (SS, ('entities',), {}, [
        'mutant.scn:1:1: schema at entities: expected list, got dict',
    ]),
    (SS, ('entities',), [], [
        'mutant.scn:1:1: invariant at entities: expected exactly one user entity, found 0',
    ]),
    (SS, ('entities', 1), 'poster', [
        "mutant.scn:1:1: schema at entities[1]: expected object, got str 'poster'",
    ]),
    (SS, ('entities', 1, 'id'), DELETE, [
        'mutant.scn:1:1: schema at entities[1].id: expected string, got nothing',
    ]),
    (SS, ('entities', 1, 'id'), 7, [
        'mutant.scn:1:1: schema at entities[1].id: expected string, got int 7',
    ]),
    (SS, ('entities', 1, 'kind'), DELETE, [
        'mutant.scn:1:1: schema at entities[1].kind: expected string, got nothing',
    ]),
    (SS, ('entities', 1, 'kind'), 'ghost', [
        "mutant.scn:1:1: schema at entities[1].kind: expected one of ('user', 'poster', 'host', 'screen'), got str 'ghost'",
    ]),
    (DM, ('entities', 1, 'kind'), 'poster', [
        "mutant.scn:1:1: invariant at entities: dynamic sessions use host intermediaries, found ['host', 'poster']",
    ]),
    (SS, ('entities', 1, 'category'), 'history', [
        "mutant.scn:1:1: schema at entities[1].category: expected one of ('food', 'movies', 'sports'), got str 'history'",
    ]),
    (SS, ('entities', 1, 'category'), DELETE, [
        'mutant.scn:1:1: invariant at entities: expected exactly three intermediaries covering all categories',
        "mutant.scn:1:1: invariant at placement.intermediaries: panel 'panel_food' (topic 'food') mapped to 'poster_food' with category None",
    ]),
    (SS, ('entities', 1, 'position'), [0.0, 0.0], [
        'mutant.scn:1:1: schema at entities[1].position: expected [x, y, z] numbers, got list',
    ]),
    (SS, ('entities', 1, 'position'), [0.0, 'up', 0.0], [
        'mutant.scn:1:1: schema at entities[1].position: expected [x, y, z] numbers, got list',
    ]),
    (SS, ('entities', 1, 'position'), [0.0, INF, 0.0], [
        'mutant.scn:1:1: schema at entities[1].position: expected finite [x, y, z], got list',
    ]),
    (SS, ('entities', 1, 'position'), [BIG, 0.0, 0.0], [
        'mutant.scn:1:1: schema at entities[1].position: expected finite [x, y, z], got list',
    ]),
    (SS, ('entities', 1, 'position'), 'here', [
        "mutant.scn:1:1: schema at entities[1].position: expected [x, y, z] numbers, got str 'here'",
    ]),
    (SS, ('entities', 1, 'position'), [-4.0, 0.0, 0.0], [
        'mutant.scn:1:1: invariant at entities: user must start equidistant (within 1 cm) from all intermediaries, distances poster_food=4.000, poster_movies=3.000, poster_sports=3.000',
    ]),
    (SS, ('entities', 1, 'yaw_deg'), 'north', [
        "mutant.scn:1:1: schema at entities[1].yaw_deg: expected finite number, got str 'north'",
    ]),
    (SS, ('entities', 1, 'yaw_deg'), NAN, [
        'mutant.scn:1:1: schema at entities[1].yaw_deg: expected finite number, got float nan',
    ]),
    (SS, ('entities', 0, 'yaw_deg'), 25.0, [
        'mutant.scn:1:1: invariant at entities: user must start facing the sports intermediary',
    ]),
    (SS, ('entities', 4, 'anchor'), 'user_backward', [
        "mutant.scn:1:1: schema at entities[4].anchor: expected one of ('user_forward',), got str 'user_backward'",
    ]),
    (SS, ('entities', 4, 'anchor'), 1, [
        'mutant.scn:1:1: schema at entities[4].anchor: expected string, got int 1',
    ]),
    (SS, ('entities', 4, 'anchor_distance_m'), 0, [
        'mutant.scn:1:1: schema at entities[4].anchor_distance_m: expected positive number, got int 0',
    ]),
    (SS, ('entities', 4, 'anchor_distance_m'), 'near', [
        "mutant.scn:1:1: schema at entities[4].anchor_distance_m: expected finite number, got str 'near'",
    ]),
    (SS, ('entities', 4), DELETE, [
        'mutant.scn:1:1: invariant at entities: static sessions need a question screen entity',
    ]),
    (DM, ('trajectories',), 'scripted', [
        "mutant.scn:1:1: schema at trajectories: expected object, got str 'scripted'",
    ]),
    (DM, ('trajectories',), DELETE, [
        "mutant.scn:1:1: invariant at trials[0]: trial 0 flagged near=True but user is 3.00 m from 'host_sports' at question start",
        "mutant.scn:1:1: invariant at trials[2]: trial 2 flagged near=True but user is 3.00 m from 'host_food' at question start",
        "mutant.scn:1:1: invariant at trials[4]: trial 4 flagged near=True but user is 3.00 m from 'host_movies' at question start",
    ]),
    (DM, ('trajectories', 'user'), [], [
        'mutant.scn:1:1: schema at trajectories.user: expected object, got list',
    ]),
    (DM, ('trajectories', 'user', 'interpolation'), 'cubic', [
        "mutant.scn:1:1: schema at trajectories.user.interpolation: expected one of ('linear', 'hold'), got str 'cubic'",
    ]),
    (DM, ('trajectories', 'user', 'interpolation'), DELETE, []),
    (DM, ('trajectories', 'user', 'waypoints'), DELETE, [
        'mutant.scn:1:1: schema at trajectories.user.waypoints: expected list, got nothing',
    ]),
    (DM, ('trajectories', 'user', 'waypoints'), [], [
        'mutant.scn:1:1: schema at trajectories.user.waypoints: expected non-empty waypoint list, got list',
    ]),
    (DM, ('trajectories', 'user', 'waypoints'), 'path', [
        "mutant.scn:1:1: schema at trajectories.user.waypoints: expected list, got str 'path'",
    ]),
    (DM, ('trajectories', 'user', 'waypoints', 1), [6.0, [0.0, 0.0, 0.0]], [
        'mutant.scn:1:1: schema at trajectories.user.waypoints[1]: expected [time, [x,y,z], yaw_deg] with finite numbers, got list',
    ]),
    (DM, ('trajectories', 'user', 'waypoints', 1), 'stop', [
        "mutant.scn:1:1: schema at trajectories.user.waypoints[1]: expected [time, [x,y,z], yaw_deg] with finite numbers, got str 'stop'",
    ]),
    (DM, ('trajectories', 'user', 'waypoints', 1, 0), NAN, [
        'mutant.scn:1:1: schema at trajectories.user.waypoints[1]: expected [time, [x,y,z], yaw_deg] with finite numbers, got list',
    ]),
    (DM, ('trajectories', 'user', 'waypoints', 1, 0), 'six', [
        'mutant.scn:1:1: schema at trajectories.user.waypoints[1]: expected [time, [x,y,z], yaw_deg] with finite numbers, got list',
    ]),
    (DM, ('trajectories', 'user', 'waypoints', 1, 1), [0.0, 0.0], [
        'mutant.scn:1:1: schema at trajectories.user.waypoints[1][1]: expected [x, y, z] numbers, got list',
    ]),
    (DM, ('trajectories', 'user', 'waypoints', 1, 1), [0.0, NAN, 0.0], [
        'mutant.scn:1:1: schema at trajectories.user.waypoints[1][1]: expected finite [x, y, z], got list',
    ]),
    (DM, ('trajectories', 'user', 'waypoints', 1, 2), BIG, [
        'mutant.scn:1:1: schema at trajectories.user.waypoints[1]: expected [time, [x,y,z], yaw_deg] with finite numbers, got list',
    ]),
    (DM, ('trajectories', 'user', 'waypoints', 1, 0), 0.0, [
        'mutant.scn:1:1: schema at trajectories.user.waypoints: expected waypoints at strictly increasing times, got list',
    ]),
    (DM, ('trajectories', 'ghost'), {'waypoints': [[0.0, [0.0, 0.0, 0.0], 0.0]]}, [
        "mutant.scn:1:1: invariant at trajectories.ghost: trajectory for unknown entity 'ghost'",
    ]),
    (SS, ('panels',), DELETE, [
        'mutant.scn:1:1: schema at panels: expected list, got nothing',
    ]),
    (SS, ('panels',), 'three', [
        "mutant.scn:1:1: schema at panels: expected list, got str 'three'",
    ]),
    (SS, ('panels', 0), 3, [
        'mutant.scn:1:1: schema at panels[0]: expected object, got int 3',
    ]),
    (SS, ('panels', 0, 'id'), DELETE, [
        'mutant.scn:1:1: schema at panels[0].id: expected string, got nothing',
    ]),
    (SS, ('panels', 0, 'id'), 0, [
        'mutant.scn:1:1: schema at panels[0].id: expected string, got int 0',
    ]),
    (SS, ('panels', 0, 'topic'), DELETE, [
        'mutant.scn:1:1: schema at panels[0].topic: expected string, got nothing',
    ]),
    (SS, ('panels', 0, 'topic'), 'history', [
        "mutant.scn:1:1: schema at panels[0].topic: expected one of ('food', 'movies', 'sports'), got str 'history'",
    ]),
    (SS, ('panels', 0, 'modality_params'), 'bold', [
        "mutant.scn:1:1: schema at panels[0].modality_params: expected object, got str 'bold'",
    ]),
    (SS, ('panels', 0, 'modality_params'), {'colour': 'red'}, [
        'mutant.scn:1:1: schema at panels[0].modality_params.colour: unknown key',
    ]),
    (SS, ('panels', 0, 'modality_params'), {'custom.colour': 'red'}, []),
    (SS, ('panels', 0, 'info_focus'), 3, [
        'mutant.scn:1:1: schema at panels[0].info_focus: expected string, got int 3',
    ]),
    (SS, ('panels', 0, 'level_of_detail'), -1, [
        'mutant.scn:1:1: schema at panels[0].level_of_detail: expected integer >= 0, got int -1',
    ]),
    (SS, ('panels', 0, 'level_of_detail'), 1.5, [
        'mutant.scn:1:1: schema at panels[0].level_of_detail: expected integer, got float 1.5',
    ]),
    (SS, ('panels', 0, 'level_of_detail'), True, [
        'mutant.scn:1:1: schema at panels[0].level_of_detail: expected integer, got bool True',
    ]),
    (SS, ('panels', 0, 'level_of_detail'), DELETE, []),
    (SS, ('panels', 0, 'availability'), 3, [
        'mutant.scn:1:1: schema at panels[0].availability: expected string, got int 3',
    ]),
    (SS, ('panels', 0, 'availability'), 'ajar', [
        "mutant.scn:1:1: schema at panels[0].availability: expected one of ('open', 'minimized', 'closed'), got str 'ajar'",
    ]),
    (SS, ('panels', 0, 'availability_mutability'), 'sometimes', [
        "mutant.scn:1:1: schema at panels[0].availability_mutability: expected one of ('user', 'context_aware', 'immutable'), got str 'sometimes'",
    ]),
    (SS, ('panels', 0, 'immersion'), 3, [
        'mutant.scn:1:1: schema at panels[0].immersion: expected string, got int 3',
    ]),
    (SS, ('panels', 0, 'immersion'), 'total', [
        "mutant.scn:1:1: schema at panels[0].immersion: expected one of ('non_immersive', 'partially_immersive', 'fully_immersive'), got str 'total'",
    ]),
    (SS, ('panels', 0, 'modality'), None, [
        'mutant.scn:1:1: schema at panels[0].modality: expected string, got nothing',
    ]),
    (SS, ('panels', 0, 'modality'), 'hybrid', [
        "mutant.scn:1:1: schema at panels[0].modality: expected one of ('visual', 'audio', 'haptic', 'olfactory'), got str 'hybrid'",
    ]),
    (SS, ('panels', 0, 'interactivity'), 5, [
        'mutant.scn:1:1: schema at panels[0].interactivity: expected string, got int 5',
    ]),
    (SS, ('panels', 0, 'interactivity'), 'some', [
        "mutant.scn:1:1: schema at panels[0].interactivity: expected one of ('none', 'open_close_only', 'full'), got str 'some'",
    ]),
    (DM, ('panels', 2, 'topic'), 'food', [
        "mutant.scn:1:1: invariant at panels: expected one panel per category, found topics ['food', 'food', 'movies']",
        "mutant.scn:1:1: invariant at placement.intermediaries: panel 'panel_sports' (topic 'food') mapped to 'host_sports' with category 'sports'",
    ]),
    (DM, ('trials',), DELETE, [
        'mutant.scn:1:1: schema at trials: expected list, got nothing',
    ]),
    (DM, ('trials',), {}, [
        'mutant.scn:1:1: schema at trials: expected list, got dict',
    ]),
    (DM, ('trials',), [], [
        'mutant.scn:1:1: invariant at trials: mobile sessions have exactly 6 trials, found 0',
    ]),
    (DM, ('trials',), [DM_TRIALS[0], DM_TRIALS[2], DM_TRIALS[1], *DM_TRIALS[3:]], [
        'mutant.scn:1:1: invariant at trials[1]: trial 1 presentation overlaps trial 2',
    ]),
    (DM, ('trials', 1), 'question', [
        "mutant.scn:1:1: schema at trials[1]: expected object, got str 'question'",
    ]),
    (DM, ('trials', 1, 'category'), DELETE, [
        'mutant.scn:1:1: schema at trials[1].category: expected string, got nothing',
    ]),
    (DM, ('trials', 1, 'category'), 'history', [
        "mutant.scn:1:1: schema at trials[1].category: expected one of ('food', 'movies', 'sports'), got str 'history'",
    ]),
    (DM, ('trials', 1, 'country'), DELETE, [
        'mutant.scn:1:1: schema at trials[1].country: expected string, got nothing',
    ]),
    (DM, ('trials', 1, 'country'), 5, [
        'mutant.scn:1:1: schema at trials[1].country: expected string, got int 5',
    ]),
    (DM, ('trials', 1, 'country'), 'Atlantis', [
        "mutant.scn:1:1: schema at trials[1].country: expected known country, got str 'Atlantis'",
    ]),
    (DM, ('trials', 1, 'question_words'), DELETE, [
        'mutant.scn:1:1: schema at trials[1].question_words: expected list, got nothing',
    ]),
    (DM, ('trials', 1, 'question_words'), [], [
        'mutant.scn:1:1: schema at trials[1].question_words: expected non-empty list of strings, got list',
    ]),
    (DM, ('trials', 1, 'question_words'), ['which', 3], [
        'mutant.scn:1:1: schema at trials[1].question_words: expected non-empty list of strings, got list',
    ]),
    (DM, ('trials', 1, 'question_words'), 'which country', [
        "mutant.scn:1:1: schema at trials[1].question_words: expected list, got str 'which country'",
    ]),
    (DM, ('trials', 1, 'question_start_s'), DELETE, [
        'mutant.scn:1:1: schema at trials[1].question_start_s: expected number, got nothing',
    ]),
    (DM, ('trials', 1, 'question_start_s'), 'soon', [
        "mutant.scn:1:1: schema at trials[1].question_start_s: expected finite number, got str 'soon'",
    ]),
    (DM, ('trials', 1, 'question_start_s'), NAN, [
        'mutant.scn:1:1: schema at trials[1].question_start_s: expected finite number, got float nan',
    ]),
    (DM, ('trials', 1, 'question_start_s'), BIG, [
        f'mutant.scn:1:1: schema at trials[1].question_start_s: expected finite number, got int {BIG}',
    ]),
    (DM, ('trials', 1, 'word_schedule_s'), [], [
        'mutant.scn:1:1: schema at trials[1].word_schedule_s: expected non-empty list of finite numbers, got list',
    ]),
    (DM, ('trials', 1, 'word_schedule_s'), 'steady', [
        "mutant.scn:1:1: schema at trials[1].word_schedule_s: expected list, got str 'steady'",
    ]),
    (DM, ('trials', 1, 'word_schedule_s'), [35.0, 35.45, NAN, 36.35, 36.8, 37.25], [
        'mutant.scn:1:1: schema at trials[1].word_schedule_s: expected non-empty list of finite numbers, got list',
    ]),
    (DM, ('trials', 1, 'word_schedule_s'), [35.0, 35.45, 35.9, 36.35, 36.8, 'end'], [
        'mutant.scn:1:1: schema at trials[1].word_schedule_s: expected non-empty list of finite numbers, got list',
    ]),
    (DM, ('trials', 1, 'word_schedule_s'), [35.0, 35.45, 35.9, 36.35, 36.8], [
        'mutant.scn:1:1: schema at trials[1].word_schedule_s: expected 6 entries, one per question word, got list',
    ]),
    (DM, ('trials', 1, 'word_schedule_s'), [35.0, 35.45, 35.45, 36.35, 36.8, 37.25], [
        'mutant.scn:1:1: schema at trials[1].word_schedule_s: expected strictly increasing times, got list',
    ]),
    (DM, ('trials', 1, 'word_schedule_s'), DELETE, []),
    (DM, ('trials', 1, 'repeat_interval_s'), 0, [
        'mutant.scn:1:1: schema at trials[1].repeat_interval_s: expected positive number, got int 0',
    ]),
    (DM, ('trials', 1, 'repeat_interval_s'), -30.0, [
        'mutant.scn:1:1: schema at trials[1].repeat_interval_s: expected positive number, got float -30.0',
    ]),
    (DM, ('trials', 1, 'repeat_interval_s'), 2.0, [
        "mutant.scn:1:1: schema at trials[1].repeat_interval_s: expected number above the presentation's 2.25 s, got float 2.0",
    ]),
    (DM, ('trials', 1, 'repeat_interval_s'), 2.25, [
        "mutant.scn:1:1: schema at trials[1].repeat_interval_s: expected number above the presentation's 2.25 s, got float 2.25",
    ]),
    (DM, ('trials', 1, 'repeat_interval_s'), DELETE, []),
    (DM, ('trials', 1, 'near'), 'yes', [
        "mutant.scn:1:1: schema at trials[1].near: expected boolean, got str 'yes'",
    ]),
    (DM, ('trials', 1, 'near'), None, [
        'mutant.scn:1:1: schema at trials[1].near: expected boolean, got nothing',
    ]),
    (DM, ('trials', 1, 'near'), DELETE, [
        'mutant.scn:1:1: invariant at trials[1]: mobile trials require a near flag',
        "mutant.scn:1:1: invariant at trials: category 'food' needs one near and one far trial",
    ]),
    (DM, ('trials', 1, 'near'), True, [
        "mutant.scn:1:1: invariant at trials: category 'food' needs one near and one far trial",
    ]),
    (SS, ('trials', 1, 'near'), False, [
        'mutant.scn:1:1: invariant at trials[1]: stationary trials take no near flag',
    ]),
]

# (text, rendered diagnostics)
RAW_TEXTS = [
    ('{"schema": 1,\n  "name": }', [
        'mutant.scn:2:11: syntax: Expecting value',
    ]),
    ('', [
        'mutant.scn:1:1: syntax: Expecting value',
    ]),
    ('{"schema": 1} trailing', [
        'mutant.scn:1:15: syntax: Extra data',
    ]),
    ('[1, 2,]', [
        'mutant.scn:1:7: syntax: Expecting value',
    ]),
]

# (file under fixtures/invalid, rendered diagnostics)
INVALID_FIXTURES = [
    ('invalid_country_not_last.scn', [
        "invalid_country_not_last.scn:1:1: invariant at trials[1]: question must end with the country, got 'this'",
    ]),
    ('invalid_mobile_five_trials.scn', [
        'invalid_mobile_five_trials.scn:1:1: invariant at trials: mobile sessions have exactly 6 trials, found 5',
    ]),
    ('invalid_stationary_near_flag.scn', [
        'invalid_stationary_near_flag.scn:1:1: invariant at trials[0]: stationary trials take no near flag',
    ]),
    ('invalid_bearing_unknown_panel.scn', [
        "invalid_bearing_unknown_panel.scn:1:1: invariant at placement.body_bearings_deg: body bearing names unknown panel 'panel_extra'",
    ]),
    ('invalid_reserved_entity_id.scn', [
        "invalid_reserved_entity_id.scn:1:1: schema at entities[1].id: expected id not reserved for a frame of reference, got str 'user_head'",
    ]),
    ('invalid_panel_enum_typo.scn', [
        "invalid_panel_enum_typo.scn:1:1: schema at panels[1].immersion: expected one of ('non_immersive', 'partially_immersive', 'fully_immersive'), got str 'partially-immersive'",
    ]),
    ('invalid_agent_confusion_prob.scn', [
        'invalid_agent_confusion_prob.scn:1:1: schema at agent.confusion_prob: expected number in [0, 1], got float 7.0',
    ]),
]
INVALID_DIR = resources.files("xrlayout") / "fixtures" / "invalid"


@pytest.mark.parametrize("case", MUTATIONS, ids=_case_id)
def test_single_fault_mutation(case):
    name, where, value, expected = case
    assert rendered(mutate(name, where, value)) == expected


@pytest.mark.parametrize("case", RAW_TEXTS, ids=lambda case: repr(case[0]))
def test_raw_text(case):
    text, expected = case
    assert rendered(text) == expected


@pytest.mark.parametrize("case", INVALID_FIXTURES, ids=lambda case: case[0])
def test_invalid_fixture(case):
    filename, expected = case
    text = (INVALID_DIR / filename).read_text(encoding="utf-8")
    assert rendered(text, source=filename) == expected


@pytest.mark.parametrize(
    "filename", sorted(p.name for p in INVALID_DIR.iterdir() if p.name.endswith(".scn"))
)
def test_every_invalid_fixture_is_rejected(filename):
    with pytest.raises(ScenarioError):
        parse_scenario((INVALID_DIR / filename).read_text(encoding="utf-8"), source=filename)


# Inputs the parser used to accept silently, or to crash on, and now reports:
# an unknown key in each closed block, a word schedule that does not start at
# question_start_s, an empty enum string (once read as the default), a scene
# that cannot be replayed (an intermediary placed on the user), a tick rate
# outside the one tick-rate rule (too fast, or a period that overflows), a
# body bearing for a panel that does not exist, an entity id that names a
# frame of reference, an entity or panel id given twice, and an agent parameter
# outside its range (each range includes its ends).
ACCEPTANCE_CHANGES = [
    (SS, ("surprise",), 1, [
        'mutant.scn:1:1: schema at surprise: unknown key',
    ]),
    (SS, ("fov", "vertical_deg"), 40.0, [
        'mutant.scn:1:1: schema at fov.vertical_deg: unknown key',
    ]),
    (SS, ("placement", "panel_distnace_m"), 3, [
        'mutant.scn:1:1: schema at placement.panel_distnace_m: unknown key',
    ]),
    (DM, ("agent", "speed"), 2.0, [
        'mutant.scn:1:1: schema at agent.speed: unknown key',
    ]),
    (SS, ("entities", 1, "colour"), "red", [
        'mutant.scn:1:1: schema at entities[1].colour: unknown key',
    ]),
    (DM, ("trajectories", "user", "loop"), True, [
        'mutant.scn:1:1: schema at trajectories.user.loop: unknown key',
    ]),
    (SS, ("panels", 0, "title"), "Food", [
        'mutant.scn:1:1: schema at panels[0].title: unknown key',
    ]),
    (DM, ("trials", 1, "answer"), "Chile", [
        'mutant.scn:1:1: schema at trials[1].answer: unknown key',
    ]),
    (DM, ("trials", 1, "question_start_s"), 40.0, [
        'mutant.scn:1:1: schema at trials[1].word_schedule_s: expected first entry equal to '
        'question_start_s 40.0, got float 35.0',
    ]),
    (SS, ("panels", 0, "immersion"), "", [
        "mutant.scn:1:1: schema at panels[0].immersion: expected one of ('non_immersive', "
        "'partially_immersive', 'fully_immersive'), got str ''",
    ]),
    (SS, ("panels", 0, "modality"), "", [
        "mutant.scn:1:1: schema at panels[0].modality: expected one of ('visual', 'audio', "
        "'haptic', 'olfactory'), got str ''",
    ]),
    (SS, ("panels", 0, "interactivity"), "", [
        "mutant.scn:1:1: schema at panels[0].interactivity: expected one of ('none', "
        "'open_close_only', 'full'), got str ''",
    ]),
    (SS, ("entities", 3, "position"), [0.0, 0.0, 0.0], [
        'mutant.scn:1:1: invariant at entities: user must start equidistant (within 1 cm) from '
        'all intermediaries, distances poster_food=3.000, poster_movies=3.000, '
        'poster_sports=0.000',
        'mutant.scn:1:1: invariant at entities: scene cannot be replayed: angle against a '
        'near-zero direction',
    ]),
    (DM, ("agent", "tick_hz"), 1e308, [
        'mutant.scn:1:1: schema at agent.tick_hz: expected tick rate above 0 and at most 10000 '
        'Hz with a finite period, got float 1e+308',
    ]),
    (DM, ("agent", "tick_hz"), 10001, [
        'mutant.scn:1:1: schema at agent.tick_hz: expected tick rate above 0 and at most 10000 '
        'Hz with a finite period, got int 10001',
    ]),
    (DM, ("agent", "tick_hz"), 1e-320, [
        'mutant.scn:1:1: schema at agent.tick_hz: expected tick rate above 0 and at most 10000 '
        'Hz with a finite period, got float 1e-320',
    ]),
    (DM, ("agent", "tick_hz"), 10000, []),
    (DM, ("agent", "tick_hz"), 1e-300, []),
    (DM, ("placement", "body_bearings_deg", "panel_extra"), 20.0, [
        "mutant.scn:1:1: invariant at placement.body_bearings_deg: body bearing names unknown "
        "panel 'panel_extra'",
    ]),
    (SS, ("entities", 4, "id"), "user_head", [
        "mutant.scn:1:1: schema at entities[4].id: expected id not reserved for a frame of "
        "reference, got str 'user_head'",
    ]),
    (SS, ("entities", 4, "id"), "user", [
        "mutant.scn:1:1: schema at entities[4].id: expected unique entity id, got str 'user'",
    ]),
    (SS, ("panels",), SS_PANELS + SS_PANELS[:1], [
        "mutant.scn:1:1: schema at panels[3].id: expected unique panel id, got str 'panel_food'",
    ]),
    (DM, ('agent', 'fixation_min_s'), 1e-13, [
        'mutant.scn:1:1: schema at agent.fixation_min_s: expected positive number in [0.001, 10], got float 1e-13',
    ]),
    (DM, ('agent', 'fixation_min_s'), 10.5, [
        'mutant.scn:1:1: schema at agent.fixation_min_s: expected positive number in [0.001, 10], got float 10.5',
    ]),
    (DM, ('agent', 'per_cell_scan_time_s'), 1e300, [
        'mutant.scn:1:1: schema at agent.per_cell_scan_time_s: expected positive number at most 10, got float 1e+300',
    ]),
    (DM, ('agent', 'yaw_rate_deg_s'), 1e-300, [
        'mutant.scn:1:1: schema at agent.yaw_rate_deg_s: expected positive number at least 10, got float 1e-300',
    ]),
    (DM, ('agent', 'yaw_rate_deg_s'), 9.5, [
        'mutant.scn:1:1: schema at agent.yaw_rate_deg_s: expected positive number at least 10, got float 9.5',
    ]),
    (DM, ('agent', 'confusion_prob'), 7.0, [
        'mutant.scn:1:1: schema at agent.confusion_prob: expected number in [0, 1], got float 7.0',
    ]),
    (DM, ('agent', 'confusion_prob'), -0.1, [
        'mutant.scn:1:1: schema at agent.confusion_prob: expected number in [0, 1], got float -0.1',
    ]),
    (DM, ('agent', 'dwell_jitter_s'), -5, [
        'mutant.scn:1:1: schema at agent.dwell_jitter_s: expected number in [0, 10], got int -5',
    ]),
    (DM, ('agent', 'dwell_jitter_s'), 7.43475599216108e307, [
        'mutant.scn:1:1: schema at agent.dwell_jitter_s: expected number in [0, 10], got float 7.43475599216108e+307',
    ]),
    (DM, ("agent", "fixation_min_s"), 0.001, []),
    (DM, ("agent", "fixation_min_s"), 10, []),
    (DM, ("agent", "per_cell_scan_time_s"), 10, []),
    (DM, ("agent", "yaw_rate_deg_s"), 10, []),
    (DM, ("agent", "confusion_prob"), 0, []),
    (DM, ("agent", "confusion_prob"), 1.0, []),
    (DM, ("agent", "dwell_jitter_s"), 0.0, []),
    (DM, ("agent", "dwell_jitter_s"), 10, []),
]


@pytest.mark.parametrize("case", ACCEPTANCE_CHANGES, ids=_case_id)
def test_acceptance_change(case):
    name, where, value, expected = case
    assert rendered(mutate(name, where, value)) == expected


def test_a_steady_schedule_ends_before_its_question_repeats():
    """Without word_schedule_s the words come 0.45 s apart; the repeat rule holds all the same."""
    doc = json.loads(bundled_scenario_text(DM))
    del doc['trials'][1]['word_schedule_s']
    doc['trials'][1]['repeat_interval_s'] = 2.25  # six words take 5 x 0.45 s
    assert rendered(json.dumps(doc)) == [
        "mutant.scn:1:1: schema at trials[1].repeat_interval_s: expected number above the "
        "presentation's 2.25 s, got float 2.25",
    ]
    doc['trials'][1]['repeat_interval_s'] = 2.3
    assert rendered(json.dumps(doc)) == []
