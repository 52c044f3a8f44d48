"""Headless engine for hybrid-frame XR layout and scenario replay.

The package has four layers:

  geometry / frames     poses, quaternion rotations, hybrid frames of
                        reference, world-pose resolution
  designspace           object descriptions (content, presentation,
                        spatial layout) and their validation
  placement             panel placement strategies, from world-fixed
                        classics to adaptive environment-referenced
  scenario / agent /    .scn session files, a deterministic synthetic
  metrics / cli         gaze agent, placement-quality metrics, batch CLI
"""

__version__ = "0.1.0"

from .agent import (
    AgentParams,
    DocumentGaze,
    GazeSample,
    GazeSegment,
    IntermediaryGaze,
    NoGaze,
    OpenEvent,
    PanelGaze,
    ScreenGaze,
    SessionTrace,
    TrialTrace,
    focus_target,
    simulate_session,
)
from .designspace import (
    ContentSpec,
    PresentationSpec,
    SizeSpec,
    SpatialLayout,
    XRObject,
    validate_object,
)
from .errors import (
    DegenerateIntermediary,
    DegenerateTarget,
    Diagnostic,
    EmptyTrialSet,
    FrozenInstanceError,
    IncompleteTrial,
    MismatchedScenarios,
    MissingConfig,
    ScenarioError,
    ScenarioInvariantError,
    ScenarioSchemaError,
    ScenarioSyntaxError,
    UnknownCountry,
    UnresolvedRef,
    WarningEvent,
    XRLayoutError,
    fields,
    replace,
)
from .frames import (
    USER_BODY,
    USER_HEAD,
    WORLD,
    FrameOfReference,
    SceneState,
    resolve_unified,
    resolve_world_pose,
)
from .geometry import (
    Pose,
    Rotation,
    Vec3,
    angle_between,
    angular_deviation,
    compose,
    in_fov,
    look_rotation,
    yaw_rotation,
)
from .metrics import (
    SessionSummary,
    TrialMetrics,
    aggregate,
    classify_relevance,
    error_events,
    gaze_csv_chunks,
    gaze_switches,
    navigation_time,
    results_from_json,
    results_to_json,
    session_metrics,
    summaries_from_csv,
    summaries_to_csv,
    trial_metrics,
    trials_from_csv,
    trials_to_csv,
)
from .placement import (
    EnvironmentReferencedPlacer,
    LayoutEmission,
    PlacementParams,
    Strategy,
    emit_layouts,
    place_body_fixed,
    place_environment_referenced,
    place_head_fixed,
    place_object_fixed,
    reheighted_intermediary,
)
from .scenario import (
    CATEGORIES,
    COUNTRIES,
    SCHEMA_VERSION,
    FovSpec,
    Scenario,
    Trial,
    bundled_scenario_names,
    grid_cell,
    load_bundled,
    load_scenario,
    parse_scenario,
    serialize_scenario,
)

__all__ = [name for name in dir() if not name.startswith("_")]
