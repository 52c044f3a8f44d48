"""Golden frame path: dense per-frame placement is pinned by digest.

tests/golden/run_all.sha256 sees placement only at scripted times.  This
test walks every bundled fixture on a 90 Hz grid (every STRIDE-th frame,
from t = 0 past the session's end) and hashes, per frame, the scene state
(state_at) and the poses of place_body_fixed, one
EnvironmentReferencedPlacer per fixture, place_head_fixed and
place_object_fixed.  Floats are hashed by their IEEE bytes, so a flipped
zero sign changes the digest.  The digest in tests/golden/frame_path.sha256
was produced by this command, run from the repository root:

    PYTHONPATH=src python tests/test_frame_golden.py > tests/golden/frame_path.sha256
"""

import hashlib
import struct
from pathlib import Path

import xrlayout as xl
from xrlayout.placement import place_head_fixed, place_object_fixed

DIGEST = Path(__file__).parent / "golden" / "frame_path.sha256"
FRAME_HZ = 90
STRIDE = 7  # coprime with FRAME_HZ, so the grid meets every phase of a second


def _pose_bytes(pose: xl.Pose) -> bytes:
    p, q, s = pose.position, pose.orientation, pose.scale
    return struct.pack(
        "<10d", p.x, p.y, p.z, q.w, q.x, q.y, q.z, s.x, s.y, s.z
    )


def _update(h, poses) -> None:
    for key, pose in poses.items():
        h.update(key.encode() + b"\0" + _pose_bytes(pose))


def frame_digest() -> str:
    h = hashlib.sha256()
    for name in xl.bundled_scenario_names():
        scn = xl.load_bundled(name)
        h.update(name.encode() + b"\0")
        placer = xl.EnvironmentReferencedPlacer(scn.intermediaries, scn.params)
        frames = int(scn.duration * FRAME_HZ) + 1
        for k in range(0, frames, STRIDE):
            state = scn.state_at(k / FRAME_HZ)
            _update(h, state.poses)
            _update(h, xl.place_body_fixed(state, scn.body_bearings, scn.params))
            try:
                _update(h, placer.place(state))
            except xl.DegenerateIntermediary:
                h.update(b"degenerate\0")
            _update(h, place_head_fixed(state, scn.body_bearings, scn.params))
            _update(h, place_object_fixed(state, scn.intermediaries, scn.params))
        h.update(repr([(w.time, w.subject) for w in placer.warnings]).encode())
    return h.hexdigest()


def test_frame_path_matches_golden_digest():
    want = DIGEST.read_text(encoding="utf-8").split()[0]
    assert frame_digest() == want


if __name__ == "__main__":
    print(frame_digest())
