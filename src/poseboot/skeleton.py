"""Core pose types: joints, skeletons, candidates, actions, dataset splits."""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, IntEnum
from typing import Optional

import numpy as np

__all__ = [
    "JointId",
    "N_JOINTS",
    "LIMBS",
    "Skeleton",
    "torso_lengths",
    "CandidateSet",
    "ActionLabel",
    "FsExample",
    "WsExample",
    "DatasetSplit",
]


class JointId(IntEnum):
    """Keypoint indices, 14-joint convention."""

    HEAD = 0
    NECK = 1
    L_SHOULDER = 2
    R_SHOULDER = 3
    L_ELBOW = 4
    R_ELBOW = 5
    L_WRIST = 6
    R_WRIST = 7
    L_HIP = 8
    R_HIP = 9
    L_KNEE = 10
    R_KNEE = 11
    L_ANKLE = 12
    R_ANKLE = 13


N_JOINTS = 14

# 13 edges forming a connected tree over the 14 joints. The torso is the two
# neck-hip edges, so torso length stays defined as neck to hip midpoint.
LIMBS: tuple[tuple[JointId, JointId], ...] = (
    (JointId.HEAD, JointId.NECK),
    (JointId.NECK, JointId.L_SHOULDER),
    (JointId.NECK, JointId.R_SHOULDER),
    (JointId.L_SHOULDER, JointId.L_ELBOW),
    (JointId.R_SHOULDER, JointId.R_ELBOW),
    (JointId.L_ELBOW, JointId.L_WRIST),
    (JointId.R_ELBOW, JointId.R_WRIST),
    (JointId.NECK, JointId.L_HIP),
    (JointId.NECK, JointId.R_HIP),
    (JointId.L_HIP, JointId.L_KNEE),
    (JointId.R_HIP, JointId.R_KNEE),
    (JointId.L_KNEE, JointId.L_ANKLE),
    (JointId.R_KNEE, JointId.R_ANKLE),
)


@dataclass(frozen=True)
class Skeleton:
    """A 2-D pose: one (x, y) position per joint.

    Coordinates may be non-finite: a DatasetSplit rejects a non-finite
    annotation, naming its joint, so bad data is reported where it is used.
    """

    keypoints: np.ndarray  # (14, 2) float64

    def __post_init__(self) -> None:
        kp = np.asarray(self.keypoints, dtype=np.float64)
        if kp.shape != (N_JOINTS, 2):
            raise ValueError(f"keypoints must have shape ({N_JOINTS}, 2), got {kp.shape}")
        kp = kp.copy()
        kp.setflags(write=False)
        object.__setattr__(self, "keypoints", kp)

    def joint(self, j: JointId) -> np.ndarray:
        return self.keypoints[int(j)]

    def limb_lengths(self) -> np.ndarray:
        """Euclidean length of each edge in LIMBS order, shape (13,)."""
        a = self.keypoints[[int(i) for i, _ in LIMBS]]
        b = self.keypoints[[int(j) for _, j in LIMBS]]
        return np.linalg.norm(a - b, axis=1)


def torso_lengths(keypoints: np.ndarray) -> np.ndarray:
    """Neck to hip-midpoint length per row of (m, 14, 2) keypoints.

    The stacked matmul is a dot product per row, the one np.linalg.norm
    takes of a single vector, so each length is that row's norm to the last
    bit, whatever rows it is computed with.
    """
    hip_mid = 0.5 * (keypoints[:, JointId.L_HIP] + keypoints[:, JointId.R_HIP])
    t = keypoints[:, JointId.NECK] - hip_mid
    return np.sqrt((t[:, None, :] @ t[:, :, None])[:, 0, 0])


@dataclass(frozen=True)
class CandidateSet:
    """Every candidate pose of one image, held as arrays: row j of the
    read-only keypoints (m, 14, 2) and scores (m,) is candidate j.

    heatmaps.enumerate_candidates builds one per image, best first, and the
    selector, the recovery pool, negative mining and the audit read the rows
    directly. svm.select featurizes and scores the rows best first, in
    stable (-score, row) order, and stops at the first that clears the
    margin: that row is the pick the full scan would make, because a row's
    feature and decision do not depend on the rows computed with it; there
    is no knob. A candidate is named by its row index until it is accepted
    as a pose. actions, when not None, holds one optional label per row
    (pose files may carry them).
    """

    image_id: str
    keypoints: np.ndarray  # (m, 14, 2) float64
    scores: np.ndarray  # (m,) float64, finite
    actions: Optional[tuple[Optional["ActionLabel"], ...]] = None

    def __post_init__(self) -> None:
        kp = np.array(self.keypoints, dtype=np.float64)
        scores = np.array(self.scores, dtype=np.float64)
        if scores.ndim != 1 or kp.shape != (len(scores), N_JOINTS, 2):
            raise ValueError(
                f"need (m, {N_JOINTS}, 2) keypoints and (m,) scores, "
                f"got {kp.shape} and {scores.shape}"
            )
        if not np.isfinite(scores).all():
            raise ValueError("candidate score must be finite")
        if self.actions is not None and len(self.actions) != len(scores):
            raise ValueError(f"{len(self.actions)} actions for {len(scores)} candidates")
        for name, arr in (("keypoints", kp), ("scores", scores)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def __len__(self) -> int:
        return len(self.scores)


class ActionLabel(Enum):
    ATHLETICS = "athletics"
    BADMINTON = "badminton"
    BASEBALL = "baseball"
    GYMNASTICS = "gymnastics"
    SOCCER = "soccer"
    TENNIS = "tennis"
    VOLLEYBALL = "volleyball"
    GENERAL = "general"

    @classmethod
    def parse(cls, name: str) -> "ActionLabel":
        s = name.strip().lower()
        if s == "parkour":  # folded into gymnastics
            return cls.GYMNASTICS
        for a in cls:
            if a.value == s:
                return a
        raise ValueError(f"unknown action label: {name!r}")


@dataclass(frozen=True)
class FsExample:
    """Fully supervised example: pose annotation plus action label."""

    image_id: str
    skeleton: Skeleton
    action: ActionLabel


@dataclass(frozen=True)
class WsExample:
    """Weakly supervised example: action label only."""

    image_id: str
    action: ActionLabel


@dataclass(frozen=True)
class DatasetSplit:
    """Disjoint image sets: annotated, action-only, unlabeled, background.

    Construction raises ValueError on the first broken invariant it finds:
    an id repeated within a set, an id in two sets, or an annotation with a
    non-finite coordinate.
    """

    fs: tuple[FsExample, ...] = ()
    ws: tuple[WsExample, ...] = ()
    us: tuple[str, ...] = ()
    backgrounds: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        owner: dict[str, str] = {}  # the set each id was first seen in
        sets = {"fs": self.fs_ids(), "ws": self.ws_ids(), "us": self.us,
                "backgrounds": self.backgrounds}
        for name, ids in sets.items():
            for i in ids:
                if owner.get(i) == name:
                    raise ValueError(f"invalid split: image {i!r} appears twice in {name}")
                if i in owner:
                    raise ValueError(f"invalid split: image {i!r} is in both {owner[i]} and {name}")
                owner[i] = name
        for ex in self.fs:
            bad = ~np.isfinite(ex.skeleton.keypoints).all(axis=1)
            if bad.any():
                raise ValueError(
                    f"invalid split: annotation for image {ex.image_id!r} has a "
                    f"non-finite coordinate at joint {JointId(int(bad.argmax())).name}"
                )

    def fs_ids(self) -> tuple[str, ...]:
        return tuple(e.image_id for e in self.fs)

    def ws_ids(self) -> tuple[str, ...]:
        return tuple(e.image_id for e in self.ws)

    def ws_actions(self) -> dict[str, ActionLabel]:
        return {e.image_id: e.action for e in self.ws}
