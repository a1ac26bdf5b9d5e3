"""Pose evaluation: per-limb PCP, per-joint PCK, and selection statistics."""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from .skeleton import LIMBS, ActionLabel, CandidateSet, JointId, Skeleton

__all__ = [
    "pcp_correct",
    "pck_correct",
    "ReferenceLength",
    "MetricsReport",
    "selection_stats",
    "pck_report",
    "format_pck_table",
]


def pcp_correct(gt: Skeleton, est: Skeleton, eps: float) -> tuple[np.ndarray, bool]:
    """Per-limb correctness: both endpoints within eps * true limb length.

    Returns (flags, all_correct) with flags in LIMBS order. A zero-length
    ground-truth limb counts as correct only when both endpoint errors are
    exactly zero.
    """
    flags = _pcp_flags(gt, est.keypoints, eps)
    return flags, bool(flags.all())


_LIMB_A = [int(i) for i, _ in LIMBS]
_LIMB_B = [int(j) for _, j in LIMBS]


def _pcp_flags(gt: Skeleton, keypoints: np.ndarray, eps: float) -> np.ndarray:
    """Per-limb PCP flags, shape (..., 13), of a (..., 14, 2) stack of
    estimates against one ground truth."""
    if eps < 0:
        raise ValueError("eps must be non-negative")
    err = np.linalg.norm(keypoints - gt.keypoints, axis=-1)  # (..., 14)
    tol = eps * np.array(
        [float(np.linalg.norm(gt.keypoints[i] - gt.keypoints[j])) for i, j in zip(_LIMB_A, _LIMB_B)]
    )
    return (err[..., _LIMB_A] <= tol) & (err[..., _LIMB_B] <= tol)


class ReferenceLength(Enum):
    BBOX_MAX_SIDE = "bbox"  # max side of the tight box over ground-truth joints
    HEAD_SEGMENT = "head"  # head-to-neck length

    def length(self, gt: Skeleton) -> float:
        """This reference length of a ground-truth pose."""
        if self is ReferenceLength.BBOX_MAX_SIDE:
            mins = gt.keypoints.min(axis=0)
            maxs = gt.keypoints.max(axis=0)
            return float(np.max(maxs - mins))
        return float(np.linalg.norm(gt.joint(JointId.HEAD) - gt.joint(JointId.NECK)))


def pck_correct(
    gt: Skeleton,
    est: Skeleton,
    frac: float,
    ref: ReferenceLength = ReferenceLength.BBOX_MAX_SIDE,
) -> np.ndarray:
    """Per-joint flags: estimate within frac * reference length of the truth."""
    if not 0.0 <= frac < math.inf:
        raise ValueError(f"frac must be finite and non-negative, got {frac}")
    r = ref.length(gt)
    if r <= 0.0:
        raise ValueError("degenerate reference")
    err = np.linalg.norm(est.keypoints - gt.keypoints, axis=1)
    return err <= frac * r


@dataclass
class MetricsReport:
    """Container for whichever rates a given evaluation produced."""

    per_joint_pck: Optional[dict[JointId, float]] = None
    mean_pck: Optional[float] = None
    per_action: dict[ActionLabel, float] = field(default_factory=dict)
    detected_tp_rate: Optional[float] = None
    selected_tp_rate: Optional[float] = None
    precision: Optional[float] = None
    recall: Optional[float] = None
    # (all true poses, selected, selected true, candidate-covered true)
    counts: tuple[int, int, int, int] = (0, 0, 0, 0)


def selection_stats(
    ws_truth: Sequence[tuple[str, Optional[Skeleton]]],
    candidates: dict[str, CandidateSet],
    selected: dict[str, Skeleton],
    eps: float,
) -> MetricsReport:
    """Per-image selection accounting over a weakly labeled set; selected
    maps an image to the pose chosen for it.

    An image counts toward:
      ATP     if it has a ground-truth pose;
      CP&ATP  if any of its candidates is fully PCP-correct at eps;
      STP     if something was selected for it;
      ATP&STP if the selected pose is fully PCP-correct.
    detected/selected TP rates are the CP&ATP / ATP&STP counts over all
    images; precision = |ATP&STP| / |STP| (absent when nothing selected);
    recall = |ATP&STP| / |CP&ATP| (absent when no candidate was correct).
    """
    n_images = len(ws_truth)
    atp = 0
    stp = 0
    atp_stp = 0
    cp_atp = 0
    for image_id, gt in ws_truth:
        has_truth = gt is not None
        if has_truth:
            atp += 1
        cands = candidates.get(image_id)
        # batched PCP tests: the first row alone, as it is usually the true
        # pose, then the rest
        detected = (
            has_truth
            and cands is not None
            and any(
                _pcp_flags(gt, kp, eps).all(axis=1).any()
                for kp in (cands.keypoints[:1], cands.keypoints[1:])
            )
        )
        if detected:
            cp_atp += 1
        sel = selected.get(image_id)
        if sel is not None:
            stp += 1
            if has_truth and pcp_correct(gt, sel, eps)[1]:
                atp_stp += 1
    report = MetricsReport(counts=(atp, stp, atp_stp, cp_atp))
    if n_images > 0:
        report.detected_tp_rate = cp_atp / n_images
        report.selected_tp_rate = atp_stp / n_images
    if stp > 0:
        report.precision = atp_stp / stp
    if cp_atp > 0:
        report.recall = atp_stp / cp_atp
    return report


def pck_report(
    pairs: Sequence[tuple[Skeleton, Skeleton]],
    frac: float,
    ref: ReferenceLength = ReferenceLength.BBOX_MAX_SIDE,
    actions: Optional[Sequence[ActionLabel]] = None,
) -> MetricsReport:
    """Aggregate per-joint PCK over (gt, est) pairs."""
    if not pairs:
        raise ValueError("no pairs to evaluate")
    flags = np.stack([pck_correct(gt, est, frac, ref) for gt, est in pairs])
    per_joint = flags.mean(axis=0)
    report = MetricsReport(
        per_joint_pck={j: float(per_joint[int(j)]) for j in JointId},
        mean_pck=float(per_joint.mean()),
    )
    if actions is not None:
        if len(actions) != len(pairs):
            raise ValueError("actions must align with pairs")
        by: dict[ActionLabel, list[float]] = {}
        for a, f in zip(actions, flags):
            by.setdefault(a, []).append(float(f.mean()))
        report.per_action = {a: float(np.mean(v)) for a, v in sorted(by.items(), key=lambda kv: kv[0].value)}
    return report


# Bilateral column layout; Head is the head joint alone, the neck joint
# contributes to Mean only. Mean averages all 14 per-joint rates.
_TABLE_COLUMNS: tuple[tuple[str, tuple[JointId, ...]], ...] = (
    ("Head", (JointId.HEAD,)),
    ("Shoulder", (JointId.L_SHOULDER, JointId.R_SHOULDER)),
    ("Elbow", (JointId.L_ELBOW, JointId.R_ELBOW)),
    ("Wrist", (JointId.L_WRIST, JointId.R_WRIST)),
    ("Hip", (JointId.L_HIP, JointId.R_HIP)),
    ("Knee", (JointId.L_KNEE, JointId.R_KNEE)),
    ("Ankle", (JointId.L_ANKLE, JointId.R_ANKLE)),
)


def format_pck_table(report: MetricsReport, title: str = "PCK") -> str:
    """Render per-joint rates as the usual bilateral table, rates in percent."""
    if report.per_joint_pck is None or report.mean_pck is None:
        raise ValueError("report has no per-joint rates")
    pj = report.per_joint_pck
    names = [name for name, _ in _TABLE_COLUMNS] + ["Mean"]
    vals = [100.0 * float(np.mean([pj[j] for j in joints])) for _, joints in _TABLE_COLUMNS]
    vals.append(100.0 * report.mean_pck)
    widths = [max(len(n), 6) for n in names]
    header = "  ".join(n.rjust(w) for n, w in zip(names, widths))
    row = "  ".join(f"{v:.1f}".rjust(w) for v, w in zip(vals, widths))
    return f"{title}\n{header}\n{row}"
