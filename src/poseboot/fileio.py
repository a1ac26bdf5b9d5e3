"""On-disk formats: line-delimited pose records, binary heatmaps and models,
and flat key=value config files.

All writers go through an atomic write-temp-then-rename so partially
written files never appear under the target name. Pose files are written
a line at a time as their records are drawn, so a writer that makes its
records as it goes never holds the whole file.

Binary layouts (all little-endian):
  heatmap record: magic b"PBHMAP01", joint u32, width u32, height u32,
                  stride f64, origin_x f64, origin_y f64,
                  height*width f32 row-major. Records may be concatenated.
  model file:     magic b"PBSVMD01", feature_dim u32, reg f64,
                  mean[d] f64, std[d] f64, weights[d] f64, bias f64.
"""
from __future__ import annotations

import json
import math
import os
import struct
import tempfile
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Optional, Sequence, Union

import numpy as np

from .heatmaps import Heatmap
from .skeleton import N_JOINTS, ActionLabel, CandidateSet, JointId, Skeleton
from .svm import SvmModel

__all__ = [
    "PoseRecord",
    "read_pose_records",
    "read_pose_index",
    "write_pose_records",
    "candidate_set",
    "atomic_write",
    "read_heatmaps",
    "write_heatmaps",
    "save_svm_model",
    "load_svm_model",
    "load_config",
]

_HEATMAP_MAGIC = b"PBHMAP01"
_MODEL_MAGIC = b"PBSVMD01"


def atomic_write(
    path: Union[str, Path], data: Union[bytes, str, Iterable[Union[bytes, str]]]
) -> None:
    """Write data to a temp file in the target directory, fsync it, then
    rename it over path. data is bytes, or str written as UTF-8, or an
    iterable of such chunks, each written as it is drawn."""
    path = Path(path)
    chunks = (data,) if isinstance(data, (bytes, str)) else data
    fd, tmp = tempfile.mkstemp(dir=path.parent or Path("."), prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "wb") as f:
            for chunk in chunks:
                f.write(chunk.encode("utf-8") if isinstance(chunk, str) else chunk)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


# --- pose records -----------------------------------------------------------


class PoseRecord:
    """One pose line: image id, 14 keypoints, optional action/score/provenance."""

    __slots__ = ("image_id", "keypoints", "action", "score", "provenance")

    def __init__(
        self,
        image_id: str,
        keypoints: np.ndarray,
        action: Optional[ActionLabel] = None,
        score: Optional[float] = None,
        provenance: Optional[str] = None,
    ):
        kp = np.asarray(keypoints, dtype=np.float64)
        if kp.shape != (N_JOINTS, 2):
            raise ValueError(f"keypoints must be ({N_JOINTS}, 2), got {kp.shape}")
        self.image_id = image_id
        self.keypoints = kp
        self.action = action
        self.score = None if score is None else float(score)
        self.provenance = provenance

    def skeleton(self) -> Skeleton:
        return Skeleton(self.keypoints)

    def to_dict(self) -> dict:
        d: dict = {
            "image_id": self.image_id,
            "keypoints": self.keypoints.tolist(),
        }
        if self.action is not None:
            d["action"] = self.action.value
        if self.score is not None:
            d["score"] = self.score
        if self.provenance is not None:
            d["provenance"] = self.provenance
        return d

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PoseRecord)
            and self.image_id == other.image_id
            and np.array_equal(self.keypoints, other.keypoints)
            and self.action == other.action
            and self.score == other.score
            and self.provenance == other.provenance
        )


def _record_from_line(line: str) -> PoseRecord:
    """One pose record from the JSON object of a line; the caller names the
    file and the line of any error."""
    d = json.loads(line)
    if not isinstance(d, dict):
        raise ValueError("expected an object")
    try:
        image_id = d["image_id"]
        keypoints = d["keypoints"]
    except KeyError as e:
        raise ValueError(f"missing field {e.args[0]!r}") from None
    if not isinstance(image_id, str) or not image_id:
        raise ValueError("image_id must be a non-empty string")
    try:
        kp = np.asarray(keypoints)
    except ValueError:  # ragged nesting
        kp = None
    if kp is None or kp.dtype.kind not in "iuf" or kp.shape != (N_JOINTS, 2):
        raise ValueError(f"keypoints must be {N_JOINTS} [x, y] pairs of numbers")
    kp = kp.astype(np.float64, copy=False)
    if not np.isfinite(kp).all():
        raise ValueError("keypoints must be finite")
    action = None
    if d.get("action") is not None:
        if not isinstance(d["action"], str):
            raise ValueError("action must be a string")
        action = ActionLabel.parse(d["action"])
    score = d.get("score")
    if score is not None and (isinstance(score, bool) or not isinstance(score, (int, float))):
        raise ValueError("score must be numeric")
    if score is not None and not math.isfinite(float(score)):
        raise ValueError("score must be finite")
    provenance = d.get("provenance")
    if provenance is not None and not isinstance(provenance, str):
        raise ValueError("provenance must be a string")
    return PoseRecord(image_id, kp, action, score, provenance)


def candidate_set(image_id: str, records: Sequence[PoseRecord]) -> CandidateSet:
    """Pose records as the candidates of image_id, in file order, their
    positions factored by bit pattern (CandidateSet.from_keypoints); a
    missing score counts as 0."""
    actions = tuple(r.action for r in records)
    return CandidateSet.from_keypoints(
        image_id,
        np.reshape([r.keypoints for r in records], (-1, N_JOINTS, 2)),
        [0.0 if r.score is None else r.score for r in records],
        actions if any(a is not None for a in actions) else None,
    )


def read_pose_records(path: Union[str, Path]) -> list[PoseRecord]:
    """Parse a line-delimited pose file; errors name the file and the
    offending line."""
    return [r for _, r in _numbered_lines(path, _record_from_line)]


def read_pose_index(path: Union[str, Path]) -> dict[str, PoseRecord]:
    """The records of a pose file by image id; an id on two lines is an
    error that names the file and both lines."""
    out: dict[str, PoseRecord] = {}
    line_of: dict[str, int] = {}
    for lineno, r in _numbered_lines(path, _record_from_line):
        if r.image_id in out:
            raise ValueError(
                f"{path}: line {lineno}: image_id {r.image_id!r} repeats line {line_of[r.image_id]}"
            )
        out[r.image_id] = r
        line_of[r.image_id] = lineno
    return out


def _numbered_lines(path: Union[str, Path], parse: Callable[[str], Any]) -> list[tuple[int, Any]]:
    """(number, parse(text)) of each non-blank line of a UTF-8 file, decoded
    one at a time, so that every error, a bad byte's too, names its line."""
    out = []
    with open(path, "rb") as f:
        for lineno, raw in enumerate(f, start=1):
            try:
                line = raw.decode("utf-8")
                if line.strip():
                    out.append((lineno, parse(line)))
            except UnicodeDecodeError as e:
                raise ValueError(f"{path}: line {lineno}: invalid UTF-8 at byte {e.start}") from None
            except json.JSONDecodeError as e:
                raise ValueError(f"{path}: line {lineno}: invalid JSON ({e.msg})") from None
            except ValueError as e:
                raise ValueError(f"{path}: line {lineno}: {e}") from None
    return out


class _Encoded:
    """The UTF-8 bytes of an iterable of str chunks, encoded one chunk at a
    time as they are drawn. len() is the number of bytes drawn so far, so
    once atomic_write has written it, it is the file's size, as len() of
    bytes data is; bench/spans.py counts fileio.bytes_written by it."""

    def __init__(self, chunks: Iterable[str]):
        self._chunks, self._size = chunks, 0

    def __iter__(self) -> Iterator[bytes]:
        for chunk in self._chunks:
            data = chunk.encode("utf-8")
            self._size += len(data)
            yield data

    def __len__(self) -> int:
        return self._size


def write_pose_records(path: Union[str, Path], records: Iterable[PoseRecord]) -> None:
    """One JSON line per record, each written as it is drawn from records."""
    atomic_write(path, _Encoded(
        json.dumps(r.to_dict(), separators=(",", ":")) + "\n" for r in records))


# --- heatmap binary ---------------------------------------------------------

_HM_HEADER = struct.Struct("<8sIII3d")  # magic, joint, width, height, stride, ox, oy


def _pack_heatmap(h: Heatmap) -> bytes:
    rows, cols = h.grid.shape
    header = _HM_HEADER.pack(
        _HEATMAP_MAGIC, int(h.joint), cols, rows, h.stride, h.origin[0], h.origin[1]
    )
    return header + h.grid.astype("<f4").tobytes()


def write_heatmaps(path: Union[str, Path], maps: Sequence[Heatmap]) -> None:
    atomic_write(path, b"".join(_pack_heatmap(h) for h in maps))


def read_heatmaps(path: Union[str, Path]) -> list[Heatmap]:
    """Read all concatenated heatmap records in a file."""
    data = Path(path).read_bytes()
    out = []
    pos = 0
    # a signalling NaN raises the invalid flag as Heatmap widens it; Heatmap rejects the cell
    with np.errstate(invalid="ignore"):
        while pos < len(data):
            start = pos
            if len(data) - pos < _HM_HEADER.size:
                raise ValueError(f"truncated heatmap header at offset {pos}")
            magic, joint, width, height, stride, ox, oy = _HM_HEADER.unpack_from(data, pos)
            if magic != _HEATMAP_MAGIC:
                raise ValueError(f"bad heatmap magic at offset {pos}")
            if not 0 <= joint < N_JOINTS:
                raise ValueError(f"bad joint id {joint} at offset {pos}")
            pos += _HM_HEADER.size
            need = width * height * 4
            if len(data) - pos < need:
                raise ValueError(f"truncated heatmap grid at offset {pos}")
            grid = np.frombuffer(data, dtype="<f4", count=width * height, offset=pos)
            pos += need
            try:
                out.append(Heatmap(JointId(joint), grid.reshape(height, width), stride, (ox, oy)))
            except ValueError as e:
                raise ValueError(f"heatmap at offset {start}: {e}") from None
    return out


# --- model binary -----------------------------------------------------------


def save_svm_model(path: Union[str, Path], model: SvmModel) -> None:
    d = model.dim
    parts = [
        _MODEL_MAGIC,
        struct.pack("<I", d),
        struct.pack("<d", model.reg),
        model.mean.astype("<f8").tobytes(),
        model.std.astype("<f8").tobytes(),
        model.weights.astype("<f8").tobytes(),
        struct.pack("<d", model.bias),
    ]
    atomic_write(path, b"".join(parts))


def load_svm_model(path: Union[str, Path]) -> SvmModel:
    """Read a model file; errors name the file."""
    data = Path(path).read_bytes()
    if len(data) < 20 or data[:8] != _MODEL_MAGIC:
        raise ValueError(f"{path}: not a model file (bad magic)")
    (d,) = struct.unpack_from("<I", data, 8)
    (reg,) = struct.unpack_from("<d", data, 12)
    expected = 20 + 8 * (3 * d + 1)
    if len(data) != expected:
        raise ValueError(f"{path}: model file length {len(data)} != expected {expected}")
    vecs = np.frombuffer(data, dtype="<f8", count=3 * d, offset=20)
    mean, std, weights = vecs[:d].copy(), vecs[d : 2 * d].copy(), vecs[2 * d :].copy()
    (bias,) = struct.unpack_from("<d", data, 20 + 24 * d)
    if not 0.0 < reg < math.inf:
        raise ValueError(f"{path}: reg is {reg}, must be finite and positive")
    for name, v, ok, rule in (
        ("mean", mean, np.isfinite(mean), "finite"),
        ("std", std, np.isfinite(std) & (std > 0.0), "finite and positive"),
        ("weights", weights, np.isfinite(weights), "finite"),
    ):
        bad = np.flatnonzero(~ok)
        if bad.size:
            raise ValueError(f"{path}: {name}[{bad[0]}] is {float(v[bad[0]])}, must be {rule}")
    if not math.isfinite(bias):
        raise ValueError(f"{path}: bias is {bias}, must be finite")
    return SvmModel(mean=mean, std=std, weights=weights, bias=float(bias), reg=float(reg))


# --- config -----------------------------------------------------------------


def _config_entry(line: str) -> Optional[tuple[str, str]]:
    """A config line's (key, value), or None for a '#' comment."""
    key, eq, value = line.strip().partition("=")
    if key.startswith("#"):
        return None
    if not (eq and key.strip()):
        raise ValueError("empty key" if eq else "expected key=value")
    return key.strip(), value.strip()


def load_config(path: Union[str, Path]) -> dict[str, str]:
    """Flat key=value lines; blank lines and '#' comments are skipped.
    Errors name the file and the line; a key set twice names both lines."""
    entries = [(n, kv) for n, kv in _numbered_lines(path, _config_entry) if kv is not None]
    first: dict[str, int] = {}
    for n, (key, _) in entries:
        if first.setdefault(key, n) != n:
            raise ValueError(f"{path}: line {n}: key {key!r} repeats line {first[key]}")
    return dict(kv for _, kv in entries)
