"""Output checks for the benchmark, computed from first principles.

Nothing here imports poseboot: PCP, PCK, the heatmap file layout and strict
local maxima are recomputed from their definitions, so that a fault in
poseboot.metrics or poseboot.heatmaps cannot vouch for its own output.
Every check returns a list of problems; the two entry points raise
CheckError naming all of them.
"""
from __future__ import annotations

import hashlib
import json
import re
import struct
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

N_JOINTS = 14
# head-neck, neck-shoulders, arms, neck-hips, legs: the 14-joint limb tree
LIMBS = (
    (0, 1), (1, 2), (1, 3), (2, 4), (3, 5), (4, 6), (5, 7),
    (1, 8), (1, 9), (8, 10), (9, 11), (10, 12), (11, 13),
)
PCP_EPS = 0.7  # the pipeline's default PCP threshold
PCK_FRAC = 0.2  # eval's default PCK fraction of the bounding-box side
PEAK_FLOOR = 0.1  # candidate generator's default likelihood floor
MIN_PRECISION = 0.9  # the acceptance gate's precision bound
MAX_ITERATIONS = 2

_HM_HEADER = struct.Struct("<8sIII3d")  # magic, joint, width, height, stride, ox, oy
_HM_MAGIC = b"PBHMAP01"


class CheckError(Exception):
    pass


# --- reading -------------------------------------------------------------------


def read_records(path: Path) -> list[dict]:
    """JSONL pose lines as dicts, with keypoints as a (14, 2) array."""
    out = []
    for line in Path(path).read_text().splitlines():
        if line.strip():
            rec = json.loads(line)
            rec["keypoints"] = np.array(rec["keypoints"], dtype=np.float64)
            out.append(rec)
    return out


def read_split(corpus: Path) -> dict:
    return json.loads((Path(corpus) / "split.json").read_text())


def read_truth(corpus: Path) -> dict[str, np.ndarray]:
    return {r["image_id"]: r["keypoints"] for r in read_records(Path(corpus) / "truth.jsonl")}


def read_heatmap_file(path: Path) -> dict[int, tuple[np.ndarray, float, float, float]]:
    """joint -> (grid, stride, origin_x, origin_y) from one .hm file."""
    data = Path(path).read_bytes()
    out = {}
    pos = 0
    while pos < len(data):
        magic, joint, width, height, stride, ox, oy = _HM_HEADER.unpack_from(data, pos)
        if magic != _HM_MAGIC:
            raise CheckError(f"{path}: bad heatmap magic at offset {pos}")
        pos += _HM_HEADER.size
        grid = np.frombuffer(data, dtype="<f4", count=width * height, offset=pos)
        out[joint] = (grid.reshape(height, width).astype(np.float64), stride, ox, oy)
        pos += 4 * width * height
    return out


# --- pose arithmetic -------------------------------------------------------------


def pcp_all_correct(gt: np.ndarray, est: np.ndarray, eps: float = PCP_EPS) -> bool:
    """Every limb has both endpoints within eps times its true length."""
    err = np.sqrt(((est - gt) ** 2).sum(axis=1))
    for i, j in LIMBS:
        tol = eps * float(np.sqrt(((gt[i] - gt[j]) ** 2).sum()))
        if err[i] > tol or err[j] > tol:
            return False
    return True


def pck_flags(gt: np.ndarray, est: np.ndarray, frac: float = PCK_FRAC) -> np.ndarray:
    """Per-joint hits within frac times the longer side of the truth's box."""
    side = float((gt.max(axis=0) - gt.min(axis=0)).max())
    err = np.sqrt(((est - gt) ** 2).sum(axis=1))
    return err <= frac * side


def strict_maxima(grid: np.ndarray, floor: float = PEAK_FLOOR) -> np.ndarray:
    """(row, col) of cells >= floor and above each of their 8 neighbours."""
    padded = np.pad(grid, 1, constant_values=-np.inf)
    windows = sliding_window_view(padded, (3, 3)).reshape(*grid.shape, 9)
    neighbours = np.delete(windows, 4, axis=2).max(axis=2)  # index 4 is the cell itself
    return np.argwhere((grid > neighbours) & (grid >= floor)).astype(np.float64)


# --- individual checks -------------------------------------------------------------


def check_on_peaks(corpus: Path, poses: list[dict]) -> list[str]:
    """Every keypoint within half a cell of a strict local maximum of its map."""
    problems = []
    for rec in poses:
        maps = read_heatmap_file(Path(corpus) / "heatmaps" / f"{rec['image_id']}.hm")
        for j in range(N_JOINTS):
            grid, stride, ox, oy = maps[j]
            x, y = rec["keypoints"][j]
            cell = np.array([(y - oy) / stride, (x - ox) / stride])  # (row, col)
            peaks = strict_maxima(grid)
            if not len(peaks) or np.abs(peaks - cell).max(axis=1).min() > 0.5 + 1e-9:
                problems.append(f"peak: {rec['image_id']} joint {j} is off every heatmap peak")
                break
    return problems


def check_targets(split: dict, poses: list[dict]) -> list[str]:
    """Accepted poses: action-only targets, one per image, with the image's action."""
    problems = []
    seen = set()
    for rec in poses:
        i = rec["image_id"]
        if i in seen:
            problems.append(f"duplicate: image {i} has more than one pose")
        seen.add(i)
        if i not in split["ws"]:
            problems.append(f"target: {i} is not an action-only image")
        elif rec.get("action") is not None and rec["action"] != split["ws"][i]:
            problems.append(f"action: {i} labelled {rec['action']}, split says {split['ws'][i]}")
    return problems


def recount(truth: dict[str, np.ndarray], poses: list[dict]) -> tuple[int, float]:
    """(fully PCP-correct poses, mean PCK) against the corpus truth."""
    correct = sum(pcp_all_correct(truth[r["image_id"]], r["keypoints"]) for r in poses)
    pck = float(np.mean([pck_flags(truth[r["image_id"]], r["keypoints"]) for r in poses]))
    return correct, pck


def check_precision(correct: int, accepted: int) -> list[str]:
    if accepted == 0:
        return ["precision: nothing was accepted"]
    if correct / accepted < MIN_PRECISION:
        return [f"precision: {correct}/{accepted} PCP-correct is below {MIN_PRECISION}"]
    return []


def _report_counts(path: Path) -> dict[str, int]:
    m = re.search(r"^counts (.*)$", path.read_text(), re.M)
    if m is None:
        raise CheckError(f"{path.name}: no counts line (was the run audited?)")
    return {k: int(v) for k, v in (kv.split("=") for kv in m.group(1).split())}


def _same_pose(a: dict, b: dict) -> bool:
    return (
        np.array_equal(a["keypoints"], b["keypoints"])
        and a.get("action") == b.get("action")
        and a.get("provenance") == b.get("provenance")
    )


# --- entry points ------------------------------------------------------------------


def check_pipeline(corpus: Path, exchange: Path, need_cluster: bool = False) -> dict:
    """Check one audited `poseboot pipeline` run; returns its accepted and
    correct counts.

    Raises CheckError listing every problem found.
    """
    corpus, exchange = Path(corpus), Path(exchange)
    split = read_split(corpus)
    truth = read_truth(corpus)
    files = sorted(exchange.glob("annotations_iter*.jsonl"))
    iters = sorted(int(re.search(r"(\d+)", f.stem).group(1)) for f in files)
    if not iters:
        raise CheckError(f"{exchange}: no annotation files")
    problems = []
    if iters != list(range(1, len(iters) + 1)) or len(iters) > MAX_ITERATIONS:
        problems.append(f"iterations: found iterations {iters}, at most {MAX_ITERATIONS} allowed")

    accepted_by_iter = []
    for t in iters:
        recs = read_records(exchange / f"annotations_iter{t}.jsonl")
        accepted = [r for r in recs if r.get("provenance") != "fs"]
        problems += check_targets(split, accepted)
        accepted_by_iter.append({r["image_id"]: r for r in accepted})
    for t, (prev, cur) in enumerate(zip(accepted_by_iter, accepted_by_iter[1:]), start=1):
        for i, rec in prev.items():
            if i not in cur or not _same_pose(rec, cur[i]):
                problems.append(f"iteration: {i} accepted in iteration {t} changed in {t + 1}")

    final = list(accepted_by_iter[-1].values())
    problems += check_on_peaks(corpus, final)
    correct, _ = recount(truth, final) if final else (0, 0.0)
    problems += check_precision(correct, len(final))
    counts = _report_counts(exchange / f"report_iter{iters[-1]}.txt")
    if counts.get("atp_stp") != correct:
        problems.append(f"PCP recount: {correct} correct poses, report says atp_stp={counts.get('atp_stp')}")
    if need_cluster and not any(r.get("provenance") == "cluster" for r in final):
        problems.append("cluster: no pose came from the cluster stage")
    if problems:
        raise CheckError("; ".join(problems))
    return {"accepted": len(final), "correct": correct}


def check_stages(corpus: Path, candidates: Path, picks: Path, eval_stdout: str) -> dict:
    """Check `poseboot select` picks and the mean that `eval` printed for them."""
    corpus = Path(corpus)
    split = read_split(corpus)
    truth = read_truth(corpus)
    cand_lines: dict[str, list[dict]] = {}
    for r in read_records(candidates):
        cand_lines.setdefault(r["image_id"], []).append(r)
    chosen = read_records(picks)
    problems = check_targets(split, chosen)
    for p in chosen:
        if not any(
            np.array_equal(p["keypoints"], c["keypoints"]) and p.get("score") == c.get("score")
            for c in cand_lines.get(p["image_id"], ())
        ):
            problems.append(f"pick: {p['image_id']} is none of that image's candidate lines")
    problems += check_on_peaks(corpus, chosen)
    correct, pck = recount(truth, chosen) if chosen else (0, 0.0)
    problems += check_precision(correct, len(chosen))
    m = re.search(r"^mean ([0-9.]+) over (\d+) images$", eval_stdout, re.M)
    if m is None:
        problems.append("eval: no mean line in its output")
    elif (m.group(1), int(m.group(2))) != (f"{100.0 * pck:.1f}", len(chosen)):
        problems.append(
            f"eval: printed mean {m.group(1)} over {m.group(2)}, "
            f"recount gives {100.0 * pck:.1f} over {len(chosen)}"
        )
    if problems:
        raise CheckError("; ".join(problems))
    return {"accepted": len(chosen), "correct": correct}


def digest(paths) -> str:
    """sha256 over the named files' contents, in the order given."""
    h = hashlib.sha256()
    for p in paths:
        h.update(Path(p).read_bytes())
    return h.hexdigest()
