import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))  # for the _oracles helper

from poseboot.heatmaps import _beam
from poseboot.skeleton import N_JOINTS, Skeleton


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def random_skeleton(rng, lo=10.0, hi=150.0) -> Skeleton:
    """A skeleton with joints scattered in a box; geometry, not anatomy."""
    return Skeleton(rng.uniform(lo, hi, size=(N_JOINTS, 2)))


@pytest.fixture
def skeletons(rng):
    return [random_skeleton(rng) for _ in range(50)]


def assemble(per_joint, beam):
    """heatmaps._beam over lists of per-joint scores, as (index tuple, total)
    pairs best first, the form of the reference searches in _oracles."""
    idx, total = _beam([np.asarray(s, dtype=np.float64) for s in per_joint], beam)
    return [(tuple(i), t) for i, t in zip(idx.tolist(), total.tolist())]
