#!/usr/bin/env python3
"""From joint likelihood maps to ranked full-body candidates.

enumerate_candidates takes each joint map's peaks (threshold, non-maximum
suppression, sub-cell refinement); a beam search then assembles one peak per
joint into pose hypotheses ranked by total likelihood. An image's candidates
come back as one CandidateSet: (m, 14, 2) keypoints and (m,) scores.
"""

import numpy as np

from poseboot.heatmaps import CandidateGenConfig, enumerate_candidates
from poseboot.metrics import pcp_correct
from poseboot.skeleton import JointId, Skeleton
from poseboot.synth import SynthConfig, synth_corpus

corpus = synth_corpus(SynthConfig(n_actions=1, poses_per_action=1, seed=3,
                                  outlier_rate=1.0, ws_fraction=0.0,
                                  n_backgrounds=0))
image_id = corpus.split.fs[0].image_id
truth, _ = corpus.truth[image_id]
maps = corpus.heatmaps[image_id]

cfg = CandidateGenConfig(threshold=0.1, top_k=3, nms_radius=1.0, beam=500)
cands = enumerate_candidates(list(maps.values()), cfg, image_id=image_id)

# a joint's peaks are the distinct positions its candidates put it at
head = maps[JointId.HEAD]
print(f"head map: {head.grid.shape} cells at stride {head.stride}")
print(f"true head position: {truth.joint(JointId.HEAD).round(1)}")
for x, y in np.unique(cands.keypoints[:, JointId.HEAD], axis=0):
    print(f"  head peak at pixel ({x:.1f}, {y:.1f})")

# the distractor bump creates extra peaks; beam search sorts the fallout
peaks = [len(np.unique(cands.keypoints[:, j], axis=0)) for j in JointId]
print(f"\n{int(np.prod(peaks))} combinations of those peaks, beam kept {len(cands)}")
print(f"scores {cands.scores[0]:.2f} down to {cands.scores[-1]:.2f}")
for rank in (0, len(cands) // 2, len(cands) - 1):
    ok = pcp_correct(truth, Skeleton(cands.keypoints[rank]), eps=0.7)[1]
    print(f"  rank {rank}: score {cands.scores[rank]:.2f}, "
          f"true pose: {'yes' if ok else 'no'}")
