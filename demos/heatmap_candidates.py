#!/usr/bin/env python3
"""From joint likelihood maps to ranked full-body candidates.

Each joint map gets peak extraction (threshold, non-maximum suppression,
sub-cell refinement); a beam search then assembles one peak per joint into
pose hypotheses ranked by total likelihood.
"""

import numpy as np

from poseboot.heatmaps import (
    CandidateGenConfig,
    beam_assemble,
    enumerate_candidates,
    local_maxima,
)
from poseboot.metrics import pcp_correct
from poseboot.skeleton import JointId
from poseboot.synth import SynthConfig, synth_corpus

corpus = synth_corpus(SynthConfig(n_actions=1, poses_per_action=1, seed=3,
                                  outlier_rate=1.0, ws_fraction=0.0,
                                  n_backgrounds=0))
image_id = corpus.split.fs[0].image_id
truth, _ = corpus.truth[image_id]
maps = corpus.heatmaps[image_id]

cfg = CandidateGenConfig(threshold=0.1, top_k=3, nms_radius=1.0, beam=500)
head = maps[JointId.HEAD]
peaks = local_maxima(head, cfg)
print(f"head map: {head.grid.shape} cells at stride {head.stride}")
print(f"true head position: {truth.joint(JointId.HEAD).round(1)}")
for p in peaks:
    print(f"  peak value {p.value:.2f} at pixel ({p.x:.1f}, {p.y:.1f})")

# the distractor bump creates extra peaks; beam search sorts the fallout
per_joint = [[pk.value for pk in local_maxima(maps[j], cfg)] for j in JointId]
n_combos = int(np.prod([len(v) for v in per_joint]))
assemblies = beam_assemble(per_joint, cfg.beam)
print(f"\n{n_combos} raw peak combinations, beam kept {len(assemblies)}")
print(f"best total {assemblies[0][1]:.2f}, worst kept {assemblies[-1][1]:.2f}")

# the whole image at once: one set of (m, 14, 2) keypoints and (m,) scores
cands = enumerate_candidates(maps, cfg, image_id=image_id)
print(f"\n{len(cands)} candidates, scores "
      f"{cands.scores[0]:.2f} down to {cands.scores[-1]:.2f}")
for rank in (0, len(cands) // 2, len(cands) - 1):
    ok = pcp_correct(truth, cands.pose(rank).skeleton, eps=0.7)[1]
    print(f"  rank {rank}: score {cands.scores[rank]:.2f}, "
          f"true pose: {'yes' if ok else 'no'}")
