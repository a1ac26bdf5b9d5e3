#!/usr/bin/env python3
"""The whole self-training loop on a synthetic corpus, one scheme at a time.

Half the images carry full pose annotations, half only an action label.
Each scheme trains selectors on the annotated half, picks trustworthy
candidates for the rest, folds them in, and repeats once. With ground truth
in hand we can audit every selection.
"""

import numpy as np

from poseboot.heatmaps import CandidateGenConfig, enumerate_candidates
from poseboot.pipeline import PipelineConfig, Scheme, run_pipeline
from poseboot.synth import SynthConfig, synth_corpus

corpus = synth_corpus(SynthConfig(n_actions=4, poses_per_action=20,
                                  outlier_rate=0.2, n_backgrounds=10, seed=1))
split = corpus.split
print(f"corpus: {len(split.fs)} annotated, {len(split.ws)} action-only, "
      f"{len(split.backgrounds)} backgrounds")

gen = CandidateGenConfig()
candidates = {i: enumerate_candidates(list(maps.values()), gen, image_id=i)
              for i, maps in corpus.heatmaps.items()}
n_cands = sum(len(c) for c in candidates.values())
print(f"candidates: {n_cands} across {len(candidates)} images")

# a strict acceptance margin separates the schemes: the shared selector
# abstains, per-action selectors catch some, clustering recovers the rest
gt = {i: skel for i, (skel, _) in corpus.truth.items()}
for scheme in (Scheme.SEMI, Scheme.WEAK, Scheme.WEAKC):
    cfg = PipelineConfig(scheme=scheme, margin=3.0, seed=0)
    states = run_pipeline(split, candidates, cfg, gt=gt)
    print(f"\nscheme {scheme.value}:")
    for st in states[1:]:
        by_prov: dict[str, int] = {}
        for a in st.accepted:
            by_prov[a.provenance] = by_prov.get(a.provenance, 0) + 1
        r = st.report
        prec = "n/a" if r.precision is None else f"{r.precision:.3f}"
        rec = "n/a" if r.recall is None else f"{r.recall:.3f}"
        print(f"  iter {st.iteration}: accepted {len(st.accepted)} {by_prov}, "
              f"precision {prec}, recall {rec}")

# the accepted poses are real annotations now: how close are they to truth?
errors = []
for a in states[-1].accepted:
    errors.append(np.linalg.norm(a.skeleton.keypoints - gt[a.image_id].keypoints,
                                 axis=1).mean())
print(f"\nmean joint error of {scheme.value}-accepted poses: "
      f"{np.mean(errors):.1f} px (heatmap stride is 4 px)")
