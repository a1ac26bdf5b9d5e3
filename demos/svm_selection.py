#!/usr/bin/env python3
"""Train a correct-pose selector and let it pick through noisy candidates.

Positives are jittered copies of a handful of annotations; negatives are
junk poses of the kind background images produce. The margin knob trades
recall for precision.
"""

import numpy as np

from poseboot.features import relational_features
from poseboot.pipeline import PipelineConfig, training_set
from poseboot.skeleton import CandidateSet, Skeleton
from poseboot.svm import select, train
from poseboot.synth import action_template

rng = np.random.default_rng(42)

annotations = [
    Skeleton(action_template(0).keypoints + rng.normal(0, 2.0, (14, 2)))
    for _ in range(6)
]
# each annotation's keypoints, then its 10 jittered copies, then the junk,
# featurized in one call as the pipeline builds every selector's rows
ts = training_set(annotations, rng.uniform(10, 150, (40, 14, 2)), PipelineConfig(), rng)
model = train(ts, tol=1e-5, max_iter=1000)
n_pos = int((ts.labels > 0).sum())
print(f"trained on {n_pos} positives / {len(ts.labels) - n_pos} negatives, "
      f"{len(model.objective_history)} epochs, "
      f"objective {model.objective_history[-1]:.4f}")

# a fresh "image": one good pose hidden among junk candidates
truth = Skeleton(action_template(0).keypoints + rng.normal(0, 2.0, (14, 2)))
junk = [rng.uniform(10, 150, (14, 2)) for _ in range(4)]
cands = CandidateSet.from_keypoints("img", [truth.keypoints, *junk], [0.8] + [0.9] * 4)
feats = relational_features(cands.keypoints, normalize=True)

scored = model.decisions(feats)
print("\ndecision values (candidate 0 is the true pose):")
for i, s in enumerate(scored):
    print(f"  candidate {i}: {s:+.3f}")

for margin in (0.0, 0.5, 2.0, 8.0):
    pick, _ = select(model, cands, margin=margin)
    verdict = "abstains" if pick is None else f"picks candidate {pick}"
    print(f"margin {margin:>4}: selector {verdict}")
