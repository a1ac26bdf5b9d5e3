#!/usr/bin/env python3
"""Cluster pose features with the nonparametric mixture, then screen small
clusters with the Bayes-factor test to decide whether they are genuine
outliers or just fragments of a larger group."""

import numpy as np

from poseboot.dpmm import (
    DpmmConfig,
    detect_outliers,
    format_outlier_report,
    gibbs_cluster,
    project,
)
from poseboot.features import relational_feature
from poseboot.skeleton import Skeleton
from poseboot.synth import action_template

rng = np.random.default_rng(7)

# two genuine pose groups plus two lone junk poses; the sampler may pool
# the real groups (they share a body plan) but must isolate the junk
feats, labels = [], []
for ai, n in ((0, 25), (4, 25)):
    template = action_template(ai)
    for _ in range(n):
        skel = Skeleton(template.keypoints + rng.normal(0, 2.0, (14, 2)))
        feats.append(relational_feature(skel, normalize=True))
        labels.append(f"action{ai}")
for _ in range(2):
    junk = Skeleton(rng.uniform(10, 150, (14, 2)))
    feats.append(relational_feature(junk, normalize=True))
    labels.append("junk")
X = np.vstack(feats)
scores = np.concatenate([rng.uniform(0.6, 1.0, 50), [0.2, 0.2]])

cfg = DpmmConfig(gamma=1.0, alpha=1 / 3, seed=0)
Z = project(X, cfg)  # light projection keeps the sampler cheap
partition = gibbs_cluster(Z, cfg)
print(f"found {partition.n_clusters} clusters with sizes {partition.sizes()}")
for k in range(partition.n_clusters):
    members = partition.members(k)
    kinds = sorted({labels[i] for i in members})
    print(f"  cluster {k}: {len(members)} poses, contents {kinds}")

report = detect_outliers(Z, scores, partition, cfg)
print(f"\nmerge hypothesis rejected: {report.accepted}")
print(f"flagged indices: {list(report.outlier_indices)} "
      f"(the junk poses are 50 and 51)")
for ev in report.per_merge:
    print(f"  {ev.descriptor}: log K {ev.log_bayes_factor:.1f} "
          f"vs bound {ev.log_lower_bound:.1f} -> "
          f"{'outliers' if ev.satisfied else 'fragments'}")

print("\nfull report:")
print(format_outlier_report(report))
