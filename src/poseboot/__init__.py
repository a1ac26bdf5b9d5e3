"""Self-training human-pose estimation from partially annotated video frames.

The package turns a small fully annotated seed set plus action-tagged and
unlabeled frames into a growing pool of pose annotations: candidate poses are
enumerated from per-joint score maps, a max-margin selector picks at most one
pose per frame, and an infinite mixture over relational pose features prunes
implausible picks or recovers extra poses, iterating until no new frames are
accepted.
"""

__version__ = "0.1.0"
