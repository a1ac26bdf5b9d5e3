"""Self-training human-pose estimation from partially annotated still images.

A small fully annotated seed set grows into pose annotations for
action-labeled and unlabeled images: candidate poses are enumerated from
per-joint score maps, a max-margin selector picks at most one pose per
image, and under the weakC scheme an infinite mixture over relational pose
features recovers poses for images the selector abstained on. Rounds repeat
until one accepts nothing new, or up to max_iterations (default 2).
"""

__version__ = "0.1.0"
