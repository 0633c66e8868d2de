"""Streaming sketches for hinge-loss point estimation and low-dimensional SVM optimization.

The package keeps sublinear-space summaries of labeled point streams so that,
after one pass, the hinge objective can be evaluated at any query hyperplane
(point estimation) or approximately minimized over a grid of candidates
(optimization).  Exact brute-force oracles and adversarial instance
generators are included for verification.
"""

from .core import (
    ConvergenceError,
    HyperplaneQuery,
    LabeledPoint,
    SketchParams,
    exact_optimize,
    hinge_objective,
    strong_convexity_radius,
)

__all__ = [
    "ConvergenceError",
    "HyperplaneQuery",
    "LabeledPoint",
    "SketchParams",
    "exact_optimize",
    "hinge_objective",
    "strong_convexity_radius",
]

__version__ = "0.1.0"
