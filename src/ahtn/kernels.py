"""Kernels: the per-frame matching and correction, on rows of Python
floats, and rank correlation, on numpy arrays.

A row is one joint's (x, y, z). The per-frame kernels take the few rows
of a frame that the evaluator reads, and a frame's rows cost a fraction
of numpy's per-call overhead in Python floats. Their arithmetic is
numpy's, operation for operation, so their results are bit-identical to
the array expressions they replace."""

from __future__ import annotations

import math

import numpy as np


# ---------------------------------------------------------------------------
# radius matching (hot: called once per skeleton frame)

def all_within(points, targets, radius: float) -> bool:
    """True iff every point row lies within radius of its target row
    (closed ball); the rows pair up in order, and their counts must agree.

    Each squared distance is x*x + y*y + z*z, summed in that order as
    numpy's row sum does."""
    limit = radius * radius
    for (px, py, pz), (tx, ty, tz) in zip(points, targets, strict=True):
        x = px - tx
        y = py - ty
        z = pz - tz
        if not x * x + y * y + z * z <= limit:
            return False
    return True


# ---------------------------------------------------------------------------
# isotropic scaling about a center (height correction, per frame)

def scale_about(points, center, factor: float) -> list[tuple[float, float, float]]:
    """The point rows scaled about the center row by factor: c + f * (p - c)
    per coordinate, numpy's ``center + factor * (points - center)``."""
    cx, cy, cz = center
    return [(cx + factor * (x - cx), cy + factor * (y - cy), cz + factor * (z - cz))
            for x, y, z in points]


# ---------------------------------------------------------------------------
# rank correlation building blocks

def kendall_pair_stats(x: np.ndarray, y: np.ndarray) -> tuple[int, int, int, int]:
    """Over all pairs i < j: the concordant and discordant counts, and the
    pairs tied in x and tied in y (each counting the pairs tied in both),
    the four counts tau-b reads."""
    # O(n^2) memory; fine for the list sizes rank correlation sees here.
    iu = np.triu_indices(len(x), k=1)
    dx = np.sign(x[:, None] - x[None, :])[iu]
    dy = np.sign(y[:, None] - y[None, :])[iu]
    prod = dx * dy
    return (int((prod > 0).sum()), int((prod < 0).sum()),
            int((dx == 0).sum()), int((dy == 0).sum()))


def rank_average(values: np.ndarray) -> np.ndarray:
    """1-based ranks, each group of equal values given its average rank."""
    _, group, counts = np.unique(values, return_inverse=True, return_counts=True)
    end = np.cumsum(counts)  # each group's sorted positions are start..end-1
    start = end - counts
    return (0.5 * (start + end - 1) + 1.0)[group]


def pearson(x: np.ndarray, y: np.ndarray) -> float:
    xc = x - x.mean()
    yc = y - y.mean()
    denom = math.sqrt(float((xc * xc).sum()) * float((yc * yc).sum()))
    if denom == 0.0:
        return math.nan
    return float((xc * yc).sum()) / denom
