"""Geometry of the unit torus in one and two dimensions.

Positions live on [0, 1)^d with periodic identification.  All distances are
quotient distances: coordinate differences are wrapped into [-1/2, 1/2]
before taking the Euclidean norm.  The largest possible distance is 1/2 in
one dimension and sqrt(2)/2 in two.
"""

from __future__ import annotations

import math

import numpy as np


def wrap(x: np.ndarray) -> np.ndarray:
    """Reduce coordinates modulo 1 into [0, 1).

    ``x - floor(x)`` rounds once, like ``np.mod(x, 1.0)``, and gives the same
    bits (a tiny negative x wraps to 1.0 in both) at a fraction of the cost.
    """
    return x - np.floor(x)


def coordinate_delta(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Componentwise signed displacement from ``b`` to ``a``, wrapped into [-1/2, 1/2]."""
    d = a - b
    return d - np.round(d)


def distance(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Torus distance between points; broadcasts over leading axes.

    Inputs have shape (..., d); the last axis is the spatial dimension.
    """
    delta = coordinate_delta(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    return np.sqrt(np.sum(delta * delta, axis=-1))


def distances_from(points: np.ndarray, center: np.ndarray) -> np.ndarray:
    """Torus distances of every row of ``points`` (n, d) from ``center`` (d,)."""
    if points.shape[1] == 1:
        # the steps of `coordinate_delta` on one buffer (np.round to 0 decimals
        # is np.rint); sqrt(x * x) rounds back to |x| unless x * x underflows
        delta = points[:, 0] - center[0]
        delta -= np.rint(delta)
        return np.abs(delta, out=delta)
    delta = coordinate_delta(points, center[np.newaxis, :])
    return np.sqrt(np.sum(delta * delta, axis=1))


def pair_distance(a, b) -> float:
    """Torus distance between the points ``a`` and ``b`` (d floats each) as a Python float.

    The operations of one entry of `distances_from`, so the same bits, without
    the numpy calls: Python's ``round`` also rounds halves to even.
    """
    deltas = [p - q - round(p - q) for p, q in zip(a, b)]
    if len(deltas) == 1:
        return abs(deltas[0])
    dx, dy = deltas
    return math.sqrt(dx * dx + dy * dy)


def uniform_ball_mass(radius: np.ndarray, d: int) -> np.ndarray:
    """Volume of the closed torus ball of given radius for the uniform unit density.

    d=1: min(2r, 1).  d=2: the disk area pi*r^2 for r <= 1/2; for
    1/2 < r <= sqrt(2)/2 the four circular segments protruding past the
    fundamental square are removed (they are pairwise disjoint in that range),
    and the mass saturates at 1 at r = sqrt(2)/2.
    """
    r = np.asarray(radius, dtype=float)
    if d == 1:
        return np.minimum(2.0 * r, 1.0)
    if d == 2:
        r = np.minimum(r, 0.5 * np.sqrt(2.0))
        area = np.pi * r * r
        over = r > 0.5
        if np.any(over):
            ro = np.where(over, r, 1.0)
            seg = ro * ro * np.arccos(np.minimum(0.5 / ro, 1.0)) - 0.5 * np.sqrt(
                np.maximum(ro * ro - 0.25, 0.0)
            )
            area = np.where(over, np.pi * ro * ro - 4.0 * seg, area)
        return np.minimum(area, 1.0)
    raise ValueError(f"unsupported dimension {d}, expected 1 or 2")
