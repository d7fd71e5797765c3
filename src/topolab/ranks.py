"""Particle configurations and rank-based interaction quantities.

The proximity rank of particle j relative to a focal particle i is its
position in the list of the other n-1 particles sorted by torus distance
from i, with distance ties broken by ascending particle index so that the
ranks always form a bijection onto {1, ..., n-1}.  Normalized ranks
rank/(n-1) coincide with the closed-ball empirical mass at the partner's
distance whenever interparticle distances are pairwise distinct.

The rank law K(h/(n-1)) does not depend on the positions, so the simulations
draw a partner's rank first (`rank_cdf`, `draw_index`) and then find the
particle of that rank with one partition (`partner_at_rank`).  The full rank
vector and probability vector (`rank_vector`, `partner_distribution`) are
built only where a whole row is needed.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np

from . import torus
from .kernels import DegenerateNormalizationError, Kernel


@dataclass
class Configuration:
    """Positions and velocities of n particles on the unit d-torus.

    Positions are wrapped into [0, 1) on construction.  ``n`` and ``d`` are
    fixed for the lifetime of a trajectory.
    """

    positions: np.ndarray
    velocities: np.ndarray

    def __post_init__(self) -> None:
        pos = np.atleast_1d(np.asarray(self.positions, dtype=float))
        vel = np.atleast_1d(np.asarray(self.velocities, dtype=float))
        if pos.ndim == 1:
            pos = pos[:, np.newaxis]
        if vel.ndim == 1:
            vel = vel[:, np.newaxis]
        if pos.shape != vel.shape:
            raise ValueError(f"positions {pos.shape} and velocities {vel.shape} disagree")
        if pos.shape[0] < 2:
            raise ValueError("need at least 2 particles")
        if pos.shape[1] not in (1, 2):
            raise ValueError(f"dimension must be 1 or 2, got {pos.shape[1]}")
        self.positions = torus.wrap(pos)
        self.velocities = vel

    @property
    def n(self) -> int:
        return self.positions.shape[0]

    @property
    def d(self) -> int:
        return self.positions.shape[1]

    def copy(self) -> "Configuration":
        return Configuration(self.positions.copy(), self.velocities.copy())

    def transported(self, dt: float) -> "Configuration":
        """Free streaming: advance every particle by its velocity for time dt.

        Returns an independent configuration (velocities copied, not aliased),
        so snapshots stay frozen while the source keeps evolving.
        """
        return Configuration(
            torus.wrap(self.positions + self.velocities * dt), self.velocities.copy()
        )

    def transport_inplace(self, dt: float) -> None:
        """`transported` in place, with one temporary buffer."""
        buf = self.velocities * dt
        self.positions += buf
        self.positions -= np.floor(self.positions, out=buf)


def rank_vector(config: Configuration, i: int) -> np.ndarray:
    """Ranks of every particle around focal i as an int array; entry i is 0.

    One stable sort of the torus distances, with the focal entry set below
    every distance so that it takes rank 0; distance ties fall to the lower
    index.
    """
    n = config.n
    if not 0 <= i < n:
        raise IndexError(f"focal index {i} out of range for n={n}")
    dist = torus.distances_from(config.positions, config.positions[i])
    dist[i] = -1.0
    ranks = np.empty(n, dtype=np.int64)
    ranks[np.argsort(dist, kind="stable")] = np.arange(n)
    return ranks


def partner_at_rank(config: Configuration, i: int, h: int) -> int:
    """The particle of rank h around focal i: ``argsort(d, kind="stable")[h]`` in O(n).

    d holds the torus distances from i with d[i] = -1, as in `rank_vector`.
    One partition finds the h-th smallest distance d*; the particle is then
    the one at d* that comes (h - #{d < d*})-th in index order, which is the
    stable sort's tie-break.
    """
    n = config.n
    if not (0 <= i < n and 0 <= h < n):
        raise IndexError(f"focal {i} or rank {h} out of range for n={n}")
    dist = torus.distances_from(config.positions, config.positions[i])
    dist[i] = -1.0
    part = np.partition(dist, h)
    d_star = part[h]
    closer = int(np.count_nonzero(part[:h] < d_star))
    return int(np.flatnonzero(dist == d_star)[h - closer])


def rank_cdf(kernel: Kernel, n: int) -> list[float]:
    """Cumulative partner-rank weights: entry h is sum_{s=1..h} K(s/(n-1)).

    The rank law is the same around every focal particle and at every time,
    so one list serves a whole trajectory; a list, so that `draw_index`
    bisects it without a numpy call.  Rank 0, the focal particle itself,
    weighs 0.
    """
    weights = kernel(np.arange(n) / (n - 1))
    weights[0] = 0.0
    cdf = np.cumsum(weights).tolist()
    if cdf[-1] <= 0.0:
        raise DegenerateNormalizationError(f"kernel vanishes at every occurring rank (n={n})")
    return cdf


def draw_index(rng: np.random.Generator, cdf: list[float] | np.ndarray) -> int:
    """An index h drawn with probability (cdf[h] - cdf[h-1]) / cdf[-1], by inverse CDF.

    ``cdf`` is a non-decreasing sequence, best a list.  Bisecting to the right
    skips a flat run of the CDF, so a zero-weight index is never drawn; a
    uniform that rounds up to the total falls back to the last index with
    weight.  On `rank_cdf` this draws a partner rank h with probability
    K(h/(n-1)) / sum_s K(s/(n-1)).
    """
    total = cdf[-1]
    h = bisect_right(cdf, rng.random() * total)
    if h == len(cdf):
        h = bisect_left(cdf, total)
    return h


def normalized_ranks(config: Configuration, i: int) -> np.ndarray:
    """rank/(n-1) for every particle around focal i; entry i is 0."""
    return rank_vector(config, i) / (config.n - 1)


def empirical_mass(
    config: Configuration, center: np.ndarray | float, radius: float, exclude: int
) -> float:
    """Fraction of the other particles inside the closed torus ball of given radius.

    Counts particles h != exclude with torus_dist(x_h, center) <= radius and
    divides by n-1.  With center = x_i and radius = |x_i - x_j| this equals
    the normalized rank of j whenever distances are pairwise distinct.
    """
    if radius < 0:
        raise ValueError(f"radius must be nonnegative, got {radius}")
    if not 0 <= exclude < config.n:
        raise IndexError(f"excluded index {exclude} out of range for n={config.n}")
    center_arr = np.atleast_1d(np.asarray(center, dtype=float))
    dist = torus.distances_from(config.positions, center_arr)
    inside = dist <= radius
    inside[exclude] = False
    return float(np.count_nonzero(inside)) / (config.n - 1)


def partner_distribution(config: Configuration, kernel: Kernel, i: int) -> np.ndarray:
    """Partner-choice probabilities for focal i: kernel at normalized ranks, normalized.

    Returns a length-n vector with entry i equal to 0.  Because the ranks of
    the others are exactly {1, ..., n-1}, normalizing by the sum of kernel
    values over the drawn ranks is algebraically the same as dividing by
    sum_s K(s/(n-1)).
    """
    weights = kernel(rank_vector(config, i) / (config.n - 1))
    weights[i] = 0.0
    total = float(np.sum(weights))
    if total <= 0.0:
        raise DegenerateNormalizationError(
            f"kernel vanishes at every occurring rank around particle {i} (n={config.n})"
        )
    return weights / total
