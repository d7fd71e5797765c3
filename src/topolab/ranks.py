"""Particle configurations and rank-based interaction quantities.

The proximity rank of particle j relative to a focal particle i is its
position in the list of the other n-1 particles sorted by torus distance
from i, with distance ties broken by ascending particle index so that the
ranks always form a bijection onto {1, ..., n-1}.  Normalized ranks
rank/(n-1) coincide with the closed-ball empirical mass at the partner's
distance whenever interparticle distances are pairwise distinct.

The rank law K(h/(n-1)) does not depend on the positions, so the simulations
draw a partner's rank first (`rank_cdf`, `draw_index`) and then find the
particle of that rank.  A running simulation stores comoving coordinates
u = wrap(x - v t), so free streaming costs nothing.  In d = 1 a
`Configuration` keeps its u in one sorted run per velocity, and
`Configuration.partner_at_rank` finds the particle of rank h without touching
the other particles.  `partner_at_rank` does the same on materialized
positions with one partition; it serves d = 2 and is the test oracle.  The
full rank vector and probability vector (`rank_vector`,
`partner_distribution`) are built only where a whole row is needed.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from math import floor

import numpy as np

from . import torus
from .kernels import DegenerateNormalizationError, Kernel


@dataclass
class Configuration:
    """Positions and velocities of n particles on the unit d-torus.

    Positions are wrapped into [0, 1) on construction.  ``n`` and ``d`` are
    fixed for the lifetime of a trajectory.  In d = 1 the first
    `partner_at_rank` sorts the positions into one run per velocity, which
    `set_velocity` keeps in step.
    """

    positions: np.ndarray
    velocities: np.ndarray
    _runs: dict[float, tuple[list[float], list[int]]] | None = field(
        default=None, init=False, repr=False, compare=False
    )

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

        Returns an independent configuration (velocities copied, not aliased,
        no runs), so snapshots stay frozen while the source keeps evolving.
        On comoving coordinates, ``transported(t)`` gives the positions at
        time t.
        """
        return Configuration(
            torus.wrap(self.positions + self.velocities * dt), self.velocities.copy()
        )

    def position(self, i: int, dt: float) -> list[float]:
        """Row i of ``transported(dt).positions`` as Python floats, with the same bits."""
        if self.positions.shape[1] == 1:  # every d = 1 event: same bits, fewer numpy calls
            return [_wrapped(self.positions.item(i), self.velocities.item(i) * dt)]
        rows = zip(self.positions[i].tolist(), self.velocities[i].tolist())
        return [_wrapped(u, w * dt) for u, w in rows]

    def set_velocity(self, i: int, v: list[float], t: float) -> None:
        """Give particle i of a comoving configuration the velocity v at time t.

        The particle does not move: unless v is its velocity, its comoving
        coordinate becomes wrap(x - v t) for its position x at time t, and it
        moves from the sorted run of its old velocity to that of v.
        """
        if self.positions.shape[1] == 1:  # every d = 1 event: same bits, fewer numpy calls
            old = self.velocities.item(i)
            if v[0] != old:
                u_old = self.positions.item(i)
                x = _wrapped(u_old, old * t)  # position(i, t)[0]
                u = _wrapped(x, -(v[0] * t))
                self.positions[i, 0] = u
                self.velocities[i, 0] = v[0]
                runs = self._runs
                if runs is not None:
                    us, ids = runs[old]
                    p = bisect_left(us, u_old)
                    while ids[p] != i:
                        p += 1
                    del us[p], ids[p]
                    if not us:
                        del runs[old]
                    us, ids = runs.setdefault(v[0], ([], []))
                    p = bisect_right(us, u)
                    us.insert(p, u)
                    ids.insert(p, i)
        elif v != self.velocities[i].tolist():
            self.positions[i] = [_wrapped(x, -(w * t)) for x, w in zip(self.position(i, t), v)]
            self.velocities[i] = v

    def partner_at_rank(self, i: int, h: int, t: float) -> int:
        """`partner_at_rank` on the positions at time t, with the same tie-break.

        In d = 2 there are no runs: the positions are materialized.  In d = 1
        each run is a circle of u; the particles within distance r of x_i are
        an arc of it around a = x_i - s t, counted with two bisections.  The
        radius is narrowed (by interpolating the counts, or halving when that
        stalls) until few particles lie between a radius that holds at most
        h of them and one that holds more.  Approximate distances differ from
        the exact ones by at most ``eps``; the particles within ``2 eps`` of
        the two radii get their exact distance, computed like
        `torus.distances_from`, and are sorted by (distance, index).
        """
        if self.positions.shape[1] != 1:
            return partner_at_rank(self.transported(t), i, h)
        n = self.n
        if not (0 <= i < n and 0 <= h < n):
            raise IndexError(f"focal {i} or rank {h} out of range for n={n}")
        if h == 0:
            return i
        runs = self._runs
        if runs is None:
            u, s = self.positions[:, 0], self.velocities[:, 0]
            order = np.lexsort((u, s))
            runs = self._runs = {}
            for key in np.unique(s):
                members = order[s[order] == key]
                runs[float(key)] = (u[members].tolist(), members.tolist())
        x_i = self.position(i, t)[0]
        arcs = []
        reach = 1.0
        for s, (us, ids) in runs.items():
            c = s * t
            arcs.append((us, _wrapped(x_i, -c), len(us), ids, c))
            reach = max(reach, 1.0 + abs(c))
        eps = _SLACK * reach

        # k_lo <= h < k_hi particles lie within r_lo and r_hi, and bounds_lo
        # and bounds_hi hold the arcs of each run at those radii (None: the
        # empty arc and the whole circle).  The first radius assumes a uniform
        # density; then secant steps through the last two radii aim just past
        # h on the side of the bracket that the last radius did not move; the
        # bracket is halved when a step leaves it or after _SECANTS probes.
        r_lo, k_lo, r_hi, k_hi = -1.0, 0, 0.5, n
        bounds_lo = bounds_hi = None
        r_last, k_last = 0.0, 0
        r = (h + 0.5) / (2 * n)
        probes = 0
        while True:
            k = 0
            bounds = []
            for us, a, _, _, _ in arcs:
                start, stop = _arc(us, a, r)
                bounds.append((start, stop))
                k += stop - start
            probes += 1
            if k <= h:
                r_lo, k_lo, bounds_lo = r, k, bounds
                aim = h + 0.5 + _FEW / 4
            else:
                r_hi, k_hi, bounds_hi = r, k, bounds
                aim = h + 0.5 - _FEW / 4
            base = r_lo if r_lo > 0.0 else 0.0
            if k_hi - k_lo <= _FEW or r_hi - base <= 4.0 * eps:
                break
            step = r + (aim - k) * (r - r_last) / (k - k_last) if k != k_last else -1.0
            r_last, k_last = r, k
            r = step if base < step < r_hi and probes < _SECANTS else 0.5 * (base + r_hi)

        # Inside the inner arc: closer than the partner (the focal particle too,
        # as its own arc is that wide).  Outside the outer arc: farther.  These
        # are the arcs of the bracket unless a particle lies within 2 eps of
        # their radii; ``us[k % size] + k // size`` is the u of cyclic index k
        # on the unrolled circle.
        inner, outer = r_lo - 2.0 * eps, r_hi + 2.0 * eps
        has_inner = inner >= eps
        before = 0 if has_inner else 1
        near = []
        for q, (us, a, size, ids, c) in enumerate(arcs):
            if bounds_hi is None:
                p1, p4 = 0, size
            else:
                p1, p4 = bounds_hi[q]
                if p4 - p1 < size and (
                    us[(p1 - 1) % size] + (p1 - 1) // size >= a - outer
                    or us[p4 % size] + p4 // size <= a + outer
                ):
                    p1, p4 = _arc(us, a, outer)
            if not has_inner:
                ranges = ((p1, p4),)
            else:
                p2, p3 = bounds_lo[q]
                if p2 < p3 and (
                    us[p2 % size] + p2 // size <= a - inner
                    or us[(p3 - 1) % size] + (p3 - 1) // size >= a + inner
                ):
                    p2, p3 = _arc(us, a, inner)
                before += p3 - p2
                ranges = ((p3, p2 + size),) if p4 - p1 >= size else ((p1, p2), (p3, p4))
            for lo, hi in ranges:
                for p in range(lo, hi):
                    p %= size
                    j = ids[p]
                    if j != i:
                        y = _wrapped(us[p], c) - x_i
                        near.append((abs(y - round(y)), j))
        if not 0 <= h - before < len(near):
            raise AssertionError(f"rank {h} not among the {len(near)} near particles past {before}")
        near.sort()
        return near[h - before][1]


def _wrapped(u: float, c: float) -> float:
    """wrap(u + c) as `Configuration.transported` computes it: once, and again on construction."""
    y = u + c
    y -= floor(y)
    return y - floor(y)


# The bound on the rounding error of a comoving distance, in units of 1 + |v t|:
# 2**6 times the few ulps that the wraps and differences can lose.
_SLACK = 2.0**-46
# `Configuration.partner_at_rank` stops narrowing the radius once this few
# particles remain between the bounds, and sorts them by exact distance.  A
# secant step need not shrink the bracket much, as when a cluster of tied
# particles sits at the partner's distance, so past _SECANTS probes it only
# halves, which bounds the search.
_FEW = 4
_SECANTS = 12


def _arc(run: list[float], a: float, r: float) -> tuple[int, int]:
    """Cyclic index range [start, stop) of the u in ``run`` within the arc [a - r, a + r] mod 1.

    ``run`` is sorted, a lies in [0, 1) and 0 <= r; indices below 0 or past
    the end count around the circle, and the range covers at most the run.
    """
    lo, hi = a - r, a + r
    start = bisect_left(run, lo + 1.0) - len(run) if lo < 0.0 else bisect_left(run, lo)
    stop = bisect_right(run, hi - 1.0) + len(run) if hi >= 1.0 else bisect_right(run, hi)
    return start, min(stop, start + len(run))


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


def draw_index(u: float, cdf: list[float] | np.ndarray) -> int:
    """The index h that the uniform u in [0, 1) selects with probability (cdf[h] - cdf[h-1]) / cdf[-1].

    ``cdf`` is a non-decreasing sequence, best a list.  Bisecting to the right
    skips a flat run of the CDF, so a zero-weight index is never drawn; a
    uniform that rounds up to the total falls back to the last index with
    weight.  On `rank_cdf` this draws a partner rank h with probability
    K(h/(n-1)) / sum_s K(s/(n-1)).
    """
    total = cdf[-1]
    h = bisect_right(cdf, u * total)
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
