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
`Configuration` keeps its u in one sorted run per velocity;
`Configuration.partner_at_rank` counts arcs of the runs by bisection until a
few dozen particles remain, and reads those.  `partner_at_rank` finds the
same particle on materialized positions with one partition; it serves d = 2
and is the test oracle.  The full rank vector and probability vector
(`rank_vector`, `partner_distribution`) are built only where a whole row is
needed.
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

        In d = 2 the positions are materialized.  In d = 1 each run is a circle
        of u; the particles within distance r of x_i are an arc of it around
        a = x_i - s t, counted with two bisections.  The radius is narrowed until
        at most ``_FEW`` particles lie between one that holds at most h of them
        and one that holds more, or a probe adds none (a cluster of ties).  Those
        are read with slices and ranked by approximate distance, within ``eps``
        of the exact one; exact distances are needed only at ties within 2 eps.
        """
        n = len(self.positions)
        if not (0 <= i < n and 0 <= h < n):
            raise IndexError(f"focal {i} or rank {h} out of range for n={n}")
        if h == 0:
            return i
        runs = self._runs
        if runs is None:
            if self.positions.shape[1] != 1:
                return partner_at_rank(self.transported(t), i, h)
            u, s = self.positions[:, 0], self.velocities[:, 0]
            order = np.lexsort((u, s))
            keys = s[order]
            runs = self._runs = {}
            # not np.unique, which imports numpy.ma (14 ms) in every fresh worker
            for key in dict.fromkeys(keys.tolist()):
                members = order[keys == key]
                runs[key] = (u[members].tolist(), members.tolist())
        # an offset of 0 (frozen positions) leaves every u in [0, 1) as it is
        x_i = self.positions.item(i)
        c = self.velocities.item(i) * t
        if c:
            x_i = _wrapped(x_i, c)
        arcs = []
        for s, (us, ids) in runs.items():
            a = x_i - s * t
            if not 0.0 <= a < 1.0:
                a -= floor(a)
                a -= floor(a)
            arcs.append((us, a, len(us), ids, 2 * len(arcs)))
        eps = _SLACK * (1.0 + abs(t) * max(map(abs, runs)))

        # k_lo <= h < k_hi particles lie within r_lo and r_hi (0.5 unprobed: all
        # n), their arcs [start, stop) per run in bounds_lo and bounds_hi.  The
        # first radius assumes a uniform density, secant steps aim just across
        # h, and the bracket halves when a step leaves it or after _SECANTS
        # probes.  Radii stay below 0.5 - eps, so no arc holds a u twice.
        bounds_lo, bounds_hi, cur = [0] * (2 * len(arcs)), [0] * (2 * len(arcs)), [0] * (2 * len(arcs))
        r_lo, k_lo, r_hi, k_hi = 0.0, 0, 0.5, n
        r_last, k_last, aim, tiny = 0.0, 0, h + 0.5, 4.0 * eps
        r = aim / (2 * n)
        for probes in range(64):
            k = 0
            for us, a, size, _, q in arcs:
                lo = a - r
                hi = a + r
                start = bisect_left(us, lo + 1.0) - size if lo < 0.0 else bisect_left(us, lo)
                stop = bisect_right(us, hi - 1.0) + size if hi >= 1.0 else bisect_right(us, hi)
                cur[q] = start
                cur[q + 1] = stop
                k += stop - start
            if k <= h:
                if k == k_lo:
                    break
                r_lo, k_lo, bounds_lo, cur = r, k, cur, bounds_lo
                step = aim + _FEW / 8
            else:
                if k == k_hi < n:
                    break
                r_hi, k_hi, bounds_hi, cur = r, k, cur, bounds_hi
                step = aim - _FEW / 8
            if k_hi - k_lo <= _FEW or r_hi - r_lo <= tiny:
                break
            if k != k_last and probes < _SECANTS:
                step = r + (step - k) * (r - r_last) / (k - k_last)
            r_last, k_last = r, k
            r = step if r_lo < step < r_hi - eps else 0.5 * (r_lo + r_hi)

        # Between the arcs of a run lie a left side [p1, p2) at distance a - u
        # and a right side [p3, p4) at u - a (cyclic indices).  Without an inner
        # arc (as narrow as the rounding of the focal particle's own u) or an
        # outer one, the right side is the whole range, its distances folded.
        inner = r_lo >= 3.0 * eps
        folded = not inner or k_hi == n
        ds = []
        for us, a, size, _, q in arcs:
            if not inner:
                bounds_lo[q] = bounds_lo[q + 1] = bounds_hi[q]
            elif k_hi == n:
                bounds_hi[q], bounds_hi[q + 1] = bounds_lo[q], bounds_lo[q] + size
            p1, p2, p3, p4 = bounds_hi[q], bounds_lo[q], bounds_lo[q + 1], bounds_hi[q + 1]
            if p1 < p2:
                ds += [a - u for u in us[p1:p2]] if p1 >= 0 else [(a - u) % 1.0 for u in _cyclic(us, p1, p2)]
            if folded:
                ds += [y if y <= 0.5 else 1.0 - y for y in [(u - a) % 1.0 for u in _cyclic(us, p3, p4)]]
            elif p3 < p4:
                ds += [u - a for u in us[p3:p4]] if p4 <= size else [(u - a) % 1.0 for u in _cyclic(us, p3, p4)]
        # without an inner arc the focal particle is among ds, at distance < eps
        rank = h - k_lo if inner else h
        near = sorted(ds)
        d = near[rank]
        below = near[rank - 1] if rank else r_lo + eps
        above = near[rank + 1] if rank + 1 < len(near) else (1.0 if k_hi == n else r_hi - eps)
        if below < d - 2.0 * eps < d + 2.0 * eps < above:
            p = ds.index(d)
            for us, a, size, ids, q in arcs:
                if p < bounds_lo[q] - bounds_hi[q]:
                    return ids[(bounds_hi[q] + p) % size]
                p -= bounds_lo[q] - bounds_hi[q]
                if p < bounds_hi[q + 1] - bounds_lo[q + 1]:
                    return ids[(bounds_lo[q + 1] + p) % size]
                p -= bounds_hi[q + 1] - bounds_lo[q + 1]

        # near ties: exact distances as `partner_at_rank`'s within 3 eps of d
        inner = d >= 6.0 * eps
        band = []
        for us, a, size, ids, _ in arcs:
            p1, p4 = _arc(us, a, d + 3.0 * eps)
            p2, p3 = _arc(us, a, d - 3.0 * eps) if inner else (p1, p1)
            h -= p3 - p2
            band += _cyclic(ids, p3, p2 + size) if p4 - p1 >= size else _cyclic(ids, p1, p2) + _cyclic(ids, p3, p4)
        band = np.array([j for j in band if j != i])
        x = torus.wrap(torus.wrap(self.positions[band] + self.velocities[band] * t))
        dist = torus.distances_from(x, np.array([x_i]))
        return int(band[np.lexsort((band, dist))[h if inner else h - 1]])


def _wrapped(u: float, c: float) -> float:
    """wrap(u + c) as `Configuration.transported` computes it: once, and again on construction."""
    y = u + c
    y -= floor(y)
    return y - floor(y)


# The bound on the rounding error of a comoving distance, in units of 1 + |v t|:
# 2**6 times the few ulps that the wraps and differences can lose.
_SLACK = 2.0**-46
# `Configuration.partner_at_rank` reads the particles between its bounds once
# at most _FEW remain (32 to 48 cost about the same on sampled states, 48 with
# the fewest probes); past _SECANTS probes its bracket only halves.
_FEW = 48
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


def _cyclic(seq: list, lo: int, hi: int) -> list:
    """``[seq[k % len(seq)] for k in range(lo, hi)]`` for -len <= lo <= hi <= lo + len <= 2 len."""
    if lo < 0:
        return seq[lo:] + seq[:hi] if hi > 0 else seq[lo : hi or None]
    size = len(seq)
    return seq[lo:hi] if hi <= size else seq[lo:] + seq[: hi - size] if lo < size else seq[lo - size : hi - size]


def rank_vector(config: Configuration, i: int) -> np.ndarray:
    """Ranks of every particle around focal i as an int array; entry i is 0.

    The order of ``argsort(d, kind="stable")`` on the torus distances d, with
    d[i] = -1 so that the focal particle takes rank 0; distance ties fall to
    the lower index.  Without ties every sort gives that order, so the
    default (unstable, faster) sort runs first, and the stable one only when
    two sorted distances are equal.
    """
    n = config.n
    if not 0 <= i < n:
        raise IndexError(f"focal index {i} out of range for n={n}")
    dist = torus.distances_from(config.positions, config.positions[i])
    dist[i] = -1.0
    order = dist.argsort()
    ordered = dist.take(order)
    if np.count_nonzero(ordered[1:] == ordered[:-1]):
        order = dist.argsort(kind="stable")
    ranks = np.empty_like(order)
    ranks[order] = np.arange(n)
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
