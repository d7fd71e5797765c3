"""Event-driven simulation of the rank-interaction jump process.

A global exponential clock rings at rate n.  At each ring a focal particle is
chosen uniformly and adopts the velocity of a partner drawn from the
rank-based transition probabilities evaluated on the current (transported)
positions.  Between rings particles stream freely.  This is exact Gillespie
simulation: there is no time-discretization error anywhere in the particle
world.

The state holds comoving coordinates (`Configuration`), so streaming between
rings is only the clock's advance, and positions are built at snapshots.
The clock's gaps, the focal indices and the uniforms of each ring are drawn
from the generator in blocks (`Draws`).

For tiny frozen-position systems the exact law of the velocity labels is
available through a matrix exponential (`master_equation_law`), which serves
as the reference the simulator must reproduce.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import expm

from .kernels import Kernel
from .ranks import Configuration, draw_index, partner_distribution, rank_cdf

_MAX_MASTER_STATES = 256
_BLOCK = 256


@dataclass
class Trajectory:
    """Realized jump chain: event log, requested snapshots, and the final state."""

    event_times: np.ndarray
    event_focal: np.ndarray
    event_partner: np.ndarray
    snapshots: dict[float, Configuration] = field(default_factory=dict)
    final: Configuration | None = None
    event_count: int = 0
    event_rank: np.ndarray | None = None


def categorical(rng: np.random.Generator, probs: np.ndarray) -> int:
    """Draw an index from a probability vector by inverse CDF (`draw_index`).

    Zero-probability atoms are never returned.
    """
    return draw_index(rng.random(), np.cumsum(probs))


def _blocks(draw: Callable[[int], np.ndarray]) -> Iterator:
    while True:
        yield from draw(_BLOCK).tolist()


class Draws:
    """The variates of the rings of an n-particle run, drawn from ``rng`` in blocks.

    ``gaps`` are the clock's exponential gaps, ``focals`` the uniform focal
    indices, and ``uniforms`` feed the rank draw and the joint-jump decision,
    one each per ring.  One-sided completions draw from ``rng`` itself.
    """

    def __init__(self, rng: np.random.Generator, n: int):
        self.rng = rng
        self.gaps = _blocks(lambda k: rng.exponential(1.0 / n, k))
        self.focals = _blocks(lambda k: rng.integers(n, size=k))
        self.uniforms = _blocks(rng.random)


def run_clock(
    horizon: float,
    gaps: Iterator[float],
    snapshot_times: tuple[float, ...],
    advance: Callable[[float], None],
    snapshot: Callable[[float], None],
    event: Callable[[float], None],
) -> None:
    """The event clock shared by the standalone and the coupled run.

    Before each ring, due snapshots go to ``snapshot(s)``; then
    ``advance(gap)`` moves the state's clock and ``event(t)`` jumps.  The
    last, partial gap advances to the horizon.
    """
    if horizon < 0:
        raise ValueError(f"horizon must be nonnegative, got {horizon}")
    pending = sorted(snapshot_times)
    for s in pending:
        if not 0.0 <= s <= horizon:
            raise ValueError(f"snapshot time {s} outside [0, {horizon}]")
    t = 0.0
    while True:
        gap = next(gaps)
        t_next = t + gap
        while pending and pending[0] <= min(t_next, horizon):
            snapshot(pending.pop(0))
        if t_next > horizon:
            advance(horizon - t)
            return
        advance(gap)
        t = t_next
        event(t)


def simulate(
    kernel: Kernel,
    initial: Configuration,
    horizon: float,
    rng: np.random.Generator,
    snapshot_times: tuple[float, ...] = (),
    frozen_positions: bool = False,
    record_events: bool = True,
    record_ranks: bool = False,
) -> Trajectory:
    """Exact realization of the jump process up to the horizon.

    The state holds comoving coordinates; snapshots and the final
    configuration materialize the positions and do not perturb the chain.
    An event draws the partner's rank from the fixed rank law and then finds
    the particle of that rank (`Configuration.partner_at_rank`).  With
    ``frozen_positions`` the positions never move: the clock of the state
    stays at 0, and partners are looked up in a copy of the positions with
    velocity 0, whose one sorted run never changes.
    """
    n = initial.n
    state = initial.copy()
    lookup = Configuration(state.positions, np.zeros((n, state.d))) if frozen_positions else state
    draws = Draws(rng, n)
    snapshots: dict[float, Configuration] = {}
    times: list[float] = []
    focals: list[int] = []
    partners: list[int] = []
    ranks_log: list[int] = []
    count = 0
    cdf = rank_cdf(kernel, n)

    def positions(t: float) -> Configuration:
        return state.copy() if frozen_positions else state.transported(t)

    def snapshot(s: float) -> None:
        snapshots[s] = positions(s)

    def event(t: float) -> None:
        nonlocal count
        i = next(draws.focals)
        h = draw_index(next(draws.uniforms), cdf)
        at = 0.0 if frozen_positions else t
        j = lookup.partner_at_rank(i, h, at)
        state.set_velocity(i, state.velocities[j].tolist(), at)
        count += 1
        if record_events:
            times.append(t)
            focals.append(i)
            partners.append(j)
        if record_ranks:
            ranks_log.append(h)

    run_clock(horizon, draws.gaps, snapshot_times, lambda gap: None, snapshot, event)
    return Trajectory(
        event_times=np.asarray(times),
        event_focal=np.asarray(focals, dtype=np.int64),
        event_partner=np.asarray(partners, dtype=np.int64),
        snapshots=snapshots,
        final=positions(horizon),
        event_count=count,
        event_rank=np.asarray(ranks_log, dtype=np.int64) if record_ranks else None,
    )


# -- master-equation oracle (frozen positions, finite label alphabet) ---------


def label_states(n: int, alphabet: int) -> list[tuple[int, ...]]:
    """All velocity-label assignments, lexicographically ordered."""
    return list(itertools.product(range(alphabet), repeat=n))


def master_equation_law(
    config: Configuration, kernel: Kernel, labels0: np.ndarray, t: float, alphabet: int
) -> np.ndarray:
    """Exact law of the frozen-position label chain at time t.

    Builds the jump generator on the label state space (partner adoption
    i <- j at rate pi[i, j], positions fixed) and applies its matrix
    exponential to the initial point mass.  Refuses state spaces larger than
    256 to stay an honest brute-force oracle.
    """
    n = config.n
    labels0 = np.asarray(labels0, dtype=np.int64)
    if labels0.shape != (n,):
        raise ValueError("labels0 must assign one label per particle")
    if np.any(labels0 < 0) or np.any(labels0 >= alphabet):
        raise ValueError("labels0 outside the alphabet")
    if alphabet**n > _MAX_MASTER_STATES:
        raise ValueError(
            f"state space {alphabet}**{n} exceeds {_MAX_MASTER_STATES}; oracle refuses"
        )

    pi = np.stack([partner_distribution(config, kernel, i) for i in range(n)])
    states = label_states(n, alphabet)
    index = {s: k for k, s in enumerate(states)}
    size = len(states)
    gen = np.zeros((size, size))
    for k, s in enumerate(states):
        for i in range(n):
            for j in range(n):
                if j == i or pi[i, j] == 0.0:
                    continue
                target = list(s)
                target[i] = s[j]
                kk = index[tuple(target)]
                if kk != k:
                    gen[k, kk] += pi[i, j]
                    gen[k, k] -= pi[i, j]

    p0 = np.zeros(size)
    p0[index[tuple(labels0)]] = 1.0
    return p0 @ expm(gen * t)


def frozen_label_trials(
    config: Configuration,
    kernel: Kernel,
    labels0: np.ndarray,
    t: float,
    trials: int,
    rng: np.random.Generator,
    alphabet: int,
) -> np.ndarray:
    """Monte-Carlo law of the frozen label chain, vectorized across trials.

    Distributionally identical to running `simulate` with frozen positions
    and reading off velocity labels: the event count is Poisson(n*t) and each
    event applies a uniform-focal, rank-weighted partner adoption.
    """
    n = config.n
    pi = np.stack([partner_distribution(config, kernel, i) for i in range(n)])
    cum = np.cumsum(pi, axis=1)
    events = rng.poisson(n * t, size=trials)
    labels = np.tile(np.asarray(labels0, dtype=np.int64), (trials, 1))
    for step in range(int(events.max())):
        active = events > step
        focal = rng.integers(n, size=trials)
        u = rng.random(trials)
        partner = (u[:, None] < cum[focal]).argmax(axis=1)
        rows = np.nonzero(active)[0]
        labels[rows, focal[rows]] = labels[rows, partner[rows]]

    # the mixed-radix key of a label tuple equals its lexicographic state index
    counts = np.zeros(alphabet**n)
    keys = sum(labels[:, i] * alphabet ** (n - 1 - i) for i in range(n))
    uniq, cnt = np.unique(keys, return_counts=True)
    counts[uniq] = cnt
    return counts / trials


def empirical_marginal(
    config: Configuration, x_edges: np.ndarray, v_edges: np.ndarray
) -> np.ndarray:
    """Pooled one-particle histogram over (x, v) cells, normalized to total mass 1.

    Exchangeability of the particles justifies pooling all of them into a
    single histogram estimate of the one-particle marginal (d=1 only).
    """
    if config.d != 1:
        raise ValueError("phase-space histogram requires d=1")
    v = config.velocities[:, 0]
    if np.any(v < v_edges[0]) or np.any(v > v_edges[-1]):
        raise ValueError("velocities fall outside the histogram range")
    hist, _, _ = np.histogram2d(config.positions[:, 0], v, bins=[x_edges, v_edges])
    return hist / config.n


def total_variation(p: np.ndarray, q: np.ndarray) -> float:
    """Total variation distance between two probability vectors (half L1)."""
    return 0.5 * float(np.sum(np.abs(np.asarray(p) - np.asarray(q))))
