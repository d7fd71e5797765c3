"""Preset product initial laws: a spatial density times a discrete velocity law.

The spatial factor is a smooth density on the unit torus sampled by inverting
its CDF (bisection, so sampling is deterministic given the generator state).
The velocity factor is a finite atom set; jumps only copy velocities, so the
particle dynamics never leaves the initial atom alphabet.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .ranks import Configuration

_BISECTION_STEPS = 60
_NEWTON_STEPS = 40  # a cap only: entries still moving then are caught by the bracket check


class InitialLawError(ValueError):
    """Raised for malformed initial-law descriptions."""


@dataclass(frozen=True)
class PositionLaw:
    """1-d spatial density on [0, 1); presets below."""

    form: str
    amplitude: float = 0.0
    frequency: int = 1
    amplitude2: float = 0.0

    @classmethod
    def uniform(cls) -> "PositionLaw":
        return cls("uniform")

    @classmethod
    def cosine(cls, amplitude: float, frequency: int = 1) -> "PositionLaw":
        """rho(x) = 1 + a*cos(2*pi*k*x), needs |a| < 1."""
        if not abs(amplitude) < 1.0:
            raise InitialLawError(f"cosine amplitude must satisfy |a| < 1, got {amplitude}")
        if frequency < 1:
            raise InitialLawError(f"frequency must be >= 1, got {frequency}")
        return cls("cosine", amplitude=amplitude, frequency=int(frequency))

    @classmethod
    def two_mode(cls, amplitude: float, amplitude2: float) -> "PositionLaw":
        """rho(x) = 1 + a1*cos(2*pi*x) + a2*sin(4*pi*x); not antipode-symmetric."""
        if abs(amplitude) + abs(amplitude2) >= 1.0:
            raise InitialLawError("two_mode needs |a1| + |a2| < 1 for positivity")
        return cls("two_mode", amplitude=amplitude, amplitude2=amplitude2)

    @classmethod
    def bump(cls) -> "PositionLaw":
        """rho(x) = 4*cos(2*pi*x)^2 on [0,1/4] u [3/4,1), zero on the middle half."""
        return cls("bump")

    def pdf(self, x: np.ndarray) -> np.ndarray:
        x = np.mod(np.asarray(x, dtype=float), 1.0)
        if self.form == "uniform":
            return np.ones_like(x)
        if self.form == "cosine":
            return 1.0 + self.amplitude * np.cos(2.0 * np.pi * self.frequency * x)
        if self.form == "two_mode":
            return (
                1.0
                + self.amplitude * np.cos(2.0 * np.pi * x)
                + self.amplitude2 * np.sin(4.0 * np.pi * x)
            )
        if self.form == "bump":
            out = 4.0 * np.cos(2.0 * np.pi * x) ** 2
            return np.where((x <= 0.25) | (x >= 0.75), out, 0.0)
        raise InitialLawError(f"unknown position law {self.form!r}")

    def cdf(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.form == "uniform":
            return x.copy()
        if self.form == "cosine":  # x + a sin(2 pi k x) / (2 pi k), in one buffer
            y = np.multiply(2.0 * np.pi * self.frequency, x)
            np.sin(y, out=y)
            y *= self.amplitude
            y /= 2.0 * np.pi * self.frequency
            y += x
            return y
        if self.form == "two_mode":
            return (
                x
                + self.amplitude * np.sin(2.0 * np.pi * x) / (2.0 * np.pi)
                + self.amplitude2 * (1.0 - np.cos(4.0 * np.pi * x)) / (4.0 * np.pi)
            )
        if self.form == "bump":
            left = 2.0 * x + np.sin(4.0 * np.pi * x) / (2.0 * np.pi)
            right = 0.5 + 2.0 * (x - 0.75) + np.sin(4.0 * np.pi * x) / (2.0 * np.pi)
            return np.where(x <= 0.25, left, np.where(x < 0.75, 0.5, right))
        raise InitialLawError(f"unknown position law {self.form!r}")

    def sample(self, size: int, rng: np.random.Generator) -> np.ndarray:
        return self.invert(rng.random(size))

    def density_floor(self) -> float:
        """A lower bound of the density; 0 where none is known."""
        if self.form == "cosine":
            return 1.0 - abs(self.amplitude)
        if self.form == "two_mode":
            return 1.0 - abs(self.amplitude) - abs(self.amplitude2)
        return 0.0

    def invert(self, u: np.ndarray) -> np.ndarray:
        """The points whose CDF is u: the bits of a 60-step bisection of [0, 1], entry by entry.

        With a density floor rho > 0 the first k = floor(44 + log2 rho) steps
        are skipped.  Between neighbouring multiples of 2^-k the exact CDF
        rises by at least rho 2^-k >= 2^-44, dozens of times the few ulp of 1
        by which the computed CDF is off, so the computed CDF is increasing on
        that grid.  The cell [lo, lo + 2^-k] with (lo = 0 or cdf(lo) < u) and
        (lo + 2^-k = 1 or cdf(lo + 2^-k) >= u) is then unique, and it is the
        bracket the bisection holds after k steps, with the same exact dyadic
        ends.  The last 60 - k steps run from the cell `_bracket` finds;
        entries whose cell fails the check run all 60 steps.
        """
        if self.form == "uniform":
            return u
        floor = self.density_floor()
        k = math.floor(44.0 + math.log2(floor)) if floor > 0.0 else 0
        if k < 1:
            return self._bisect(u, np.zeros(u.shape), np.ones(u.shape), _BISECTION_STEPS)
        lo, held = self._bracket(u, k)
        x = self._bisect(u, lo, lo + 2.0**-k, _BISECTION_STEPS - k)
        missed = np.flatnonzero(~held)
        if missed.size:
            x[missed] = self._bisect(u[missed], np.zeros(missed.size), np.ones(missed.size), _BISECTION_STEPS)
        return x

    def _bracket(self, u: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
        """The lower ends lo of the level-k cells that hold the roots, and where both ends check.

        Newton's method from x = u runs until every step is far below 2^-k.
        The cell that holds x moves up by one where cdf(lo + 2^-k) < u, and
        down where cdf(lo) >= u; then both ends are checked again.
        """
        x, active = u.copy(), np.arange(u.size)
        for _ in range(_NEWTON_STEPS):
            xa = x[active]
            step = self.cdf(xa)
            step -= u[active]
            step /= self.pdf(xa)
            x[active] = np.clip(xa - step, 0.0, 1.0)
            active = active[np.abs(step) >= 2.0 ** -(k + 4)]
            if not active.size:
                break
        h = 2.0**-k

        def ends_hold(lo):  # (lo = 0 or cdf(lo) < u), (lo + h = 1 or cdf(lo + h) >= u)
            hi = lo + h
            return (lo == 0.0) | (self.cdf(lo) < u), (hi == 1.0) | (self.cdf(hi) >= u)

        lo = np.minimum(np.floor(x * 2.0**k), 2.0**k - 1.0) * h
        low, high = ends_hold(lo)
        lo += h * ~high - h * ~low
        low, high = ends_hold(lo)
        return lo, low & high

    def _bisect(self, u: np.ndarray, lo: np.ndarray, hi: np.ndarray, steps: int) -> np.ndarray:
        """`steps` bisections of the brackets [lo, hi], which move in place and without branches.

        With b = [cdf(mid) < u] as 0 or 1, (max(lo, b mid), min(hi, mid + 2 b))
        is (mid, hi) where b is 1 and (lo, mid) where it is 0.
        """
        mid, step = np.empty(u.shape), np.empty(u.shape)
        below = np.empty(u.shape, dtype=bool)
        for _ in range(steps):
            np.multiply(np.add(lo, hi, out=mid), 0.5, out=mid)
            np.less(self.cdf(mid), u, out=below)
            np.maximum(lo, np.multiply(mid, below, out=step), out=lo)
            np.minimum(hi, np.add(mid, np.multiply(below, 2.0, out=step), out=step), out=hi)
        return 0.5 * (lo + hi)

    def cell_masses(self, edges: np.ndarray) -> np.ndarray:
        """Exact mass in each cell [edges[i], edges[i+1])."""
        cdf = self.cdf(edges)
        return np.diff(cdf)


@dataclass(frozen=True)
class VelocityLaw:
    """Finite velocity alphabet with weights; atoms have shape (m, d)."""

    atoms: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        atoms = np.atleast_2d(np.asarray(self.atoms, dtype=float))
        weights = np.asarray(self.weights, dtype=float)
        if atoms.shape[0] != weights.shape[0]:
            raise InitialLawError("atoms and weights must have the same length")
        if np.any(weights < 0) or abs(weights.sum() - 1.0) > 1e-12:
            raise InitialLawError("weights must be a probability vector")
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "weights", weights)

    @classmethod
    def two_point(cls, speed: float = 1.0) -> "VelocityLaw":
        return cls(np.array([[-speed], [speed]]), np.array([0.5, 0.5]))

    @classmethod
    def discrete(cls, atoms: Sequence, weights: Sequence) -> "VelocityLaw":
        return cls(np.asarray(atoms, dtype=float), np.asarray(weights, dtype=float))

    @classmethod
    def four_point(cls, speed: float = 1.0) -> "VelocityLaw":
        atoms = speed * np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        return cls(atoms, np.full(4, 0.25))

    @property
    def d(self) -> int:
        return self.atoms.shape[1]

    def sample(self, size: int, rng: np.random.Generator) -> np.ndarray:
        idx = rng.choice(self.atoms.shape[0], size=size, p=self.weights)
        return self.atoms[idx]

    def cell_masses(self, edges: np.ndarray) -> np.ndarray:
        """Atom weights binned into 1-d velocity cells (d=1 only)."""
        if self.d != 1:
            raise InitialLawError("velocity cell masses only defined in one dimension")
        v = self.atoms[:, 0]
        if np.any(v < edges[0]) or np.any(v >= edges[-1]):
            raise InitialLawError("velocity atoms fall outside the grid")
        idx = np.searchsorted(edges, v, side="right") - 1
        masses = np.zeros(len(edges) - 1)
        np.add.at(masses, idx, self.weights)
        return masses


@dataclass(frozen=True)
class InitialLaw:
    """Product law: independent per-axis spatial factors times a velocity law."""

    positions: tuple[PositionLaw, ...]
    velocity: VelocityLaw

    def __post_init__(self) -> None:
        if len(self.positions) != self.velocity.d:
            raise InitialLawError(
                f"{len(self.positions)} spatial factors but velocity dimension {self.velocity.d}"
            )

    @property
    def d(self) -> int:
        return self.velocity.d


def sample_initial(law: InitialLaw, n: int, seed_or_rng) -> Configuration:
    """Draw n i.i.d. particles; deterministic given the seed."""
    return sample_initials(law, n, [seed_or_rng])[0]


def sample_initials(law: InitialLaw, n: int, seeds) -> list[Configuration]:
    """`sample_initial` for each seed, with one inversion per axis for all of them.

    Each seed's generator draws its uniforms, axis by axis, then its
    velocities; the positions are the bits of a draw of its own.
    """
    draws = [
        ([rng.random(n) for _ in law.positions], law.velocity.sample(n, rng))
        for rng in map(np.random.default_rng, seeds)
    ]
    axes = [p.invert(np.concatenate([u[a] for u, _ in draws])) for a, p in enumerate(law.positions)]
    return [
        Configuration(np.column_stack([x[k * n : (k + 1) * n] for x in axes]), vel)
        for k, (_, vel) in enumerate(draws)
    ]
