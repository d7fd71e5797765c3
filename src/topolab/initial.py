"""Preset product initial laws: a spatial density times a discrete velocity law.

The spatial factor is a smooth density on the unit torus sampled by inverting
its CDF (bisection, so sampling is deterministic given the generator state).
The velocity factor is a finite atom set; jumps only copy velocities, so the
particle dynamics never leaves the initial atom alphabet.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .ranks import Configuration

_BISECTION_STEPS = 60


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
        if self.form == "cosine":
            k = self.frequency
            return x + self.amplitude * np.sin(2.0 * np.pi * k * x) / (2.0 * np.pi * k)
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
        u = rng.random(size)
        if self.form == "uniform":
            return u
        lo = np.zeros(size)
        hi = np.ones(size)
        for _ in range(_BISECTION_STEPS):
            mid = 0.5 * (lo + hi)
            below = self.cdf(mid) < u
            lo = np.where(below, mid, lo)
            hi = np.where(below, hi, mid)
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

    def sample(self, n: int, rng: np.random.Generator) -> Configuration:
        pos = np.column_stack([law.sample(n, rng) for law in self.positions])
        vel = self.velocity.sample(n, rng)
        return Configuration(pos, vel)


def sample_initial(law: InitialLaw, n: int, seed_or_rng) -> Configuration:
    """Draw n i.i.d. particles; deterministic given the seed."""
    return law.sample(n, np.random.default_rng(seed_or_rng))


def _law_spec(spec: dict, name: str) -> dict:
    if not isinstance(spec, dict):
        raise InitialLawError(f"{name} must be a JSON object, not {type(spec).__name__}")
    return spec


def position_law_from_json(spec: dict) -> PositionLaw:
    form = _law_spec(spec, "initial.position").get("form")
    if form == "uniform":
        return PositionLaw.uniform()
    if form == "cosine":
        return PositionLaw.cosine(float(spec["amplitude"]), int(spec.get("frequency", 1)))
    if form == "two_mode":
        return PositionLaw.two_mode(float(spec["amplitude"]), float(spec["amplitude2"]))
    if form == "bump":
        return PositionLaw.bump()
    raise InitialLawError(f"unknown position law {form!r}")


def velocity_law_from_json(spec: dict) -> VelocityLaw:
    form = _law_spec(spec, "initial.velocity").get("form")
    if form == "two_point":
        return VelocityLaw.two_point(float(spec.get("speed", 1.0)))
    if form == "four_point":
        return VelocityLaw.four_point(float(spec.get("speed", 1.0)))
    if form == "discrete":
        return VelocityLaw.discrete(spec["atoms"], spec["weights"])
    raise InitialLawError(f"unknown velocity law {form!r}")


def initial_law_from_json(spec: dict) -> InitialLaw:
    """Parse {"position": {...} | [{...}, ...], "velocity": {...}}."""
    pos_spec = _law_spec(spec, "initial")["position"]
    velocity = velocity_law_from_json(spec["velocity"])
    if isinstance(pos_spec, dict):
        laws = tuple(position_law_from_json(pos_spec) for _ in range(velocity.d))
    else:
        laws = tuple(position_law_from_json(p) for p in pos_spec)
    return InitialLaw(positions=laws, velocity=velocity)
