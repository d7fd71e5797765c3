"""Interaction kernels over the normalized rank variable.

A kernel is a non-increasing, Lipschitz, nonnegative function K on [0, 1]
with unit integral.  It weights partners by how close they rank, not by how
far they are; feeding it the normalized rank of a partner (or the mass of a
ball in the limit density) yields the jump rates of both the particle system
and its kinetic limit.

Presets
-------
uniform          K = 1                      (Lipschitz constant 0)
linear           K(r) = 2(1 - r)            (Lipschitz constant 2)
truncated_linear K(r) = (2/eps)(1 - r/eps) on [0, eps], 0 beyond
                 (a Lipschitz ramp standing in for "interact with the
                 nearest fraction eps of the others"; Lipschitz 2/eps^2)
tabulated        piecewise-linear through user breakpoints
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

#: Number of grid points used by the monotonicity / positivity validation scan.
_VALIDATION_GRID = 1000

_CLOSED_FORMS = ("uniform", "linear", "truncated_linear")


class KernelError(ValueError):
    """Raised for kernels violating positivity, monotonicity or normalization."""


class DegenerateNormalizationError(ValueError):
    """Raised when the rank-sum normalization of a kernel degenerates.

    This happens when the kernel vanishes at every occurring normalized rank,
    e.g. a kernel with K(1) = 0 used with only two particles.
    """


@dataclass(frozen=True)
class Kernel:
    """Rank-interaction profile with its Lipschitz constant.

    ``breakpoints``/``values`` describe the function piecewise linearly for
    the tabulated form; closed forms are evaluated exactly and carry their
    analytic Lipschitz constant and integral.
    """

    form: str
    lipschitz: float
    epsilon: float | None = None
    breakpoints: np.ndarray | None = field(default=None, repr=False)
    table_values: np.ndarray | None = field(default=None, repr=False)

    # -- construction -----------------------------------------------------

    @classmethod
    def uniform(cls) -> "Kernel":
        return cls(form="uniform", lipschitz=0.0)

    @classmethod
    def linear(cls) -> "Kernel":
        return cls(form="linear", lipschitz=2.0)

    @classmethod
    def truncated_linear(cls, epsilon: float) -> "Kernel":
        lipschitz = 2.0 / epsilon**2 if epsilon**2 > 0.0 else math.inf
        if not (0.0 < epsilon <= 1.0 and lipschitz < math.inf):
            raise KernelError(f"truncated_linear needs 0 < epsilon <= 1, finite 2/epsilon^2: {epsilon}")
        return cls(form="truncated_linear", lipschitz=lipschitz, epsilon=epsilon)

    @classmethod
    def tabulated(cls, table: Sequence[tuple[float, float]]) -> "Kernel":
        pts = np.asarray(sorted(table), dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 2:
            raise KernelError("tabulated kernel needs at least two (r, value) pairs")
        r, v = pts[:, 0], pts[:, 1]
        if r[0] != 0.0 or r[-1] != 1.0:
            raise KernelError("tabulated breakpoints must span [0, 1]")
        if np.any(np.diff(r) <= 0):
            raise KernelError("tabulated breakpoints must be strictly increasing")
        lip = float(np.max(np.abs(np.diff(v) / np.diff(r))))
        kernel = cls(form="tabulated", lipschitz=lip, breakpoints=r, table_values=v)
        kernel.validate()
        return kernel

    # -- evaluation --------------------------------------------------------

    def __call__(self, r: np.ndarray | float, out: np.ndarray | None = None) -> np.ndarray | float:
        """Evaluate K at normalized ranks r in [0, 1].

        A scalar r takes the closed forms in Python floats, with the same
        operations as the array path and so the same bits.  ``out`` (r itself
        allowed) receives the values of an array r by the same operations.
        """
        if not isinstance(r, np.ndarray) and self.form in _CLOSED_FORMS:
            r = float(r)
            if self.form == "uniform":
                return 1.0
            if self.form == "linear":
                return 2.0 * (1.0 - r)
            eps = self.epsilon
            return max((2.0 / eps) * (1.0 - r / eps), 0.0)
        r_arr = np.asarray(r, dtype=float)
        if self.form == "uniform":
            out = np.empty_like(r_arr) if out is None else out
            out.fill(1.0)
        elif self.form == "linear":
            out = np.multiply(2.0, np.subtract(1.0, r_arr, out=out), out=out)
        elif self.form == "truncated_linear":
            eps = self.epsilon
            ramp = np.subtract(1.0, np.divide(r_arr, eps, out=out), out=out)
            out = np.maximum(np.multiply(2.0 / eps, ramp, out=out), 0.0, out=out)
        elif self.form == "tabulated":
            values = np.interp(r_arr, self.breakpoints, self.table_values)
            out = values if out is None else np.positive(values, out=out)
        else:  # pragma: no cover - constructors forbid this
            raise KernelError(f"unknown kernel form {self.form!r}")
        return out if isinstance(r, np.ndarray) else float(out)

    def integral(self) -> float:
        """Integral of K over [0, 1]: analytic for closed forms, trapezoid for tables.

        The trapezoid rule is exact here because the tabulated form is
        piecewise linear between its own breakpoints.
        """
        if self.form in _CLOSED_FORMS:
            return 1.0
        return float(np.trapezoid(self.table_values, self.breakpoints))

    def validate(self) -> None:
        """Check positivity, monotonicity, normalization and the Lipschitz bound."""
        grid = np.linspace(0.0, 1.0, _VALIDATION_GRID)
        vals = self(grid)
        if np.any(vals < 0.0):
            raise KernelError("kernel takes negative values")
        if np.any(np.diff(vals) > 1e-12):
            raise KernelError("kernel is not non-increasing")
        tol = 1e-12 if self.form != "tabulated" else 1e-9
        if abs(self.integral() - 1.0) > tol:
            raise KernelError(f"kernel integral {self.integral()} deviates from 1 beyond {tol}")
        slopes = np.abs(np.diff(vals)) / (grid[1] - grid[0])
        if np.any(slopes > self.lipschitz * (1.0 + 1e-9) + 1e-12):
            raise KernelError("sampled slope exceeds the declared Lipschitz constant")

    @property
    def growth_constant(self) -> float:
        """Rate constant 8*sqrt(e)*Lip(K) in the decoupling bound exp(c*t)/sqrt(n-1)."""
        return 8.0 * math.sqrt(math.e) * self.lipschitz


def riemann_error(kernel: Kernel, n: int) -> float:
    """Gap between the integral of K and its left-rank Riemann sum for n particles.

    Returns ``integral(K) - (1/(n-1)) * sum_{s=1..n-1} K(s/(n-1))``; its
    magnitude is bounded by Lip(K)/(n-1).
    """
    if n < 2:
        raise ValueError(f"need at least 2 particles, got {n}")
    s = np.arange(1, n, dtype=float) / (n - 1)
    return kernel.integral() - float(np.sum(kernel(s))) / (n - 1)


def rate_normalization(kernel: Kernel, n: int) -> float:
    """Constant turning kernel values at occurring ranks into probabilities.

    Equals ``1 / ((n-1) * (1 - riemann_error))`` so that
    ``rate_normalization * K(rank/(n-1))`` sums to one over the n-1 ranks.
    """
    err = riemann_error(kernel, n)
    if err >= 1.0:
        raise DegenerateNormalizationError(
            f"Riemann error {err} >= 1: kernel vanishes on all occurring ranks (n={n})"
        )
    return 1.0 / ((n - 1) * (1.0 - err))


#: Ready-made kernels exercised throughout the test and experiment suites.
def preset_kernels() -> dict[str, Kernel]:
    return {
        "uniform": Kernel.uniform(),
        "linear": Kernel.linear(),
        "truncated_linear": Kernel.truncated_linear(0.75),
        "tabulated": _demo_table(),
    }


def _demo_table() -> Kernel:
    """A curved tabulated preset, normalized so the trapezoid integral is exactly 1."""
    r = np.array([0.0, 0.2, 0.5, 0.8, 1.0])
    v = np.array([1.75, 1.6, 1.0, 0.25, 0.05])
    v = v / np.trapezoid(v, r)
    return Kernel.tabulated(list(zip(r, v)))
