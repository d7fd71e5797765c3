"""Deterministic SVG plots of convergence-study output.

Hand-rolled SVG so the bytes depend only on the data: no timestamps, no
library version strings, fixed float formatting.  Three views:

  * decoupled fraction against time, one curve per system size;
  * log-log mean final decoupled fraction against n-1, with the proved
    bound line and the fitted slope;
  * scatter of the histogram TV estimate against the decoupled fraction.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .experiments import ConfigError, read_aggregate_csv, read_trials_csv

_WIDTH = 640.0
_HEIGHT = 420.0
_MARGIN_L = 70.0
_MARGIN_R = 20.0
_MARGIN_T = 30.0
_MARGIN_B = 50.0

_PALETTE = ["#1b6ca8", "#d1495b", "#42a01f", "#8053a0", "#d88e00", "#00777e", "#704214", "#a01f5b"]


def _n(x: float) -> str:
    return format(x, ".2f")


class _Canvas:
    def __init__(self, title: str, x_label: str, y_label: str):
        self.parts: list[str] = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{_n(_WIDTH)}" height="{_n(_HEIGHT)}" '
            f'viewBox="0 0 {_n(_WIDTH)} {_n(_HEIGHT)}">',
            f'<rect width="{_n(_WIDTH)}" height="{_n(_HEIGHT)}" fill="white"/>',
            f'<text x="{_n(_WIDTH / 2)}" y="20" text-anchor="middle" font-family="monospace" '
            f'font-size="14">{title}</text>',
            f'<text x="{_n(_WIDTH / 2)}" y="{_n(_HEIGHT - 10)}" text-anchor="middle" '
            f'font-family="monospace" font-size="12">{x_label}</text>',
            f'<text x="15" y="{_n(_HEIGHT / 2)}" text-anchor="middle" font-family="monospace" '
            f'font-size="12" transform="rotate(-90 15 {_n(_HEIGHT / 2)})">{y_label}</text>',
        ]

    def frame(self) -> None:
        self.parts.append(
            f'<rect x="{_n(_MARGIN_L)}" y="{_n(_MARGIN_T)}" '
            f'width="{_n(_WIDTH - _MARGIN_L - _MARGIN_R)}" '
            f'height="{_n(_HEIGHT - _MARGIN_T - _MARGIN_B)}" fill="none" stroke="black"/>'
        )

    def polyline(self, pts: list[tuple[float, float]], color: str, dash: str = "") -> None:
        coords = " ".join(f"{_n(x)},{_n(y)}" for x, y in pts)
        extra = f' stroke-dasharray="{dash}"' if dash else ""
        self.parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.5"{extra}/>'
        )

    def circle(self, x: float, y: float, color: str, r: float = 3.0) -> None:
        self.parts.append(f'<circle cx="{_n(x)}" cy="{_n(y)}" r="{_n(r)}" fill="{color}"/>')

    def text(self, x: float, y: float, s: str, color: str = "black", size: int = 11) -> None:
        self.parts.append(
            f'<text x="{_n(x)}" y="{_n(y)}" font-family="monospace" font-size="{size}" '
            f'fill="{color}">{s}</text>'
        )

    def tick_x(self, x: float, label: str) -> None:
        y0 = _HEIGHT - _MARGIN_B
        self.parts.append(f'<line x1="{_n(x)}" y1="{_n(y0)}" x2="{_n(x)}" y2="{_n(y0 + 5)}" stroke="black"/>')
        self.text(x - 12, y0 + 18, label)

    def tick_y(self, y: float, label: str) -> None:
        x0 = _MARGIN_L
        self.parts.append(f'<line x1="{_n(x0 - 5)}" y1="{_n(y)}" x2="{_n(x0)}" y2="{_n(y)}" stroke="black"/>')
        self.text(8, y + 4, label)

    def render(self) -> str:
        return "\n".join(self.parts + ["</svg>"]) + "\n"


class _Axes:
    def __init__(self, x_lo: float, x_hi: float, y_lo: float, y_hi: float):
        if x_hi <= x_lo or y_hi <= y_lo:
            raise ConfigError("degenerate plot range")
        self.x_lo, self.x_hi = x_lo, x_hi
        self.y_lo, self.y_hi = y_lo, y_hi

    def px(self, x: float) -> float:
        frac = (x - self.x_lo) / (self.x_hi - self.x_lo)
        return _MARGIN_L + frac * (_WIDTH - _MARGIN_L - _MARGIN_R)

    def py(self, y: float) -> float:
        frac = (y - self.y_lo) / (self.y_hi - self.y_lo)
        return _HEIGHT - _MARGIN_B - frac * (_HEIGHT - _MARGIN_T - _MARGIN_B)


def _ticks(lo: float, hi: float, count: int = 5) -> list[float]:
    return [lo + (hi - lo) * k / (count - 1) for k in range(count)]


def render_d_n_vs_t(aggregate: np.ndarray) -> str:
    canvas = _Canvas("mean decoupled fraction over time", "t", "mean d_n")
    ns = sorted(set(int(v) for v in aggregate[:, 0]))
    y_hi = max(float(aggregate[:, 2].max()) * 1.15, 1e-12)
    x_hi = float(aggregate[:, 1].max())
    ax = _Axes(0.0, x_hi, 0.0, y_hi)
    canvas.frame()
    for tick in _ticks(0.0, x_hi):
        canvas.tick_x(ax.px(tick), format(tick, ".3g"))
    for tick in _ticks(0.0, y_hi):
        canvas.tick_y(ax.py(tick), format(tick, ".3g"))
    for idx, n in enumerate(ns):
        rows = aggregate[aggregate[:, 0] == n]
        pts = [(ax.px(t), ax.py(m)) for t, m in zip(rows[:, 1], rows[:, 2])]
        color = _PALETTE[idx % len(_PALETTE)]
        canvas.polyline(pts, color)
        canvas.text(_MARGIN_L + 8, _MARGIN_T + 14 + 13 * idx, f"n={n}", color=color)
    return canvas.render()


def render_rate_loglog(aggregate: np.ndarray, slope: float | None, intercept: float | None) -> str:
    canvas = _Canvas(
        "final decoupled fraction vs system size (log-log)", "log10(n-1)", "log10(mean d_n)"
    )
    t_final = float(aggregate[:, 1].max())
    rows = aggregate[aggregate[:, 1] == t_final]
    rows = rows[rows[:, 2] > 0]  # a zero mean has no logarithm; `rate_fit` skips it too
    if not len(rows):
        raise ConfigError("log-log plot needs a positive mean; run with a decoupling kernel")
    ns = rows[:, 0]
    means = rows[:, 2]
    bounds = rows[:, 4]
    lx = np.log10(ns - 1.0)
    ly = np.log10(means)
    finite = np.isfinite(bounds)  # an overflowed bound is inf: it has no point on the plot
    bx, lb = lx[finite], np.log10(bounds[finite])
    y_lo = float(ly.min()) - 0.4
    y_hi = float(max(lb.max(initial=-np.inf), ly.max())) + 0.4
    ax = _Axes(float(lx.min()) - 0.2, float(lx.max()) + 0.2, y_lo, y_hi)
    canvas.frame()
    for tick in _ticks(float(lx.min()), float(lx.max())):
        canvas.tick_x(ax.px(tick), format(tick, ".3g"))
    for tick in _ticks(y_lo, y_hi):
        canvas.tick_y(ax.py(tick), format(tick, ".3g"))
    if len(lb):
        canvas.polyline([(ax.px(x), ax.py(b)) for x, b in zip(bx, lb)], "#777777", dash="6,3")
        canvas.text(ax.px(bx[0]), ax.py(lb[0]) - 6, "proved bound", color="#777777")
    for x, y in zip(lx, ly):
        canvas.circle(ax.px(x), ax.py(y), "#1b6ca8")
    if slope is not None and intercept is not None:
        log_e = math.log10(math.e)
        xs = [float(lx.min()), float(lx.max())]
        ys = [(slope * (x / log_e) + intercept) * log_e for x in xs]
        canvas.polyline([(ax.px(x), ax.py(y)) for x, y in zip(xs, ys)], "#d1495b")
        canvas.text(
            _MARGIN_L + 8, _MARGIN_T + 14, f"fitted slope {format(slope, '.3f')}", color="#d1495b"
        )
    return canvas.render()


def render_tv_vs_dn(trials_by_n: dict[int, np.ndarray]) -> str:
    canvas = _Canvas("TV estimate vs decoupled fraction (final time)", "d_n", "tv estimate")
    xs: list[float] = []
    ys: list[float] = []
    groups: list[tuple[int, list[tuple[float, float]]]] = []
    for n, data in sorted(trials_by_n.items()):
        t_final = data[:, 1].max()
        rows = data[data[:, 1] == t_final]
        pts = [(float(r[2]), float(r[3])) for r in rows]
        groups.append((n, pts))
        xs.extend(p[0] for p in pts)
        ys.extend(p[1] for p in pts)
    if not xs:
        raise ConfigError("no trial rows to plot")
    x_hi = max(max(xs) * 1.15, 1e-6)
    y_hi = max(max(ys) * 1.15, 1e-6)
    ax = _Axes(0.0, x_hi, 0.0, y_hi)
    canvas.frame()
    for tick in _ticks(0.0, x_hi):
        canvas.tick_x(ax.px(tick), format(tick, ".3g"))
    for tick in _ticks(0.0, y_hi):
        canvas.tick_y(ax.py(tick), format(tick, ".3g"))
    for idx, (n, pts) in enumerate(groups):
        color = _PALETTE[idx % len(_PALETTE)]
        for x, y in pts:
            canvas.circle(ax.px(x), ax.py(y), color, r=2.0)
        canvas.text(_MARGIN_L + 8, _MARGIN_T + 14 + 13 * idx, f"n={n}", color=color)
    return canvas.render()


def render_report(out_dir: Path) -> list[Path]:
    """Render all plots from the CSV files and ``ratefit.json``, if any, in a study directory."""
    out_dir = Path(out_dir)
    aggregate = read_aggregate_csv(out_dir / "aggregate.csv")
    trials_by_n: dict[int, np.ndarray] = {}
    for path in sorted(out_dir.glob("trials_n*.csv")):
        n, data = read_trials_csv(path)
        trials_by_n[n] = data
    if not trials_by_n:
        raise ConfigError(f"no trial CSVs found in {out_dir}")

    fit_slope = fit_intercept = None
    fit_path = out_dir / "ratefit.json"
    if fit_path.exists():
        try:
            fit = json.loads(fit_path.read_text())
            fit_slope, fit_intercept = float(fit["slope"]), float(fit["intercept"])
        except (ValueError, KeyError, TypeError) as exc:
            raise ConfigError(f"malformed rate fit {fit_path}: {exc!r}") from exc

    written = []
    for name, content in [
        ("d_n_vs_t.svg", render_d_n_vs_t(aggregate)),
        ("rate_loglog.svg", render_rate_loglog(aggregate, fit_slope, fit_intercept)),
        ("tv_vs_dn.svg", render_tv_vs_dn(trials_by_n)),
    ]:
        path = out_dir / name
        path.write_text(content, encoding="utf-8")
        written.append(path)
    return written
