"""Deterministic line-plot rendering to standalone SVG.

The renderer is deliberately dependency-free and byte-stable: a fixed canvas,
a fixed palette, a 1-2-5 tick ladder, and fixed-precision coordinates, so
identical inputs produce identical files and plots can be diffed in version
control like any other artifact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError, NumericError

WIDTH, HEIGHT = 900, 540
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 70.0, 20.0, 40.0, 50.0

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd",
           "#ff7f0e", "#8c564b", "#17becf", "#7f7f7f")


@dataclass(frozen=True)
class Series:
    """One labeled polyline: x and y samples of equal, nonzero length."""

    label: str
    xs: tuple
    ys: tuple

    def __post_init__(self):
        object.__setattr__(self, "xs", tuple(float(v) for v in self.xs))
        object.__setattr__(self, "ys", tuple(float(v) for v in self.ys))
        if len(self.xs) == 0:
            raise ConfigError(f"series {self.label!r} is empty")
        if len(self.xs) != len(self.ys):
            raise ConfigError(
                f"series {self.label!r} has {len(self.xs)} x values "
                f"but {len(self.ys)} y values")


@dataclass(frozen=True)
class PlotStyle:
    """Titles and the comment header embedded at the top of the document."""

    title: str = ""
    x_label: str = ""
    y_label: str = ""
    header: str = ""   # free-form text, emitted as an XML comment


def _check_finite(series: Sequence[Series]):
    for s in series:
        bad = [i for i, (x, y) in enumerate(zip(s.xs, s.ys))
               if not (np.isfinite(x) and np.isfinite(y))]
        if bad:
            shown = ", ".join(str(i) for i in bad[:20])
            more = f" (+{len(bad) - 20} more)" if len(bad) > 20 else ""
            raise NumericError(
                f"series {s.label!r} has non-finite values at indices "
                f"[{shown}]{more}")


def _axis_range(values) -> tuple:
    lo, hi = min(values), max(values)
    if lo == hi:
        # degenerate-range rule: a constant series spans [value-1, value+1]
        return lo - 1.0, hi + 1.0
    pad = 0.04 * (hi - lo)
    return lo - pad, hi + pad


def _ticks(lo: float, hi: float, target: int = 6) -> list:
    """Tick positions on the 1-2-5 ladder covering [lo, hi]; NumericError if no step fits."""
    raw = (hi - lo) / target
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        mag = 10.0 ** np.floor(np.log10(raw))
        for m in (1.0, 2.0, 5.0, 10.0):
            step = m * mag
            if step >= raw:
                break
        k_lo = np.ceil(lo / step - 1e-9)
        k_hi = np.floor(hi / step + 1e-9)
    if not (0.0 < step < np.inf and np.isfinite(k_lo) and np.isfinite(k_hi)):
        raise NumericError(f"no tick step fits the axis range [{lo!r}, {hi!r}]")
    return [k * step for k in range(int(k_lo), int(k_hi) + 1)]


def _fmt(v: float) -> str:
    return f"{v:.3f}"


def _tick_label(v: float) -> str:
    # snap roundoff from k*step so labels stay short
    return f"{float(f'{v:.10g}'):g}"


def _esc(text: str) -> str:
    return (text.replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;"))


def render_svg(series: Sequence[Series], style: PlotStyle = PlotStyle()) -> str:
    """Render labeled series as a standalone SVG line plot.

    The canvas is fixed at 900 x 540. Output is a deterministic function of
    the inputs: identical calls yield byte-identical documents.

    Raises
    ------
    ConfigError
        No series given.
    NumericError
        A series contains NaN or infinity, the message listing the indices;
        or an axis range is too wide or too narrow to tick.
    """
    series = list(series)
    if not series:
        raise ConfigError("nothing to plot: no series given")
    _check_finite(series)

    x_min, x_max = _axis_range([v for s in series for v in s.xs])
    y_min, y_max = _axis_range([v for s in series for v in s.ys])
    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B

    def px(x: float) -> float:
        return MARGIN_L + (x - x_min) / (x_max - x_min) * plot_w

    def py(y: float) -> float:
        return MARGIN_T + (1.0 - (y - y_min) / (y_max - y_min)) * plot_h

    out = ['<?xml version="1.0" encoding="UTF-8"?>']
    if style.header:
        body = "\n".join(style.header.replace("--", "- -").splitlines())
        out.append(f"<!--\n{body}\n-->")
    out.append(f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
               f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">')
    out.append(f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" '
               f'fill="#ffffff"/>')

    # axes box and ticks
    out.append(f'<rect x="{_fmt(MARGIN_L)}" y="{_fmt(MARGIN_T)}" '
               f'width="{_fmt(plot_w)}" height="{_fmt(plot_h)}" '
               f'fill="none" stroke="#000000" stroke-width="1"/>')
    for t in _ticks(x_min, x_max):
        x = px(t)
        y0 = MARGIN_T + plot_h
        out.append(f'<line x1="{_fmt(x)}" y1="{_fmt(y0)}" x2="{_fmt(x)}" '
                   f'y2="{_fmt(y0 + 5)}" stroke="#000000" stroke-width="1"/>')
        out.append(f'<text x="{_fmt(x)}" y="{_fmt(y0 + 18)}" '
                   f'font-family="monospace" font-size="11" '
                   f'text-anchor="middle">{_tick_label(t)}</text>')
    for t in _ticks(y_min, y_max):
        y = py(t)
        out.append(f'<line x1="{_fmt(MARGIN_L - 5)}" y1="{_fmt(y)}" '
                   f'x2="{_fmt(MARGIN_L)}" y2="{_fmt(y)}" '
                   f'stroke="#000000" stroke-width="1"/>')
        out.append(f'<text x="{_fmt(MARGIN_L - 8)}" y="{_fmt(y + 4)}" '
                   f'font-family="monospace" font-size="11" '
                   f'text-anchor="end">{_tick_label(t)}</text>')

    for idx, s in enumerate(series):
        color = PALETTE[idx % len(PALETTE)]
        pts = " ".join(f"{_fmt(px(x))},{_fmt(py(y))}"
                       for x, y in zip(s.xs, s.ys))
        out.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                   f'stroke-width="1.5"/>')

    # legend, top-right inside the plot box
    for idx, s in enumerate(series):
        color = PALETTE[idx % len(PALETTE)]
        ly = MARGIN_T + 16 + 16 * idx
        lx = WIDTH - MARGIN_R - 180
        out.append(f'<line x1="{_fmt(lx)}" y1="{_fmt(ly - 4)}" '
                   f'x2="{_fmt(lx + 22)}" y2="{_fmt(ly - 4)}" '
                   f'stroke="{color}" stroke-width="1.5"/>')
        out.append(f'<text x="{_fmt(lx + 28)}" y="{_fmt(ly)}" '
                   f'font-family="monospace" font-size="11">'
                   f'{_esc(s.label)}</text>')

    if style.title:
        out.append(f'<text x="{_fmt(WIDTH / 2)}" y="24" '
                   f'font-family="monospace" font-size="14" '
                   f'text-anchor="middle">{_esc(style.title)}</text>')
    if style.x_label:
        out.append(f'<text x="{_fmt(MARGIN_L + plot_w / 2)}" '
                   f'y="{_fmt(HEIGHT - 12)}" font-family="monospace" '
                   f'font-size="12" text-anchor="middle">'
                   f'{_esc(style.x_label)}</text>')
    if style.y_label:
        cx, cy = 18.0, MARGIN_T + plot_h / 2
        out.append(f'<text x="{_fmt(cx)}" y="{_fmt(cy)}" '
                   f'font-family="monospace" font-size="12" '
                   f'text-anchor="middle" '
                   f'transform="rotate(-90 {_fmt(cx)} {_fmt(cy)})">'
                   f'{_esc(style.y_label)}</text>')

    out.append("</svg>")
    return "\n".join(out) + "\n"
