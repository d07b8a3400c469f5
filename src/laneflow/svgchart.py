"""Minimal deterministic SVG line charts — no plotting library.

One fixed 800x600 viewport, linear axes with labeled ticks, and exactly one
<polyline> per data series (axes and gridlines are <line> elements so the
polyline count stays meaningful).  All coordinates are formatted with two
fixed decimals, which keeps output byte-stable across runs and platforms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

WIDTH = 800
HEIGHT = 600
MARGIN_LEFT = 70
MARGIN_RIGHT = 160  # leaves room for the legend
MARGIN_TOP = 40
MARGIN_BOTTOM = 60

_SERIES_COLORS = ("#1f6fb2", "#c23b22", "#3a7d44", "#8456a8")


@dataclass(frozen=True)
class Series:
    name: str
    points: tuple[tuple[float, float], ...]


def _nice_step(span: float) -> float:
    """A 1/2/5-family tick step giving roughly 4-6 ticks over a span > 0."""
    raw = span / 5
    magnitude = 10 ** math.floor(math.log10(raw))
    for mult in (1, 2, 5):
        if raw <= mult * magnitude:
            return mult * magnitude
    return 10 * magnitude


def _ticks(lo: float, hi: float) -> list[float]:
    step = _nice_step(hi - lo)
    first = step * math.floor(lo / step)
    ticks = []
    t = first
    while t <= hi + step / 2:
        if t >= lo - step / 2:
            ticks.append(round(t, 10))
        t += step
    return ticks


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def _fmt_tick(t: float) -> str:
    return str(int(t)) if float(t).is_integer() else f"{t:g}"


def render_line_chart(
    series: list[Series],
    title: str,
    x_label: str,
    y_label: str,
) -> str:
    """Render series as one SVG document string.  The points must span more
    than one x value (compare charts two or more increasing sizes)."""
    points = [p for s in series for p in s.points]
    x_lo = min(p[0] for p in points)
    x_hi = max(p[0] for p in points)
    y_lo = min(0.0, min(p[1] for p in points))
    y_hi = max(p[1] for p in points)
    if y_hi == y_lo:
        y_hi = y_lo + 1

    plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    plot_h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM

    def sx(x: float) -> float:
        return MARGIN_LEFT + (x - x_lo) / (x_hi - x_lo) * plot_w

    def sy(y: float) -> float:
        return MARGIN_TOP + plot_h - (y - y_lo) / (y_hi - y_lo) * plot_h

    parts: list[str] = []
    parts.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">'
    )
    parts.append(f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="#ffffff"/>')
    parts.append(
        f'<text x="{WIDTH // 2}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="16">{title}</text>'
    )

    axis_y = MARGIN_TOP + plot_h
    # gridlines + tick labels
    for t in _ticks(y_lo, y_hi):
        y = sy(t)
        parts.append(
            f'<line x1="{MARGIN_LEFT}" y1="{_fmt(y)}" x2="{MARGIN_LEFT + plot_w}" '
            f'y2="{_fmt(y)}" stroke="#dddddd" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{MARGIN_LEFT - 8}" y="{_fmt(y + 4)}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{_fmt_tick(t)}</text>'
        )
    for t in _ticks(x_lo, x_hi):
        x = sx(t)
        parts.append(
            f'<line x1="{_fmt(x)}" y1="{axis_y}" x2="{_fmt(x)}" y2="{axis_y + 5}" '
            f'stroke="#333333" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_fmt(x)}" y="{axis_y + 20}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{_fmt_tick(t)}</text>'
        )
    # axes
    parts.append(
        f'<line x1="{MARGIN_LEFT}" y1="{MARGIN_TOP}" x2="{MARGIN_LEFT}" y2="{axis_y}" '
        f'stroke="#333333" stroke-width="1.5"/>'
    )
    parts.append(
        f'<line x1="{MARGIN_LEFT}" y1="{axis_y}" x2="{MARGIN_LEFT + plot_w}" y2="{axis_y}" '
        f'stroke="#333333" stroke-width="1.5"/>'
    )
    parts.append(
        f'<text x="{MARGIN_LEFT + plot_w / 2:.2f}" y="{HEIGHT - 16}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13">{x_label}</text>'
    )
    parts.append(
        f'<text x="20" y="{MARGIN_TOP + plot_h / 2:.2f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13" '
        f'transform="rotate(-90 20 {MARGIN_TOP + plot_h / 2:.2f})">{y_label}</text>'
    )

    for i, s in enumerate(series):
        color = _SERIES_COLORS[i % len(_SERIES_COLORS)]
        coords = " ".join(f"{_fmt(sx(x))},{_fmt(sy(y))}" for x, y in s.points)
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="2" points="{coords}"/>'
        )
        for x, y in s.points:
            parts.append(
                f'<circle cx="{_fmt(sx(x))}" cy="{_fmt(sy(y))}" r="3" fill="{color}"/>'
            )
        legend_y = MARGIN_TOP + 16 + i * 20
        legend_x = MARGIN_LEFT + plot_w + 16
        parts.append(
            f'<line x1="{legend_x}" y1="{legend_y - 4}" x2="{legend_x + 24}" '
            f'y2="{legend_y - 4}" stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{legend_x + 30}" y="{legend_y}" font-family="sans-serif" '
            f'font-size="12">{s.name}</text>'
        )

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
