"""Minimal deterministic SVG line charts (no plotting dependency)."""

from __future__ import annotations

import math
# with quote=False, the bytes of xml.sax.saxutils.escape without its urllib import
from html import escape

_COLORS = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]
_W, _H = 640, 400
_ML, _MR, _MT, _MB = 60, 20, 30, 45


def _ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    if not math.isfinite(lo) or not math.isfinite(hi) or hi <= lo:
        return [lo]
    step = (hi - lo) / (n - 1)
    return [lo + i * step for i in range(n)]


def svg_line_chart(
    series: dict[str, list[tuple[float, float]]],
    title: str = "",
    x_label: str = "",
    y_label: str = "",
) -> str:
    """Render named (x, y) polylines on a log10 y axis into an SVG document
    string; points with y <= 0 are left out of the lines."""
    pts_all = [p for pts in series.values() for p in pts if math.isfinite(p[1])]
    if not pts_all:
        pts_all = [(0.0, 0.0), (1.0, 1.0)]

    xs = [p[0] for p in pts_all]
    ys = [math.log10(p[1]) for p in pts_all if p[1] > 0]
    if not ys:
        ys = [0.0, 1.0]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pw, ph = _W - _ML - _MR, _H - _MT - _MB

    def px(x: float) -> float:
        return _ML + (x - x_lo) / (x_hi - x_lo) * pw

    def py(y: float) -> float:
        return _MT + (1.0 - (y - y_lo) / (y_hi - y_lo)) * ph

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W / 2:.1f}" y="18" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{escape(title, quote=False)}</text>',
    ]
    for tick in _ticks(x_lo, x_hi):
        x = px(tick)
        out.append(
            f'<line x1="{x:.2f}" y1="{_MT}" x2="{x:.2f}" y2="{_H - _MB}" '
            f'stroke="#dddddd"/>'
        )
        out.append(
            f'<text x="{x:.2f}" y="{_H - _MB + 16}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{tick:.4g}</text>'
        )
    for tick in _ticks(y_lo, y_hi):
        y = py(tick)
        out.append(
            f'<line x1="{_ML}" y1="{y:.2f}" x2="{_W - _MR}" y2="{y:.2f}" '
            f'stroke="#dddddd"/>'
        )
        out.append(
            f'<text x="{_ML - 6}" y="{y + 4:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{10.0**tick:.3g}</text>'
        )
    out.append(
        f'<rect x="{_ML}" y="{_MT}" width="{pw}" height="{ph}" fill="none" '
        f'stroke="#333333"/>'
    )
    for i, (name, pts) in enumerate(series.items()):
        color = _COLORS[i % len(_COLORS)]
        coords = " ".join(
            f"{px(x):.2f},{py(math.log10(y)):.2f}"
            for x, y in pts
            if math.isfinite(y) and y > 0
        )
        out.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
            f'points="{coords}"/>'
        )
        ly = _MT + 16 + 16 * i
        out.append(
            f'<line x1="{_W - _MR - 120}" y1="{ly - 4}" x2="{_W - _MR - 96}" '
            f'y2="{ly - 4}" stroke="{color}" stroke-width="1.5"/>'
        )
        out.append(
            f'<text x="{_W - _MR - 90}" y="{ly}" font-family="sans-serif" '
            f'font-size="11">{escape(name, quote=False)}</text>'
        )
    out.append(
        f'<text x="{_W / 2:.1f}" y="{_H - 8}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">{escape(x_label, quote=False)}</text>'
    )
    out.append(
        f'<text x="14" y="{_H / 2:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 14 {_H / 2:.1f})">{escape(y_label, quote=False)}</text>'
    )
    out.append("</svg>")
    return "\n".join(out) + "\n"
