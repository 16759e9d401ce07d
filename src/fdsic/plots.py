"""Minimal static SVG rendering: line plots and heatmaps.

Deliberately dependency-free; every plotted number also lives in a CSV, the
SVG is a derived convenience view.
"""

from __future__ import annotations

import math
import operator
from pathlib import Path

import numpy as np

_COLORS = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
           "#8c564b", "#e377c2", "#17becf", "#bcbd22", "#7f7f7f"]

_W, _H = 860, 520
_ML, _MR, _MT, _MB = 70, 180, 40, 55


def _ticks(lo: float, hi: float, n: int = 6) -> list[float]:
    if not (math.isfinite(lo) and math.isfinite(hi)) or hi <= lo:
        return [lo]
    raw = (hi - lo) / max(n - 1, 1)
    mag = 10.0 ** math.floor(math.log10(raw))
    step = min(s * mag for s in (1, 2, 5, 10) if s * mag >= raw)
    first = math.ceil(lo / step) * step
    out = []
    v = first
    while v <= hi + 1e-9 * step:
        out.append(round(v, 12))
        v += step
    return out or [lo]


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def _write_svg(path: str | Path, title: str, xlabel: str, ylabel: str,
               body: list[str], overlay: list[str]) -> Path:
    """Write the frame every figure shares (canvas, background, title and
    axis labels) with the ``body`` elements drawn before the axis labels and
    the ``overlay`` elements (curves and legend, or a colour range) after."""
    path = Path(path)
    mid_y = f"{(_MT + _H - _MB) / 2:.0f}"
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
             f'viewBox="0 0 {_W} {_H}" font-family="sans-serif" font-size="12">',
             f'<rect width="{_W}" height="{_H}" fill="white"/>',
             f'<text x="{_W / 2:.0f}" y="22" text-anchor="middle" font-size="15">{title}</text>',
             *body,
             f'<text x="{(_ML + _W - _MR) / 2:.0f}" y="{_H - 14}" '
             f'text-anchor="middle">{xlabel}</text>',
             f'<text x="18" y="{mid_y}" text-anchor="middle" '
             f'transform="rotate(-90 18 {mid_y})">{ylabel}</text>',
             *overlay,
             "</svg>"]
    path.write_text("\n".join(parts) + "\n")
    return path


def line_plot(path: str | Path, x, curves: dict[str, np.ndarray], title: str,
              xlabel: str, ylabel: str) -> Path:
    """Write a multi-curve line plot; NaN/inf samples break the polyline."""
    x = np.asarray(x, dtype=float)
    curves = {name: np.asarray(ys, dtype=float) for name, ys in curves.items()}
    finite_y = np.concatenate([[], *curves.values()])
    finite_y = finite_y[np.isfinite(finite_y)]
    if not finite_y.size:
        finite_y = np.array([0.0, 1.0])
    ylo, yhi = finite_y.min(), finite_y.max()
    if yhi == ylo:
        ylo, yhi = ylo - 1.0, yhi + 1.0
    pad = 0.05 * (yhi - ylo)
    ylo, yhi = ylo - pad, yhi + pad
    xlo, xhi = float(np.min(x)), float(np.max(x))
    if xhi == xlo:
        xlo, xhi = xlo - 1.0, xhi + 1.0

    def sx(v):
        return _ML + (v - xlo) / (xhi - xlo) * (_W - _ML - _MR)

    def sy(v):
        return _H - _MB - (v - ylo) / (yhi - ylo) * (_H - _MT - _MB)

    parts = []
    for tx in _ticks(xlo, xhi):
        px = sx(tx)
        parts.append(f'<line x1="{px:.1f}" y1="{_MT}" x2="{px:.1f}" y2="{_H - _MB}" '
                     f'stroke="#dddddd"/>')
        parts.append(f'<text x="{px:.1f}" y="{_H - _MB + 18}" text-anchor="middle">{_fmt(tx)}</text>')
    for ty in _ticks(ylo, yhi):
        py = sy(ty)
        parts.append(f'<line x1="{_ML}" y1="{py:.1f}" x2="{_W - _MR}" y2="{py:.1f}" '
                     f'stroke="#dddddd"/>')
        parts.append(f'<text x="{_ML - 8}" y="{py + 4:.1f}" text-anchor="end">{_fmt(ty)}</text>')
    parts.append(f'<rect x="{_ML}" y="{_MT}" width="{_W - _ML - _MR}" '
                 f'height="{_H - _MT - _MB}" fill="none" stroke="#333333"/>')

    curve_parts = []
    # sx and sy over whole arrays: each value takes the operations, in the
    # order, that it takes alone, so the coordinates keep their bits; the x
    # text "x," of each point is formatted once for every curve
    px = ["%.2f," % v for v in sx(x).tolist()]
    for ci, (name, ys) in enumerate(curves.items()):
        color = _COLORS[ci % len(_COLORS)]
        ys = ys[:len(px)]
        py = sy(ys).tolist()
        # each run of finite samples is one polyline
        edges = np.flatnonzero(np.diff(np.concatenate([[0], np.isfinite(ys), [0]])))
        for lo, hi in zip(edges[::2].tolist(), edges[1::2].tolist()):
            y_text = ("%.2f " * (hi - lo) % tuple(py[lo:hi])).split()
            points = " ".join(map(operator.add, px[lo:hi], y_text))
            curve_parts.append(f'<polyline points="{points}" fill="none" '
                               f'stroke="{color}" stroke-width="1.6"/>')
        ly = _MT + 16 + 16 * ci
        curve_parts.append(f'<line x1="{_W - _MR + 8}" y1="{ly - 4}" x2="{_W - _MR + 30}" '
                           f'y2="{ly - 4}" stroke="{color}" stroke-width="2"/>')
        curve_parts.append(f'<text x="{_W - _MR + 35}" y="{ly}">{name}</text>')
    return _write_svg(path, title, xlabel, ylabel, parts, curve_parts)


def heatmap(path: str | Path, x, y, z: np.ndarray, title: str,
            xlabel: str, ylabel: str, zlabel: str = "") -> Path:
    """Write a heatmap of z[y_index, x_index] with a simple color ramp."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    z = np.asarray(z, dtype=float)
    finite = z[np.isfinite(z)]
    zlo, zhi = (float(finite.min()), float(finite.max())) if finite.size else (0.0, 1.0)
    if zhi == zlo:
        zhi = zlo + 1.0

    def color(v):
        if not math.isfinite(v):
            return "#404040"
        t = (v - zlo) / (zhi - zlo)
        r = int(255 * min(1.0, 2 * t))
        b = int(255 * min(1.0, 2 * (1 - t)))
        g = int(90 * (1 - abs(2 * t - 1)))
        return f"#{r:02x}{g:02x}{b:02x}"

    cw = (_W - _ML - _MR) / len(x)
    chh = (_H - _MT - _MB) / len(y)
    parts = []
    for j in range(len(y)):
        for i in range(len(x)):
            px = _ML + i * cw
            py = _H - _MB - (j + 1) * chh
            parts.append(f'<rect x="{px:.2f}" y="{py:.2f}" width="{cw + 0.5:.2f}" '
                         f'height="{chh + 0.5:.2f}" fill="{color(z[j, i])}"/>')
    step_x = max(1, len(x) // 8)
    for i in range(0, len(x), step_x):
        px = _ML + (i + 0.5) * cw
        parts.append(f'<text x="{px:.1f}" y="{_H - _MB + 18}" text-anchor="middle">{_fmt(x[i])}</text>')
    step_y = max(1, len(y) // 8)
    for j in range(0, len(y), step_y):
        py = _H - _MB - (j + 0.5) * chh
        parts.append(f'<text x="{_ML - 8}" y="{py + 4:.1f}" text-anchor="end">{_fmt(y[j])}</text>')
    return _write_svg(path, title, xlabel, ylabel, parts,
                      [f'<text x="{_W - _MR + 12}" y="{_MT + 10}">{zlabel} range '
                       f'[{_fmt(zlo)}, {_fmt(zhi)}]</text>'])
