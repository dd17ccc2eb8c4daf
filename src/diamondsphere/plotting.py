"""Static SVG rendering for ensembles and scaling studies.

Pure string building, no drawing dependency.  Output is deterministic
byte for byte: numbers go through one fixed format and nothing
time- or environment-dependent is embedded.
"""

from __future__ import annotations

import math

from .geometry import PointSet
from .partition import Partition

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b")


def _fmt(x: float) -> str:
    s = f"{x:.6g}"
    return "0" if s == "-0" else s


def _circle(cx, cy, r, **attrs) -> str:
    extra = "".join(f' {k.replace("_", "-")}="{v}"' for k, v in attrs.items())
    return f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="{_fmt(r)}"{extra}/>'


def _line(x1, y1, x2, y2, **attrs) -> str:
    extra = "".join(f' {k.replace("_", "-")}="{v}"' for k, v in attrs.items())
    return (f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" '
            f'y2="{_fmt(y2)}"{extra}/>')


def _text(x, y, s, **attrs) -> str:
    extra = "".join(f' {k.replace("_", "-")}="{v}"' for k, v in attrs.items())
    return f'<text x="{_fmt(x)}" y="{_fmt(y)}"{extra}>{s}</text>'


def _document(width: int, height: int, body: list[str]) -> str:
    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}" version="1.1">'
    )
    style = (
        "<style>text{font-family:Helvetica,Arial,sans-serif;font-size:11px;"
        "fill:#333}</style>"
    )
    return "\n".join([head, style, *body, "</svg>"]) + "\n"


def svg_projection(points: PointSet, partition: Partition | None = None,
                   size: int = 420) -> str:
    """Both hemispheres viewed along the axis, with optional region edges.

    Left disk looks down at the north pole, right disk up at the south
    pole (x axis kept to the right in both, so the equator rims match).
    """
    pad = 16
    radius = (size - 2 * pad) / 2
    width = 2 * size
    body = []

    def disk_center(south: bool):
        return (size / 2 + (size if south else 0), size / 2 + 10)

    for south in (False, True):
        cx, cy = disk_center(south)
        body.append(_circle(cx, cy, radius, fill="none", stroke="#333",
                            stroke_width="1"))
        label = "south" if south else "north"
        body.append(_text(cx, pad, label, text_anchor="middle"))

    if partition is not None:
        rings = partition.model.rings
        b = rings.b.tolist()
        for south in (False, True):
            cx, cy = disk_center(south)
            # circles of latitude at every partition height on this side
            for h in b[:partition.model.M]:
                body.append(_circle(cx, cy, radius * math.sqrt(max(0.0, 1.0 - h * h)),
                                    fill="none", stroke="#bbb", stroke_width="0.6"))
            for h_hi, h_lo, r_count, theta in zip(b, b[1:], rings.r.tolist(),
                                                  rings.theta.tolist()):
                lo = max(h_lo, 0.0) if not south else max(-h_hi, 0.0)
                hi = max(h_hi, 0.0) if not south else max(-h_lo, 0.0)
                if hi <= lo:
                    continue
                r_out = radius * math.sqrt(max(0.0, 1.0 - lo * lo))
                r_in = radius * math.sqrt(max(0.0, 1.0 - hi * hi))
                for i in range(r_count):
                    ang = theta + math.pi / r_count + 2.0 * math.pi * i / r_count
                    ca, sa = math.cos(ang), math.sin(ang)
                    # y flips: SVG y grows downward, and the south view is
                    # seen from below so its y flips once more
                    sy = 1.0 if south else -1.0
                    body.append(_line(cx + r_in * ca, cy + sy * r_in * sa,
                                      cx + r_out * ca, cy + sy * r_out * sa,
                                      stroke="#bbb", stroke_width="0.6"))

    coords = points.coords
    for x, y, z in coords:
        south = z < 0
        cx, cy = disk_center(south)
        sy = 1.0 if south else -1.0
        s = radius
        body.append(_circle(cx + s * x, cy + sy * s * y, 2.2,
                            fill="#1f77b4", stroke="none"))
        if abs(z) < 1e-15:  # equator points appear on both rims
            cx, cy = disk_center(not south)
            body.append(_circle(cx + s * x, cy - sy * s * y, 2.2,
                                fill="#1f77b4", stroke="none"))
    return _document(width, size + 20, body)


def svg_scaling(n_values, series, guides=(), title="",
                width: int = 640, height: int = 420) -> str:
    """Line chart of scale-free quality numbers against N (log axis).

    series maps label -> list of y values aligned with n_values; guides
    is a list of (label, y) horizontal reference lines.
    """
    if not n_values:
        raise ValueError("nothing to plot")
    ml, mr, mt, mb = 56, 16, 28, 40
    x0, x1 = ml, width - mr
    y0, y1 = height - mb, mt
    lo_n, hi_n = math.log10(min(n_values)), math.log10(max(n_values))
    if hi_n <= lo_n:
        hi_n = lo_n + 1.0
    ymax = max(
        [y for (_, y) in guides] + [v for vals in series.values() for v in vals]
    ) * 1.08
    ymin = 0.0

    def px(nv):
        return x0 + (math.log10(nv) - lo_n) / (hi_n - lo_n) * (x1 - x0)

    def py(v):
        return y0 + (v - ymin) / (ymax - ymin) * (y1 - y0)

    body = [
        _line(x0, y0, x1, y0, stroke="#333", stroke_width="1"),
        _line(x0, y0, x0, y1, stroke="#333", stroke_width="1"),
    ]
    if title:
        body.append(_text((x0 + x1) / 2, 16, title, text_anchor="middle"))

    # x ticks at powers of ten inside the range
    for e in range(math.floor(lo_n), math.floor(hi_n) + 1):
        nv = 10.0 ** e
        if nv < min(n_values) / 1.001 or nv > max(n_values) * 1.001:
            continue
        body.append(_line(px(nv), y0, px(nv), y0 + 4, stroke="#333",
                          stroke_width="1"))
        body.append(_text(px(nv), y0 + 16, f"1e{e}", text_anchor="middle"))
    body.append(_text((x0 + x1) / 2, height - 8, "number of points N",
                      text_anchor="middle"))

    step = 10.0 ** math.floor(math.log10(ymax)) if ymax > 0 else 1.0
    if ymax / step > 6:
        step *= 2.0
    v = 0.0
    while v <= ymax + 1e-12:
        body.append(_line(x0 - 4, py(v), x0, py(v), stroke="#333",
                          stroke_width="1"))
        body.append(_text(x0 - 8, py(v) + 4, _fmt(v), text_anchor="end"))
        v += step

    for label, gy in guides:
        body.append(_line(x0, py(gy), x1, py(gy), stroke="#888",
                          stroke_width="1", stroke_dasharray="5,4"))
        body.append(_text(x1 - 4, py(gy) - 4, label, text_anchor="end",
                          fill="#888"))

    for k, (label, vals) in enumerate(series.items()):
        color = _PALETTE[k % len(_PALETTE)]
        pts = " ".join(
            f"{_fmt(px(nv))},{_fmt(py(v))}" for nv, v in zip(n_values, vals)
        )
        body.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                    'stroke-width="1.5"/>')
        for nv, v in zip(n_values, vals):
            body.append(_circle(px(nv), py(v), 2.4, fill=color, stroke="none"))
        body.append(_text(x0 + 10, y1 + 14 * (k + 1), label, fill=color))
    return _document(width, height, body)
