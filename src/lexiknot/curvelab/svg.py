"""Minimal SVG rendering of a plane trigonal curve with labelled crossings."""

from __future__ import annotations

from .curves import BOTTOM, PlaneCurve, curve_crossings
from .poly import isolate_real_roots

WIDTH, HEIGHT, SAMPLES = 640, 420, 800


def render_svg(curve: PlaneCurve) -> str:
    """Draw the curve and mark each of its crossings (`curve_crossings`)
    with its position letter.

    Rendering is cosmetic; every discrete decision was already made in
    exact arithmetic, floats only place pixels here.
    """
    t_marks = [float(r.mid) for r in isolate_real_roots(curve.x.derivative())]
    spread = max(abs(m) for m in t_marks) if t_marks else 1.0
    t_lo, t_hi = -2.2 * spread, 2.2 * spread

    pts = []
    for i in range(SAMPLES + 1):
        t = t_lo + (t_hi - t_lo) * i / SAMPLES
        pts.append((float(curve.x(round(t, 6))), float(curve.y(round(t, 6)))))
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    pad = 20.0

    def to_px(p):
        x, y = p
        sx = pad + (x - x0) / (x1 - x0 or 1) * (WIDTH - 2 * pad)
        sy = HEIGHT - pad - (y - y0) / (y1 - y0 or 1) * (HEIGHT - 2 * pad)
        return sx, sy

    path = " ".join(
        ("M" if i == 0 else "L") + f"{to_px(p)[0]:.1f},{to_px(p)[1]:.1f}"
        for i, p in enumerate(pts)
    )
    marks = []
    for c in curve_crossings(curve).crossings:
        # place the marker from the crossing parameters
        t_mid = float((c.t[0] + c.t[1]) / 2)
        px, py = to_px((float(curve.x(round(t_mid, 6))), float(curve.y(round(t_mid, 6)))))
        letter = "s1" if c.letter == BOTTOM else "s2"
        marks.append(
            f'<circle cx="{px:.1f}" cy="{py:.1f}" r="4" fill="crimson"/>'
            f'<text x="{px + 6:.1f}" y="{py - 6:.1f}" font-size="12">{letter}</text>'
        )
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">'
        f'<rect width="100%" height="100%" fill="white"/>'
        f'<path d="{path}" fill="none" stroke="steelblue" stroke-width="1.5"/>'
        + "".join(marks)
        + "</svg>"
    )
