"""Deterministic SVG rendering of scenes, solutions and certificates.

Pure function of its inputs: no timestamps, no generated ids, fixed
palette and formatting.  Coordinates are scaled into a 1000-unit
viewport with the y-axis flipped so North is up.
"""

from __future__ import annotations

from fractions import Fraction

VIEW = 1000
PALETTE = ("#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
           "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf")


def _fmt(v) -> str:
    s = f"{float(v):.3f}"
    return "0.000" if s == "-0.000" else s


class _Mapper:
    def __init__(self, bounds):
        self.x0, self.y0 = bounds.x0, bounds.y0
        w = bounds.x1 - bounds.x0
        h = bounds.y1 - bounds.y0
        self.scale = Fraction(VIEW) / max(w, h)

    def pt(self, x, y):
        return (_fmt((x - self.x0) * self.scale),
                _fmt(VIEW - (y - self.y0) * self.scale))


def _poly(mapper, ring, fill, opacity="1", stroke="none"):
    pts = " ".join(",".join(mapper.pt(x, y)) for (x, y) in ring)
    return (f'<polygon points="{pts}" fill="{fill}" fill-opacity="{opacity}" '
            f'stroke="{stroke}" stroke-width="1"/>')


def render_svg(scene, solution=None, certificate=None) -> str:
    """Holes filled, guards as arrowed markers, visibility regions as
    translucent fills, residual highlighted."""
    m = _Mapper(scene.bounds)
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {VIEW} {VIEW}">']
    b = scene.bounds
    parts.append(_poly(m, [(b.x0, b.y0), (b.x1, b.y0), (b.x1, b.y1), (b.x0, b.y1)],
                       "#ffffff", stroke="#000000"))
    if certificate is not None:
        for i, vr in enumerate(certificate.per_guard_regions):
            color = PALETTE[i % len(PALETTE)]
            for ring in vr.region.cells:
                parts.append(_poly(m, ring, color, opacity="0.12"))
    for h in scene.holes:
        parts.append(_poly(m, [(c.x, c.y) for c in h.corners()], "#555555",
                           stroke="#000000"))
    if certificate is not None and not certificate.covered:
        for ring in certificate.residual.cells:
            parts.append(_poly(m, ring, "#ff0000", opacity="0.6", stroke="#aa0000"))
        if certificate.witness is not None:
            x, y = m.pt(certificate.witness.x, certificate.witness.y)
            parts.append(f'<circle cx="{x}" cy="{y}" r="6" fill="#ff0000"/>')
    if solution is not None:
        arrow = Fraction(scene.bounds.x1 - scene.bounds.x0, 25)
        for i, g in enumerate(solution.guards):
            pos = g.position(scene)
            fx, fy = g.facing
            # rational approximation of a fixed-length arrow is fine for display
            s = arrow / Fraction(max(abs(fx), abs(fy)) * 2)
            tip = (pos.x + fx * s, pos.y + fy * s)
            x1, y1 = m.pt(pos.x, pos.y)
            x2, y2 = m.pt(tip[0], tip[1])
            color = PALETTE[i % len(PALETTE)]
            parts.append(f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" '
                         f'stroke="{color}" stroke-width="4"/>')
            parts.append(f'<circle cx="{x1}" cy="{y1}" r="5" fill="{color}" '
                         f'stroke="#000000" stroke-width="1"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
