"""Deterministic SVG output: free energy panel and spectrum panel.

Byte-identical output for identical input: all coordinates go through
fixed-precision formatting and no timestamps or randomness enter.
"""

from __future__ import annotations

import numpy as np

W, H = 960, 430
PANEL_W, PANEL_H = 390, 330
MARGIN_L1, MARGIN_L2 = 70, 540
MARGIN_T = 50


def _fmt(x: float) -> str:
    return "%.3f" % x


def _escape(text: str) -> str:
    """``html.escape(text, quote=False)``: ``&`` first, then ``<`` and
    ``>``; the ``html`` package costs every command 0.46 MB resident."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


class _Panel:
    def __init__(self, x0, y0, w, h, xmin, xmax, ymin, ymax):
        self.x0, self.y0, self.w, self.h = x0, y0, w, h
        self.xmin, self.xmax = xmin, xmax
        self.ymin, self.ymax = ymin, ymax

    def px(self, x):
        return self.x0 + (x - self.xmin) / (self.xmax - self.xmin) * self.w

    def py(self, y):
        return self.y0 + self.h - (y - self.ymin) / (self.ymax - self.ymin) * self.h

    def clip(self, x, y):
        return (self.xmin <= x <= self.xmax) and (self.ymin <= y <= self.ymax)


def _polyline(panel, xs, ys, style):
    pts = []
    for x, y in zip(xs, ys):
        if panel.clip(x, y):
            pts.append("%s,%s" % (_fmt(panel.px(x)), _fmt(panel.py(y))))
    if len(pts) < 2:
        return ""
    return '<polyline fill="none" %s points="%s"/>' % (style, " ".join(pts))


def _axes(panel, xlabel, ylabel, xticks, yticks):
    out = []
    out.append('<rect x="%s" y="%s" width="%s" height="%s" fill="none" '
               'stroke="black" stroke-width="1"/>'
               % (_fmt(panel.x0), _fmt(panel.y0), _fmt(panel.w), _fmt(panel.h)))
    for tx in xticks:
        px = panel.px(tx)
        out.append('<line x1="%s" y1="%s" x2="%s" y2="%s" stroke="black"/>'
                   % (_fmt(px), _fmt(panel.y0 + panel.h),
                      _fmt(px), _fmt(panel.y0 + panel.h + 5)))
        out.append('<text x="%s" y="%s" font-size="11" text-anchor="middle">%g</text>'
                   % (_fmt(px), _fmt(panel.y0 + panel.h + 18), tx))
    for ty in yticks:
        py = panel.py(ty)
        out.append('<line x1="%s" y1="%s" x2="%s" y2="%s" stroke="black"/>'
                   % (_fmt(panel.x0 - 5), _fmt(py), _fmt(panel.x0), _fmt(py)))
        out.append('<text x="%s" y="%s" font-size="11" text-anchor="end">%g</text>'
                   % (_fmt(panel.x0 - 8), _fmt(py + 4), ty))
    out.append('<text x="%s" y="%s" font-size="13" text-anchor="middle">%s</text>'
               % (_fmt(panel.x0 + panel.w / 2),
                  _fmt(panel.y0 + panel.h + 38), xlabel))
    out.append('<text x="%s" y="%s" font-size="13" text-anchor="middle" '
               'transform="rotate(-90 %s %s)">%s</text>'
               % (_fmt(panel.x0 - 45), _fmt(panel.y0 + panel.h / 2),
                  _fmt(panel.x0 - 45), _fmt(panel.y0 + panel.h / 2), ylabel))
    return out


def emit_figure(curve, spec, delta_c: float, title: str = "") -> str:
    """Two-panel SVG: free energy t(beta) left, spectrum f(alpha) right.

    The left panel marks the asymptote t = 1/2 - beta and the horizontal
    level delta_c; the right panel marks (0, delta_c) and (1, 1/2) and, on
    a grid with a beta = 0 sample (finite ``alpha0``), the interior
    maximum at height t(0).
    """
    parts = ['<?xml version="1.0" encoding="UTF-8"?>',
             '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
             'width="%d" height="%d" viewBox="0 0 %d %d">' % (W, H, W, H),
             '<rect width="%d" height="%d" fill="white"/>' % (W, H)]
    if title:
        parts.append('<text x="%d" y="24" font-size="15" text-anchor="middle">'
                     '%s</text>' % (W // 2, _escape(title)))

    # left panel: t(beta)
    bs, ts = curve.betas, curve.t
    ymax = float(ts.max()) * 1.05
    bmin, bmax = float(bs.min()), float(bs.max())
    left = _Panel(MARGIN_L1, MARGIN_T, PANEL_W, PANEL_H,
                  bmin, bmax, 0.0, max(ymax, 1.0))
    parts += _axes(left, "beta", "t(beta)",
                   [bmin, 0.5 * (bmin + bmax), bmax],
                   [0.0, round(max(ymax, 1.0) / 2, 2), round(max(ymax, 1.0), 2)])
    # asymptote t = 1/2 - beta
    xs = np.linspace(bmin, bmax, 64)
    parts.append(_polyline(left, xs, 0.5 - xs,
                           'stroke="gray" stroke-dasharray="4,3"'))
    parts.append(_polyline(left, np.array([bmin, bmax]),
                           np.array([delta_c, delta_c]),
                           'stroke="gray" stroke-dasharray="2,3"'))
    parts.append('<text x="%s" y="%s" font-size="11">delta_c</text>'
                 % (_fmt(left.px(bmax) - 48), _fmt(left.py(delta_c) - 5)))
    parts.append(_polyline(left, bs, ts, 'stroke="black" stroke-width="1.6"'))

    # right panel: f(alpha)
    right = _Panel(MARGIN_L2, MARGIN_T, PANEL_W, PANEL_H, -0.02, 1.02, 0.0, 1.05)
    parts += _axes(right, "alpha", "f(alpha)",
                   [0.0, 0.5, 1.0], [0.0, 0.5, 1.0])
    parts.append(_polyline(right, spec.alphas, spec.f,
                           'stroke="black" stroke-width="1.6"'))
    marks = ((0.0, delta_c, "delta_c"), (1.0, 0.5, "1/2"))
    if np.isfinite(spec.alpha0):
        k = int(np.argmax(spec.f))
        marks = ((float(spec.alphas[k]), float(spec.f[k]), "t(0)"),) + marks
    for mx, my, label in marks:
        parts.append('<circle cx="%s" cy="%s" r="3" fill="black"/>'
                     % (_fmt(right.px(mx)), _fmt(right.py(my))))
        parts.append('<text x="%s" y="%s" font-size="11">%s</text>'
                     % (_fmt(right.px(mx) + 6), _fmt(right.py(my) - 6),
                        label))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
