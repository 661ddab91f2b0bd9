"""Legendre-transform machinery: f(alpha) from the free energy curve.

The spectrum is evaluated parametrically, f(alpha(beta)) = t(beta) +
beta*alpha(beta) with alpha = -t', and cross-checked against the direct
convex conjugate.  On the left tail the derivative is taken on the
shifted values r = t - (1/2 - beta), so alpha = 1 - dr/dbeta comes out
exact even where r is exponentially small; without this the cancellation
in t-differences would destroy the endpoint behavior f -> 1/2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InsufficientGridReach, InvalidCurve, NotConvex
from .gdms import FreeEnergyCurve


def check_convex(values: np.ndarray, grid: np.ndarray, noise: float = 1e-6):
    slopes = np.diff(values) / np.diff(grid)
    bad = np.diff(slopes) < -noise
    if np.any(bad):
        raise NotConvex("convexity violated at %d interior nodes" % bad.sum())


def legendre(grid, values, ps, noise: float = 1e-6):
    """Discrete convex conjugate sup_c (c p - g(c)) with local refinement.

    Returns (transform values, attained flags); the flag is False where
    the supremum sits on the boundary of the sampled domain, i.e. the true
    conjugate is +infinity or beyond the sampled slopes.
    """
    grid = np.asarray(grid, dtype=float)
    values = np.asarray(values, dtype=float)
    ps = np.atleast_1d(np.asarray(ps, dtype=float))
    check_convex(values, grid, noise)
    out = np.empty(len(ps))
    attained = np.empty(len(ps), dtype=bool)
    for i, p in enumerate(ps):
        scores = grid * p - values
        j = int(np.argmax(scores))
        scale = max(1.0, float(np.abs(scores).max()))
        # interior argmax that genuinely dominates both boundary values;
        # exactly affine scores tie everywhere and the sup is unattained
        attained[i] = bool(
            0 < j < len(grid) - 1
            and scores[j] > scores[0] + 1e-12 * scale
            and scores[j] > scores[-1] + 1e-12 * scale)
        val = scores[j]
        if attained[i]:
            # vertex of the quadratic through the three active samples
            x0, x1, x2 = grid[j - 1], grid[j], grid[j + 1]
            y0, y1, y2 = scores[j - 1], scores[j], scores[j + 1]
            d1 = (y1 - y0) / (x1 - x0)
            d2 = (y2 - y1) / (x2 - x1)
            a = 2.0 * (d2 - d1) / (x2 - x0)
            bslope = (d1 * (x2 - x1) + d2 * (x1 - x0)) / (x2 - x0)
            if a < -1e-14:
                step = -bslope / a
                step = min(max(step, x0 - x1), x2 - x1)
                val = max(val, y1 + bslope * step + 0.5 * a * step * step)
        out[i] = val
    return out, attained


@dataclass
class SpectrumCurve:
    """Sampled Hausdorff-dimension spectrum f(alpha).

    ``alphas`` are sorted increasing; ``beta_source`` records the free
    energy parameter realizing each sample.  ``f0``/``f1`` are f at the
    first and last samples, the values nearest the endpoints alpha -> 0
    and alpha -> 1.
    """

    alphas: np.ndarray
    f: np.ndarray
    beta_source: np.ndarray
    residuals: np.ndarray
    alpha0: float
    f0: float
    f1: float

    def validate(self, t0: float = None, noise: float = 1e-6):
        a, f = self.alphas, self.f
        if np.any(f < -1e-12):
            raise InvalidCurve("negative spectrum values")
        keep = np.concatenate([[True], np.diff(a) > 1e-12])
        aa, ff = a[keep], f[keep]
        slopes = np.diff(ff) / np.diff(aa)
        # violation measured in f units: slope increases weighted by the
        # smaller adjacent gap, so roundoff clusters cannot trip the check
        gaps = np.diff(aa)
        jumps = np.diff(slopes) * np.minimum(gaps[:-1], gaps[1:])
        if np.any(jumps > noise):
            raise InvalidCurve("spectrum is not concave on its grid")
        if np.any((a < -0.02) | (a > 1.02)):
            raise InvalidCurve("alpha grid escapes [-0.02, 1.02]")
        if t0 is not None:
            if abs(float(f.max()) - t0) > 1e-3:
                raise InvalidCurve("max f does not match t(0)")
        return True


def alpha_values(curve: FreeEnergyCurve) -> np.ndarray:
    """alpha(beta) = -t'(beta) by centered differences with Richardson.

    Interior points on a uniform subgrid get the 4th-order Richardson
    value; everything else uses the three-point nonuniform formula.  The
    left tail differentiates r instead of t, so alpha = 1 - dr/dbeta stays
    exact when r is below the resolution of t.
    """
    b = curve.betas
    n = len(b)
    use_r = np.all(np.isfinite(curve.r))
    alphas = np.empty(n)
    for k in range(n):
        if use_r and b[k] < -2.0:
            # left tail: differentiate the shifted values, the affine part
            # cancels exactly and the exponentially small r survives
            alphas[k] = 1.0 - _local_slope(b, curve.r, k)
        else:
            alphas[k] = -_local_slope(b, curve.t, k)
    return alphas


def _local_slope(x, y, k):
    n = len(x)
    if 2 <= k <= n - 3:
        h1 = x[k + 1] - x[k]
        h0 = x[k] - x[k - 1]
        H1 = x[k + 2] - x[k]
        H0 = x[k] - x[k - 2]
        if abs(h1 - h0) < 1e-12 * abs(h1) and abs(H1 - 2 * h1) < 1e-9 * abs(H1):
            d_h = (y[k + 1] - y[k - 1]) / (h1 + h0)
            d_2h = (y[k + 2] - y[k - 2]) / (H1 + H0)
            # Richardson only where the two estimates already agree; at the
            # elbows of the curve the wide stencil is the worse one
            if abs(d_h - d_2h) <= 0.05 * abs(d_h) + 1e-12:
                return (4.0 * d_h - d_2h) / 3.0
            return d_h
    if k == 0:
        return (y[1] - y[0]) / (x[1] - x[0])
    if k == n - 1:
        return (y[-1] - y[-2]) / (x[-1] - x[-2])
    h1 = x[k + 1] - x[k]
    h0 = x[k] - x[k - 1]
    return (h0 * h0 * y[k + 1] + (h1 * h1 - h0 * h0) * y[k]
            - h1 * h1 * y[k - 1]) / (h0 * h1 * (h0 + h1))


def spectrum(curve: FreeEnergyCurve) -> SpectrumCurve:
    """Parametric spectrum f(alpha(beta)) = t(beta) + beta alpha(beta).

    Requires convexity of the sampled curve (NotConvex otherwise); the
    stronger free-energy invariants (strict decrease, domain bound) are
    validated where the curve is produced, so synthetic convex curves can
    be transformed too.
    """
    check_convex(curve.t, curve.betas)
    b = curve.betas
    alphas = alpha_values(curve)
    f = curve.t + b * alphas
    use_r = np.all(np.isfinite(curve.r))
    if use_r:
        # identical algebra with the affine part cancelled exactly:
        # f = 1/2 + r - beta * dr/dbeta on the shifted representation
        drd = np.array([_local_slope(b, curve.r, k) for k in range(len(b))])
        f_left = 0.5 + curve.r - b * drd
        f = np.where(b < -2.0, f_left, f)
    f = np.maximum(f, 0.0)

    order = np.argsort(alphas)
    alphas_s = alphas[order]
    f_s = f[order]
    betas_s = b[order]
    resid = curve.residuals[order]

    k0 = int(np.argmin(np.abs(b)))
    alpha0 = alphas[k0]
    return SpectrumCurve(alphas_s, f_s, betas_s, resid, alpha0,
                         float(f_s[0]), float(f_s[-1]))


@dataclass(frozen=True)
class EndpointSlopes:
    """One-sided slope data at the spectrum endpoints.

    ``left_quotient``/``right_quotient`` are the steepest difference
    quotients over resolvable extreme cells.  The quotients saturate near
    |beta| ~ 25: the alpha increments shrink like exp(-c|beta|), so cells
    beyond the floating-point resolution collapse to zero width, and no
    double-precision sample can exhibit a quotient anywhere near the true
    divergence.  ``left_parametric``/``right_parametric`` therefore report
    the Legendre-dual slope f'(alpha) = beta at the extreme samples, with
    ``trend`` lists showing monotone growth as the grid refines toward the
    endpoint; ``diverging`` flags parametric magnitudes beyond 1e3 that
    grow under refinement.
    """

    left_quotient: float
    right_quotient: float
    left_parametric: float
    right_parametric: float
    left_trend: tuple
    right_trend: tuple

    @property
    def diverging(self) -> tuple:
        def check(trend):
            ok = len(trend) >= 2 and abs(trend[-1]) > 1e3
            ok = ok and all(abs(a) < abs(b) for a, b in zip(trend, trend[1:]))
            return ok
        return check(self.left_trend), check(self.right_trend)


def endpoint_slopes(curve: SpectrumCurve, refinements: int = 4,
                    lo: float = 0.0, hi: float = 1.0) -> EndpointSlopes:
    """Endpoint slope estimates; needs the grid within 0.02 of lo and hi."""
    a, f, bs = curve.alphas, curve.f, curve.beta_source
    if a[0] > lo + 0.02 or a[-1] < hi - 0.02:
        raise InsufficientGridReach(
            "alpha grid [%g, %g] does not reach [%g, %g]"
            % (a[0], a[-1], lo, hi))
    # steepest difference quotient over resolvable extreme cells; samples
    # beyond the resolution wall collapse to zero-width cells and are
    # skipped (this is why the quotients saturate near |beta| ~ 25)
    lq = 0.0
    for k in range(1, len(a)):
        if a[k] - a[0] > 1e-12:
            lq = (f[k] - f[0]) / (a[k] - a[0])
            break
    rq = 0.0
    for k in range(2, len(a) + 1):
        if a[-1] - a[-k] > 1e-12:
            rq = (f[-1] - f[-k]) / (a[-1] - a[-k])
            break
    # parametric slopes f'(alpha) = beta at the extreme samples; the trend
    # follows the extension ladder toward each endpoint
    pos = np.sort(bs[bs > 0.0])
    neg = np.sort(np.abs(bs[bs < 0.0]))
    left_trend = tuple(float(x) for x in pos[-refinements:])
    right_trend = tuple(-float(x) for x in neg[-refinements:])
    return EndpointSlopes(lq, rq,
                          float(pos[-1]) if len(pos) else 0.0,
                          -float(neg[-1]) if len(neg) else 0.0,
                          left_trend, right_trend)


def alpha_range(curve: FreeEnergyCurve) -> tuple:
    """(inf, sup) of -t' over the sampled grid, endpoint-extrapolated."""
    alphas = alpha_values(curve)
    return float(alphas.min()), float(alphas.max())
