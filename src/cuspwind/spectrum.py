"""Legendre-transform machinery: f(alpha) from the free energy curve.

The spectrum is evaluated parametrically, f(alpha(beta)) = t(beta) +
beta*alpha(beta) with alpha = -t'; the tests check it against the direct
convex conjugate (``legendre`` in tests/oracles.py).  On the left tail
the derivative is taken on the shifted values r = t - (1/2 - beta), so
alpha = 1 - dr/dbeta comes out exact even where r is exponentially
small; without this the cancellation in t-differences would destroy the
endpoint behavior f -> 1/2.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidCurve, NotConvex
from .gdms import CONVEXITY_NOISE, FreeEnergyCurve


def check_convex(values: np.ndarray, grid: np.ndarray):
    slopes = np.diff(values) / np.diff(grid)
    bad = np.diff(slopes) < -CONVEXITY_NOISE
    if np.any(bad):
        raise NotConvex("convexity violated at %d interior nodes" % bad.sum())


class SpectrumCurve:
    """Sampled Hausdorff-dimension spectrum f(alpha).

    Samples run by decreasing ``beta_source``, the free energy parameter
    realizing each, which on a convex curve is increasing alpha; ``err_t``
    is the bracket width of its t(beta); ``alpha0`` is -t'(0), nan on a
    grid without beta = 0.  f[0] and f[-1] are the values nearest the
    endpoints alpha -> 0 and alpha -> 1.
    """

    def __init__(self, alphas: np.ndarray, f: np.ndarray,
                 beta_source: np.ndarray, err_t: np.ndarray, alpha0: float):
        self.alphas, self.f, self.beta_source = alphas, f, beta_source
        self.err_t, self.alpha0 = err_t, alpha0

    def validate(self):
        a, f = self.alphas, self.f
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(f))):
            raise InvalidCurve("non-finite alpha or spectrum values")
        if np.any(f < -1e-12):
            raise InvalidCurve("negative spectrum values")
        # f is the dimension of a subset of the circle
        if np.any(f > 1.0 + 1e-9):
            raise InvalidCurve("spectrum exceeds 1 by more than 1e-9")
        keep = np.concatenate([[True], np.diff(a) > 1e-12])
        aa, ff = a[keep], f[keep]
        slopes = np.diff(ff) / np.diff(aa)
        # violation measured in f units: slope increases weighted by the
        # smaller adjacent gap, so roundoff clusters cannot trip the check
        gaps = np.diff(aa)
        jumps = np.diff(slopes) * np.minimum(gaps[:-1], gaps[1:])
        if np.any(jumps > CONVEXITY_NOISE):
            raise InvalidCurve("spectrum is not concave on its grid")
        if np.any((a < -1e-9) | (a > 1.0 + 1e-9)):
            raise InvalidCurve("alpha grid escapes [0, 1] by more than 1e-9")
        return True


def _alpha_f(curve: FreeEnergyCurve) -> tuple:
    """(alpha, f) per sample: alpha = -t'(beta), f = t + beta alpha.

    Interior points on a uniform subgrid get the 4th-order Richardson
    derivative; everything else uses the three-point nonuniform formula.
    The left tail differentiates r instead of t, so alpha = 1 - dr/dbeta
    and f = 1/2 + r - beta dr/dbeta stay exact when r is below the
    resolution of t; a nan r (no divergence abscissa) takes the t branch.
    """
    b = curve.betas
    n = len(b)
    alphas, f = np.empty(n), np.empty(n)
    for k in range(n):
        if b[k] < -2.0 and math.isfinite(curve.r[k]):
            # left tail: differentiate the shifted values, the affine part
            # cancels exactly and the exponentially small r survives
            d = _local_slope(b, curve.r, k)
            alphas[k] = 1.0 - d
            f[k] = 0.5 + curve.r[k] - b[k] * d
        else:
            alphas[k] = -_local_slope(b, curve.t, k)
            f[k] = curve.t[k] + b[k] * alphas[k]
    return alphas, f


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

    Requires two or more strictly increasing betas, as ``free_energy_curve``
    returns them (InvalidCurve otherwise), and convexity of the sampled curve
    (NotConvex otherwise); the stronger free-energy invariants (strict
    decrease, domain bound) are validated where the curve is produced, so
    synthetic convex curves can be transformed too.
    """
    b = curve.betas
    if len(b) < 2 or not np.all(np.diff(b) > 0.0):
        raise InvalidCurve("need two or more strictly increasing betas")
    check_convex(curve.t, b)
    alphas, f = _alpha_f(curve)
    f = np.maximum(f, 0.0)

    # alpha0 = -t'(0) needs a sample at beta = 0, to the grid's rounding;
    # the slope at the beta nearest 0 would be another beta's alpha
    k0 = int(np.argmin(np.abs(b)))
    alpha0 = alphas[k0] if abs(b[k0]) <= 1e-9 * np.ptp(b) else math.nan
    # rows by decreasing beta: the increasing grid reversed
    return SpectrumCurve(alphas[::-1], f[::-1], b[::-1], curve.err_t[::-1],
                         alpha0)
