"""Pressure engine on finitely-irreducible edge shifts and the free energy.

In the weighted operator M[e, f] = A(e, f) exp(t zeta(e) + beta psi(e))
the admissibility A compares two-symbol overlap keys only: edge e can be
followed by f exactly when out(e) = in(f).  Since the weights are
letter-local, the nonzero spectrum of M coincides with that of the
key-by-key matrix B[i, j] = sum of w(e) over the edges with in(e) = i and
out(e) = j, so the pressure is log rho(B), one eigensolve of an
n_keys x n_keys matrix however many letters the truncation keeps.

Fuchsian instances carry their letter families, so the infinite parabolic
exponent range is handled by an exact lump per family: all letters of a
family share both overlap keys, hence replacing the ones beyond the cap
by a single pseudo-edge with the summed weight changes nothing about the
spectral radius except the accuracy of the summed tail, which combines
exact vectorized weights up to an extension range with an analytic
Euler-Maclaurin zeta tail beyond.  Root finding for t(beta) happens in
the shifted variable r = t - (1/2 - beta); the analytic tail keeps r
alive even when it is far below the floating-point resolution of t
itself, which is what the left asymptote needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NoSignChange

LOG_EPS = -745.0  # below this, exp underflows to zero


def _logsumexp(arr) -> float:
    arr = np.asarray(arr, dtype=float)
    arr = arr[np.isfinite(arr)]
    if arr.size == 0:
        return -math.inf
    m = arr.max()
    return float(m + math.log(np.exp(arr - m).sum()))


def log_zeta_tail(s_minus_1: float, m: int) -> float:
    """log sum_{n > m} n^{-s} by Euler-Maclaurin, parametrized by s - 1.

    Terms: m1^{1-s}/(s-1) + m1^{-s}/2 + s m1^{-s-1}/12 with m1 = m+1;
    accurate to O(s^3 m1^{-s-3}) relative.  Taking s - 1 directly keeps the
    formula meaningful when the shifted root r = (s-1)/2 sits far below
    the floating-point resolution of t = 1/2 - beta + r itself.
    """
    if s_minus_1 <= 0.0:
        return math.inf
    s = 1.0 + s_minus_1
    u = math.log(m + 1)
    terms = [
        -s_minus_1 * u - math.log(s_minus_1),
        -s * u - math.log(2.0),
        math.log(s / 12.0) - (s + 1.0) * u,
    ]
    return _logsumexp(terms)


@dataclass
class TailData:
    """Vectorized analytic tails: one pseudo-edge per family/out-bucket.

    ``zeta`` holds exact letter weights for the explicit extension range
    cap+1 .. cap+ext per pseudo-edge; beyond that the envelope constant
    ``c_env`` feeds the Euler-Maclaurin zeta tail.  Everything here is
    (t, beta)-independent, so a pressure call reduces to one broadcast.
    """

    in_keys: np.ndarray
    out_keys: np.ndarray
    zeta: np.ndarray   # (n_tails, ext)
    c_env: np.ndarray  # (n_tails,)
    psi: np.ndarray    # (ext,)
    m_end: int         # cap + ext
    log_mult: np.ndarray = None  # additive log constant per tail row

    def log_weights(self, t: float, beta: float, r: float = None) -> np.ndarray:
        s_minus_1 = 2.0 * r if r is not None else 2.0 * (t + beta) - 1.0
        n_tails = len(self.in_keys)
        if s_minus_1 <= 0.0:
            return np.full(n_tails, math.inf)
        lw = t * self.zeta + beta * self.psi
        analytic = -t * self.c_env + log_zeta_tail(s_minus_1, self.m_end) \
            - 2.0 * beta * math.log1p(-1.0 / (self.m_end + 1))
        m = np.maximum(lw.max(axis=1), analytic)
        out = m + np.log(np.exp(lw - m[:, None]).sum(axis=1)
                         + np.exp(analytic - m))
        if self.log_mult is not None:
            out = out + self.log_mult
        return out


@dataclass
class GdmsSystem:
    """Truncated edge shift with factorized incidence and edge potentials."""

    name: str
    n_keys: int
    in_keys: np.ndarray
    out_keys: np.ndarray
    zeta: np.ndarray
    psi: np.ndarray
    log_mult: np.ndarray = None  # additive log constant (quadrature weights)
    edge_labels: list = None
    letter_ids: np.ndarray = None  # edge -> underlying letter (bucket copies)
    n_letters: int = None
    tails: "TailData" = None  # analytic exponent tails for Fuchsian caps
    cap: int = None
    fuchsian: bool = False
    # cell in_key * n_keys + out_key of the key matrix, for the edges
    # followed by the tail pseudo-edges
    flat_keys: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.log_mult is None:
            self.log_mult = np.zeros(len(self.zeta))
        if self.letter_ids is None:
            self.letter_ids = np.arange(len(self.zeta))
        if self.n_letters is None:
            self.n_letters = len(self.zeta)
        flat = [self.in_keys * self.n_keys + self.out_keys]
        if self.tails is not None:
            flat.append(self.tails.in_keys * self.n_keys + self.tails.out_keys)
        self.flat_keys = np.concatenate(flat)

    @property
    def n_edges(self) -> int:
        return len(self.zeta)

    def divergence_abscissa(self, beta: float):
        """Analytic divergence threshold in t (Fuchsian: 1/2 - beta)."""
        return 0.5 - beta if self.fuchsian else None


def finiteness_threshold(sys: GdmsSystem, beta: float) -> float:
    t0 = sys.divergence_abscissa(beta)
    if t0 is None:
        raise ValueError("finiteness threshold defined for Fuchsian instances only")
    return t0


@dataclass(frozen=True)
class PressureResult:
    value: float
    letter_series: float  # log of the one-letter weight series (with tail)
    cap: int
    tail_used: bool

    @property
    def finite(self) -> bool:
        return math.isfinite(self.value)


def pressure(sys: GdmsSystem, t: float, beta: float, tail: bool = True,
             r: float = None) -> PressureResult:
    """log spectral radius of the truncated weighted transfer operator.

    The edge weights are summed into the key-by-key matrix, which has the
    same nonzero spectrum as the letter-level operator, and its dominant
    eigenvalue is taken from a full eigensolve; that stays robust when
    near-critical tail weights make the dominant eigenvalue nearly
    degenerate.  With ``tail=True`` each Fuchsian letter family gets one
    pseudo-edge carrying the exact summed weight of its whole exponent
    tail; the result is flagged infinite when the untruncated letter
    series diverges, i.e. t + beta <= 1/2 (or r <= 0 when the shifted
    variable r = t - (1/2 - beta) is given).
    """
    cap = sys.cap or 0
    t0 = sys.divergence_abscissa(beta)
    diverged = (r <= 0.0) if r is not None else (t0 is not None and t <= t0)
    if tail and t0 is not None and diverged:
        return PressureResult(math.inf, math.inf, cap, tail)

    lw = t * sys.zeta + beta * sys.psi + sys.log_mult
    flat = sys.flat_keys[:sys.n_edges]
    if tail and sys.tails is not None:
        lw = np.concatenate([lw, sys.tails.log_weights(t, beta, r=r)])
        flat = sys.flat_keys
    series = _logsumexp(lw)
    scale = float(lw.max()) if len(lw) else 0.0
    if not math.isfinite(scale):
        # every weight zero: empty operator; otherwise a weight diverged
        value = -math.inf if scale == -math.inf else math.inf
        return PressureResult(value, series, cap, tail)
    n = sys.n_keys
    b = np.bincount(flat, weights=np.exp(np.maximum(lw - scale, LOG_EPS)),
                    minlength=n * n).reshape(n, n)
    rho = max(abs(np.linalg.eigvals(b)))
    value = scale + math.log(rho) if rho > 0 else -math.inf
    return PressureResult(value, series, cap, tail)


def partition_sum(sys: GdmsSystem, t: float, beta: float, n: int) -> float:
    """log sum over admissible n-edge paths of the product of edge weights.

    Direct oracle, usable for small n; no tail pseudo-edges.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    lw = t * sys.zeta + beta * sys.psi + sys.log_mult
    scale = float(lw.max())
    w = np.exp(lw - scale)
    u = w.copy()
    log_acc = scale
    for _ in range(n - 1):
        s = np.bincount(sys.out_keys, weights=u, minlength=sys.n_keys)
        u = w * s[sys.in_keys]
        norm = u.sum()
        u /= norm
        log_acc += math.log(norm) + scale
    # after normalizations, add back the mass of the current vector
    return log_acc + math.log(u.sum()) if n > 1 else scale + math.log(w.sum())


def block_word_geometry(pres, n: int, cap: int):
    """(displacement, sum log+ winding) over all admissible n-block words.

    Direct enumeration with parabolic exponents <= cap; the independent
    oracle behind the partition sums Z_n, free of any induced-letter or
    transfer-operator machinery.
    """
    from .coding import log_plus
    from .mobius import BASE_POINT, apply_plane, compose, hyperbolic_distance, power

    dists, winds = [], []

    def rec(prev, depth, mat, wsum):
        if depth == n:
            q = apply_plane(mat, BASE_POINT)
            dists.append(hyperbolic_distance(q, BASE_POINT))
            winds.append(wsum)
            return
        for label in pres.labels():
            if prev is not None and not pres.block_admissible(prev, label):
                continue
            gen = pres.gen(label)
            if gen.is_parabolic():
                for exp in range(1, cap + 1):
                    rec(label, depth + 1, compose(mat, power(gen.map, exp)),
                        wsum + log_plus(exp - 1))
            else:
                rec(label, depth + 1, compose(mat, gen.map), wsum)

    from .mobius import MobiusMap

    rec(None, 0, MobiusMap.identity(), 0.0)
    return np.array(dists), np.array(winds)


def block_partition_sum(pres, t: float, beta: float, n: int, cap: int,
                        geometry=None) -> float:
    """Z_n = log sum over n-block words of exp(-t d - 2 beta sum log+ a)."""
    d, w = geometry if geometry is not None else block_word_geometry(pres, n, cap)
    return _logsumexp(-t * d - 2.0 * beta * w)


@dataclass(frozen=True)
class FreeEnergyPoint:
    beta: float
    t: float
    r: float  # t - (1/2 - beta) for Fuchsian systems, else nan
    residual: float
    cap: int
    pressure_calls: int


def free_energy(sys: GdmsSystem, beta: float, tol: float = 1e-8,
                tail: bool = True) -> FreeEnergyPoint:
    """Unique root of t -> pressure(t, beta); bisection then secant.

    Fuchsian systems are solved in the shifted variable r = t - (1/2-beta)
    on a log grid, which resolves roots exponentially close to the
    divergence threshold; finite systems (and ``tail=False``) are solved
    in t directly.  The secant polish stops once |pressure| <= ``tol``.
    """
    t0 = sys.divergence_abscissa(beta)
    calls = [0]

    if t0 is None or not tail:
        def press_t(t):
            calls[0] += 1
            return pressure(sys, t, beta, tail=tail).value

        t_root, resid = _root_in_t(press_t, t0, tol)
        r = t_root - t0 if t0 is not None else math.nan
        return FreeEnergyPoint(beta, t_root, r, resid, sys.cap or 0, calls[0])

    def press_r(r):
        calls[0] += 1
        return pressure(sys, t0 + r, beta, tail=tail, r=r).value

    r_root, resid = _root_in_log_r(press_r, tol)
    return FreeEnergyPoint(beta, t0 + r_root, r_root, resid, sys.cap or 0,
                           calls[0])


def _root_in_t(press, t_lo_hint, tol: float = 1e-8):
    """Plain decreasing-function root in t with bracket expansion."""
    t_lo = t_lo_hint + 1e-6 if t_lo_hint is not None else -2.0
    t_hi = (t_lo_hint if t_lo_hint is not None else 0.0) + 2.0
    p_hi = press(t_hi)
    grow = 0
    while p_hi > 0.0:
        t_hi = t_hi + 2.0 ** (grow + 1)
        p_hi = press(t_hi)
        grow += 1
        if grow > 40:
            raise NoSignChange("pressure stayed positive up to t=%r" % t_hi)
    p_lo = press(t_lo)
    shrink = 0
    while p_lo < 0.0:
        if t_lo_hint is not None:
            # root pinched against the threshold by truncation
            return t_lo, abs(p_lo)
        t_lo -= 2.0 ** (shrink + 1)
        p_lo = press(t_lo)
        shrink += 1
        if shrink > 40:
            raise NoSignChange("pressure stayed negative down to t=%r" % t_lo)
    # bisection to width 1e-4, then secant polish
    while t_hi - t_lo > 1e-4:
        mid = 0.5 * (t_lo + t_hi)
        if press(mid) > 0.0:
            t_lo = mid
        else:
            t_hi = mid
    a, b = t_lo, t_hi
    fa, fb = press(a), press(b)
    for _ in range(60):
        if abs(fb) <= tol:
            return b, abs(fb)
        if fb == fa:
            break
        c = b - fb * (b - a) / (fb - fa)
        if not (min(a, b) - 1e-3 <= c <= max(a, b) + 1e-3):
            c = 0.5 * (a + b)
        fc = press(c)
        a, fa, b, fb = b, fb, c, fc
    return b, abs(fb)


def _root_in_log_r(press_r, tol: float = 1e-8):
    """Root of a decreasing pressure in r > 0, bisecting log r first."""
    lo = -700.0
    hi = math.log(4.0)
    p_hi = press_r(math.exp(hi))
    grow = 0
    while p_hi > 0.0:
        hi += math.log(4.0)
        p_hi = press_r(math.exp(hi))
        grow += 1
        if grow > 40:
            raise NoSignChange("pressure positive up to r=%r" % math.exp(hi))
    p_lo = press_r(math.exp(lo))
    if p_lo < 0.0:
        # numerically indistinguishable from the threshold root
        return math.exp(lo), abs(p_lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if press_r(math.exp(mid)) > 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-13:
            break
    a, b = lo, hi
    fa, fb = press_r(math.exp(a)), press_r(math.exp(b))
    for _ in range(60):
        if abs(fb) <= tol:
            return math.exp(b), abs(fb)
        if fb == fa:
            break
        c = b - fb * (b - a) / (fb - fa)
        if not (min(a, b) - 1.0 <= c <= max(a, b) + 1.0):
            c = 0.5 * (a + b)
        fc = press_r(math.exp(c))
        a, fa, b, fb = b, fb, c, fc
    return math.exp(b), abs(fb)


@dataclass
class FreeEnergyCurve:
    """Sampled free energy t(beta) with the shifted values r(beta).

    Invariants (validated): strictly decreasing in beta, convex, and
    t > 1/2 - beta wherever the shifted root resolves.
    """

    betas: np.ndarray
    t: np.ndarray
    r: np.ndarray
    residuals: np.ndarray
    cap: int
    name: str = ""

    def validate(self, noise: float = 1e-6):
        db = np.diff(self.betas)
        dt = np.diff(self.t)
        # strict decrease up to solver noise: deep in the right tail the
        # true decrements fall below the root-finder residual scale
        floor = 1e-9 * np.maximum(1.0, np.abs(self.t[:-1]))
        if not np.all(dt < floor):
            raise ValueError("free energy curve is not decreasing")
        if not np.all(dt[dt < -10.0 * floor] < 0.0):
            raise ValueError("free energy curve has resolvable increases")
        slopes = dt / db
        if not np.all(np.diff(slopes) >= -noise):
            raise ValueError("free energy curve is not convex")
        if np.any(self.r < 0.0):
            raise ValueError("free energy below the divergence threshold")
        return True


def free_energy_curve(sys: GdmsSystem, betas, tol: float = 1e-8) -> FreeEnergyCurve:
    betas = np.asarray(sorted(betas), dtype=float)
    t_vals, r_vals, resid = [], [], []
    for b in betas:
        pt = free_energy(sys, float(b), tol=tol)
        t_vals.append(pt.t)
        r_vals.append(pt.r)
        resid.append(pt.residual)
    return FreeEnergyCurve(betas, np.array(t_vals), np.array(r_vals),
                           np.array(resid), sys.cap or 0, sys.name)


def delta_c(pres, tol: float = 1e-8) -> FreeEnergyPoint:
    """Dimension of the bounded-winding subset: root of the restricted
    pressure over the sub-alphabet with parabolic exponent <= 2 plus all
    hyperbolic letters (a finite system, so no truncation enters)."""
    from .induced import fuchsian_system

    restricted = fuchsian_system(pres, 2, restricted=True)
    return free_energy(restricted, 0.0, tail=False, tol=tol)


def delta(pres, cap: int = 400, tol: float = 1e-8) -> FreeEnergyPoint:
    """Poincare exponent = limit-set dimension: t(0) of the full system."""
    from .induced import fuchsian_system

    return free_energy(fuchsian_system(pres, cap), 0.0, tol=tol)


def left_asymptote_check(sys: GdmsSystem, beta: float, eps: float) -> bool:
    """Lemma band 1/2 - beta < t(beta) < 1/2 - beta + eps/2 for beta << 0."""
    if beta > -10.0:
        raise ValueError("asymptotic band is asserted for beta <= -10 only")
    pt = free_energy(sys, beta)
    return 0.0 < pt.r < 0.5 * eps


def letter_series_log(sys: GdmsSystem, t: float, beta: float) -> float:
    """log of the truncated one-letter weight series (divergence probe).

    The finiteness lemma characterizes P < oo by convergence of exactly
    this series over the full alphabet; sweeping the truncation cap at
    fixed t exposes the divergence side empirically.  Bucket copies of a
    letter contribute their supremum, matching the sup-over-cylinder
    flavor of the series.
    """
    lw = t * sys.zeta + beta * sys.psi + sys.log_mult
    per_letter = np.full(sys.n_letters, -np.inf)
    np.maximum.at(per_letter, sys.letter_ids, lw)
    return _logsumexp(per_letter)
