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
Euler-Maclaurin zeta tail beyond.  t(beta) is the unique zero of the
decreasing map t -> P(t, beta): one bracket, closed by Brent's method.
Fuchsian systems are solved in log r with r = t - (1/2 - beta); the
analytic tail keeps r alive even when it is far below the floating-point
resolution of t itself, which is what the left asymptote needs.
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


def free_energy(sys: GdmsSystem, beta: float) -> FreeEnergyPoint:
    """Unique root of the decreasing map t -> pressure(t, beta).

    Fuchsian systems are solved in x = log r with r = t - (1/2 - beta),
    which resolves roots exponentially close to the divergence threshold;
    systems without a divergence abscissa are solved in t.  A sign-changing
    bracket is grown first and Brent's method closes it to width 1e-13.
    ``residual`` is |pressure| at the returned root.
    """
    t0 = sys.divergence_abscissa(beta)
    seen = {}  # x -> pressure; the bracket ends are not evaluated twice

    def press(x):
        if x not in seen:
            if t0 is None:
                seen[x] = pressure(sys, x, beta).value
            else:
                r = math.exp(x)
                seen[x] = pressure(sys, t0 + r, beta, r=r).value
        return seen[x]

    if t0 is None:
        hi, ok = _expand(press, 2.0, 2.0, 2.0, lambda p: p <= 0.0)
        if not ok:
            raise NoSignChange("pressure stayed positive up to t=%r" % hi)
        lo, ok = _expand(press, -2.0, -2.0, 2.0, lambda p: p >= 0.0)
        if not ok:
            raise NoSignChange("pressure stayed negative down to t=%r" % lo)
    else:
        log4 = math.log(4.0)
        hi, ok = _expand(press, log4, log4, 1.0, lambda p: p <= 0.0)
        if not ok:
            raise NoSignChange("pressure positive up to r=%r" % math.exp(hi))
        lo = -700.0
    if t0 is not None and press(lo) < 0.0:
        # numerically indistinguishable from the threshold root
        x = lo
    else:
        x = _brentq(press, lo, hi, xtol=1e-13)
    if t0 is None:
        t, r = x, math.nan
    else:
        r = math.exp(x)
        t = t0 + r
    return FreeEnergyPoint(beta, t, r, abs(seen[x]), sys.cap or 0, len(seen))


def _expand(press, x, step, factor, stop):
    """Move x by step, scaling the step by factor after each move, until
    stop(press(x)) holds or 40 moves are made; returns (x, stopped)."""
    for _ in range(40):
        if stop(press(x)):
            return x, True
        x += step
        step *= factor
    return x, stop(press(x))


RTOL = 4.0 * float(np.finfo(float).eps)  # scipy.optimize.brentq's default


def _brentq(f, xa, xb, xtol):
    """Root of f in the sign-changing bracket [xa, xb] by Brent's method.

    The iteration of scipy.optimize.brentq, step for step (the tests
    compare the two); importing scipy.optimize alone would add ~50 MB to
    the resident size of a run and ~0.7 s to its start.  Returns the last
    abscissa evaluated once the bracket is narrower than
    xtol + RTOL * |x|.
    """
    xpre, xcur = xa, xb
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(100):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + RTOL * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # secant
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # inverse quadratic interpolation
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) \
                        / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:  # IEEE gives inf or nan: bisect
                stry = math.inf
            if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0.0 else -delta
        fcur = f(xcur)
    raise RuntimeError("Brent's method did not converge in 100 steps")


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


def free_energy_curve(sys: GdmsSystem, betas) -> FreeEnergyCurve:
    betas = np.asarray(sorted(betas), dtype=float)
    t_vals, r_vals, resid = [], [], []
    for b in betas:
        pt = free_energy(sys, float(b))
        t_vals.append(pt.t)
        r_vals.append(pt.r)
        resid.append(pt.residual)
    return FreeEnergyCurve(betas, np.array(t_vals), np.array(r_vals),
                           np.array(resid), sys.cap or 0, sys.name)


def delta_c(pres) -> FreeEnergyPoint:
    """Dimension of the bounded-winding subset: root of the restricted
    pressure over the sub-alphabet with parabolic exponent <= 2 plus all
    hyperbolic letters (a finite system, so no truncation enters)."""
    from .induced import fuchsian_system

    restricted = fuchsian_system(pres, 2, restricted=True)
    return free_energy(restricted, 0.0)


def delta(pres, cap: int = 400) -> FreeEnergyPoint:
    """Poincare exponent = limit-set dimension: t(0) of the full system."""
    from .induced import fuchsian_system

    return free_energy(fuchsian_system(pres, cap), 0.0)


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
