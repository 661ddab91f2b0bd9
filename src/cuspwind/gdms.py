"""Pressure engine on finitely-irreducible edge shifts and the free energy.

In the weighted operator M[e, f] = A(e, f) exp(t zeta(e) + beta psi(e))
the admissibility A compares two-symbol overlap keys only: edge e can be
followed by f exactly when out(e) = in(f).  Since the weights are
letter-local, the nonzero spectrum of M coincides with that of the
key-by-key matrix B[i, j] = sum of w(e) over the edges with in(e) = i and
out(e) = j, so the pressure is log rho(B) however many letters the
truncation keeps.  The key graph has a period p (2 on the free products
of parabolics, where keys with core a/A only lead to keys with core b/B
and back), its keys fall into p cyclic classes, and B maps each class to
the next.  Hence rho(B)^p = rho(B_01 B_12 ... B_(p-1)0), and the pressure
is one eigensolve of that normalised block product, whose size is that
of one class (n_keys / p on both presets).  Where the product lost to
underflow entries that rho depends on, the whole matrix is solved.

Fuchsian instances carry the tails of their letter families, so the
infinite parabolic exponent range is handled by an exact lump per family:
all letters of a family share both overlap keys, hence replacing the ones
beyond the cap by a single pseudo-edge with the summed weight changes
nothing about the spectral radius except the accuracy of the summed tail.
One rule sums it (``tail_log_weights``): midpoint Euler-Maclaurin with
the integral taken by a Gauss-Jacobi rule in u = 1/n, which matches
direct summation to 1e-14 of a family's total weight.  A system with tails diverges at
t = 1/2 - beta, where the pressure is +inf; ``pressure`` returns the one
number P(t, beta) = log rho(B) as a float.

The letters are stored as blocks (``LetterBlock``): a (rows x exponents)
array of zeta, psi per exponent, and the runs of consecutive exponents
that enter the same key.  Everything but the weights is fixed when the
system is built, so B is built in one pass over one work array per block:
the exponents t zeta + beta psi, updated in place, share one maximum with
the tail log-weights, are floored ``LOG_FLOOR`` below it and
exponentiated, summed over each run, and the (rows x runs) sums and the
tail weights go into B by one small ``np.bincount``.

t(beta) is the unique zero of the decreasing map t -> P(t, beta).
Fuchsian systems are solved in log r with r = t - (1/2 - beta); the
analytic tail keeps r alive even when it is far below the floating-point
resolution of t itself, which is what the left asymptote needs.  One
bracket search, from a start point and with steps growing 4-fold against
the sign of P, finds a sign change that Brent's method closes.  Along a
beta grid (``free_energy_curve``) the search is a continuation: every
root after the first starts from a guess predicted from the roots before
it, which halves the pressure calls of a spectrum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidCurve, NoSignChange

# Every weight exponent is floored this far below the largest one.  The
# floor keeps the key matrix irreducible: without it the weights of whole
# key classes underflow to zero at large |beta| near the threshold and P
# drops to -inf.  e^-700 is a normal double, so no subnormal ever reaches
# exp or the run sums, where subnormals cost ~100x per value.
LOG_FLOOR = -700.0


@dataclass
class LetterBlock:
    """Letters stored as a (rows x m) array of weights ``zeta``, with
    ``psi`` one value per column (it depends on the exponent only).

    The columns fall into runs of consecutive exponents that enter the
    same key: ``starts`` holds the first column of each run, and
    ``cells[i, j]`` the key-matrix cell in_key * n_keys + out_key of the
    letters of row i in run j.
    """

    zeta: np.ndarray  # (rows, m)
    psi: np.ndarray  # (m,)
    starts: np.ndarray  # (runs,)
    cells: np.ndarray  # (rows, runs)


@dataclass
class TailData:
    """The exponent tails n > ``start`` of the parabolic letter families:
    one pseudo-edge per family, follower bucket and quadrature point, which
    enters the key-matrix cell ``cells[i]`` (in_key * n_keys + out_key, the
    tail key of its family and the out key of its row).

    Row (p0, p1, r0, r1, log(1 + x^2)) of ``rows`` gives the weights
    zeta_n = log(1 + x^2) - log((p0 + k p1)^2 + (r0 + k r1)^2), k = n - 1,
    of its pseudo-edge's letters (``induced.LetterFamily.row``); with
    psi_n = -2 log k, ``tail_log_weights`` sums them for given (t, beta).
    """

    cells: np.ndarray
    rows: np.ndarray  # (n_tails, 5)
    start: int


# Gauss-Jacobi nodes of the tail integral.  g is analytic well beyond the
# unit interval (its nearest singularity, u = 1, sits at v = start + 1/2),
# so few nodes suffice: 8 already give every tail row of both presets to
# <= 1e-14 of its family total at the roots for beta in {-8, -3, -1, 0, 3},
# and t(beta) at the CLI's 45 default betas to 7e-16 of 32 nodes.  16 keep
# a factor-2 margin.
TAIL_NODES = 16


def _gauss_jacobi(two_r: float):
    """Nodes in [0, 1] and normalized weights (summing to 1) of the
    TAIL_NODES-point Gauss rule for the weight v^(2r - 1) on [0, 1].

    Golub-Welsch on the Jacobi matrix of P^(0, lam), lam = 2r - 1, mapped
    to [0, 1]: diagonal 2r / (1 + 2r), then 1/2 + lam^2 / (2 m (m + 2)),
    and off-diagonal n (n + lam) / (m sqrt((m + 1) (m - 1))), with
    m = 2n + lam for n = 1, 2, ...  The first entries carry the factor
    n + lam = m - 1 = 2r at n = 1; it is passed in directly, never formed
    as lam + 1, so the rule keeps its node near 0 for r down to e^-700,
    where lam rounds to -1.
    """
    lam = two_r - 1.0
    n = np.arange(1.0, TAIL_NODES)
    nl = n + lam
    nl[0] = two_r  # n + lam at n = 1, exactly
    m = n + nl
    diag = np.append(two_r / (1.0 + two_r),
                     0.5 + 0.5 * lam * lam / (m * (m + 2.0)))
    off = n * nl / (m * np.sqrt((m + 1.0) * (n - 1.0 + nl)))
    # eigh reads the lower triangle only
    nodes, vecs = np.linalg.eigh(np.diag(diag) + np.diag(off, -1))
    return nodes, vecs[0] ** 2


def tail_log_weights(tails: TailData, t: float, beta: float,
                     two_r: float) -> np.ndarray:
    """log sum_{n > start} exp(t zeta_n + beta psi_n) for each tail row.

    Midpoint Euler-Maclaurin from X = start + 1/2: the sum is the integral
    of F(n) = exp(t zeta_n + beta psi_n) over [X, oo) plus F'(X)/24 -
    7 F'''(X)/5760.  With s = 2t + 2 beta = 1 + 2r and u = 1/n, F(n) =
    n^-s g(u), where g(u) = exp(t log(1 + x^2) - 2t log|w1 + u (w0 - w1)| -
    2 beta log(1 - u)) with w0 = p0 + i r0 and w1 = p1 + i r1; so g is
    smooth, and the integral is X^-2r times that of v^(2r - 1) g(v / X)
    over [0, 1], a Gauss-Jacobi rule.  2r is passed in, not derived from t, which keeps the weights
    resolvable down to r = e^-700.  Where the signed corrections outweigh
    the integral (s / X large, the tail far below every other weight) the
    row gets a log-weight 708 below its terms, which ``pressure`` floors.
    """
    p0, p1, r0, r1, lx = tails.rows.T
    w0, w1 = p0 + 1j * r0, p1 + 1j * r1
    x = tails.start + 0.5
    k = x - 1.0
    nodes, weights = _gauss_jacobi(two_r)
    u = nodes / x
    lg = (t * (lx[:, None] - 2.0 * np.log(np.abs(
        w1[:, None] + np.outer(w0 - w1, u)))) - 2.0 * beta * np.log1p(-u))
    top = lg.max(axis=1)
    log_int = (top + np.log(np.exp(lg - top[:, None]) @ weights)
               - two_r * math.log(x) - math.log(two_r))
    # (d/dn)^j log F at X: (-1)^j (j-1)! 2 (t Re om^j + beta / k^j) with
    # om = w1 / (w0 + k w1)
    om = w1 / (w0 + k * w1)
    d1, d2, d3 = (2.0 * (-1) ** j * math.factorial(j - 1)
                  * (t * (om ** j).real + beta / k ** j) for j in (1, 2, 3))
    corr = d1 / 24.0 - 7.0 * (d3 + 3.0 * d1 * d2 + d1 ** 3) / 5760.0
    log_f = t * (lx - 2.0 * np.log(np.abs(w0 + k * w1))) \
        - 2.0 * beta * math.log(k)
    top = np.maximum(log_int, log_f)
    total = np.exp(log_int - top) + np.exp(log_f - top) * corr
    return top + np.log(np.maximum(total, np.finfo(float).tiny))


@dataclass
class GdmsSystem:
    """Truncated edge shift whose letters are stored as ``LetterBlock``s.

    Fuchsian instances carry ``tails``, the analytic exponent tails of
    their parabolic letter families; finite systems (the delta_c
    alphabet, synthetic test shifts) have none.
    """

    n_keys: int
    blocks: list  # LetterBlock
    log_mult: float = 0.0  # additive log constant of every weight (quadrature)
    tails: "TailData" = None  # analytic exponent tails for Fuchsian caps
    # the keys of each cyclic class of the key graph (``cyclic_classes``),
    # set by the first ``pressure`` call that builds the key matrix
    classes: list = field(init=False, default=None, repr=False,
                          compare=False)

    @property
    def n_edges(self) -> int:
        return sum(block.zeta.size for block in self.blocks)

    def divergence_abscissa(self, beta: float):
        """Analytic divergence threshold in t: 1/2 - beta when the system
        carries the parabolic tails, else None (finite series)."""
        return 0.5 - beta if self.tails is not None else None


def cyclic_classes(pattern: np.ndarray) -> list:
    """The keys of each cyclic class of the graph with adjacency
    ``pattern``: every edge runs from class k to class k + 1 mod p.

    Each weakly connected component gets BFS potentials, +1 along an edge
    and -1 against it; the period p is the gcd of pot(i) + 1 - pot(j) over
    all edges i -> j (1 when that gcd is 0, as on a graph without a
    directed cycle), and a key's class is pot mod p.
    """
    n = len(pattern)
    src, dst = np.nonzero(pattern)
    nbrs = [[] for _ in range(n)]
    for i, j in zip(src.tolist(), dst.tolist()):
        nbrs[i].append((j, 1))
        nbrs[j].append((i, -1))
    pot = [None] * n
    for root in range(n):
        if pot[root] is None:
            pot[root] = 0
            queue = [root]
            for i in queue:
                for j, d in nbrs[i]:
                    if pot[j] is None:
                        pot[j] = pot[i] + d
                        queue.append(j)
    pot = np.array(pot, dtype=np.int64)
    p = int(np.gcd.reduce(pot[src] + 1 - pot[dst])) or 1
    return [np.flatnonzero(pot % p == k) for k in range(p)]


def pressure(sys: GdmsSystem, t: float, beta: float, r: float = None) -> float:
    """log spectral radius of the truncated weighted transfer operator.

    The edge weights are summed into the key-by-key matrix B, which has
    the same nonzero spectrum as the letter-level operator.  B maps each
    of the p cyclic classes of the key graph (``sys.classes``) to the
    next, so rho(B)^p is the spectral radius of the product of its p
    blocks B_(k, k+1); with one class (p = 1) that block is B itself, and
    B is solved directly.  Each block is divided by its largest entry before
    the product and the running product by its largest entry after each
    multiplication, with the logs of the divisors kept aside: the
    dominant cycle of a bipartite key graph at large |beta| alternates a
    weight 1 with the floor, and the plain product of such blocks sinks
    to subnormals.  Entries of the product that the key graph reaches but
    that still fall below the normal range are known only to lie in
    [0, tiny]; when rho changes by more than 1e-13 between the two ends,
    the product cannot resolve it and the whole matrix is solved (on
    charts where the entries of a block span 300 decades, the product of
    two blocks can lose every entry of its dominant cycle).  The dominant
    eigenvalue comes from a full eigensolve; that stays robust when
    near-critical tail weights make it nearly degenerate.

    When the system carries tails, each tail pseudo-edge weighs the sum of
    its family's letters beyond ``tails.start`` (``tail_log_weights``),
    and the pressure is +inf where the untruncated letter series
    diverges, i.e. t + beta <= 1/2 (or r <= 0 when the shifted variable
    r = t - (1/2 - beta) is given; the tail rule then takes 2r from r,
    not from t).  All weights share one scale, the largest exponent, and
    are floored ``LOG_FLOOR`` below it; ``log_mult`` enters once, in the
    returned value.  With no edge weight left the operator is empty and
    the pressure is -inf.
    """
    t0 = sys.divergence_abscissa(beta)
    if t0 is not None and ((r <= 0.0) if r is not None else t <= t0):
        return math.inf

    # one work array per block, updated in place from the exponents to
    # the weights
    work = []
    for block in sys.blocks:
        lw = np.multiply(block.zeta, t)
        lw += beta * block.psi
        work.append(lw)
    tail = []
    if sys.tails is not None:
        two_r = 2.0 * r if r is not None else 2.0 * (t + beta) - 1.0
        tail = [tail_log_weights(sys.tails, t, beta, two_r)]
    scale = max((float(lw.max()) for lw in work + tail if lw.size),
                default=0.0)
    if not math.isfinite(scale):
        # every weight zero: empty operator; otherwise a weight diverged
        return -math.inf if scale == -math.inf else math.inf
    cells, sums = [], []
    for block, lw in zip(sys.blocks, work):
        lw -= scale
        np.maximum(lw, LOG_FLOOR, out=lw)
        np.exp(lw, out=lw)
        cells.append(block.cells.ravel())
        sums.append(np.add.reduceat(lw, block.starts, axis=1).ravel())
    if tail:
        cells.append(sys.tails.cells)
        sums.append(np.exp(np.maximum(tail[0] - scale, LOG_FLOOR)))
    n = sys.n_keys
    b = np.bincount(np.concatenate(cells), weights=np.concatenate(sums),
                    minlength=n * n).reshape(n, n)
    if sys.classes is None:
        # every cell carries a weight >= e^LOG_FLOOR: b > 0 is the key graph
        sys.classes = cyclic_classes(b > 0)
    cls = sys.classes
    p = len(cls)
    log_top, rho = 0.0, None
    if p > 1:
        prod = None
        for k in range(p):
            m = b[cls[k]][:, cls[(k + 1) % p]]
            top = m.max()
            if prod is not None and top > 0.0:
                reach = reach @ (m > 0.0)
                m = prod @ (m / top)
                log_top += math.log(top)
                top = m.max()
            else:
                reach = m > 0.0
            if not top > 0.0:
                return -math.inf
            prod = m / top
            log_top += math.log(top)
        rho = _radius(prod)
        # reached entries below the normal range are known only to lie in
        # [0, tiny]; if rho moves with them, solve the whole matrix
        tiny = np.finfo(float).tiny
        lost = reach & (prod < tiny)
        if lost.any() and \
                _radius(np.where(lost, tiny, prod)) > rho * (1 + 1e-13):
            rho = None
    if rho is None:
        # one class (its only block is B itself), or a product that lost rho
        log_top, p, rho = 0.0, 1, _radius(b)
    if not rho > 0.0:
        return -math.inf
    return scale + sys.log_mult + (log_top + math.log(rho)) / p


def _radius(a: np.ndarray) -> float:
    return float(max(abs(np.linalg.eigvals(a))))


@dataclass(frozen=True)
class FreeEnergyPoint:
    beta: float
    t: float
    r: float  # t - (1/2 - beta) for Fuchsian systems, else nan
    err_t: float  # t-width of the final sign-changing bracket
    pressure_calls: int


# The search in x = log r stays in [-700, 41 log 4]: e^-700 is the
# smallest r kept (a normal double, like LOG_FLOOR) and r = 4^41 the
# largest, far beyond every root and below where the tail rule overflows.
X_MIN, X_MAX = -700.0, 41.0 * math.log(4.0)
SEARCH_MOVES = 40


def free_energy(sys: GdmsSystem, beta: float, guess: float = None
                ) -> FreeEnergyPoint:
    """Unique root of the decreasing map t -> pressure(t, beta).

    Fuchsian systems are solved in x = log r with r = t - (1/2 - beta),
    which resolves roots exponentially close to the divergence threshold;
    systems without a divergence abscissa are solved in x = t.  One
    bracket search starts at ``guess`` (an x predicted from neighbouring
    roots, as ``free_energy_curve`` does) or at x = 0, and moves against
    the sign of the pressure, first by 1e-4 max(1, |x|) after a guess or
    by 1 from x = 0, each move 4 times the last; upward moves are capped
    at max(log 4, |x|), so x at most doubles.  At the first sign change
    Brent's method closes the last two points to width 1e-13.  In log r
    the search is clipped to [X_MIN, X_MAX]; a pressure still negative at
    r = e^-700 pins the root there, numerically indistinguishable from the
    threshold.  ``err_t`` is the t-width of the final sign-changing
    bracket, e^-700 at a pinned root.  Where the pressure at the root is
    exactly 0 it is the t-width of the nearest nonzero pressures on either
    side, found by steps of 1e-13 + RTOL |x| growing 4-fold, since Brent's
    method stops at a zero however wide its bracket is then.
    """
    t0 = sys.divergence_abscissa(beta)
    seen = {}  # x -> pressure; the bracket ends are not evaluated twice

    def press(x):
        if x not in seen:
            if t0 is None:
                seen[x] = pressure(sys, x, beta)
            else:
                r = math.exp(x)
                seen[x] = pressure(sys, t0 + r, beta, r=r)
        return seen[x]

    lo, hi = (X_MIN, X_MAX) if t0 is not None else (-math.inf, math.inf)

    def nonzero_side(x, sign):
        step = 1e-13 + RTOL * abs(x)
        for _ in range(SEARCH_MOVES):
            if press(x + sign * step) != 0.0:
                return x + sign * step
            step *= 4.0
        return sign * math.inf

    def root(x):
        # err_t: the t-width of [y0, y1], from x to the nearest abscissa of
        # opposite sign or to r = 0 at the pinned root, or between the
        # nearest nonzero pressures around an exact zero
        p = seen[x]
        if p == 0.0:
            y0, y1 = nonzero_side(x, -1.0), nonzero_side(x, 1.0)
        elif p < 0.0 and x <= lo:
            y0, y1 = x, -math.inf
        else:
            y0, y1 = x, min((y for y, q in seen.items()
                             if (q > 0.0) != (p > 0.0)),
                            key=lambda y: abs(y - x))
        if t0 is None:
            t, r, err = x, math.nan, abs(y1 - y0)
        else:
            r = math.exp(x)
            t, err = t0 + r, abs(math.exp(y1) - math.exp(y0))
        return FreeEnergyPoint(beta, t, r, err, len(seen))

    x = 0.0 if guess is None else min(max(float(guess), lo), hi)
    step = 1.0 if guess is None else 1e-4 * max(1.0, abs(x))
    p = press(x)
    for _ in range(SEARCH_MOVES):
        if p == 0.0 or (p < 0.0 and x <= lo):
            return root(x)  # an exact root, or the pinned one
        if p > 0.0:
            if x >= hi:
                break
            nxt = min(x + min(step, max(math.log(4.0), abs(x))), hi)
        else:
            nxt = max(x - step, lo)
        q = press(nxt)
        if q == 0.0 or (q > 0.0) != (p > 0.0):
            return root(_brentq(press, x, nxt, xtol=1e-13))
        x, p = nxt, q
        step *= 4.0
    if t0 is not None:
        raise NoSignChange("pressure positive up to r=%r" % math.exp(x))
    raise NoSignChange("pressure stayed %s t=%r" % (
        "positive up to" if p > 0.0 else "negative down to", x))


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


# Slope decreases of t(beta) up to this size are root-finder noise, not a
# convexity violation (``spectrum`` applies the same floor to t and f).
CONVEXITY_NOISE = 1e-6


@dataclass
class FreeEnergyCurve:
    """Sampled free energy t(beta) with the shifted values r(beta), the
    t-width ``err_t`` of each root's final bracket and the pressure
    ``calls`` each root took.

    Invariants (validated): strictly decreasing in beta, convex, and
    t > 1/2 - beta wherever the shifted root resolves.
    """

    betas: np.ndarray
    t: np.ndarray
    r: np.ndarray
    err_t: np.ndarray
    calls: np.ndarray

    def validate(self):
        db = np.diff(self.betas)
        dt = np.diff(self.t)
        # strict decrease up to solver noise: deep in the right tail the
        # true decrements fall below the root-finder residual scale
        floor = 1e-9 * np.maximum(1.0, np.abs(self.t[:-1]))
        if not np.all(dt < floor):
            raise InvalidCurve("free energy curve is not decreasing")
        if not np.all(dt[dt < -10.0 * floor] < 0.0):
            raise InvalidCurve("free energy curve has resolvable increases")
        slopes = dt / db
        if not np.all(np.diff(slopes) >= -CONVEXITY_NOISE):
            raise InvalidCurve("free energy curve is not convex")
        if np.any(self.r < 0.0):
            raise InvalidCurve("free energy below the divergence threshold")
        return True


def free_energy_curve(sys: GdmsSystem, betas) -> FreeEnergyCurve:
    """t(beta) on the sorted betas by continuation: every root after the
    first starts its search from a guess predicted by the roots before it
    (``_predict``)."""
    betas = np.asarray(sorted(betas), dtype=float)
    pts = []
    for b in betas:
        pts.append(free_energy(sys, float(b), guess=_predict(sys, b, pts)))
    return FreeEnergyCurve(betas, np.array([p.t for p in pts]),
                           np.array([p.r for p in pts]),
                           np.array([p.err_t for p in pts]),
                           np.array([p.pressure_calls for p in pts]))


def _predict(sys: GdmsSystem, beta: float, pts: list):
    """Search start for ``beta`` from the roots ``pts`` solved at smaller
    betas: None (a cold start) for the first.  On the left branch (last
    r < 1e-3, where t is nearly 1/2 - beta) a linear extrapolation in beta
    of log r, or the last log r when it or the one before is pinned or
    when it is alone.  Everywhere else, and for finite systems, the last
    t: t decreases, so it bounds the root from above, where a linear
    extrapolation of the convex t bounds it from below and lands far
    below the root across the elbow of t(beta)."""
    if not pts:
        return None
    last, t0 = pts[-1], sys.divergence_abscissa(beta)
    if t0 is None:
        return last.t
    if last.r >= 1e-3:
        return math.log(last.t - t0)
    x_last = math.log(last.r)
    pinned = math.exp(X_MIN)
    if len(pts) < 2 or last.r <= pinned or pts[-2].r <= pinned:
        return x_last
    prev = pts[-2]
    s = (beta - last.beta) / (last.beta - prev.beta)
    return x_last + s * (x_last - math.log(prev.r))


def delta_c(pres) -> FreeEnergyPoint:
    """Dimension of the bounded-winding subset: root of the restricted
    pressure over the sub-alphabet with parabolic exponent <= 2 plus all
    hyperbolic letters (a finite system, so no truncation enters)."""
    from .induced import fuchsian_system

    restricted = fuchsian_system(pres, 2, restricted=True)
    return free_energy(restricted, 0.0)

