"""Reference implementations the tests compare the chain against.

Each computes a quantity of the chain a second way, by direct
enumeration, a closed form or plain summation, sharing as little code as
possible with what the command line runs: hyperbolic displacements and
mean windings of coded words, the induced letters one by one, the
truncated one-letter series, partition sums over paths and over block
words, and the discrete Legendre transform with the spectrum's endpoint
slopes, and the key matrix with every block's weights built in one whole
work array.  Next to them sit the helpers only tests need: equality of
maps up to sign, containment of arcs, induced letters as objects, a
family's midpoint vector, the key cell of every letter of a block, the
key graph of a system's cells, systems built from an edge list, systems
stripped of their tail columns and presentations stripped of their
symmetries, and a beta grid that reaches deep into both
asymptotes.  Nothing under ``src/`` imports them.
"""

import math
from dataclasses import dataclass

import numpy as np

from cuspwind.coding import (
    BlockWord,
    code_point,
    induced_step,
    letters_of_blocks,
    log_plus,
    point_from_symbols,
    random_block_word,
)
from cuspwind.errors import CuspwindError
from cuspwind.fuchsian import CircleInterval, GroupPresentation
from cuspwind.gdms import (
    LOG_FLOOR,
    GdmsSystem,
    LetterBlock,
    cyclic_classes,
    tail_log_weights,
)
from cuspwind.induced import letter_families
from cuspwind.mobius import (
    BASE_POINT,
    MobiusMap,
    apply_boundary,
    apply_plane,
    boundary_from_angle,
    compose,
    hyperbolic_distance,
    parabolic_power,
    unit_image,
)
from cuspwind.spectrum import SpectrumCurve, check_convex

# The default grid, -20 to 20 in steps of 1.25, with +-30, +-50, +-100,
# +-300, +-1000 and +-3000 added: 45 betas whose outer 12 hold pinned
# roots and the asymptotes' rounding noise.
WIDE_BETAS = sorted([-20.0 + 1.25 * k for k in range(33)]
                    + [sign * b for sign in (1.0, -1.0)
                       for b in (30.0, 50.0, 100.0, 300.0, 1000.0, 3000.0)])


# --- errors of the oracles ------------------------------------------------

class DegenerateArc(CuspwindError):
    """Arc above the horizontal line is empty (h >= r)."""


class InsufficientGridReach(CuspwindError):
    """Spectrum grid does not reach close enough to the endpoints."""


# --- Moebius maps ---------------------------------------------------------

def close_to(m1: MobiusMap, m2: MobiusMap, tol: float = 1e-12) -> bool:
    """PSL(2,R) equality: entrywise up to a global sign.

    The canonical-sign normalization makes the direct comparison work in
    the generic case, but when the leading entry sits at roundoff scale
    the sign choice is unstable, so both representatives are tried.
    """
    e1, e2 = (m1.a, m1.b, m1.c, m1.d), (m2.a, m2.b, m2.c, m2.d)
    same = max(abs(x - y) for x, y in zip(e1, e2))
    flip = max(abs(x + y) for x, y in zip(e1, e2))
    return min(same, flip) <= tol * max(1.0, *map(abs, e1))


def contains_interval(outer: CircleInterval, inner: CircleInterval,
                      tol: float = 1e-9) -> bool:
    """The arc ``inner`` lies in ``outer``, to ``tol`` in angle."""
    # a start a rounding error before the outer arc's reads -eps, not 2 pi
    lo_off = (outer.offset(inner.angle_lo) + tol) % (2.0 * math.pi) - tol
    return lo_off >= -tol and lo_off + inner.arc <= outer.arc + tol


def circle_derivative_magnitude(m: MobiusMap, x: float) -> float:
    """Derivative of the boundary action in the Cayley circle chart.

    Equals |m'(x)| * (1+x^2) / (1+m(x)^2) continued projectively; the
    closed form (1+x^2) / ((ax+b)^2 + (cx+d)^2) is finite and positive for
    every boundary point including oo, which is what makes the induced
    potentials usable for groups whose limit set contains oo.
    """
    if math.isinf(x):
        return 1.0 / (m.a * m.a + m.c * m.c)
    num = m.a * x + m.b
    den = m.c * x + m.d
    return (1.0 + x * x) / (num * num + den * den)


def arc_length_above_height(r: float, h: float) -> float:
    """Length of the geodesic arc of radius r above the line Im = h.

    Closed form log((1 + a/r)/(1 - a/r)) with a = sqrt(r^2 - h^2); this is
    the excursion length entering the winding estimates.
    """
    if not (0.0 < h < r):
        raise DegenerateArc("need 0 < h < r, got r=%r h=%r" % (r, h))
    q = h / r
    aq = math.sqrt(1.0 - q * q)  # a/r
    return math.log1p(aq) - math.log1p(-aq)


# --- coded words ----------------------------------------------------------

def word_element(pres: GroupPresentation, word: BlockWord) -> MobiusMap:
    out = MobiusMap.from_entries(1, 0, 0, 1)
    for label, exp in word.blocks:
        out = compose(out, pres.gens[label].block(exp))
    return out


def displacement(pres: GroupPresentation, word: BlockWord) -> float:
    """Hyperbolic displacement d(B_1...B_n(i), i) of the coded prefix."""
    if len(word) == 0:
        return 0.0
    q = BASE_POINT
    for label, exp in reversed(word.blocks):
        q = apply_plane(pres.gens[label].block(exp), q)
    return hyperbolic_distance(q, BASE_POINT)


def mean_cusp_winding(pres: GroupPresentation, x: float, n: int) -> float:
    """Finite-n mean cusp-winding ratio 2 sum log+ a_k / d(B_1...B_n(i), i)."""
    if n < 1:
        raise ValueError("need n >= 1")
    word = code_point(pres, x, n)
    num = 2.0 * sum(log_plus(a) for a in word.windings(pres))
    den = displacement(pres, word)
    return num / den


# --- induced letters one by one -------------------------------------------

@dataclass(frozen=True)
class InducedLetter:
    symbols: tuple

    def __post_init__(self):
        if len(self.symbols) < 3:
            raise ValueError("induced letters have at least three symbols")

    @property
    def core(self) -> str:
        return self.symbols[1]


def alphabet(pres: GroupPresentation, n_max: int) -> list:
    """The letters of every family, parabolic exponents up to n_max."""
    if n_max < 1:
        raise ValueError("need n_max >= 1")
    return [InducedLetter((f.g1,) + (f.core,) * n + (f.g2,))
            for f in letter_families(pres)
            for n in range(1, (n_max if f.parabolic else 1) + 1)]


def branch_map(pres: GroupPresentation, e: InducedLetter) -> MobiusMap:
    """Contracting inverse branch V_e = product of symbols[:-2]."""
    syms = e.symbols[:-2]
    g1 = pres.gens[syms[0]].map
    if len(syms) == 1:
        return g1
    core = pres.gens[syms[1]].map
    return compose(g1, parabolic_power(core, len(syms) - 1))


def zeta_letter(pres: GroupPresentation, e: InducedLetter) -> float:
    """log |V_e'|_circle at the continuation point x' = u_{m-1}(midpoint
    of J_{u_m})."""
    mid = pres.gens[e.symbols[-1]].interval.point_at(0.5)
    x = apply_boundary(pres.gens[e.symbols[-2]].map, boundary_from_angle(mid))
    return math.log(circle_derivative_magnitude(branch_map(pres, e), x))


def midpoint_vector(pres: GroupPresentation, f) -> tuple:
    """Unit vector of the core image of the midpoint of J_g2 for the
    family f (g1, c, g2): the continuation point of ``zeta_letter``."""
    mid = pres.gens[f.g2].interval.point_at(0.5)
    return unit_image(pres.gens[f.core].map, mid)


def letter_series(pres: GroupPresentation, t: float, beta: float,
                  caps) -> list:
    """Truncated one-letter series sum_{|a| <= cap} e^{t zeta + beta psi},
    one raw value per cap of the increasing ladder ``caps``.

    Each family adds one row of weights, read at its ``midpoint_vector``.
    The series diverges exactly when t + beta <= 1/2, which is what
    characterizes finiteness of the pressure.
    """
    ns = np.arange(1, caps[-1] + 1, dtype=float)
    psi = -2.0 * np.log(np.maximum(ns - 1.0, 1.0))
    total = np.zeros(ns.size)
    for f in letter_families(pres):
        m = ns.size if f.parabolic else 1
        zeta = f.zeta([f.row(midpoint_vector(pres, f))], ns[:m])[0]
        total[:m] += np.exp(t * zeta + beta * psi[:m])
    return [float(v) for v in np.cumsum(total)[np.subtract(caps, 1)]]


def eq4_constant(pres: GroupPresentation, samples: int = 60,
                 letters_each: int = 8, seed: int = 23) -> float:
    """Empirical bound D for |d(B_1...B_n(i), i) + S_n zeta| on samples.

    Birkhoff sums of the letter weight track minus the block displacement;
    the constant feeds only into test tolerances and is reported, not
    derived.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(samples):
        while True:
            w = random_block_word(pres, rng, letters_each + 8)
            if w.blocks[0][1] == 1:
                break
        letters = [InducedLetter(symbols) for symbols
                   in letters_of_blocks(w)[:letters_each]]
        x = point_from_symbols(pres, w.symbols())
        s = 0.0
        y = x
        for e in letters:
            y_next = induced_step(pres, y)
            v = branch_map(pres, e)
            s += math.log(circle_derivative_magnitude(v, y_next))
            y = y_next
        n_blocks = len(letters)
        d = displacement(pres, BlockWord(w.blocks[:n_blocks]))
        worst = max(worst, abs(d + s))
    return worst


# --- partition sums -------------------------------------------------------

def system_from_edges(n_keys: int, in_keys, out_keys, zeta,
                      psi) -> GdmsSystem:
    """A finite system with one weight per edge: a one-row block with one
    column, and one run, per edge; its classes are those of the edges'
    cell pattern."""
    cells = (np.asarray(in_keys, dtype=np.int64) * n_keys
             + np.asarray(out_keys, dtype=np.int64))
    block = LetterBlock(zeta=np.asarray(zeta, dtype=float)[None, :],
                        psi=np.asarray(psi, dtype=float),
                        starts=np.arange(cells.size, dtype=np.int64),
                        cells=cells[None, :])
    return GdmsSystem(n_keys=n_keys, blocks=[block],
                      classes=cyclic_classes(cell_pattern(n_keys, [block])))


def cell_pattern(n_keys: int, blocks) -> np.ndarray:
    """The key graph of ``blocks``: True at every cell a run enters."""
    pattern = np.zeros(n_keys * n_keys, dtype=bool)
    for block in blocks:
        pattern[block.cells.ravel()] = True
    return pattern.reshape(n_keys, n_keys)


def without_tails(sys: GdmsSystem) -> GdmsSystem:
    """The system with each block's tail column, its run (when the column
    is a run of its own) and its ``tail`` rows dropped."""
    blocks = []
    for block in sys.blocks:
        if block.tail is not None:
            m = block.zeta.shape[1] - 1
            runs = np.count_nonzero(block.starts < m)
            block = LetterBlock(zeta=block.zeta[:, :m], psi=block.psi[:m],
                                starts=block.starts[:runs],
                                cells=block.cells[:, :runs])
        blocks.append(block)
    return GdmsSystem(sys.n_keys, blocks, sys.classes, sys.log_mult)


def without_symmetries(pres: GroupPresentation) -> GroupPresentation:
    """``pres`` with the identity as its only symmetry, from which
    ``fuchsian_system`` builds the whole operator, one key per overlap
    pair and bucket, instead of its quotient."""
    return GroupPresentation(pres.gens, pres.cusps, pres.symmetries[:1])


def letter_cells(block: LetterBlock) -> np.ndarray:
    """The key-matrix cell of every letter, shaped like ``block.zeta``."""
    runs = np.diff(block.starts, append=block.zeta.shape[1])
    return np.repeat(block.cells, runs, axis=1)


def partition_sum(sys: GdmsSystem, t: float, beta: float, n: int) -> float:
    """log sum over admissible n-edge paths of the product of edge weights.

    Direct oracle, usable for small n, on systems without tail columns.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    in_keys, out_keys = np.divmod(np.concatenate(
        [letter_cells(block).ravel() for block in sys.blocks]), sys.n_keys)
    lw = np.concatenate([(t * block.zeta + beta * block.psi).ravel()
                         for block in sys.blocks]) + sys.log_mult
    scale = float(lw.max())
    w = np.exp(lw - scale)
    u = w.copy()
    log_acc = scale
    for _ in range(n - 1):
        s = np.bincount(out_keys, weights=u, minlength=sys.n_keys)
        u = w * s[in_keys]
        norm = u.sum()
        u /= norm
        log_acc += math.log(norm) + scale
    # after normalizations, add back the mass of the current vector
    return log_acc + math.log(u.sum()) if n > 1 else scale + math.log(w.sum())


def whole_key_matrix(sys: GdmsSystem, t: float, beta: float,
                     r: float = None):
    """``gdms.key_matrix`` with each block's weights built in one (rows x m)
    work array: the exponents t zeta + beta psi with the tail column
    overwritten by the tail rule, their maximum as the scale, then the
    floor, ``exp`` and the run sums over the whole array."""
    work = []
    for block in sys.blocks:
        lw = np.multiply(block.zeta, t)
        lw += beta * block.psi
        if block.tail is not None:
            two_r = 2.0 * r if r is not None else 2.0 * (t + beta) - 1.0
            lw[:, -1] = tail_log_weights(block.tail, lw.shape[1] - 1, t,
                                         beta, two_r)
        work.append(lw)
    scale = max((float(lw.max()) for lw in work if lw.size), default=0.0)
    if not math.isfinite(scale):
        return scale, None
    cells, sums = [], []
    for block, lw in zip(sys.blocks, work):
        lw -= scale
        np.maximum(lw, LOG_FLOOR, out=lw)
        np.exp(lw, out=lw)
        cells.append(block.cells.ravel())
        sums.append(np.add.reduceat(lw, block.starts, axis=1).ravel())
    n = sys.n_keys
    b = np.bincount(np.concatenate(cells), weights=np.concatenate(sums),
                    minlength=n * n).reshape(n, n)
    return scale, b


def block_word_geometry(pres, n: int, cap: int):
    """(displacement, sum log+ winding) over all admissible n-block words.

    Direct enumeration with parabolic exponents <= cap; the independent
    oracle behind the partition sums Z_n, free of any induced-letter or
    transfer-operator machinery.
    """
    dists, winds = [], []

    def rec(prev, depth, mat, wsum):
        if depth == n:
            q = apply_plane(mat, BASE_POINT)
            dists.append(hyperbolic_distance(q, BASE_POINT))
            winds.append(wsum)
            return
        for label in pres.gens:
            if prev is not None and not pres.block_admissible(prev, label):
                continue
            gen = pres.gens[label]
            if gen.parabolic:
                for exp in range(1, cap + 1):
                    rec(label, depth + 1,
                        compose(mat, parabolic_power(gen.map, exp)),
                        wsum + log_plus(exp - 1))
            else:
                rec(label, depth + 1, compose(mat, gen.map), wsum)

    rec(None, 0, MobiusMap.from_entries(1, 0, 0, 1), 0.0)
    return np.array(dists), np.array(winds)


def block_partition_sum(pres, t: float, beta: float, n: int, cap: int,
                        geometry=None) -> float:
    """Z_n = log sum over n-block words of exp(-t d - 2 beta sum log+ a)."""
    d, w = geometry if geometry is not None else block_word_geometry(pres, n, cap)
    return float(np.logaddexp.reduce(-t * d - 2.0 * beta * w))


# --- Legendre transform and endpoint slopes -------------------------------

# Extreme parametric slopes reported per endpoint by ``endpoint_slopes``.
TREND_SAMPLES = 4


def legendre(grid, values, ps):
    """Discrete convex conjugate sup_c (c p - g(c)) with local refinement.

    Returns (transform values, attained flags); the flag is False where
    the supremum sits on the boundary of the sampled domain, i.e. the true
    conjugate is +infinity or beyond the sampled slopes.
    """
    grid = np.asarray(grid, dtype=float)
    values = np.asarray(values, dtype=float)
    ps = np.atleast_1d(np.asarray(ps, dtype=float))
    check_convex(values, grid)
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


def endpoint_slopes(curve: SpectrumCurve, lo: float = 0.0,
                    hi: float = 1.0) -> EndpointSlopes:
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
    left_trend = tuple(float(x) for x in pos[-TREND_SAMPLES:])
    right_trend = tuple(-float(x) for x in neg[-TREND_SAMPLES:])
    return EndpointSlopes(lq, rq,
                          float(pos[-1]) if len(pos) else 0.0,
                          -float(neg[-1]) if len(neg) else 0.0,
                          left_trend, right_trend)
