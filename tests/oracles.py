"""Reference implementations the tests compare the chain against.

Each computes a quantity of the chain a second way, by direct
enumeration, a closed form or plain summation, sharing as little code as
possible with what the command line runs: the Bowen-Series coding one
letter at a time, hyperbolic displacements and mean windings of coded
words, the induced letters one by one, the
truncated one-letter series, partition sums over paths and over block
words, and the discrete Legendre transform with the spectrum's endpoint
slopes, and the key matrix with every block's weights built in one whole
work array.  Next to them sit the helpers only tests need: equality of
maps up to sign, perfbench's family of charts as a hypothesis strategy,
containment of arcs, induced letters as objects, a
family's midpoint vector, the key cell of every letter of a block, the
key graph of a system's cells, systems built from an edge list, systems
stripped of their tail columns and presentations stripped of their
symmetries, a two-letter operator whose t(beta) and alpha are known in
closed form, and a beta grid that reaches deep into both asymptotes.
Beside them sits the geometry of the upper half-plane, which the
package does not hold: its points, distances and geodesics, and the
paper's lemma checks on it, the arc decomposition of a coded geodesic
and the constants C0 and C1 of a presentation.  Nothing under ``src/``
imports them.
"""

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from hypothesis import strategies as st

from cuspwind.coding import (
    BlockWord,
    bowen_series_step,
    code_point,
    induced_step,
    letters_of_blocks,
    point_from_symbols,
    random_block_word,
)
from cuspwind.errors import (
    CodingStalled,
    CuspwindError,
    OutsideAllIntervals,
    ReachedCusp,
)
from cuspwind.fuchsian import (
    ANGLE_TOL,
    TWO_PI,
    CircleInterval,
    GroupPresentation,
    angle_distance,
)
from cuspwind.gdms import (
    LOG_FLOOR,
    GdmsSystem,
    LetterBlock,
    cyclic_classes,
    tail_log_weights,
)
from cuspwind.induced import letter_families
from cuspwind.mobius import (
    MobiusMap,
    apply_angle,
    apply_boundary,
    apply_vector,
    boundary_angle,
    boundary_from_angle,
    boundary_vector,
    compose,
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


class GeodesicMissesHorocircle(CuspwindError):
    """Arc decomposition could not locate a feature crossing.

    Signals an invalid presentation or a too-short prefix; the message
    names the offending block.
    """


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


@st.composite
def charts(draw):
    """perfbench's chart family z -> lam z / (c z + 1) + u, as a map."""
    u, c = draw(st.floats(-0.5, 0.5)), draw(st.floats(-0.5, 0.5))
    s = math.sqrt(draw(st.floats(0.5, 2.0)))
    return MobiusMap.from_entries(s + u * c / s, u / s, c / s, 1.0 / s)


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


# --- the upper half-plane -------------------------------------------------
#
# The package works on the boundary circle alone; the points of the plane
# and its geodesics live here, for the paper's distance bounds.

BASE_POINT = 1j


def apply_plane(m: MobiusMap, z: complex) -> complex:
    """Isometric action on the upper half-plane; Im m(z) = Im z / |cz + d|^2
    (det 1) keeps the height of points near the boundary, which the
    imaginary part of the quotient loses to cancellation."""
    w = m.c * z + m.d
    den = w.real * w.real + w.imag * w.imag
    return complex(((m.a * z + m.b) * w.conjugate()).real / den,
                   z.imag / den)


def hyperbolic_distance(z: complex, w: complex) -> float:
    dz = z - w
    u = (dz.real * dz.real + dz.imag * dz.imag) / (2.0 * z.imag * w.imag)
    return math.acosh(1.0 + u) if u > 0.0 else 0.0


def geodesic_distance_between(u1: float, v1: float, u2: float, v2: float) -> float:
    """Distance between the complete geodesics with ideal endpoints (u1,v1), (u2,v2).

    The endpoints are circle angles.  Returns 0 when the geodesics cross,
    touch, or share an ideal endpoint.  With c(x, y) = |sin((x - y) / 2)|,
    half the chord between the circle angles x and y, the products
    P1 = c(u1, u2) c(v1, v2), P2 = c(u1, v2) c(v1, u2) and
    D = c(u1, v1) c(u2, v2) satisfy Ptolemy's relation: the largest is the
    sum of the other two.  The geodesics are disjoint when that is P1 or
    P2, and then cosh d = 1 + 2 min(P1, P2) / D.
    """
    def c(x, y):
        return abs(math.sin(0.5 * (x - y)))

    p1, p2 = c(u1, u2) * c(v1, v2), c(u1, v2) * c(v1, u2)
    d = c(u1, v1) * c(u2, v2)
    if max(p1, p2) <= d:
        return 0.0
    return math.acosh(1.0 + 2.0 * min(p1, p2) / d)


class Geodesic:
    """The image of the imaginary axis under the map ``axis`` (T).

    The parameter of a point z is log Im T^-1 z, its signed arc length
    along the geodesic from T(i); a geodesic over a boundary arc has T(0)
    at the arc's lower end and T(oo) at its upper end, and its half-plane
    over the arc is Re T^-1 z > 0.  Crossings with another geodesic or a
    horocircle are solved on the axis after mapping by T^-1.
    """

    def __init__(self, axis: MobiusMap):
        self.axis = axis

    @staticmethod
    def over_arc(theta: float, arc: float) -> "Geodesic":
        """The geodesic over the boundary arc from circle angle theta to
        theta + arc (0 < arc < 2 pi): T(0) is its lower end, T(oo) its
        upper end, and T(i) the point of the geodesic nearest to the centre
        i of the circle chart."""
        hi, lo = boundary_vector(theta + arc), boundary_vector(theta)
        # det [hi lo] = sin(arc / 2) > 0
        return Geodesic(MobiusMap.from_entries(hi[0], lo[0], hi[1], lo[1]))

    @staticmethod
    def through(z: complex, w: complex) -> "Geodesic":
        """The geodesic from z through w, with T(i) = z, so that the
        parameter of w is the distance d(z, w)."""
        s = math.sqrt(z.imag)
        # u + iv is w seen from z: its image under w -> (w - Re z) / Im z
        u, v = (w.real - z.real) / z.imag, w.imag / z.imag
        # the rotation about i by phi turns the Cayley disc by 2 phi; it
        # takes the axis point of height e^d to u + iv
        phi = 0.5 * math.atan2(-2.0 * u, u * u + v * v - 1.0)
        c, r = math.cos(phi), math.sin(phi)
        return Geodesic(MobiusMap.from_entries(
            s * c - z.real * r / s, s * r + z.real * c / s, -r / s, c / s))

    @cached_property
    def _inverse(self) -> MobiusMap:
        return self.axis.inverse()

    def param(self, z: complex) -> float:
        return math.log(apply_plane(self._inverse, z).imag)

    def point_at(self, s: float) -> complex:
        return apply_plane(self.axis, complex(0.0, math.exp(s)))

    def sinh_distance(self, z: complex) -> float:
        """sinh of the signed distance of z from the geodesic, positive on
        the half-plane Re T^-1 z > 0."""
        w = apply_plane(self._inverse, z)
        return w.real / w.imag

    def crossings(self, other: "Geodesic") -> list:
        """The parameter of the crossing with another geodesic, if any: its
        ends T^-1 T'(0) and T^-1 T'(oo) lie on either side of the axis, and
        the crossing is at the height sqrt(-x x') of the axis."""
        m = other.axis
        x0, y0 = apply_vector(self._inverse, (m.b, m.d))
        x1, y1 = apply_vector(self._inverse, (m.a, m.c))
        if x0 * y0 * x1 * y1 >= 0.0:
            return []
        return [0.5 * math.log(-(x0 * x1) / (y0 * y1))]

    def horoball_crossings(self, ball) -> list:
        """Parameters of the crossings with the horocircle of the
        ``geometry.Horoball`` ball, in increasing order.  With q = T^-1 p,
        the axis point iy lies on it where k q2^2 y^2 - y + k q1^2 = 0."""
        q = apply_vector(self._inverse, ball.base)
        a, b = ball.height * q[0] ** 2, ball.height * q[1] ** 2
        disc = 1.0 - 4.0 * a * b
        if disc < 0.0:
            return []
        sq = math.sqrt(disc)
        # a base at an end of the axis (a or b zero) leaves one crossing
        out = [math.log(2.0 * a / (1.0 + sq))] if a > 0.0 else []
        if b > 0.0:
            out.append(math.log((1.0 + sq) / (2.0 * b)))
        return out


def arc_geodesic(interval: CircleInterval) -> Geodesic:
    """The side over the arc; its half-plane over the arc is where
    ``sinh_distance`` is positive."""
    return Geodesic.over_arc(interval.angle_lo, interval.arc)


def horoball_depth(ball, z: complex) -> float:
    """Signed distance of z from the horocircle of the
    ``geometry.Horoball`` ball, positive inside."""
    p = ball.base
    return math.log(z.imag / (ball.height * (
        (p[1] * z.real - p[0]) ** 2 + (p[1] * z.imag) ** 2)))


def horoball_point(ball, x: float) -> complex:
    """The point x + ik of the horocircle, moved by the rotation about
    i that sends oo to the base (x = 0 is the point nearest to i)."""
    p = ball.base
    return apply_plane(MobiusMap(p[0], -p[1], p[1], p[0]),
                       complex(x, ball.height))


# --- coded words ----------------------------------------------------------

def log_plus(a: float) -> float:
    return math.log(a) if a > 1.0 else 0.0


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


def letter_code_point(pres: GroupPresentation, x: float,
                      n_blocks: int) -> BlockWord:
    """First n_blocks blocks of the coding of x, one Bowen-Series letter at
    a time: the reference for ``code_point``, with the same exits.

    Runs of one parabolic letter merge into a block, which closes once a
    different letter shows up; a coding that closes no n_blocks blocks in
    200 (n_blocks + 2) + 10,000 letters stalls.
    """
    runs = []  # [label, run length]; the last is open while parabolic
    y = x
    steps = 0
    while True:
        closed = len(runs)
        if runs and pres.gens[runs[-1][0]].parabolic:
            closed -= 1
        if closed >= n_blocks:
            return BlockWord(tuple(map(tuple, runs[:n_blocks])))
        steps += 1
        if steps > 200 * (n_blocks + 2) + 10_000:
            raise CodingStalled("coding did not close %d blocks" % n_blocks)
        try:
            y, label = bowen_series_step(pres, y)
        except OutsideAllIntervals as exc:
            theta = boundary_angle(y)
            if any(angle_distance(theta, ball.angle) <= ANGLE_TOL
                   for ball in pres.cusps):
                raise ReachedCusp(BlockWord(tuple(map(tuple, runs[:closed]))),
                                  y) from exc
            raise CodingStalled(
                "orbit left the coding domain after %d blocks" % closed
            ) from exc
        if runs and label == runs[-1][0] and pres.gens[label].parabolic:
            runs[-1][1] += 1
        else:
            runs.append([label, 1])


def mean_cusp_winding(pres: GroupPresentation, x: float, n: int) -> float:
    """Finite-n mean cusp-winding ratio 2 sum log+ a_k / d(B_1...B_n(i), i)."""
    if n < 1:
        raise ValueError("need n >= 1")
    word = code_point(pres, x, n)
    num = 2.0 * sum(log_plus(a) for a in word.windings(pres))
    den = displacement(pres, word)
    return num / den


# --- the paper's distance sandwich and winding bounds ---------------------
#
# They hold for every presentation ``build_group`` accepts, so no command
# checks them: the tests do, through the arc decomposition of a coded
# geodesic and the constants C0 and C1.

PARAM_TOL = 1e-9


def arc_decomposition(pres: GroupPresentation, word: BlockWord) -> tuple:
    """Per-block arc lengths of the geodesic [i, B_1...B_n(i)] and its
    full length, as (lengths, total).

    lengths[k] is l(xi_{k+1}), the arc of the block of winding
    ``word.windings(pres)[k]``; total is the full displacement, which
    exceeds sum(lengths) by the final arc l(xi_{n+1}), bounded by the
    constant C0 of the presentation.
    """
    word.validate(pres)
    n = len(word)
    if n == 0:
        return (), 0.0

    elements = [pres.gens[label].block(exp) for label, exp in word.blocks]
    # geodesic far endpoint in frame k-1: q[k] = B_k ... B_n (i)
    q = [None] * (n + 2)
    q[n + 1] = BASE_POINT
    for k in range(n, 0, -1):
        q[k] = apply_plane(elements[k - 1], q[k + 1])

    start = BASE_POINT  # U_{k-1}(i), the geodesic start in the current frame
    prev = BASE_POINT  # previous arc endpoint in the current frame
    lengths = []
    for k in range(1, n + 1):
        label, exp = word.blocks[k - 1]
        # parameters are arc lengths from the start, increasing towards
        # q[k]; q[k] may lie so near the boundary that mapping it to the
        # axis loses its height, so its parameter is its distance
        geo = Geodesic.through(start, q[k])
        s_prev, s_end = geo.param(prev), hyperbolic_distance(start, q[k])

        if exp == 1:
            found = geo.crossings(arc_geodesic(pres.gens[label].interval))
        else:
            ball = pres.gens[label].horoball
            found = geo.horoball_crossings(ball)
        found = [s for s in found
                 if s_prev - PARAM_TOL <= s <= s_end + PARAM_TOL]
        if found:
            pt = geo.point_at(found[-1])  # the exit crossing of a horoball
        elif exp > 1 and horoball_depth(ball, q[k]) >= -PARAM_TOL:
            pt = q[k]  # geodesic ends inside the horoball
        else:
            raise GeodesicMissesHorocircle(
                "geodesic misses the %s of block %d (%r^%d)"
                % ("side" if exp == 1 else "horoball", k, label, exp))

        lengths.append(hyperbolic_distance(prev, pt))
        binv = elements[k - 1].inverse()
        start = apply_plane(binv, start)
        prev = apply_plane(binv, pt)

    return tuple(lengths), hyperbolic_distance(q[1], BASE_POINT)


def constants_c1(pres: GroupPresentation) -> float:
    """C1 = min(log 3, distance between distinct non-cancelling sides).

    Touching sides (shared ideal endpoint at an accidental cusp, as in the
    Gamma(2) configuration) give distance zero, so C1 = 0 is a legitimate
    value for lattice-type presentations.
    """
    best = math.log(3.0)
    for (l1, g1), (l2, g2) in itertools.combinations(pres.gens.items(), 2):
        if l2 == g1.inverse:
            continue  # cancelling side pair
        j1, j2 = g1.interval, g2.interval
        d = geodesic_distance_between(j1.angle_lo, j1.angle_hi,
                                      j2.angle_lo, j2.angle_hi)
        best = min(best, d)
    return best


def _limit_set_bounds(pres: GroupPresentation) -> dict:
    """Per-letter arcs bounding the limit-set piece inside each interval.

    Iterates J_g -> hull(g(union of admissible pieces)) 60 times; for
    lattice-type systems this is a fixed point immediately, for second-kind
    groups it shrinks to a tight cover of the limit set.
    """
    bounds = {l: (0.0, g.interval.arc) for l, g in pres.gens.items()}
    for _ in range(60):
        new = {}
        for label, g in pres.gens.items():
            jg = g.interval
            lo_best, hi_best = None, None
            for other, go in pres.gens.items():
                if other == g.inverse:
                    continue
                jo = go.interval
                olo, ohi = bounds[other]
                for off in (olo, ohi):
                    pos = jg.offset_on_arc(apply_angle(g.map,
                                                       jo.angle_lo + off))
                    lo_best = pos if lo_best is None else min(lo_best, pos)
                    hi_best = pos if hi_best is None else max(hi_best, pos)
            new[label] = (lo_best, hi_best)
        bounds = new
    out = {}
    for label, g in pres.gens.items():
        jg = g.interval
        lo, hi = bounds[label]
        out[label] = CircleInterval.between(jg.angle_lo + lo, jg.angle_lo + hi)
    return out


def _core_gaps(pres: GroupPresentation) -> list:
    """The geodesics over the gaps of the limit set; their half-planes
    over the gaps lie outside the convex core."""
    bounds = _limit_set_bounds(pres)
    # the starts mod 2 pi put the pieces in circle order
    marks = sorted((b.angle_lo % TWO_PI, b.angle_hi) for b in bounds.values())
    gaps = []
    for k, (lo_a, hi_a) in enumerate(marks):
        nxt_lo = marks[(k + 1) % len(marks)][0]
        width = (nxt_lo - hi_a) % TWO_PI
        if width > 1e-7 and width < TWO_PI - 1e-7:
            gaps.append(Geodesic.over_arc(hi_a, width))
    return gaps


def core_boundary_samples(pres: GroupPresentation, grid: int) -> list:
    """The sampled boundary of the truncated core, ``grid`` steps per
    side, gap and horocircle.

    The sampled region: on the fundamental-domain side of every interval
    geodesic, outside every horoball (marked cusps plus accidental ones),
    inside the convex core (outside every limit-set gap half-plane); a
    sample of a side or gap geodesic is exempt from its own geodesic's
    test.  Step f of a geodesic is its point at i tan(pi f / 2) on the
    axis, and step f of a horocircle its point at tan(pi (f - 1/2)) + ik
    in the chart where its base is oo.
    """
    sides = [arc_geodesic(g.interval) for g in pres.gens.values()]
    gaps = _core_gaps(pres)

    def keep(pt: complex, own=None) -> bool:
        return (all(g is own or g.sinh_distance(pt) <= 1e-12 for g in sides)
                and all(g is own or g.sinh_distance(pt) <= -1e-9
                        for g in gaps)
                and all(horoball_depth(b, pt) <= 1e-9 for b in pres.cusps))

    pts: list[complex] = []
    for f in (k / grid for k in range(1, grid)):
        for g in sides + gaps:
            pt = g.point_at(math.log(math.tan(0.5 * math.pi * f)))
            if keep(pt, g):
                pts.append(pt)
        for b in pres.cusps:
            pt = horoball_point(b, math.tan(math.pi * (f - 0.5)))
            if keep(pt):
                pts.append(pt)
    return pts


def constant_c0(pres: GroupPresentation, grid: int) -> float:
    """C0: max pairwise distance over ``core_boundary_samples``.

    The returned value inflates the raw sampled maximum by a 10% mesh
    margin; downstream uses of C0 are error bands, so over-estimation is
    safe.
    """
    raw = 0.0
    for p, q in itertools.combinations(core_boundary_samples(pres, grid), 2):
        d = hyperbolic_distance(p, q)
        if d > raw:
            raw = d
    return raw * 1.1


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
            lw[:, -1] = tail_log_weights(block, t, beta, two_r)
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


# --- an operator with a closed form ---------------------------------------

class TwoLetterOperator:
    """Two finite letters with P(t, beta) = log(2^-t + 3^-t e^-beta), an
    operator the chain reads through its two methods alone: t(beta) is
    the root of 2^-t + 3^-t e^-beta = 1 (``two_letter_root``)."""

    def pressure(self, t: float, beta: float, r: float = None) -> float:
        return float(np.logaddexp(-t * math.log(2.0),
                                  -t * math.log(3.0) - beta))

    def divergence_abscissa(self, beta: float):
        return None


def two_letter_root(beta: float) -> float:
    """The t with 2^-t + 3^-t e^-beta = 1, by bisection to the last bit:
    g(t) = 2^-t - 1 + 3^-t e^-beta falls from e^-beta > 0 at t = 0 to
    below 1/4 + (e/3)^|beta| / 9 - 1 < 0 at t = 2 + |beta|."""
    def g(t):
        return math.expm1(-t * math.log(2.0)) \
            + math.exp(-t * math.log(3.0) - beta)

    lo, hi = 0.0, 2.0 + abs(beta)
    while lo < (lo + hi) / 2.0 < hi:
        mid = (lo + hi) / 2.0
        lo, hi = (mid, hi) if g(mid) > 0.0 else (lo, mid)
    return lo


def two_letter_alpha(beta: float) -> float:
    """-t'(beta) of ``TwoLetterOperator``, a / (p log 2 + a log 3) with
    p = 2^-t and a = 3^-t e^-beta at t = t(beta)."""
    t = two_letter_root(beta)
    p, a = 2.0 ** -t, 3.0 ** -t * math.exp(-beta)
    return a / (p * math.log(2.0) + a * math.log(3.0))


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
