"""Group presentations: generators, Markov intervals, horocircles, constants.

A presentation is supplied as data (matrices plus boundary intervals); the
builder validates that the intervals form a Markov system for the
Bowen-Series map rather than deriving them from a fundamental-domain
computation.  Conventions:

* each symmetric generator g owns the interval J_g on which the coding
  records the letter g; the expanding map there is T = g^{-1},
* the Markov property is the exact endpoint correspondence
  g^{-1}(J_g) = interior of the complement of Cl(J_{g^{-1}}).

The builder also finds the presentation's symmetries
(``CircleSymmetry``): the label permutations realised by a rotation or
reflection of the circle chart, the chart in which the induced shift
measures its weights.

Boundary points are circle angles (see :mod:`mobius`): arcs, their
images under ``apply_angle``, cusps and symmetries are computed and
compared as angles, so no point, oo included, needs a case of its own.
The real coordinate x is read only from the config, written only by
``conjugate_config``, and converted once per coding step
(``letter_at``).  The geometry is that of :mod:`geometry`: the side of an
interval is the geodesic T(i R+) with T(0) and T(oo) at the interval's
ends, and the horoball of a cusp is its base p with the height k read
off the parabolic's nilpotent part.
"""

from __future__ import annotations

import itertools
import math

from . import geometry
from .errors import (
    Elementary,
    GroupValidationError,
    NoParabolic,
    NotFree,
    NotUnitDeterminant,
)
from .mobius import (
    MobiusMap,
    apply_angle,
    apply_boundary,
    boundary_angle,
    boundary_from_angle,
    compose,
    geodesic_distance_between,
    hyperbolic_distance,
    parabolic_power,
)

TWO_PI = 2.0 * math.pi


class CircleInterval:
    """Open arc of the boundary circle from the circle angle ``angle_lo``
    to ``angle_lo + arc``, 0 < arc < 2 pi, built by ``between``.

    Points of the arc are circle angles, taken mod 2 pi.
    """

    def __init__(self, angle_lo: float, arc: float):
        self.angle_lo, self.arc = angle_lo, arc

    @staticmethod
    def between(lo: float, hi: float) -> "CircleInterval":
        """The arc from the circle angle lo up to hi.  Endpoints that
        coincide to 1e-15 around the circle are invalid geometry
        (``GroupValidationError``)."""
        arc = (hi - lo) % TWO_PI
        if min(arc, TWO_PI - arc) < 1e-15:
            raise GroupValidationError(
                "interval endpoints coincide: circle angles %r" % ((lo, hi),))
        return CircleInterval(lo, arc)

    @property
    def angle_hi(self) -> float:
        return self.angle_lo + self.arc

    def offset(self, theta: float) -> float:
        return (theta - self.angle_lo) % TWO_PI

    def offset_on_arc(self, theta: float) -> float:
        """The offset of theta, where a point past the arc goes to the
        nearer end around the circle (a point at the lower end may read
        2 pi - eps)."""
        off = self.offset(theta)
        if off <= self.arc:
            return off
        return self.arc if off - self.arc < TWO_PI - off else 0.0

    def contains(self, theta: float) -> bool:
        return 0.0 < self.offset(theta) < self.arc

    def disjoint_from(self, other: "CircleInterval") -> bool:
        """Disjoint interiors: each arc starts at or past the other's end,
        to 1e-12 in angle, so shared endpoints are allowed."""
        tol = 1e-12
        return (self.offset(other.angle_lo) >= self.arc - tol
                and other.offset(self.angle_lo) >= other.arc - tol)

    def point_at(self, frac: float) -> float:
        return self.angle_lo + frac * self.arc

    def image(self, m: MobiusMap) -> "CircleInterval":
        """Image arc; Moebius maps preserve the circle orientation."""
        return CircleInterval.between(apply_angle(m, self.angle_lo),
                                      apply_angle(m, self.angle_hi))

    def geodesic(self) -> geometry.Geodesic:
        """The side over the arc; its half-plane over the arc is where
        ``sinh_distance`` is positive."""
        return geometry.Geodesic.over_arc(self.angle_lo, self.arc)


class Generator:
    """One symmetric generator: its map, the arc on which the coding
    records it, whether it is parabolic, the label of its inverse, and
    the horoball of its cusp (``_horocircle_from_map``; None for a
    hyperbolic generator)."""

    def __init__(self, parabolic: bool, map: MobiusMap,
                 interval: CircleInterval, inverse: str):
        self.parabolic, self.map = parabolic, map
        self.interval, self.inverse = interval, inverse
        self.horoball = _horocircle_from_map(map) if parabolic else None

    def block(self, k: int) -> MobiusMap:
        """The block of k letters, g^k; a hyperbolic block is g alone."""
        return parabolic_power(self.map, k) if self.parabolic else self.map


def _horocircle_from_map(gamma: MobiusMap) -> geometry.Horoball:
    """The horoball of the parabolic gamma whose horocircle has euclidean
    height 1/2 in the chart where gamma is z -> z +- 1.

    With the sign of the matrix that gives trace +2, the nilpotent part
    N = gamma - I is lambda p p_perp^T for the unit base p (p_perp = p
    turned by a right angle), and it is z -> z + lambda in the rotated
    chart where p is oo, so k = |lambda| / 2.  N N^T = lambda^2 p p^T gives
    both: lambda^2 is its trace and 2 psi, for p = (cos psi, sin psi), the
    angle of (N N^T_11 - N N^T_22, 2 N N^T_12).
    """
    n0, n1, n2, n3 = gamma.nilpotent()
    m11, m12, m22 = n0 * n0 + n1 * n1, n0 * n2 + n1 * n3, n2 * n2 + n3 * n3
    psi = 0.5 * math.atan2(2.0 * m12, m11 - m22)
    return geometry.Horoball((math.cos(psi), math.sin(psi)),
                             0.5 * math.sqrt(m11 + m22))


class CircleSymmetry:
    """A symmetry of a presentation: the label permutation ``perm`` realised
    by the isometry R of the circle angle theta -> shift + theta, or
    theta -> shift - theta when ``flip`` (a rotation or a reflection of the
    Cayley disc about its centre, the image of i).

    R maps every coding arc J_l onto J_perm[l] and conjugates every
    generator g_l to g_perm[l]; perm commutes with taking inverses.
    """

    def __init__(self, perm: dict, shift: float, flip: bool):
        self.perm, self.shift, self.flip = perm, shift, flip

    def angle(self, theta: float) -> float:
        """R of the circle angle theta, in [0, 2 pi)."""
        theta = self.shift - theta if self.flip else self.shift + theta
        return theta % TWO_PI


class GroupPresentation:
    """Validated symmetric presentation: one ``Generator`` per label, the
    horoballs of the cusps and the circle symmetries."""

    def __init__(
            self, gens: dict,  # label -> Generator, in config order
            cusps: tuple,  # one Horoball per cusp (``_cusps``)
            symmetries: tuple):  # CircleSymmetry, the identity first
        self.gens = gens
        self.cusps = cusps
        self.symmetries = symmetries

    def block_admissible(self, prev: str, nxt: str) -> bool:
        """Consecutive block letters: reduced, and parabolic runs merge."""
        g = self.gens[prev]
        return nxt != g.inverse and not (nxt == prev and g.parabolic)

    def letter_at(self, x: float):
        """The label whose arc holds the real boundary point x, or None."""
        theta = boundary_angle(x)
        for label, g in self.gens.items():
            if g.interval.contains(theta):
                return label
        return None


def build_group(config: dict) -> GroupPresentation:
    """Validate a presentation description; see presets for the format."""
    entries = config.get("generators", ())
    if not entries:
        raise GroupValidationError("config lists no generators")

    gens: dict = {}
    for entry in entries:
        label = entry["label"]
        inv_label = entry.get("inverse_label", label.swapcase())
        if label == inv_label:
            raise GroupValidationError(
                "generator %r needs a distinct inverse label" % (label,))
        for used in (label, inv_label):
            if used in gens:
                raise GroupValidationError(
                    "label %r is used by two generators" % (used,))
        mat = entry["matrix"]
        det = mat[0] * mat[3] - mat[1] * mat[2]
        if abs(det - 1.0) > 1e-6:
            raise NotUnitDeterminant(
                "generator %r has determinant %.12g" % (label, det))
        m = MobiusMap.from_entries(*mat)
        if m.is_identity():
            raise GroupValidationError(
                "generator %r is the identity" % (label,))
        kind = entry.get("kind")
        if kind not in (None, "parabolic", "hyperbolic"):
            raise GroupValidationError(
                "generator %r has unknown kind %r" % (label, kind))
        tr2 = m.trace() ** 2
        parabolic = abs(tr2 - 4.0) <= 1e-10 if kind is None \
            else kind == "parabolic"
        if parabolic and abs(tr2 - 4.0) > 1e-10:
            raise GroupValidationError(
                "generator %r declared parabolic but trace^2 = %.12g"
                % (label, tr2))
        if not parabolic and tr2 <= 4.0 + 1e-10:
            raise GroupValidationError(
                ("generator %r is elliptic: trace^2 = %.12g" if kind is None
                 else "generator %r declared hyperbolic but trace^2 = %.12g")
                % (label, tr2))
        gens[label] = Generator(parabolic, m, _config_arc(entry["interval"]),
                                inv_label)
        gens[inv_label] = Generator(parabolic, m.inverse(),
                                    _config_arc(entry["interval_inverse"]),
                                    label)

    v = sum(g.parabolic for g in gens.values()) // 2
    u = (len(gens) // 2) - v
    if v < 1:
        raise NoParabolic("presentation needs at least one parabolic pair")
    if u + v <= 1:
        raise Elementary("need u+v > 1 symmetric generator pairs, got %d" % (u + v))

    _validate_intervals(gens)

    pres = GroupPresentation(
        gens=gens,
        cusps=_cusps(gens),
        symmetries=_circle_symmetries(gens),
    )
    _validate_horoball_disjointness(pres)
    return pres


def _config_arc(pair) -> CircleInterval:
    """The arc between the real endpoints of a config entry, +-inf (or
    its string) for oo."""
    lo, hi = (boundary_angle(float(p)) for p in pair)
    return CircleInterval.between(lo, hi)


def _validate_intervals(gens: dict):
    for (l1, g1), (l2, g2) in itertools.combinations(gens.items(), 2):
        if not g1.interval.disjoint_from(g2.interval):
            raise NotFree("intervals of %r and %r overlap" % (l1, l2))
    # exact Markov correspondence: g^{-1}(J_g) is the complement of
    # Cl(J_{g^{-1}}), i.e. the arc from hi(J_{g^{-1}}) to lo(J_{g^{-1}}).
    for label, g in gens.items():
        img = g.interval.image(g.map.inverse())
        jinv = gens[g.inverse].interval
        if angle_distance(img.angle_lo, jinv.angle_hi) > ANGLE_TOL \
                or angle_distance(img.angle_hi, jinv.angle_lo) > ANGLE_TOL:
            ends = map(boundary_from_angle, (img.angle_lo, img.angle_hi,
                                             jinv.angle_hi, jinv.angle_lo))
            raise NotFree(
                "Markov covering fails for %r: image (%r, %r) vs required (%r, %r)"
                % (label, *ends))


# Largest angle between two circle angles taken for the same boundary
# point: an image and the arc end, fixed point or symmetry image it must
# match.
ANGLE_TOL = 1e-9

# The boundary points, as circle angles, at which a symmetry R and each
# generator g_l must satisfy R g_l = g_perm[l] R: three points fix a
# Moebius map.
SYMMETRY_PROBES = (1.0, 3.0, 5.0)


def angle_distance(a: float, b: float) -> float:
    """Distance of two circle angles, around the circle."""
    return abs((a - b + math.pi) % TWO_PI - math.pi)


def _circle_symmetries(gens: dict) -> tuple:
    """Every symmetry of the presentation (``CircleSymmetry``), the
    identity first.

    A rotation or reflection of the circle angle is fixed by the arc it
    maps J_l0 onto, l0 the first label, so each arc as long as J_l0 gives
    two candidates.  One is kept when it maps every arc onto an arc
    (perm), perm commutes with taking inverses, and R g_l = g_perm[l] R
    holds at the ``SYMMETRY_PROBES`` for every generator.
    """
    j0 = next(iter(gens.values())).interval
    out = [CircleSymmetry({label: label for label in gens}, 0.0, False)]
    for j in (g.interval for g in gens.values()):
        if angle_distance(j.arc, j0.arc) > ANGLE_TOL:
            continue
        # a reflection maps the far end of J_l0 onto the near end of J_m
        for shift, flip in (((j.angle_lo - j0.angle_lo) % TWO_PI, False),
                            ((j.angle_lo + j0.angle_hi) % TWO_PI, True)):
            if (shift, flip) == (0.0, False):
                continue  # the identity
            sym = _symmetry(gens, shift, flip)
            if sym is not None:
                out.append(sym)
    return tuple(out)


def _symmetry(gens, shift, flip):
    """The ``CircleSymmetry`` of the isometry (shift, flip), or None when
    it is no symmetry of the presentation."""
    perm = {}
    sym = CircleSymmetry(perm, shift, flip)
    for label, g in gens.items():
        j = g.interval
        start = sym.angle(j.angle_hi if flip else j.angle_lo)
        perm[label] = next(
            (m for m, h in gens.items()
             if angle_distance(h.interval.angle_lo, start) <= ANGLE_TOL
             and angle_distance(h.interval.arc, j.arc) <= ANGLE_TOL), None)
        if perm[label] is None:
            return None
    if any(perm[g.inverse] != gens[perm[label]].inverse
           for label, g in gens.items()):
        return None
    for label, g in gens.items():
        image = gens[perm[label]].map
        for theta in SYMMETRY_PROBES:
            if angle_distance(sym.angle(apply_angle(g.map, theta)),
                              apply_angle(image, sym.angle(theta))) \
                    > ANGLE_TOL:
                return None
    return sym


def _cusps(gens) -> tuple:
    """One horoball per cusp: at each parabolic generator's cusp the
    horoball of the first generator (in config order) fixing it, then the
    accidental ones at shared interval endpoints.

    Free products may have parabolic elements (products of generators)
    fixing the touching points of adjacent intervals; the truncated domain
    is only compact once those cusps are cut too.  The fixing element is
    located by a short reduced-word search.
    """
    ends = [theta for g in gens.values()
            for theta in (g.interval.angle_lo, g.interval.angle_hi)]
    balls = [g.horoball for g in gens.values() if g.parabolic]
    vertices = []
    marked_angles = [h.angle for h in balls]
    for theta in ends:
        if all(angle_distance(theta, v) > ANGLE_TOL
               for v in marked_angles + vertices) \
                and sum(angle_distance(theta, e) <= ANGLE_TOL
                        for e in ends) >= 2:
            vertices.append(theta)

    for theta in vertices:
        w = _parabolic_fixing(gens, theta)
        if w is not None:
            balls.append(_horocircle_from_map(w))
    out = []
    for h in balls:
        if all(angle_distance(h.angle, b.angle) > ANGLE_TOL for b in out):
            out.append(h)
    return tuple(out)


def _parabolic_fixing(gens, theta):
    """A parabolic reduced word of at most six letters fixing the boundary
    point of circle angle theta, or None."""
    words = [(label, g.map) for label, g in gens.items()]
    for _ in range(6):
        nxt = []
        for label, m in words:
            if angle_distance(apply_angle(m, theta), theta) <= ANGLE_TOL \
                    and m.is_parabolic(1e-8) and not m.is_identity(1e-10):
                return m
            for label2, g2 in gens.items():
                if label2 != gens[label].inverse:
                    nxt.append((label2, compose(m, g2.map)))
        words = nxt
    return None


def _validate_horoball_disjointness(pres: GroupPresentation):
    for b1, b2 in itertools.combinations(pres.cusps, 2):
        if not geometry.horoballs_disjoint(b1, b2):
            raise GroupValidationError(
                "horoballs at %r and %r overlap"
                % (boundary_from_angle(b1.angle), boundary_from_angle(b2.angle)))


# --- constants -------------------------------------------------------------

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
            gaps.append(geometry.Geodesic.over_arc(hi_a, width))
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
    sides = [g.interval.geodesic() for g in pres.gens.values()]
    gaps = _core_gaps(pres)

    def keep(pt: complex, own=None) -> bool:
        return (all(g is own or g.sinh_distance(pt) <= 1e-12 for g in sides)
                and all(g is own or g.sinh_distance(pt) <= -1e-9
                        for g in gaps)
                and all(b.depth(pt) <= 1e-9 for b in pres.cusps))

    pts: list[complex] = []
    for f in (k / grid for k in range(1, grid)):
        for g in sides + gaps:
            pt = g.point_at(math.log(math.tan(0.5 * math.pi * f)))
            if keep(pt, g):
                pts.append(pt)
        for b in pres.cusps:
            pt = b.point_at(math.tan(math.pi * (f - 0.5)))
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


def conjugate_config(config: dict, m: MobiusMap) -> dict:
    """Conjugation helper: move the whole presentation by a Moebius map.

    Matrices become m g m^{-1} and intervals/endpoints their m-images;
    useful for relocating a cusp at oo before building the induced system.
    """
    minv = m.inverse()
    out = {k: v for k, v in config.items() if k != "generators"}
    out["generators"] = []
    for entry in config["generators"]:
        g = MobiusMap.from_entries(*entry["matrix"])
        gc = compose(compose(m, g), minv)
        iv = [apply_boundary(m, float(x)) for x in entry["interval"]]
        ivi = [apply_boundary(m, float(x)) for x in entry["interval_inverse"]]
        new = dict(entry)
        new["matrix"] = [gc.a, gc.b, gc.c, gc.d]
        new["interval"] = iv
        new["interval_inverse"] = ivi
        out["generators"].append(new)
    return out
