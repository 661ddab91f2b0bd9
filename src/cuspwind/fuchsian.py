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
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from . import geometry
from .errors import (
    Elementary,
    GroupValidationError,
    NoParabolic,
    NotFree,
    NotUnitDeterminant,
)
from .mobius import (
    INF,
    MobiusMap,
    PlanePoint,
    apply_boundary,
    boundary_angle,
    boundary_from_angle,
    compose,
    geodesic_distance_between,
    hyperbolic_distance,
    is_infinity,
)

TWO_PI = 2.0 * math.pi

# A boundary point farther out than this is the point at infinity: the
# rotation by pi/4 sends the vertex oo of Gamma(2) to 1.27e16, because
# cos(pi/4) - sin(pi/4) is not 0 in floating point.
FAR = 1e12


@dataclass(frozen=True)
class CircleInterval:
    """Open arc of the boundary circle from lo to hi.

    The arc runs in the direction of increasing x and wraps through oo when
    lo > hi; an infinite endpoint is the single point oo.  Coinciding
    endpoints are invalid geometry (``GroupValidationError``).
    """

    lo: float
    hi: float

    def __post_init__(self):
        if is_infinity(self.lo) and is_infinity(self.hi):
            raise GroupValidationError(
                "interval cannot have both endpoints at infinity")
        if abs(boundary_angle(self.lo) - boundary_angle(self.hi)) < 1e-15:
            raise GroupValidationError(
                "interval endpoints coincide: %r" % ((self.lo, self.hi),))

    @property
    def angle_lo(self) -> float:
        return boundary_angle(self.lo)

    @property
    def arc(self) -> float:
        a = (boundary_angle(self.hi) - boundary_angle(self.lo)) % TWO_PI
        return a if a > 0.0 else TWO_PI

    def offset(self, x: float) -> float:
        return (boundary_angle(x) - self.angle_lo) % TWO_PI

    def offset_on_arc(self, x: float) -> float:
        """The offset of x, where a point past the arc goes to the nearer
        end around the circle (a point at the lower end may read
        2 pi - eps)."""
        off = self.offset(x)
        if off <= self.arc:
            return off
        return self.arc if off - self.arc < TWO_PI - off else 0.0

    def contains(self, x: float) -> bool:
        return 0.0 < self.offset(x) < self.arc

    def disjoint_from(self, other: "CircleInterval") -> bool:
        """Disjoint interiors; shared endpoints (to 1e-12 in angle) are
        allowed."""
        tol = 1e-12
        for x in (other.lo, other.hi):
            off = self.offset(x)
            if tol < off < self.arc - tol:
                return False
        for x in (self.lo, self.hi):
            off = other.offset(x)
            if tol < off < other.arc - tol:
                return False
        # rule out identical arcs / containment without endpoint hits
        if abs(self.offset(other.lo)) <= tol and abs(self.arc - other.arc) <= tol:
            return False
        return not other.contains(self.point_at(0.5))

    def point_at(self, frac: float) -> float:
        return boundary_from_angle(self.angle_lo + frac * self.arc)

    def image(self, m: MobiusMap) -> "CircleInterval":
        """Image arc; Moebius maps preserve the circle orientation."""
        return CircleInterval(apply_boundary(m, self.lo), apply_boundary(m, self.hi))

    def geodesic(self) -> geometry.Geodesic:
        return geometry.Geodesic.from_ideal_endpoints(self.lo, self.hi)

    def halfplane(self) -> geometry.HalfPlane:
        return geometry.halfplane_of_interval(self.lo, self.hi)


@dataclass(frozen=True)
class Generator:
    """One symmetric generator with its coding interval."""

    kind: str  # "parabolic" | "hyperbolic"
    map: MobiusMap
    interval: CircleInterval
    fixed_points: tuple

    def is_parabolic(self) -> bool:
        return self.kind == "parabolic"


def _horocircle_from_map(gamma: MobiusMap) -> geometry.Horoball:
    """The horoball of the parabolic gamma whose horocircle has euclidean
    height 1/2 in the chart where gamma is z -> z +- 1.

    gamma fixes oo and translates by b, or it is +-(I + c X) with
    X = [[p, -p^2], [1, -p]] for its fixed point p, and N = -1/(z - p)
    conjugates it to z - c; both forms hold for either sign of the matrix.
    """
    if abs(gamma.c) < 1e-13:
        return geometry.Horoball(INF, abs(gamma.b) / 2.0)
    return geometry.Horoball((gamma.a - gamma.d) / (2.0 * gamma.c),
                             2.0 / abs(gamma.c))


@dataclass(frozen=True)
class CircleSymmetry:
    """A symmetry of a presentation: the label permutation ``perm`` realised
    by the isometry R of the circle angle theta -> shift + theta, or
    theta -> shift - theta when ``flip`` (a rotation or a reflection of the
    Cayley disc about its centre, the image of i).

    R maps every coding arc J_l onto J_perm[l] and conjugates every
    generator g_l to g_perm[l]; perm commutes with taking inverses.
    """

    perm: dict
    shift: float
    flip: bool

    def angle(self, theta: float) -> float:
        """R of the circle angle theta, in [0, 2 pi)."""
        theta = self.shift - theta if self.flip else self.shift + theta
        return theta % TWO_PI


@dataclass
class GroupPresentation:
    """Validated symmetric presentation: generators, their inverses, the
    horoballs of the cusps and the circle symmetries."""

    name: str
    gens: dict
    inverse_label: dict
    horocircles: dict  # parabolic label (both of a +/- pair) -> Horoball
    accidental_horocircles: list
    symmetries: tuple  # CircleSymmetry, the identity first

    # --- structure ---------------------------------------------------

    def labels(self) -> list:
        return list(self.gens)

    def gen(self, label: str) -> Generator:
        return self.gens[label]

    def inv(self, label: str) -> str:
        return self.inverse_label[label]

    def block_admissible(self, prev: str, nxt: str) -> bool:
        """Consecutive block letters: reduced, and parabolic runs merge."""
        if nxt == self.inverse_label[prev]:
            return False
        if nxt == prev and self.gens[prev].is_parabolic():
            return False
        return True

    def letter_at(self, x: float):
        for label, g in self.gens.items():
            if g.interval.contains(x):
                return label
        return None

    def interval_of(self, label: str) -> CircleInterval:
        return self.gens[label].interval

    def map_of(self, label: str) -> MobiusMap:
        return self.gens[label].map

    def all_horoballs(self) -> list:
        """One horoball per cusp, marked cusps first, then accidental ones."""
        balls = {}
        for h in list(self.horocircles.values()) + self.accidental_horocircles:
            balls.setdefault(round(boundary_angle(h.base), 9), h)
        return list(balls.values())


def build_group(config: dict) -> GroupPresentation:
    """Validate a presentation description; see presets for the format."""
    entries = config.get("generators", ())
    if not entries:
        raise GroupValidationError("config lists no generators")

    gens: dict = {}
    inverse_label: dict = {}
    for entry in entries:
        label = entry["label"]
        inv_label = entry.get("inverse_label", label.swapcase())
        if label == inv_label:
            raise GroupValidationError(
                "generator %r needs a distinct inverse label" % (label,))
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
        if kind is None:
            kind = "parabolic" if abs(tr2 - 4.0) <= 1e-10 else "hyperbolic"
        if kind == "parabolic" and abs(tr2 - 4.0) > 1e-10:
            raise GroupValidationError(
                "generator %r declared parabolic but trace^2 = %.12g"
                % (label, tr2))
        if kind == "hyperbolic" and tr2 <= 4.0 + 1e-10:
            raise GroupValidationError(
                "generator %r declared hyperbolic but trace^2 = %.12g"
                % (label, tr2))
        fixed = tuple(m.fixed_points())
        iv = CircleInterval(*_as_endpoint_pair(entry["interval"]))
        iv_inv = CircleInterval(*_as_endpoint_pair(entry["interval_inverse"]))
        gens[label] = Generator(kind, m, iv, fixed)
        gens[inv_label] = Generator(kind, m.inverse(), iv_inv,
                                    tuple(reversed(fixed)))
        inverse_label[label] = inv_label
        inverse_label[inv_label] = label

    v = sum(1 for g in gens.values() if g.is_parabolic()) // 2
    u = (len(gens) // 2) - v
    if v < 1:
        raise NoParabolic("presentation needs at least one parabolic pair")
    if u + v <= 1:
        raise Elementary("need u+v > 1 symmetric generator pairs, got %d" % (u + v))

    _validate_intervals(gens, inverse_label)

    horocircles = {}
    for label, g in gens.items():
        if g.is_parabolic():
            horocircles[label] = _horocircle_from_map(g.map)
    accidental = _accidental_horocircles(gens, inverse_label)
    pres = GroupPresentation(
        name=config.get("name", "group"),
        gens=gens,
        inverse_label=inverse_label,
        horocircles=horocircles,
        accidental_horocircles=accidental,
        symmetries=_circle_symmetries(gens, inverse_label),
    )
    _validate_horoball_disjointness(pres)
    return pres


def _as_endpoint_pair(pair):
    """The two endpoints as floats, ``INF`` for oo and beyond ``FAR``."""
    out = []
    for p in pair:
        if isinstance(p, str) and p.strip().lower() in (
                "inf", "+inf", "-inf", "oo", "-oo", "infinity"):
            x = INF
        else:
            x = float(p)
        out.append(INF if abs(x) > FAR else x)
    return out


def _validate_intervals(gens: dict, inverse_label: dict):
    labels = list(gens)
    for l1, l2 in itertools.combinations(labels, 2):
        if not gens[l1].interval.disjoint_from(gens[l2].interval):
            raise NotFree("intervals of %r and %r overlap" % (l1, l2))
    # exact Markov correspondence: g^{-1}(J_g) is the complement of
    # Cl(J_{g^{-1}}), i.e. the arc from hi(J_{g^{-1}}) to lo(J_{g^{-1}}).
    for label, g in gens.items():
        ginv = g.map.inverse()
        jinv = gens[inverse_label[label]].interval
        img_lo = apply_boundary(ginv, g.interval.lo)
        img_hi = apply_boundary(ginv, g.interval.hi)
        if not (_boundary_close(img_lo, jinv.hi) and _boundary_close(img_hi, jinv.lo)):
            raise NotFree(
                "Markov covering fails for %r: image (%r, %r) vs required (%r, %r)"
                % (label, img_lo, img_hi, jinv.hi, jinv.lo))


def _boundary_close(x: float, y: float) -> bool:
    if is_infinity(x) or is_infinity(y):
        return (is_infinity(x) and is_infinity(y)) or abs(x) > FAR or abs(y) > FAR
    return abs(x - y) <= 1e-9 * max(1.0, abs(x), abs(y))


# Largest angle between an image under a candidate symmetry and the arc
# end or boundary point it must match.
SYMMETRY_TOL = 1e-9

# The boundary points, as circle angles, at which a symmetry R and each
# generator g_l must satisfy R g_l = g_perm[l] R: three points fix a
# Moebius map.
SYMMETRY_PROBES = (1.0, 3.0, 5.0)


def angle_distance(a: float, b: float) -> float:
    """Distance of two circle angles, around the circle."""
    return abs((a - b + math.pi) % TWO_PI - math.pi)


def _circle_symmetries(gens: dict, inverse_label: dict) -> tuple:
    """Every symmetry of the presentation (``CircleSymmetry``), the
    identity first.

    A rotation or reflection of the circle angle is fixed by the arc it
    maps J_l0 onto, l0 the first label, so each arc as long as J_l0 gives
    two candidates.  One is kept when it maps every arc onto an arc
    (perm), perm commutes with taking inverses, and R g_l = g_perm[l] R
    holds at the ``SYMMETRY_PROBES`` for every generator.
    """
    ends = {label: (g.interval.angle_lo, g.interval.arc)
            for label, g in gens.items()}
    lo0, arc0 = next(iter(ends.values()))
    out = [CircleSymmetry({label: label for label in gens}, 0.0, False)]
    for lo, arc in ends.values():
        if angle_distance(arc, arc0) > SYMMETRY_TOL:
            continue
        # a reflection maps the far end of J_l0 onto the near end of J_m
        for shift, flip in (((lo - lo0) % TWO_PI, False),
                            ((lo + lo0 + arc0) % TWO_PI, True)):
            if (shift, flip) == (0.0, False):
                continue  # the identity
            sym = _symmetry(gens, inverse_label, ends, shift, flip)
            if sym is not None:
                out.append(sym)
    return tuple(out)


def _symmetry(gens, inverse_label, ends, shift, flip):
    """The ``CircleSymmetry`` of the isometry (shift, flip), or None when
    it is no symmetry of the presentation."""
    perm = {}
    sym = CircleSymmetry(perm, shift, flip)
    for label, (lo, arc) in ends.items():
        start = sym.angle(lo + arc if flip else lo)
        perm[label] = next(
            (m for m, (lo_m, arc_m) in ends.items()
             if angle_distance(lo_m, start) <= SYMMETRY_TOL
             and angle_distance(arc_m, arc) <= SYMMETRY_TOL), None)
        if perm[label] is None:
            return None
    if any(perm[inverse_label[label]] != inverse_label[perm[label]]
           for label in gens):
        return None
    for label, g in gens.items():
        image = gens[perm[label]].map
        for theta in SYMMETRY_PROBES:
            x = boundary_from_angle(theta)
            if angle_distance(
                    sym.angle(boundary_angle(apply_boundary(g.map, x))),
                    boundary_angle(apply_boundary(
                        image, boundary_from_angle(sym.angle(theta))))) \
                    > SYMMETRY_TOL:
                return None
    return sym


def _accidental_horocircles(gens, inverse_label) -> list:
    """Horoballs at shared interval endpoints not covered by marked cusps.

    Free products may have parabolic elements (products of generators)
    fixing the touching points of adjacent intervals; the truncated domain
    is only compact once those cusps are cut too.  The fixing element is
    located by a short reduced-word search.
    """
    marked = set()
    for label, g in gens.items():
        if g.is_parabolic():
            marked.add(round(boundary_angle(g.fixed_points[0]), 9))

    vertices = []
    endpoints = []
    for g in gens.values():
        endpoints.extend([g.interval.lo, g.interval.hi])
    seen = set()
    for p in endpoints:
        key = round(boundary_angle(p), 9)
        if key in marked or key in seen:
            continue
        if sum(1 for q in endpoints if angle_distance(
                boundary_angle(q), boundary_angle(p)) < 1e-9) >= 2:
            seen.add(key)
            vertices.append(p)

    out = []
    for v in vertices:
        w = _parabolic_fixing(gens, inverse_label, v)
        if w is not None:
            out.append(_horocircle_from_map(w))
    return out


def _parabolic_fixing(gens, inverse_label, v):
    """A parabolic reduced word of at most six letters fixing v, or None."""
    words = [(label, gens[label].map) for label in gens]
    for _ in range(6):
        nxt = []
        for label, m in words:
            img = apply_boundary(m, v)
            if _boundary_close_pt(img, v) and m.is_parabolic(1e-8) \
                    and not m.is_identity(1e-10):
                return m
            for label2 in gens:
                if label2 != inverse_label[label]:
                    nxt.append((label2, compose(m, gens[label2].map)))
        words = nxt
    return None


def _boundary_close_pt(x, y):
    if is_infinity(x) or is_infinity(y):
        return is_infinity(x) and is_infinity(y)
    return abs(x - y) <= 1e-8 * max(1.0, abs(x), abs(y))


def _validate_horoball_disjointness(pres: GroupPresentation):
    for b1, b2 in itertools.combinations(pres.all_horoballs(), 2):
        if not geometry.horoballs_disjoint(b1, b2, tol=1e-9):
            raise GroupValidationError(
                "horoballs at %r and %r overlap" % (b1.base, b2.base))


# --- constants -------------------------------------------------------------

def constants_c1(pres: GroupPresentation) -> float:
    """C1 = min(log 3, distance between distinct non-cancelling sides).

    Touching sides (shared ideal endpoint at an accidental cusp, as in the
    Gamma(2) configuration) give distance zero, so C1 = 0 is a legitimate
    value for lattice-type presentations.
    """
    best = math.log(3.0)
    labels = pres.labels()
    for l1, l2 in itertools.combinations(labels, 2):
        if l2 == pres.inv(l1):
            continue  # cancelling side pair
        j1, j2 = pres.interval_of(l1), pres.interval_of(l2)
        d = geodesic_distance_between(j1.lo, j1.hi, j2.lo, j2.hi)
        best = min(best, d)
    return best


def _limit_set_bounds(pres: GroupPresentation) -> dict:
    """Per-letter arcs bounding the limit-set piece inside each interval.

    Iterates J_g -> hull(g(union of admissible pieces)) 60 times; for
    lattice-type systems this is a fixed point immediately, for second-kind
    groups it shrinks to a tight cover of the limit set.
    """
    bounds = {l: (0.0, pres.interval_of(l).arc) for l in pres.labels()}
    for _ in range(60):
        new = {}
        for label in pres.labels():
            g = pres.gen(label)
            jg = g.interval
            lo_best, hi_best = None, None
            for other in pres.labels():
                if other == pres.inv(label):
                    continue
                jo = pres.interval_of(other)
                olo, ohi = bounds[other]
                for off in (olo, ohi):
                    x = boundary_from_angle(jo.angle_lo + off)
                    pos = jg.offset_on_arc(apply_boundary(g.map, x))
                    lo_best = pos if lo_best is None else min(lo_best, pos)
                    hi_best = pos if hi_best is None else max(hi_best, pos)
            new[label] = (lo_best, hi_best)
        bounds = new
    out = {}
    for label in pres.labels():
        jg = pres.interval_of(label)
        lo, hi = bounds[label]
        out[label] = CircleInterval(
            boundary_from_angle(jg.angle_lo + lo),
            boundary_from_angle(jg.angle_lo + hi),
        )
    return out


def _core_gap_halfplanes(pres: GroupPresentation) -> list:
    """Half-planes below the geodesics spanning gaps of the limit set."""
    bounds = _limit_set_bounds(pres)
    marks = []
    for label in pres.labels():
        b = bounds[label]
        marks.append((boundary_angle(b.lo), boundary_angle(b.hi)))
    marks.sort()
    gaps = []
    for k, (lo_a, hi_a) in enumerate(marks):
        nxt_lo = marks[(k + 1) % len(marks)][0]
        width = (nxt_lo - hi_a) % TWO_PI
        if width > 1e-7 and width < TWO_PI - 1e-7:
            u = boundary_from_angle(hi_a)
            v = boundary_from_angle(nxt_lo)
            gaps.append(geometry.halfplane_of_interval(u, v))
    return gaps


def constant_c0(pres: GroupPresentation, grid: int) -> float:
    """C0: max pairwise distance over the sampled boundary of the
    truncated core, ``grid`` steps per side and horocircle.

    The sampled region: on the fundamental-domain side of every interval
    geodesic, outside every horoball (marked cusps plus accidental ones),
    inside the convex core (outside every limit-set gap half-plane).  The
    returned value inflates the raw sampled maximum by a 10% mesh margin;
    downstream uses of C0 are error bands, so over-estimation is safe.
    """
    side_hps = [pres.interval_of(l).halfplane() for l in pres.labels()]
    gap_hps = _core_gap_halfplanes(pres)
    balls = pres.all_horoballs()

    def keep(pt: PlanePoint, skip_hp=None) -> bool:
        for hp in side_hps:
            if hp is not skip_hp and hp.contains(pt, tol=1e-12):
                return False
        for hp in gap_hps:
            if hp.contains(pt, tol=-1e-9):
                return False
        for b in balls:
            if b.contains(pt, tol=-1e-9):
                return False
        return True

    pts: list[PlanePoint] = []
    fracs = [k / grid for k in range(1, grid)]
    for hp in side_hps + gap_hps:
        g = hp.boundary
        for f in fracs:
            if g.kind == "circle":
                pt = g.point_at(math.pi * f)
            else:
                pt = g.point_at(math.log(math.tan(0.5 * math.pi * f)))
            if keep(pt, skip_hp=hp):
                pts.append(pt)
    for b in balls:
        for f in fracs:
            pt = b.boundary_point_at(f)
            if pt.y > 0.0 and keep(pt):
                pts.append(pt)

    raw = 0.0
    for p, q in itertools.combinations(pts, 2):
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
        iv = [apply_boundary(m, x) for x in _as_endpoint_pair(entry["interval"])]
        ivi = [apply_boundary(m, x)
               for x in _as_endpoint_pair(entry["interval_inverse"])]
        new = dict(entry)
        new["matrix"] = [gc.a, gc.b, gc.c, gc.d]
        new["interval"] = iv
        new["interval_inverse"] = ivi
        out["generators"].append(new)
    return out
