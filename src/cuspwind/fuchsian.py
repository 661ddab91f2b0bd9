"""Group presentations: generators, Markov intervals, horocircles, constants.

A presentation is supplied as data (matrices plus boundary intervals); the
builder validates that the intervals form a Markov system for the
Bowen-Series map rather than deriving them from a fundamental-domain
computation.  Conventions:

* each symmetric generator g owns the interval J_g on which the coding
  records the letter g; the expanding map there is T = g^{-1},
* the Markov property is the exact endpoint correspondence
  g^{-1}(J_g) = interior of the complement of Cl(J_{g^{-1}}).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

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
        mid = self.midpoint()
        return not other.contains(mid)

    def midpoint(self) -> float:
        return boundary_from_angle(self.angle_lo + 0.5 * self.arc)

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


@dataclass
class GroupPresentation:
    """Validated symmetric presentation with its geometric constants."""

    name: str
    gens: dict
    inverse_label: dict
    horocircles: dict  # parabolic label (both of a +/- pair) -> Horoball
    accidental_horocircles: list
    c1: float = field(default=0.0)
    _c0_cache: dict = field(default_factory=dict)

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

    # --- constants -----------------------------------------------------

    def constant_c2(self) -> float:
        return max(math.log(4.0), self.constant_c0())

    def constant_c0(self, grid: int = 64) -> float:
        if grid not in self._c0_cache:
            self._c0_cache[grid] = _sample_c0(self, grid)
        return self._c0_cache[grid]


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
    )
    _validate_horoball_disjointness(pres)
    pres.c1 = constants_c1(pres)
    return pres


def _as_endpoint_pair(pair):
    out = []
    for p in pair:
        if isinstance(p, str):
            s = p.strip().lower()
            if s in ("inf", "+inf", "-inf", "oo", "-oo", "infinity"):
                out.append(INF)
            else:
                out.append(float(p))
        else:
            x = float(p)
            out.append(INF if math.isinf(x) else x)
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
        return (is_infinity(x) and is_infinity(y)) or abs(x) > 1e12 or abs(y) > 1e12
    return abs(x - y) <= 1e-9 * max(1.0, abs(x), abs(y))


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
        if sum(1 for q in endpoints
               if abs((boundary_angle(q) - boundary_angle(p)) % TWO_PI) < 1e-9
               or abs((boundary_angle(q) - boundary_angle(p)) % TWO_PI - TWO_PI) < 1e-9) >= 2:
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
                    y = apply_boundary(g.map, x)
                    pos = jg.offset(y)
                    if pos > jg.arc + 1e-9:  # endpoint identified across wrap
                        pos = min(pos, jg.arc)
                    lo_best = pos if lo_best is None else min(lo_best, pos)
                    hi_best = pos if hi_best is None else max(hi_best, pos)
            new[label] = (max(0.0, lo_best), min(jg.arc, hi_best))
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


def _sample_c0(pres: GroupPresentation, grid: int) -> float:
    """Max pairwise distance over sampled boundary of the truncated core.

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
