"""Moebius transformation algebra and hyperbolic-plane primitives.

Conventions used throughout the package:

* the hyperbolic plane is the upper half-plane, its boundary the circle
  R u {oo}; the single point at infinity is represented by ``math.inf``
  (``-math.inf`` is accepted on input and treated as the same point),
* matrices are normalized to determinant one with the first numerically
  nonzero entry of (a, c) positive, so PSL(2,R) equality is plain
  entrywise comparison,
* ``ALG_TOL`` is the tolerance of exact algebraic identities (the
  identity map).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

ALG_TOL = 1e-12

INF = math.inf


def is_infinity(x: float) -> bool:
    return math.isinf(x)


def boundary_angle(x: float) -> float:
    """Canonical angle in (0, 2*pi] of a boundary point under the Cayley map.

    The angle increases with x and the point at infinity sits at 2*pi, so
    interval arithmetic on the circle reduces to ordinary arithmetic mod 2*pi.
    """
    if is_infinity(x):
        return 2.0 * math.pi
    theta = math.atan2(-2.0 * x, x * x - 1.0)
    if theta <= 0.0:
        theta += 2.0 * math.pi
    return theta


def boundary_from_angle(theta: float) -> float:
    """Inverse of :func:`boundary_angle`."""
    theta = math.fmod(theta, 2.0 * math.pi)
    if theta <= 0.0:
        theta += 2.0 * math.pi
    if abs(theta - 2.0 * math.pi) < 1e-15:
        return INF
    return -1.0 / math.tan(theta / 2.0)


@dataclass(frozen=True)
class PlanePoint:
    """Point of the open upper half-plane."""

    x: float
    y: float

    def __post_init__(self):
        if not self.y > 0.0:
            raise ValueError("PlanePoint requires y > 0, got y=%r" % (self.y,))


BASE_POINT = PlanePoint(0.0, 1.0)


@dataclass(frozen=True)
class MobiusMap:
    """Real 2x2 matrix of determinant one acting on the upper half-plane."""

    a: float
    b: float
    c: float
    d: float

    @staticmethod
    def from_entries(a: float, b: float, c: float, d: float) -> "MobiusMap":
        det = a * d - b * c
        if det <= 0.0:
            raise ValueError("MobiusMap needs positive determinant, got %r" % det)
        s = 1.0 / math.sqrt(det)
        a, b, c, d = a * s, b * s, c * s, d * s
        # canonical PSL(2,R) representative: first nonzero of (a, c) positive
        lead = a if abs(a) > 1e-14 else c
        if lead < 0.0:
            a, b, c, d = -a, -b, -c, -d
        return MobiusMap(a, b, c, d)

    @staticmethod
    def identity() -> "MobiusMap":
        return MobiusMap(1.0, 0.0, 0.0, 1.0)

    def inverse(self) -> "MobiusMap":
        return MobiusMap.from_entries(self.d, -self.b, -self.c, self.a)

    def trace(self) -> float:
        return self.a + self.d

    def is_identity(self, tol: float = ALG_TOL) -> bool:
        return (
            abs(self.a - 1.0) <= tol
            and abs(self.b) <= tol
            and abs(self.c) <= tol
            and abs(self.d - 1.0) <= tol
        )

    def is_parabolic(self, tol: float = 1e-10) -> bool:
        return abs(self.trace() ** 2 - 4.0) <= tol and not self.is_identity(1e-14)

    def fixed_points(self) -> list[float]:
        """Boundary fixed points; one for parabolic, two for hyperbolic."""
        if abs(self.c) < 1e-14:
            # fixes infinity; second fixed point of a hyperbolic is b/(d-a)
            if self.is_parabolic():
                return [INF]
            return [INF, self.b / (self.d - self.a)]
        if self.is_parabolic():
            return [(self.a - self.d) / (2.0 * self.c)]
        disc = self.trace() ** 2 - 4.0
        if disc <= 0.0:
            raise ValueError("elliptic transformation has no boundary fixed point")
        r = math.sqrt(disc)
        return [
            (self.a - self.d - r) / (2.0 * self.c),
            (self.a - self.d + r) / (2.0 * self.c),
        ]


def compose(m1: MobiusMap, m2: MobiusMap) -> MobiusMap:
    """Matrix product m1*m2, i.e. the action z -> m1(m2(z))."""
    return MobiusMap.from_entries(
        m1.a * m2.a + m1.b * m2.c,
        m1.a * m2.b + m1.b * m2.d,
        m1.c * m2.a + m1.d * m2.c,
        m1.c * m2.b + m1.d * m2.d,
    )


def parabolic_power(m: MobiusMap, k: int) -> MobiusMap:
    """Exact k-th power of a parabolic map via its nilpotent part.

    A parabolic with trace +2 satisfies (m - I)^2 = 0, hence
    m^k = I + k (m - I).  Trace -2 representatives are sign-flipped first.
    """
    a, b, c, d = m.a, m.b, m.c, m.d
    if a + d < 0.0:
        a, b, c, d = -a, -b, -c, -d
    if abs(a + d - 2.0) > 1e-8:
        raise ValueError("parabolic_power applied to a non-parabolic map")
    return MobiusMap.from_entries(
        1.0 + k * (a - 1.0), k * b, k * c, 1.0 + k * (d - 1.0)
    )


def power(m: MobiusMap, k: int) -> MobiusMap:
    """Integer power by repeated squaring (closed form for parabolics)."""
    if k == 0:
        return MobiusMap.identity()
    if k < 0:
        return power(m.inverse(), -k)
    if m.is_parabolic(1e-12):
        return parabolic_power(m, k)
    out = MobiusMap.identity()
    base = m
    while k:
        if k & 1:
            out = compose(out, base)
        base = compose(base, base)
        k >>= 1
    return out


def apply_boundary(m: MobiusMap, x: float) -> float:
    """Projective action on the boundary circle R u {oo}."""
    if is_infinity(x):
        if abs(m.c) < 1e-300:
            return INF
        return m.a / m.c
    den = m.c * x + m.d
    if den == 0.0:
        return INF
    return (m.a * x + m.b) / den


def apply_plane(m: MobiusMap, z: PlanePoint) -> PlanePoint:
    """Isometric action on the upper half-plane."""
    cx = m.c * z.x + m.d
    cy = m.c * z.y
    den = cx * cx + cy * cy
    ax = m.a * z.x + m.b
    ay = m.a * z.y
    return PlanePoint((ax * cx + ay * cy) / den, z.y / den)


def hyperbolic_distance(z: PlanePoint, w: PlanePoint) -> float:
    dx = z.x - w.x
    dy = z.y - w.y
    u = (dx * dx + dy * dy) / (2.0 * z.y * w.y)
    return math.acosh(1.0 + u) if u > 0.0 else 0.0


def geodesic_distance_between(u1: float, v1: float, u2: float, v2: float) -> float:
    """Distance between the complete geodesics with ideal endpoints (u1,v1), (u2,v2).

    Returns 0 when the geodesics cross, touch, or share an ideal endpoint.
    Endpoints may be oo.
    """
    ends1 = {u1, v1}
    ends2 = {u2, v2}
    if ends1 & ends2:
        return 0.0
    # send (u1, v1) to (0, oo) and measure against the image of the second
    m = _map_to_zero_infinity(u1, v1)
    p = apply_boundary(m, u2)
    q = apply_boundary(m, v2)
    if is_infinity(p) or is_infinity(q):
        return 0.0  # shares the ideal endpoint oo after mapping
    if p * q <= 0.0:
        return 0.0  # crosses the imaginary axis
    lo, hi = sorted([abs(p), abs(q)])
    mid = 0.5 * (lo + hi)
    rad = 0.5 * (hi - lo)
    if rad <= 0.0:
        return 0.0
    return math.acosh(mid / rad)


def _map_to_zero_infinity(u: float, v: float) -> MobiusMap:
    """Some PSL(2,R) map sending u -> 0 and v -> oo."""
    if is_infinity(v):
        return MobiusMap.from_entries(1.0, -u, 0.0, 1.0)
    if is_infinity(u):
        # z -> -1/(z - v) sends oo -> 0, v -> oo
        return MobiusMap.from_entries(0.0, -1.0, 1.0, -v)
    # z -> k(z - u)/(z - v) with k = sign(u - v) so the determinant is positive
    if u > v:
        return MobiusMap.from_entries(1.0, -u, 1.0, -v)
    return MobiusMap.from_entries(-1.0, u, 1.0, -v)
