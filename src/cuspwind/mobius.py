"""Moebius transformation algebra on the boundary circle.

Conventions used throughout the package:

* a Moebius map acts on the boundary R u {oo} of the hyperbolic plane,
  and the package holds no point of the plane itself: a boundary point is
  its circle angle under the Cayley map (``boundary_angle``), or a
  homogeneous vector (``boundary_vector``, ``vector_angle``), and Moebius
  maps move angles (``apply_angle``) and vectors (``apply_vector``),
* the real coordinate x appears only at the edges: config endpoints, the
  conjugated configs of ``fuchsian.conjugate_config``, error messages and
  the Bowen-Series coding; there the point at infinity is ``math.inf``
  (``-math.inf`` is accepted on input and treated as the same point),
* matrices are normalized to determinant one with the first numerically
  nonzero entry of (a, c) positive, so PSL(2,R) equality is plain
  entrywise comparison,
* ``ALG_TOL`` is the tolerance of exact algebraic identities (the
  identity map).
"""

from __future__ import annotations

import math

ALG_TOL = 1e-12


def boundary_angle(x: float) -> float:
    """Canonical angle in (0, 2*pi] of a boundary point under the Cayley map.

    The angle increases with x and the point at infinity sits at 2*pi, so
    interval arithmetic on the circle reduces to ordinary arithmetic mod 2*pi.
    """
    if math.isinf(x):
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
        return math.inf
    return -1.0 / math.tan(theta / 2.0)


def boundary_vector(theta: float) -> tuple:
    """u(theta) = (-cos theta/2, sin theta/2), the unit homogeneous vector
    of the boundary point of circle angle theta: the vector (x, 1) / |(x, 1)|
    of x = boundary_from_angle(theta) up to sign, and exactly (1, 0) at
    theta = 2 pi, the point oo."""
    # (cos phi, sin phi), with phi exactly 0 at theta = 2 pi
    phi = math.pi - 0.5 * theta
    return math.cos(phi), math.sin(phi)


def vector_angle(v: tuple) -> float:
    """Circle angle in [0, 2 pi] of the boundary point of the homogeneous
    vector v: the inverse of ``boundary_vector``, up to the sign of v."""
    return 2.0 * math.atan2(v[1], -v[0]) % (2.0 * math.pi)


def apply_vector(m: MobiusMap, v: tuple) -> tuple:
    """The matrix m times the homogeneous vector v."""
    return m.a * v[0] + m.b * v[1], m.c * v[0] + m.d * v[1]


def apply_angle(m: MobiusMap, theta: float) -> float:
    """Projective action on the boundary circle, in circle angles: the
    angle of m u(theta), with no case for oo or the pole of m."""
    return vector_angle(apply_vector(m, boundary_vector(theta)))


def unit_image(m: MobiusMap, theta: float) -> tuple:
    """The unit vector of m u(theta) (``boundary_vector``).

    In this form the circle-chart derivative of a matrix M at the point is
    1 / |M w|^2 for w = unit_image(I, theta), with no case for oo.
    """
    v0, v1 = apply_vector(m, boundary_vector(theta))
    norm = math.hypot(v0, v1)
    return v0 / norm, v1 / norm



class MobiusMap:
    """Real 2x2 matrix of determinant one, up to sign: a Moebius map."""

    def __init__(self, a: float, b: float, c: float, d: float):
        self.a, self.b, self.c, self.d = a, b, c, d

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

    def nilpotent(self) -> tuple:
        """The entries (a, b, c, d) of N = M - I for the sign of the matrix
        with trace +2; N^2 = 0 when M is parabolic."""
        s = math.copysign(1.0, self.trace())
        return s * self.a - 1.0, s * self.b, s * self.c, s * self.d - 1.0


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
    m^k = I + k (m - I) (``MobiusMap.nilpotent``).
    """
    if abs(abs(m.trace()) - 2.0) > 1e-8:
        raise ValueError("parabolic_power applied to a non-parabolic map")
    n0, n1, n2, n3 = m.nilpotent()
    return MobiusMap.from_entries(1.0 + k * n0, k * n1, k * n2, 1.0 + k * n3)


def apply_boundary(m: MobiusMap, x: float) -> float:
    """Projective action on the boundary circle R u {oo}."""
    if math.isinf(x):
        if abs(m.c) < 1e-300:
            return math.inf
        return m.a / m.c
    den = m.c * x + m.d
    if den == 0.0:
        return math.inf
    return (m.a * x + m.b) / den

