"""Bowen-Series coding, block words, displacement, arc decomposition.

A boundary point x in the interval J_g records the letter g and the
expanding map applies g^{-1}; the word letters therefore compose to the
point itself, x = lim B_1...B_n (base point), which is the orientation
fixed by the round-trip invariant.  Blocks are maximal runs of one
parabolic letter (winding a_k = run length - 1) or single hyperbolic
letters (a_k = 0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CodingStalled, GeodesicMissesHorocircle, OutsideAllIntervals
from .fuchsian import GroupPresentation
from .geometry import Geodesic, intersect_geodesic_horocircle, intersect_geodesics
from .mobius import (
    BASE_POINT,
    MobiusMap,
    apply_boundary,
    apply_plane,
    hyperbolic_distance,
    power,
)

PARAM_TOL = 1e-9


def log_plus(a: float) -> float:
    return math.log(a) if a > 1.0 else 0.0


@dataclass(frozen=True)
class BlockWord:
    """Coded prefix: ((label, exponent), ...) with exponents >= 1."""

    blocks: tuple

    def __len__(self):
        return len(self.blocks)

    def __getitem__(self, k):
        return self.blocks[k]

    def windings(self, pres: GroupPresentation) -> tuple:
        out = []
        for label, exp in self.blocks:
            out.append(exp - 1 if pres.gen(label).is_parabolic() else 0)
        return tuple(out)

    def symbols(self) -> list:
        out = []
        for label, exp in self.blocks:
            out.extend([label] * exp)
        return out

    def validate(self, pres: GroupPresentation):
        for (l1, _), (l2, _) in zip(self.blocks, self.blocks[1:]):
            if not pres.block_admissible(l1, l2):
                raise ValueError("blocks %r -> %r not admissible" % (l1, l2))
        for label, exp in self.blocks:
            if exp < 1:
                raise ValueError("block exponent must be >= 1")
            if not pres.gen(label).is_parabolic() and exp != 1:
                raise ValueError("hyperbolic blocks have length one")


def block_element(pres: GroupPresentation, label: str, exp: int) -> MobiusMap:
    return power(pres.map_of(label), exp)


def bowen_series_step(pres: GroupPresentation, x: float):
    """One step of the boundary Markov map: (T x, recorded letter)."""
    label = pres.letter_at(x)
    if label is None:
        raise OutsideAllIntervals("point %r is not interior to any interval" % (x,))
    return apply_boundary(pres.gen(label).map.inverse(), x), label


def code_point(pres: GroupPresentation, x: float, n_blocks: int) -> BlockWord:
    """First n_blocks blocks of the coding of x.

    A parabolic run only closes once a different letter shows up, so the
    orbit is advanced one letter past the last requested block.
    """
    if n_blocks == 0:
        return BlockWord(())
    blocks = []
    run_label = None
    run_len = 0
    y = x
    guard = 0
    while True:
        guard += 1
        if guard > 200 * (n_blocks + 2) + 10_000:
            raise CodingStalled("coding did not close %d blocks" % n_blocks)
        try:
            y_next, label = bowen_series_step(pres, y)
        except OutsideAllIntervals as exc:
            raise CodingStalled(
                "orbit left the coding domain after %d blocks" % len(blocks)
            ) from exc
        if run_label is None:
            run_label, run_len = label, 1
        elif label == run_label and pres.gen(label).is_parabolic():
            run_len += 1
        else:
            blocks.append((run_label, run_len))
            if len(blocks) == n_blocks:
                return BlockWord(tuple(blocks))
            run_label, run_len = label, 1
        if not pres.gen(run_label).is_parabolic():
            blocks.append((run_label, run_len))
            if len(blocks) == n_blocks:
                return BlockWord(tuple(blocks))
            run_label = None
            run_len = 0
        y = y_next


def point_from_symbols(pres: GroupPresentation, symbols) -> float:
    """Boundary point whose coding starts with the given reduced letters.

    The continuation is the midpoint of an admissible interval, pushed
    forward through the inverse branches.
    """
    cand = next(g for g in pres.labels()
                if pres.block_admissible(symbols[-1], g))
    x = pres.interval_of(cand).midpoint()
    for label in reversed(symbols):
        x = apply_boundary(pres.map_of(label), x)
    return x


@dataclass(frozen=True)
class ArcDecomposition:
    """Per-block arc lengths of the geodesic [i, B_1...B_n(i)].

    lengths[k] is l(xi_{k+1}); total is the full displacement, which
    exceeds sum(lengths) by the final arc l(xi_{n+1}), bounded by the
    constant C0 of the presentation.
    """

    lengths: tuple
    windings: tuple
    total: float


def arc_decomposition(pres: GroupPresentation, word: BlockWord) -> ArcDecomposition:
    word.validate(pres)
    n = len(word)
    windings = word.windings(pres)
    if n == 0:
        return ArcDecomposition((), (), 0.0)

    elements = [block_element(pres, label, exp) for label, exp in word.blocks]
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
        geo = Geodesic.through_points(start, q[k])
        sgn = 1.0 if geo.param(q[k]) >= geo.param(start) else -1.0
        t_prev = sgn * geo.param(prev)
        t_end = sgn * geo.param(q[k])

        if exp == 1:
            side = pres.interval_of(label).geodesic()
            pts = intersect_geodesics(geo, side)
            pts = [p for p in pts
                   if t_prev - PARAM_TOL <= sgn * geo.param(p) <= t_end + PARAM_TOL]
            if not pts:
                raise GeodesicMissesHorocircle(
                    "no side crossing for block %d (%r)" % (k, label),
                    block_index=k)
            pt = pts[0]
        else:
            ball = pres.horocircles[label]
            pts = intersect_geodesic_horocircle(geo, ball)
            pts = [p for p in pts
                   if t_prev - PARAM_TOL <= sgn * geo.param(p) <= t_end + PARAM_TOL]
            if pts:
                pt = max(pts, key=lambda p: sgn * geo.param(p))  # exit crossing
            elif ball.contains(q[k], tol=PARAM_TOL):
                pt = q[k]  # geodesic ends inside the horoball
            else:
                raise GeodesicMissesHorocircle(
                    "geodesic misses the horoball of block %d (%r^%d)"
                    % (k, label, exp), block_index=k)

        lengths.append(hyperbolic_distance(prev, pt))
        binv = elements[k - 1].inverse()
        start = apply_plane(binv, start)
        prev = apply_plane(binv, pt)

    total = hyperbolic_distance(q[1], BASE_POINT)
    return ArcDecomposition(tuple(lengths), windings, total)


def random_block_word(pres: GroupPresentation, rng,
                      n_blocks: int) -> BlockWord:
    """Seeded random admissible block word with geometric exponents of
    mean 2, capped at 12."""
    labels = pres.labels()
    blocks = []
    prev = None
    for _ in range(n_blocks):
        choices = [l for l in labels
                   if prev is None or pres.block_admissible(prev, l)]
        label = choices[rng.integers(len(choices))]
        if pres.gen(label).is_parabolic():
            exp = min(12, rng.geometric(0.5))
        else:
            exp = 1
        blocks.append((label, int(exp)))
        prev = label
    return BlockWord(tuple(blocks))


def poincare_divergence_probe(pres: GroupPresentation, ss) -> list:
    """Shell-ratio divergence statistics of the Poincare series over words
    of length up to 13, one dict per exponent s in ``ss``.

    Each holds the last raw shell ratio and its 1/L Richardson
    extrapolation; values above one indicate divergence (s below the
    exponent).  The parabolic directions slow the ratio convergence to
    O(1/L), hence the extrapolation.
    """
    out = []
    for s, shells in zip(ss, poincare_shell_sums(pres, ss, 13)):
        ratios = [shells[k + 1] / shells[k] for k in range(len(shells) - 1)]
        n = len(ratios)
        extrapolated = ratios[-1] + (ratios[-1] - ratios[-2]) * (n - 1)
        out.append({"s": s, "ratio": ratios[-1], "extrapolated": extrapolated,
                    "shells": len(shells)})
    return out


def poincare_shell_sums(pres: GroupPresentation, ss, max_len: int) -> list:
    """Partial Poincare-series shells sum_{|w|=L} exp(-s d(w(i), i)), one
    list per exponent s in ``ss``.

    Reduced words over the symmetric generators, enumerated breadth-first
    with vectorized matrix products (once for all exponents); the
    shell-ratio trend detects whether the series diverges (s below the
    exponent) or converges (s above).  Completely independent of the
    induced-system machinery.  Each shell is kept as one block of matrix
    rows per last letter, so block j of the next shell is built from the
    blocks whose last letter is not j^-1; the final shell is only summed,
    block by block, never stored.
    """
    labels = pres.labels()
    mats = np.array([[pres.map_of(l).a, pres.map_of(l).b,
                      pres.map_of(l).c, pres.map_of(l).d] for l in labels])
    inv_idx = np.array([labels.index(pres.inv(l)) for l in labels])
    k = len(labels)
    shells = [[0.0] * max_len for _ in ss]

    def times(rows, g):
        """Rows (a, b, c, d) of the products rows * g."""
        return np.stack([rows[:, 0] * g[0] + rows[:, 1] * g[2],
                         rows[:, 0] * g[1] + rows[:, 1] * g[3],
                         rows[:, 2] * g[0] + rows[:, 3] * g[2],
                         rows[:, 2] * g[1] + rows[:, 3] * g[3]], axis=1)

    def add(level, rows):
        a, b, c, d = rows[:, 0], rows[:, 1], rows[:, 2], rows[:, 3]
        den = c * c + d * d
        x = (b * d + a * c) / den
        y = 1.0 / den
        u = (x * x + (y - 1.0) ** 2) / (2.0 * y)
        dist = np.arccosh(1.0 + u)
        for s, out in zip(ss, shells):
            out[level] += float(np.exp(-s * dist).sum())

    blocks = [mats[j:j + 1] for j in range(k)]  # words of length 1
    for rows in blocks:
        add(0, rows)
    for level in range(1, max_len):
        nxt = []
        for j in range(k):
            prev = [blocks[i] for i in range(k) if i != inv_idx[j]]
            if level == max_len - 1:
                for rows in prev:
                    add(level, times(rows, mats[j]))
            else:
                nxt.append(times(np.concatenate(prev), mats[j]))
                add(level, nxt[-1])
        blocks = nxt
    return shells
