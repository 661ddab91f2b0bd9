"""Bowen-Series coding, block words, displacement, arc decomposition,
and the check that the coding conjugates the induced shift.

A boundary point x in the interval J_g records the letter g and the
expanding map applies g^{-1}; the word letters therefore compose to the
point itself, x = lim B_1...B_n (base point), which is the orientation
fixed by the round-trip invariant.  Blocks are maximal runs of one
parabolic letter (winding a_k = run length - 1) or single hyperbolic
letters (a_k = 0).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (
    CodingStalled,
    GeodesicMissesHorocircle,
    OutsideAllIntervals,
    ReachedCusp,
)
from .fuchsian import ANGLE_TOL, GroupPresentation, angle_distance
from .geometry import Geodesic
from .mobius import (
    BASE_POINT,
    apply_boundary,
    apply_plane,
    boundary_angle,
    boundary_from_angle,
    hyperbolic_distance,
)

PARAM_TOL = 1e-9
SUFFIX_LEN = 3  # the shells that poincare_shell_sums takes from Gram entries


def log_plus(a: float) -> float:
    return math.log(a) if a > 1.0 else 0.0


class BlockWord:
    """Coded prefix: ((label, exponent), ...) with exponents >= 1."""

    def __init__(self, blocks: tuple):
        self.blocks = blocks

    def __len__(self):
        return len(self.blocks)

    def windings(self, pres: GroupPresentation) -> tuple:
        out = []
        for label, exp in self.blocks:
            out.append(exp - 1 if pres.gens[label].parabolic else 0)
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
            if not pres.gens[label].parabolic and exp != 1:
                raise ValueError("hyperbolic blocks have length one")


def bowen_series_step(pres: GroupPresentation, x: float):
    """One step of the boundary Markov map: (T x, recorded letter)."""
    label = pres.letter_at(x)
    if label is None:
        raise OutsideAllIntervals("point %r is not interior to any interval" % (x,))
    return apply_boundary(pres.gens[label].map.inverse(), x), label


def code_point(pres: GroupPresentation, x: float, n_blocks: int) -> BlockWord:
    """First n_blocks blocks of the coding of x.

    A hyperbolic run closes at once, a parabolic one only once a different
    letter shows up, so the orbit is advanced one letter past the last
    requested block.  An orbit that lands on an arc endpoint stops: at a
    cusp (to ``ANGLE_TOL`` in angle) with ``ReachedCusp``, which carries
    the closed blocks, and elsewhere with ``CodingStalled``.
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


def point_from_symbols(pres: GroupPresentation, symbols) -> float:
    """Boundary point whose coding starts with the given reduced letters.

    The continuation is the midpoint of an admissible interval, pushed
    forward through the inverse branches.
    """
    cand = next(g for g in pres.gens
                if pres.block_admissible(symbols[-1], g))
    x = boundary_from_angle(pres.gens[cand].interval.point_at(0.5))
    for label in reversed(symbols):
        x = apply_boundary(pres.gens[label].map, x)
    return x


class ArcDecomposition:
    """Per-block arc lengths of the geodesic [i, B_1...B_n(i)].

    lengths[k] is l(xi_{k+1}), the arc of the block of winding
    ``word.windings(pres)[k]``; total is the full displacement, which
    exceeds sum(lengths) by the final arc l(xi_{n+1}), bounded by the
    constant C0 of the presentation.
    """

    def __init__(self, lengths: tuple, total: float):
        self.lengths, self.total = lengths, total


def arc_decomposition(pres: GroupPresentation, word: BlockWord) -> ArcDecomposition:
    word.validate(pres)
    n = len(word)
    if n == 0:
        return ArcDecomposition((), 0.0)

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
            found = geo.crossings(pres.gens[label].interval.geodesic())
        else:
            ball = pres.gens[label].horoball
            found = geo.horoball_crossings(ball)
        found = [s for s in found
                 if s_prev - PARAM_TOL <= s <= s_end + PARAM_TOL]
        if found:
            pt = geo.point_at(found[-1])  # the exit crossing of a horoball
        elif exp > 1 and ball.depth(q[k]) >= -PARAM_TOL:
            pt = q[k]  # geodesic ends inside the horoball
        else:
            raise GeodesicMissesHorocircle(
                "geodesic misses the %s of block %d (%r^%d)"
                % ("side" if exp == 1 else "horoball", k, label, exp))

        lengths.append(hyperbolic_distance(prev, pt))
        binv = elements[k - 1].inverse()
        start = apply_plane(binv, start)
        prev = apply_plane(binv, pt)

    total = hyperbolic_distance(q[1], BASE_POINT)
    return ArcDecomposition(tuple(lengths), total)


def random_block_word(pres: GroupPresentation, rng,
                      n_blocks: int) -> BlockWord:
    """Seeded random admissible block word with geometric exponents of
    mean 2, capped at 12."""
    labels = list(pres.gens)
    blocks = []
    prev = None
    for _ in range(n_blocks):
        choices = [l for l in labels
                   if prev is None or pres.block_admissible(prev, l)]
        label = choices[rng.integers(len(choices))]
        if pres.gens[label].parabolic:
            exp = min(12, rng.geometric(0.5))
        else:
            exp = 1
        blocks.append((label, int(exp)))
        prev = label
    return BlockWord(tuple(blocks))


def letters_of_blocks(word: BlockWord) -> list:
    """Induced letters read off a coded block word (needs a_1 = 0), each
    as its tuple of symbols."""
    blocks = word.blocks
    if not blocks:
        return []
    if blocks[0][1] != 1:
        raise ValueError("point not in the induced domain: first block length %d"
                         % blocks[0][1])
    out = []
    for k in range(len(blocks) - 2):
        l0, _ = blocks[k]
        l1, e1 = blocks[k + 1]
        l2, _ = blocks[k + 2]
        out.append((l0,) + (l1,) * e1 + (l2,))
    return out


def induced_step(pres: GroupPresentation, x: float) -> float:
    """First-return map T_D: iterate the boundary map until a_1 = 0 again."""
    word = code_point(pres, x, 2)
    rho = word.blocks[1][1]
    if word.blocks[0][1] != 1:
        raise ValueError("point not in the induced domain")
    y = x
    for _ in range(rho):
        y, _ = bowen_series_step(pres, y)
    return y


class ConjugacyReport:
    def __init__(self, mismatches: list, resampled: int):
        self.mismatches, self.resampled = mismatches, resampled

    @property
    def ok(self) -> bool:
        return not self.mismatches


def conjugacy_check(pres: GroupPresentation, samples: int,
                    letters_each: int, seed: int) -> ConjugacyReport:
    """Letterwise test of pi o T_D = sigma o pi on sampled induced points.

    A sample is the point of a random admissible block word, whose first
    ``letters_each`` induced letters are compared with those of its
    images.  The float orbit of a drawn point often leaves the coding
    arcs: on one-cusp, 893 of 2,893 draws over seeds 0-9 x 200 samples
    stall (``CodingStalled``), each 2.6e-5 to 0.43 rad from an arc end
    after a median of 18 Bowen-Series steps, and none at a cusp; the 40
    draws of ``validate`` at seed 1234 stall none.  A stalled draw is
    replaced and counted in ``resampled``; past 20 x ``samples`` of
    them the stall is raised.
    """
    rng = np.random.default_rng(seed)
    mismatches = []
    resampled = 0
    done = 0
    while done < samples:
        # sample a point of D with a known-deep admissible continuation;
        # the written prefix must cover all blocks the recoding consumes
        while True:
            w = random_block_word(pres, rng, letters_each + 8)
            if w.blocks[0][1] == 1:
                break
        x = point_from_symbols(pres, w.symbols())
        try:
            direct = letters_of_blocks(code_point(pres, x, letters_each + 2))
            y = x
            for j in range(letters_each - 1):
                y = induced_step(pres, y)
                shifted = letters_of_blocks(
                    code_point(pres, y, letters_each + 2 - (j + 1)))
                want = direct[j + 1:]
                got = shifted[:len(want)]
                if tuple(got) != tuple(want[:len(got)]):
                    mismatches.append((done, j, w.blocks))
                    break
        except CodingStalled:
            resampled += 1
            if resampled > 20 * samples:
                raise
            continue
        done += 1
    return ConjugacyReport(mismatches, resampled)


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
    induced-system machinery.  For det W = 1, cosh d(W(i), i) is half the
    squared Frobenius norm of W.  The words of one length are stored as
    (4 x n) blocks of entries (a, b, c, d), one block per last letter, and
    block j of the next length is built from the blocks whose last letter
    is not j^-1, written into place.  Words are stored up to length
    max_len - SUFFIX_LEN only: each stored block of words U is reduced to
    its Gram entries (p, q, r) = (a^2 + c^2, ab + cd, b^2 + d^2), and the
    last SUFFIX_LEN shells follow from those, since ||U S||_F^2 =
    p (s0^2 + s1^2) + 2 q (s0 s2 + s1 s3) + r (s2^2 + s3^2) for every
    reduced suffix S = (s0, s1, s2, s3) of up to SUFFIX_LEN letters that
    may follow U's last letter.  So no word of the last SUFFIX_LEN lengths
    is ever held.

    Only the words whose first letter leads its orbit under the
    presentation's symmetries are enumerated, each counted once per letter
    of the orbit (orbits of one size together): a symmetry R fixes i and
    maps the words W starting with l onto the words R W R^-1 starting with
    perm[l], at the same distance d(W(i), i).
    """
    labels = list(pres.gens)
    mats = np.array([[g.map.a, g.map.b, g.map.c, g.map.d]
                     for g in pres.gens.values()])
    inv_idx = [labels.index(g.inverse) for g in pres.gens.values()]
    k = len(labels)
    leads = {}  # orbit size -> the first letter of each orbit of that size
    for label in labels:
        images = {sym.perm[label] for sym in pres.symmetries}
        if label == min(images, key=labels.index):
            leads.setdefault(len(images), set()).add(labels.index(label))
    shells = [[0.0] * max_len for _ in ss]
    top = max(max_len - SUFFIX_LEN, 0)  # the length of the stored words
    suffixes = []  # (first letter, length, the factors of p, q and r)

    def suffix(first, last, s, length):
        """Record the reduced suffix s and extend it by one letter."""
        s0, s1, s2, s3 = s.ravel()
        suffixes.append((first, length, (s0 * s0 + s1 * s1,
                                         2.0 * (s0 * s2 + s1 * s3),
                                         s2 * s2 + s3 * s3)))
        if length < max_len - top:
            for j in range(k):
                if last != inv_idx[j]:
                    suffix(first, j, s @ mats[j].reshape(2, 2), length + 1)

    for j in range(k):
        suffix(j, j, mats[j].reshape(2, 2), 1)

    def follows(i, j):
        """Whether letter j may follow letter i; after the empty word
        (i = -1), whether j is one of the first letters enumerated."""
        return j in firsts if i < 0 else i != inv_idx[j]

    def add(level, fro2):
        """Add the words of squared norms ``fro2`` to shell ``level``, each
        ``size`` times (the size of their first letter's orbit)."""
        dist = np.arccosh(0.5 * fro2)
        for s, out in zip(ss, shells):
            out[level] += size * float(np.exp(-s * dist).sum())

    def times(words, g, out):
        """Entries of the products words * g, written into ``out``."""
        a, b, c, d = words
        np.multiply(a, g[0], out=out[0])
        out[0] += b * g[2]
        np.multiply(a, g[1], out=out[1])
        out[1] += b * g[3]
        np.multiply(c, g[0], out=out[2])
        out[2] += d * g[2]
        np.multiply(c, g[1], out=out[3])
        out[3] += d * g[3]
        return out

    def grow(level, blocks):
        """The blocks of the words one letter longer, their shell added."""
        nxt = []
        for j in range(k):
            prev = [words for i, words in blocks if follows(i, j)]
            if not prev:
                continue
            out = np.empty((4, sum(words.shape[1] for words in prev)))
            hi = 0
            for words in prev:
                lo, hi = hi, hi + words.shape[1]
                times(words, mats[j], out[:, lo:hi])
            add(level, np.einsum("ij,ij->j", out, out))
            nxt.append((j, out))
        return nxt

    for size, firsts in leads.items():
        blocks = [(-1, np.eye(2).reshape(4, 1))]  # the empty word
        for level in range(top):
            blocks = grow(level, blocks)
        for i, (a, b, c, d) in blocks:
            p, q, r = a * a + c * c, a * b + c * d, b * b + d * d
            for first, length, (gp, gq, gr) in suffixes:
                if follows(i, first):
                    fro2 = p * gp
                    fro2 += q * gq
                    fro2 += r * gr
                    add(top + length - 1, fro2)
    return shells
