"""Bowen-Series coding, block words, the check that the coding
conjugates the induced shift, and the Poincare-series probe.

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
    OutsideAllIntervals,
    ReachedCusp,
)
from .fuchsian import ANGLE_TOL, GroupPresentation, angle_distance
from .mobius import (
    apply_boundary,
    boundary_angle,
    boundary_from_angle,
    boundary_vector,
)

RUN_TOL = 1e-9  # a run within this (relative) of n letters lands on its end
SUFFIX_LEN = 3  # the shells that poincare_shell_sums takes from Gram entries


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
    """First n_blocks blocks of the coding of x, one step per block.

    A run of the parabolic letter g is the one step g^-k, k = ceil(psi(x)
    - psi(e)) (``_run_coordinate``; e is the end of g's arc away from its
    cusp, and a difference within ``RUN_TOL`` of an integer n counts as
    n); it closes once its point lies in another arc.  The coding stops
    where its point lies in no arc, or within ``ANGLE_TOL`` of a cusp while
    blocks are still wanted: at a cusp with ``ReachedCusp``, which carries
    the closed blocks, and elsewhere with ``CodingStalled``.
    """
    blocks = []
    y = x
    while True:
        label = pres.letter_at(y)
        if blocks and pres.gens[blocks[-1][0]].parabolic \
                and label in (None, blocks[-1][0]):
            blocks.pop()  # a run whose point lies in no other arc is open
            label = None
        elif len(blocks) >= n_blocks:
            return BlockWord(tuple(blocks))
        theta = boundary_angle(y)
        if any(angle_distance(theta, ball.angle) <= ANGLE_TOL
               for ball in pres.cusps):
            raise ReachedCusp(BlockWord(tuple(blocks)), y)
        if label is None:
            raise CodingStalled(
                "orbit left the coding domain after %d blocks" % len(blocks))
        g = pres.gens[label]
        k, step = 1, g.map.inverse()
        if g.parabolic:
            j = g.interval
            end = max((j.angle_lo, j.angle_hi),
                      key=lambda e: angle_distance(e, g.horoball.angle))
            k = math.ceil((1.0 - RUN_TOL) * (_run_coordinate(g, theta)
                                             - _run_coordinate(g, end)))
            step = pres.gens[g.inverse].block(k)
        y = apply_boundary(step, y)
        blocks.append((label, k))


def _run_coordinate(g, theta: float) -> float:
    """psi(u(theta)) = p.u / p.Nu for the parabolic g = I + N with the
    horoball base p: it rises by one under g, as N g = N (N^2 = 0)."""
    (p0, p1), (n0, n1, n2, n3) = g.horoball.base, g.map.nilpotent()
    u0, u1 = boundary_vector(theta)
    return (p0 * u0 + p1 * u1) / (p0 * (n0 * u0 + n1 * u1)
                                  + p1 * (n2 * u0 + n3 * u1))


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


def conjugacy_check(pres: GroupPresentation, samples: int,
                    letters_each: int, seed: int) -> tuple:
    """Letterwise test of pi o T_D = sigma o pi on sampled induced points,
    as (mismatches, resampled); the coding conjugates the shift on the
    samples when ``mismatches`` is empty.

    A sample is the point of a random admissible block word, whose first
    ``letters_each`` induced letters are compared with those of its
    images.  The float orbit of a drawn point often leaves the coding
    arcs: on one-cusp, over seeds 0-9 x 200 samples, 912 of 2,912 draws
    stall (``CodingStalled``) at ``letters_each`` = 10, each 7.6e-4 to
    0.43 rad from an arc end after 8 to 11 blocks, and none at a cusp, and
    19 of 2,019 at ``validate``'s 8; the 40 draws of ``validate`` at seed
    1234 stall none.  A stalled draw is replaced and counted in
    ``resampled``; past 20 x ``samples`` of them the stall is raised.
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
    return mismatches, resampled


def poincare_divergence_probe(pres: GroupPresentation, ss) -> list:
    """Shell-ratio divergence statistics of the Poincare series over words
    of length up to 13, one pair per exponent s in ``ss``.

    Each pair is the last raw shell ratio and its 1/L Richardson
    extrapolation; values above one indicate divergence (s below the
    exponent).  The parabolic directions slow the ratio convergence to
    O(1/L), hence the extrapolation.
    """
    out = []
    for shells in poincare_shell_sums(pres, ss, 13):
        ratios = [shells[k + 1] / shells[k] for k in range(len(shells) - 1)]
        n = len(ratios)
        out.append((ratios[-1],
                    ratios[-1] + (ratios[-1] - ratios[-2]) * (n - 1)))
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
