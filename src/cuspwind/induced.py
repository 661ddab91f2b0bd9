"""Induced first-return shift on {a_1 = 0}: alphabet, incidence, potentials.

Letters are overlapping words g1 c^n g2 over the symmetric generators,
n >= 1 when the core c is parabolic and n = 1 when it is hyperbolic: the
first symbol is the closing letter of the previous block, the core is the
next full block, the last symbol opens the block after.  Every letter
belongs to the family (``LetterFamily``) of its triple (g1, c, g2), and
the triples are those whose consecutive blocks pass
``GroupPresentation.block_admissible`` (reduced, parabolic runs merged);
the alphabet, the letter series and the transfer operator all read the
families.  Consecutive letters share two symbols, which is exactly the
incidence condition and what lets the transfer operator factor through
symbol pairs.

Potential conventions: psi(e) = -2 log+(|e| - 3) reads off the winding of
the core block.  The geometric weight of a letter is the log-derivative
of its contracting branch V_e = symbols[:-2] at the canonical
continuation point x' = (second-to-last symbol applied to the midpoint of
the last symbol's interval), measured in the Cayley circle chart.  The
circle chart keeps the weight strictly negative even when the limit set
contains oo (plane-chart translations have unit derivative, which would
degenerate the pressure for lattice-type groups); its Birkhoff sums track
-d(B_1...B_n(i), i) up to a bounded constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coding import (
    BlockWord,
    bowen_series_step,
    code_point,
    point_from_symbols,
    random_block_word,
)
from .fuchsian import TWO_PI, CircleInterval, GroupPresentation
from .mobius import apply_boundary


@dataclass(frozen=True)
class InducedLetter:
    symbols: tuple

    def __post_init__(self):
        if len(self.symbols) < 3:
            raise ValueError("induced letters have at least three symbols")

    @property
    def core(self) -> str:
        return self.symbols[1]


def letters_of_blocks(pres: GroupPresentation, word: BlockWord) -> list:
    """Induced letters read off a coded block word (needs a_1 = 0)."""
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
        out.append(InducedLetter((l0,) + (l1,) * e1 + (l2,)))
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


@dataclass
class ConjugacyReport:
    mismatches: list
    resampled: int = 0

    @property
    def ok(self) -> bool:
        return not self.mismatches


def conjugacy_check(pres: GroupPresentation, samples: int = 100,
                    letters_each: int = 10, seed: int = 7) -> ConjugacyReport:
    """Letterwise test of pi o T_D = sigma o pi on sampled induced points.

    Floating-point proxies of limit points occasionally leave the coding
    domain when the forward orbit amplifies roundoff into a limit-set gap;
    such degenerate samples are resampled (a bounded number of times) and
    counted, since genuine limit points never stall.
    """
    from .errors import CodingStalled

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
            direct = letters_of_blocks(
                pres, code_point(pres, x, letters_each + 2))
            y = x
            for j in range(letters_each - 1):
                y = induced_step(pres, y)
                shifted = letters_of_blocks(
                    pres, code_point(pres, y, letters_each + 2 - (j + 1)))
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


def primitivity_witness(pres: GroupPresentation):
    """Smallest L such that every ordered letter pair joins via a connector
    of at most L letters (0 = direct adjacency); returns (L, pair count),
    with L = None when no L <= 6 does.

    Works on the boundary-pair graph: a letter is an edge from its head
    pair to its tail pair, so connector words correspond to pair paths.
    """
    succ = {}
    for f in letter_families(pres):
        succ.setdefault((f.g1, f.core), []).append((f.core, f.g2))
    pairs = list(succ)
    # BFS from every pair
    worst = 0
    for p in pairs:
        dist = {p: 0}
        frontier = [p]
        while frontier:
            nxt = []
            for q in frontier:
                for rr in succ[q]:
                    if rr not in dist:
                        dist[rr] = dist[q] + 1
                        nxt.append(rr)
            frontier = nxt
        if len(dist) != len(pairs):
            return None, len(pairs)
        worst = max(worst, max(dist.values()))
    # a connector of L letters realizes pair paths of exactly L edges from
    # tail(a) to head(b); direct adjacency is the 0-letter path tail(a)=head(b),
    # so the witness length is the pair-graph diameter
    if worst > 6:
        return None, len(pairs)
    return worst, len(pairs)


# --- vectorized letter families for the transfer operator ------------------

# Letters beyond this exponent (or beyond the cap, if larger) are summed by
# the tail rule, gdms.tail_log_weights, whose Euler-Maclaurin remainder
# shrinks with the start.  Measured per tail row against direct sums,
# relative to the row's family total, at the roots for beta in {-8, -3, -1,
# 0, 3} on both presets: start 64 leaves <= 9e-15 and start 32 <= 6.4e-13;
# without the F''' term, start 64 leaves 6e-11.
TAIL_START = 64


@dataclass(frozen=True)
class LetterFamily:
    """The induced letters g1 c^n g2 of one admissible triple (g1, c, g2):
    every n >= 1 when the core c is parabolic, n = 1 when it is hyperbolic.

    The branch matrix of letter n = k + 1 is m0 + k m1, affine in n via the
    nilpotent part of a parabolic core (m1 = 0 for a hyperbolic one), so at
    a continuation point x its weight is zeta_n = log(1 + x^2) -
    log((p0 + k p1)^2 + (r0 + k r1)^2) with the numbers of ``row(x)``.
    ``zeta`` evaluates that formula on any rows; the operator's letters
    and its tail rule read the same rows.
    """

    g1: str
    core: str
    g2: str
    parabolic: bool
    m0: tuple  # branch matrix of n = 1 (just g1)
    m1: tuple  # increment per extra core letter: g1 * (core - id), or 0
    x_mid: float  # core image of the midpoint of J_g2

    def row(self, x: float) -> tuple:
        """(p0, p1, r0, r1, log(1 + x^2)) of the weights at x; x = oo
        keeps the leading terms (the chart factor cancels)."""
        m0, m1 = self.m0, self.m1
        if math.isinf(x):
            return m0[0], m1[0], m0[2], m1[2], 0.0
        return (m0[0] * x + m0[1], m1[0] * x + m1[1],
                m0[2] * x + m0[3], m1[2] * x + m1[3], math.log1p(x * x))

    @staticmethod
    def zeta(rows, ns: np.ndarray, out: np.ndarray = None) -> np.ndarray:
        """Letter weights log|V_n'|_circle: one row of the result (or of
        ``out``) per row of ``rows``, one column per exponent of ``ns``."""
        p0, p1, r0, r1, lx = np.asarray(rows, dtype=float).T[:, :, None]
        k = ns - 1
        # lx - log((p0 + k p1)^2 + (r0 + k r1)^2), in two buffers
        a = np.multiply(k, p1, out=out)
        a += p0
        a *= a
        b = k * r1
        b += r0
        b *= b
        a += b
        return np.subtract(lx, np.log(a, out=a), out=a)


def letter_families(pres: GroupPresentation) -> list:
    """Every family (g1, c, g2) with block_admissible(g1, c) and
    block_admissible(c, g2), cores in label order."""
    out = []
    labels = pres.labels()
    for c in labels:
        core = pres.map_of(c)
        parabolic = pres.gen(c).is_parabolic()
        sign = 1.0 if core.trace() > 0 else -1.0
        nil = (sign * core.a - 1.0, sign * core.b,
               sign * core.c, sign * core.d - 1.0) if parabolic else (0.0,) * 4
        for g1 in labels:
            if not pres.block_admissible(g1, c):
                continue
            m = pres.map_of(g1)
            m1 = (m.a * nil[0] + m.b * nil[2], m.a * nil[1] + m.b * nil[3],
                  m.c * nil[0] + m.d * nil[2], m.c * nil[1] + m.d * nil[3])
            for g2 in labels:
                if pres.block_admissible(c, g2):
                    x_mid = apply_boundary(core,
                                           pres.interval_of(g2).point_at(0.5))
                    out.append(LetterFamily(g1, c, g2, parabolic,
                                            (m.a, m.b, m.c, m.d), m1, x_mid))
    return out


def _core_continuation_hull(pres: GroupPresentation, c_label: str):
    """Hull of the intervals a block with letter c can continue into: the
    complement of the widest gap between them (they are disjoint, so it
    skips no other interval)."""
    arcs = sorted((pres.interval_of(g) for g in pres.labels()
                   if pres.block_admissible(c_label, g)),
                  key=lambda j: j.angle_lo)
    nxt = arcs[1:] + arcs[:1]
    # the gap after arc k, measured from its lo: touching arcs give ~0
    # (a rounding error either way), never 2 pi - eps
    k = max(range(len(arcs)), key=lambda i: (
        (nxt[i].angle_lo - arcs[i].angle_lo) % TWO_PI - arcs[i].arc))
    return CircleInterval(nxt[k].lo, arcs[k].hi)


def _bucket_ranges(cap: int) -> list:
    """Dyadic exponent ranges (1,1), (2,2), (3,4), (5,8), ... up to cap."""
    ranges = [(1, 1)]
    if cap >= 2:
        ranges.append((2, 2))
    lo, width = 3, 2
    while lo <= cap:
        hi = min(cap, lo + width - 1)
        ranges.append((lo, hi))
        lo, width = hi + 1, width * 2
    return ranges


def _bucket_reps(pres: GroupPresentation, c_label: str, ranges, tail: bool):
    """Continuation points (q1, q3) in J_c per follower bucket.

    Followers with core c and exponent k put the continuation into
    c^k(K_c) where K_c is the continuation hull; the tail bucket runs from
    the cap range to the parabolic fixed point.  The two interior quarter
    points of each span carry half the weight each (two-point quadrature
    of the arc average: the midpoint rule underestimates the convex
    weights).
    """
    from .mobius import power as mpower

    j = pres.interval_of(c_label)
    k_hull = _core_continuation_hull(pres, c_label)
    cmap = pres.map_of(c_label)
    gen = pres.gen(c_label)

    def offsets_of_image(k):
        img = k_hull.image(mpower(cmap, k))
        return [min(max(j.offset(img.lo), 0.0), j.arc),
                min(max(j.offset(img.hi), 0.0), j.arc)]

    spans = []
    # a hyperbolic core has the one exponent of the first range
    for (klo, khi) in ranges if gen.is_parabolic() else ranges[:1]:
        offs = offsets_of_image(klo) + offsets_of_image(khi)
        spans.append((min(offs), max(offs)))
    if tail and gen.is_parabolic():
        offs = offsets_of_image(ranges[-1][1] + 1)
        p = gen.fixed_points[0]
        off_p = j.offset(p)
        off_p = 0.0 if min(off_p, 2.0 * math.pi - off_p) < abs(off_p - j.arc) \
            else j.arc
        offs.append(off_p)
        spans.append((min(offs), max(offs)))
    reps = []
    for lo, hi in spans:
        reps.append(tuple(j.point_at(f / j.arc)
                          for f in (0.75 * lo + 0.25 * hi,
                                    0.25 * lo + 0.75 * hi)))
    return reps


def letter_series_sweep(pres: GroupPresentation, t: float, beta: float,
                        caps) -> list:
    """Truncated one-letter weight series sum_{|a| <= cap} e^{t zeta + beta psi}
    for an increasing ladder of caps (raw values, not logs).

    This is the quantity whose convergence characterizes finiteness of the
    pressure; it diverges exactly when t + beta <= 1/2.  Vectorized over
    the full exponent range, so ladders up to ~10^5 are cheap.
    """
    caps = sorted(caps)
    top = caps[-1]
    ns = np.arange(1, top + 1, dtype=float)
    psi_ns = -2.0 * np.log(np.maximum(ns - 1.0, 1.0))
    total = np.zeros(top)
    for f in letter_families(pres):
        m = top if f.parabolic else 1
        zeta = f.zeta([f.row(f.x_mid)], ns[:m])[0]
        total[:m] += np.exp(t * zeta + beta * psi_ns[:m])
    cum = np.cumsum(total)
    return [float(cum[c - 1]) for c in caps]


def fuchsian_system(pres: GroupPresentation, cap: int,
                    restricted: bool = False):
    """Truncated GDMS instance of the induced shift.

    Edges are the letters of every family (``letter_families``): the
    parabolic exponents up to the cap and the one letter of each
    hyperbolic family.  Incidence keys are (overlap pair, exponent bucket
    of the entering letter).  A family is evaluated on one row
    (``LetterFamily.row``) per follower bucket and quadrature point, so a
    letter's weight can use the follower's continuation range - a
    two-and-a-half-symbol lookahead that keeps the operator factorized
    while shrinking the locally-constant-weight bias.  The rows of all
    families with the same number m of exponents form one
    ``gdms.LetterBlock`` of (rows x m) weights: one block for the
    parabolic families and one of a single column for the hyperbolic
    ones.  The in key of a letter depends on its family and its
    exponent's bucket only, so each block's runs are the buckets.  Unless
    ``restricted`` builds the finite bounded-winding subsystem (cap=2 and
    no tail is the delta_c alphabet), each row of a parabolic family is
    also a tail pseudo-edge for its exponents beyond max(cap, TAIL_START),
    and below TAIL_START the exponents cap+1 .. TAIL_START are ordinary
    edges into the same tail key.
    """
    from .gdms import GdmsSystem, LetterBlock, TailData

    tail = not restricted
    ranges = _bucket_ranges(cap)
    reps = {c_label: _bucket_reps(pres, c_label, ranges, tail)
            for c_label in pres.labels()}

    key_index: dict = {}

    def key_of(pair, bucket):
        k = (pair, bucket)
        if k not in key_index:
            key_index[k] = len(key_index)
        return key_index[k]

    start = max(cap, TAIL_START)
    ns = np.arange(1, (start if tail else cap) + 1, dtype=float)
    psi_ns = -2.0 * np.log(np.maximum(ns - 1.0, 1.0))
    # the bucket of each entering exponent; beyond the cap, the tail bucket
    in_bucket = np.searchsorted([klo for klo, _ in ranges] + [cap + 1], ns,
                                side="right") - 1

    # per number of exponents m: the rows of each family, and per row the
    # in key of each run and the out key
    groups: dict = {}
    t_in, t_out, t_rows = [], [], []
    for f in letter_families(pres):
        m = len(ns) if f.parabolic else 1
        heads = [key_of((f.g1, f.core), b) for b in range(in_bucket[m - 1] + 1)]
        outs = [key_of((f.core, f.g2), b)
                for b, ys in enumerate(reps[f.g2]) for _ in ys]
        rows = [f.row(apply_boundary(pres.map_of(f.core), y))
                for ys in reps[f.g2] for y in ys]
        fam_rows, in_keys, out_keys = groups.setdefault(m, ([], [], []))
        fam_rows.append(rows)
        in_keys += [heads] * len(rows)
        out_keys += outs
        if tail and f.parabolic:
            t_in += [key_of((f.g1, f.core), len(ranges))] * len(outs)
            t_out += outs
            t_rows += rows

    n_keys = len(key_index)
    blocks = []
    for m, (fam_rows, in_keys, out_keys) in groups.items():
        # each family writes its rows of the block's weights in place
        zeta = np.empty((len(out_keys), m))
        hi = 0
        for rows in fam_rows:
            lo, hi = hi, hi + len(rows)
            LetterFamily.zeta(rows, ns[:m], out=zeta[lo:hi])
        blocks.append(LetterBlock(
            zeta=zeta,
            psi=psi_ns[:m],
            starts=np.flatnonzero(np.diff(in_bucket[:m], prepend=-1)),
            cells=(np.array(in_keys, dtype=np.int64) * n_keys
                   + np.array(out_keys, dtype=np.int64)[:, None]),
        ))

    tails = None
    if t_in:
        tails = TailData(
            cells=(np.array(t_in, dtype=np.int64) * n_keys
                   + np.array(t_out, dtype=np.int64)),
            rows=np.array(t_rows),
            start=start,
        )
    return GdmsSystem(
        n_keys=n_keys,
        blocks=blocks,
        log_mult=math.log(0.5),
        tails=tails,
    )
