"""Induced first-return shift on {a_1 = 0}: alphabet, incidence, potentials.

Letters are overlapping words g1 c^n g2 over the symmetric generators,
n >= 1 when the core c is parabolic and n = 1 when it is hyperbolic: the
first symbol is the closing letter of the previous block, the core is the
next full block, the last symbol opens the block after.  Every letter
belongs to the family (``LetterFamily``) of its triple (g1, c, g2), and
the triples are those whose consecutive blocks pass
``GroupPresentation.block_admissible`` (reduced, parabolic runs merged);
the alphabet and the transfer operator read the families.  Consecutive
letters share two symbols, which is exactly the incidence condition and
what lets the transfer operator factor through symbol pairs.

The incidence is one graph, built once by ``pair_graph``: its vertices
are the overlap pairs, and family (g1, c, g2) is the edge from pair
(g1, c) to pair (c, g2).  The primitivity witness is its diameter.  The
transfer operator (``fuchsian_system``) is the quotient by the
presentation's circle symmetries: it numbers its keys orbit by orbit of
pairs (``pair_orbits``) and takes its cyclic classes from the quotient
graph.

Potential conventions: psi(e) = -2 log+(|e| - 3) reads off the winding of
the core block.  The geometric weight of a letter is the log-derivative
of its contracting branch V_e = symbols[:-2] at the canonical
continuation point x' = (second-to-last symbol applied to the midpoint of
the last symbol's interval), measured in the Cayley circle chart.  The
circle chart keeps the weight strictly negative even when the limit set
contains oo (plane-chart translations have unit derivative, which would
degenerate the pressure for lattice-type groups); its Birkhoff sums track
-d(B_1...B_n(i), i) up to a bounded constant.  The operator's
continuation points are circle angles, and a weight is read at the unit
vector w of the point (``mobius.unit_image``): the circle-chart
derivative of V_e there is 1 / |V_e w|^2, with no case for oo.
"""

from __future__ import annotations

import math

import numpy as np

from .fuchsian import TWO_PI, CircleInterval, GroupPresentation, angle_distance
from .gdms import GdmsSystem, LetterBlock, cyclic_classes
from .mobius import unit_image


def pair_graph(families) -> tuple:
    """The pair graph of the induced shift: (pairs, ends, adj).  Vertex v
    is the overlap pair ``pairs[v]``, numbered in first-use order, family
    k (g1, c, g2) is the edge ``ends[k]`` = (head, tail) from (g1, c) to
    (c, g2), and ``adj`` is the boolean adjacency of the vertices."""
    index: dict = {}
    ends = [tuple(index.setdefault(pair, len(index))
                  for pair in ((f.g1, f.core), (f.core, f.g2)))
            for f in families]
    adj = np.zeros((len(index), len(index)), dtype=bool)
    heads, tails = np.array(ends, dtype=np.int64).reshape(-1, 2).T
    adj[heads, tails] = True
    return list(index), ends, adj


def pair_orbits(pairs, symmetries) -> tuple:
    """(orbit, leads): the orbit of each overlap pair of ``pairs`` under
    ``symmetries`` (``fuchsian.CircleSymmetry``, a group), which maps pair
    (x, y) to (perm[x], perm[y]), and the first pair of each orbit; the
    orbits are numbered in the order of their first pairs."""
    index = {pair: v for v, pair in enumerate(pairs)}
    orbit, leads = [None] * len(pairs), []
    for v, (x, y) in enumerate(pairs):
        if orbit[v] is None:
            for sym in symmetries:
                orbit[index[sym.perm[x], sym.perm[y]]] = len(leads)
            leads.append(v)
    return orbit, leads


def primitivity_witness(pres: GroupPresentation):
    """Smallest L such that every ordered letter pair joins via a connector
    of at most L letters (0 = direct adjacency); returns (L, pair count),
    with L = None when no L <= 6 does.

    A connector of L letters is a path of L edges of the pair graph
    (``pair_graph``) from tail(a) to head(b), so L is its diameter: the
    first k at which the reach matrix (I + A)^k has no zero entry.
    """
    pairs, _, adj = pair_graph(letter_families(pres))
    step = adj | np.eye(len(pairs), dtype=bool)
    reach = np.eye(len(pairs), dtype=bool)
    for k in range(7):
        if reach.all():
            return k, len(pairs)
        reach = reach @ step
    return None, len(pairs)


# --- vectorized letter families for the transfer operator ------------------

# Letters beyond this exponent (or beyond the cap, if larger) are summed by
# the tail rule, gdms.tail_log_weights, whose Euler-Maclaurin remainder
# shrinks with the start.  Measured per tail row against direct sums,
# relative to the row's family total, at the roots for beta in {-8, -3, -1,
# 0, 3} on both presets: start 64 leaves <= 9e-15 and start 32 <= 6.4e-13;
# without the F''' term, start 64 leaves 6e-11.
TAIL_START = 64


class LetterFamily:
    """The induced letters g1 c^n g2 of one admissible triple (g1, c, g2):
    every n >= 1 when the core c is parabolic, n = 1 when it is hyperbolic.

    The branch matrix of letter n = k + 1 is m0 + k m1, affine in n via the
    nilpotent part of a parabolic core (m1 = 0 for a hyperbolic one).  A
    continuation point is the unit vector w of its boundary point
    (``mobius.unit_image``), where the circle-chart derivative of a matrix
    M is 1 / |M w|^2, so the weight is zeta_n = -log((p0 + k p1)^2 +
    (r0 + k r1)^2) with the numbers of ``row(w)``.  ``zeta`` evaluates
    that formula on any rows; the operator's letters and its tail rule
    read the same rows.
    """

    def __init__(
            self, g1: str, core: str, g2: str, parabolic: bool,
            m0: tuple,  # branch matrix of n = 1 (just g1)
            m1: tuple):  # increment per extra core letter: g1 * (core - id), or 0
        self.g1, self.core, self.g2, self.parabolic = g1, core, g2, parabolic
        self.m0, self.m1 = m0, m1

    def row(self, w: tuple) -> tuple:
        """(p0, p1, r0, r1) of the weights at the unit vector w:
        (p0, r0) = m0 w and (p1, r1) = m1 w."""
        m0, m1 = self.m0, self.m1
        w0, w1 = w
        return (m0[0] * w0 + m0[1] * w1, m1[0] * w0 + m1[1] * w1,
                m0[2] * w0 + m0[3] * w1, m1[2] * w0 + m1[3] * w1)

    @staticmethod
    def zeta(rows, ns: np.ndarray, out: np.ndarray = None) -> np.ndarray:
        """Letter weights log|V_n'|_circle: one row of the result (or of
        ``out``) per row of ``rows``, one column per exponent of ``ns``."""
        p0, p1, r0, r1 = np.asarray(rows, dtype=float).T[:, :, None]
        k = ns - 1
        # -log((p0 + k p1)^2 + (r0 + k r1)^2), in two buffers
        a = np.multiply(k, p1, out=out)
        a += p0
        a *= a
        b = k * r1
        b += r0
        b *= b
        a += b
        return np.negative(np.log(a, out=a), out=a)


def letter_families(pres: GroupPresentation) -> list:
    """Every family (g1, c, g2) with block_admissible(g1, c) and
    block_admissible(c, g2), cores in label order."""
    out = []
    for c, gc in pres.gens.items():
        parabolic = gc.parabolic
        nil = gc.map.nilpotent() if parabolic else (0.0,) * 4
        for g1, gen1 in pres.gens.items():
            if not pres.block_admissible(g1, c):
                continue
            m = gen1.map
            m1 = (m.a * nil[0] + m.b * nil[2], m.a * nil[1] + m.b * nil[3],
                  m.c * nil[0] + m.d * nil[2], m.c * nil[1] + m.d * nil[3])
            for g2 in pres.gens:
                if pres.block_admissible(c, g2):
                    out.append(LetterFamily(g1, c, g2, parabolic,
                                            (m.a, m.b, m.c, m.d), m1))
    return out


def _core_continuation_hull(pres: GroupPresentation, c_label: str):
    """Hull of the intervals a block with letter c can continue into: the
    complement of the widest gap between them (they are disjoint, so it
    skips no other interval)."""
    arcs = sorted((g.interval for label, g in pres.gens.items()
                   if pres.block_admissible(c_label, label)),
                  key=lambda j: j.angle_lo)
    nxt = arcs[1:] + arcs[:1]
    # the gap after arc k, measured from its lo: touching arcs give ~0
    # (a rounding error either way), never 2 pi - eps
    k = max(range(len(arcs)), key=lambda i: (
        (nxt[i].angle_lo - arcs[i].angle_lo) % TWO_PI - arcs[i].arc))
    return CircleInterval.between(nxt[k].angle_lo, arcs[k].angle_hi)


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
    """Continuation points (q1, q3) in J_c per follower bucket, as circle
    angles.

    Followers with core c and exponent k put the continuation into
    c^k(K_c) where K_c is the continuation hull; the tail bucket runs from
    the cap range to the parabolic fixed point.  The two interior quarter
    points of each span carry half the weight each (two-point quadrature
    of the arc average: the midpoint rule underestimates the convex
    weights).
    """
    gen = pres.gens[c_label]
    j = gen.interval
    k_hull = _core_continuation_hull(pres, c_label)

    def offsets_of_image(k):
        img = k_hull.image(gen.block(k))
        return [j.offset_on_arc(img.angle_lo), j.offset_on_arc(img.angle_hi)]

    spans = []
    # a hyperbolic core has the one exponent of the first range
    for (klo, khi) in ranges if gen.parabolic else ranges[:1]:
        offs = offsets_of_image(klo) + offsets_of_image(khi)
        spans.append((min(offs), max(offs)))
    if tail and gen.parabolic:
        offs = offsets_of_image(ranges[-1][1] + 1)
        offs.append(j.offset_on_arc(pres.gens[c_label].horoball.angle))
        spans.append((min(offs), max(offs)))
    return [(j.angle_lo + 0.75 * lo + 0.25 * hi,
             j.angle_lo + 0.25 * lo + 0.75 * hi) for lo, hi in spans]


# Largest angle by which a symmetry may miss a bucket point it maps onto
# another core's (``_discretised_symmetries``).
BUCKET_TOL = 1e-12


def _discretised_symmetries(pres: GroupPresentation, reps: dict) -> tuple:
    """The presentation's symmetries if each maps the bucket points of
    every core c (``reps[c]``) onto those of perm[c], bucket by bucket, to
    ``BUCKET_TOL`` in angle, so that the operator is equivariant too; else
    the identity alone."""
    def maps_buckets(sym):
        # perm[c] is parabolic when c is, so it has as many buckets
        for c, spans in reps.items():
            for ys, zs in zip(spans, reps[sym.perm[c]]):
                if any(min(angle_distance(sym.angle(y), z) for z in zs)
                       > BUCKET_TOL for y in ys):
                    return False
        return True

    group = pres.symmetries
    return group if all(map(maps_buckets, group[1:])) else group[:1]


def fuchsian_system(pres: GroupPresentation, cap: int,
                    restricted: bool = False):
    """Truncated GDMS instance of the induced shift.

    Edges are the letters of the families built (``letter_families``,
    those leaving the first pair of each orbit, below): the parabolic
    exponents up to the cap and the one letter of each hyperbolic family.
    Incidence keys are (orbit of overlap pairs, exponent bucket of the
    entering letter).  A family is evaluated on one row
    (``LetterFamily.row``) per follower bucket and quadrature point, so a
    letter's weight can use the follower's continuation range - a
    two-and-a-half-symbol lookahead that keeps the operator factorized
    while shrinking the locally-constant-weight bias.  The rows of all
    families with the same number m of columns form one
    ``gdms.LetterBlock`` of (rows x m) weights: one block for the
    parabolic families and one of a single column for the hyperbolic
    ones.  The in key of a letter depends on its family and its
    exponent's bucket only, so each block's runs are the buckets.  Unless
    ``restricted`` builds the finite bounded-winding subsystem (cap=2 and
    no tail is the delta_c alphabet), the parabolic block carries the
    tails: one more column, whose letters are each row's exponents beyond
    max(cap, TAIL_START), entering the tail key.  Below TAIL_START the
    exponents cap+1 .. TAIL_START are explicit columns into the same key.

    The operator is the quotient by the symmetries
    (``_discretised_symmetries``): only the families that leave the first
    pair of an orbit of pairs (``pair_orbits``) are built, orbit o owns one
    key per bucket of the core of its first pair, and a letter goes to the
    key of its tail pair's orbit and its follower's bucket.  A symmetry
    moves every arc, branch and bucket point by an isometry of the circle
    chart, so B[perm i, perm j] = B[i, j] on the whole operator; its Perron
    vector is constant on the orbits, and the quotient, whose rows sum B
    over each orbit's columns, has the same spectral radius.  A family
    joins every key of its head orbit to every key of its tail orbit, so
    each key takes the cyclic class of its orbit in the quotient pair
    graph.
    """
    tail = not restricted
    ranges = _bucket_ranges(cap)
    reps = {c_label: _bucket_reps(pres, c_label, ranges, tail)
            for c_label in pres.gens}
    families = letter_families(pres)
    pairs, ends, adj = pair_graph(families)
    orbit, leads = pair_orbits(pairs, _discretised_symmetries(pres, reps))
    # orbit o owns one key per bucket of the core of its first pair
    sizes = [len(reps[pairs[v][1]]) for v in leads]
    first = np.cumsum([0] + sizes).tolist()
    n_keys = first[-1]

    # one column per exponent up to the explicit ones, and with tails one
    # more for all exponents beyond them: its zeta and psi are evaluated
    # at the first of those and then replaced by 0 placeholders
    explicit = max(cap, TAIL_START) if tail else cap
    ns = np.arange(1, explicit + (2 if tail else 1), dtype=float)
    psi_ns = -2.0 * np.log(np.maximum(ns - 1.0, 1.0))
    psi_ns[explicit:] = 0.0
    # the bucket of each entering exponent; beyond the cap, the tail bucket
    in_bucket = np.searchsorted([klo for klo, _ in ranges] + [cap + 1], ns,
                                side="right") - 1

    # per number of columns m: the rows of each family, and per row the
    # first key of its head pair's orbit and its out key
    groups: dict = {}
    for f, (head, out) in zip(families, ends):
        if leads[orbit[head]] != head:
            continue
        m = len(ns) if f.parabolic else 1
        rows = np.array([f.row(unit_image(pres.gens[f.core].map, y))
                         for ys in reps[f.g2] for y in ys])
        fam_rows, in_firsts, out_keys = groups.setdefault(m, ([], [], []))
        fam_rows.append(rows)
        in_firsts += [first[orbit[head]]] * len(rows)
        out_keys += [first[orbit[out]] + b
                     for b, ys in enumerate(reps[f.g2]) for _ in ys]

    blocks = []
    for m, (fam_rows, in_firsts, out_keys) in groups.items():
        # each family writes its rows of the block's weights in place
        zeta = np.empty((len(out_keys), m))
        hi = 0
        for rows in fam_rows:
            lo, hi = hi, hi + len(rows)
            LetterFamily.zeta(rows, ns[:m], out=zeta[lo:hi])
        zeta[:, explicit:] = 0.0
        # the runs are the in buckets; the in key of run j is the head
        # pair's key of bucket in_bucket[starts[j]]
        starts = np.flatnonzero(np.diff(in_bucket[:m], prepend=-1))
        blocks.append(LetterBlock(
            zeta=zeta,
            psi=psi_ns[:m],
            starts=starts,
            cells=((np.array(in_firsts)[:, None] + in_bucket[starts]) * n_keys
                   + np.array(out_keys)[:, None]),
            tail=np.concatenate(fam_rows) if m > explicit else None,
        ))
    heads, tails = np.take(orbit, np.nonzero(adj))
    quotient = np.zeros((len(leads), len(leads)), dtype=bool)
    quotient[heads, tails] = True
    key_orbit = np.repeat(np.arange(len(leads)), sizes)
    return GdmsSystem(
        n_keys=n_keys,
        blocks=blocks,
        classes=[np.flatnonzero(np.isin(key_orbit, vs))
                 for vs in cyclic_classes(quotient)],
        log_mult=math.log(0.5),
    )
