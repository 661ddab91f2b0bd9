"""Pressure engine on finitely-irreducible edge shifts and the free energy.

In the weighted operator M[e, f] = A(e, f) exp(t zeta(e) + beta psi(e))
the admissibility A compares two-symbol overlap keys only: edge e can be
followed by f exactly when out(e) = in(f).  Since the weights are
letter-local, the nonzero spectrum of M coincides with that of the
key-by-key matrix B[i, j] = sum of w(e) over the edges with in(e) = i and
out(e) = j, so the pressure is log rho(B) however many letters the
truncation keeps.  The key graph has a period p, its keys fall into p
cyclic classes, which come with the system (``GdmsSystem.classes``),
and B maps each class to the next.  Hence rho(B)^p =
rho(B_01 B_12 ... B_(p-1)0), and the pressure is one eigensolve of that
normalised block product, whose size is that of one class (n_keys / p).
p is 2 on the whole operator of a free product of parabolics, where
keys with core a/A only lead to keys with core b/B and back; on both
presets p = 1, for gamma2 because its operator is the quotient by its
circle symmetries (``induced.fuchsian_system``), one of which swaps a and
b.  With one class, B is folded over an independent set S of keys when
the other keys T are fewer than half (``GdmsSystem.fold``): B = L R with
L = [[X, 0], [0, I]] and R = [[0, I], [Y, Z]] (X = B[S, T], Y = B[T, S],
Z = B[T, T]), and R L = [[0, I], [Y X, Z]] has the nonzero spectrum of
B in 2 |T| rows.  On one-cusp S is the 4 pairs that end in the parabolic
generator, T its 6 single-bucket keys, and the eigensolve is 12 x 12 at
every cap; gamma2's quotient, where every key leads to every key, is
solved whole.  Where a product lost to underflow entries that rho
depends on, the whole matrix is solved.

Fuchsian instances carry the tails of their letter families, so the
infinite parabolic exponent range is handled by an exact lump per family:
all letters of a family share both overlap keys, hence replacing the ones
beyond the cap by one more column of the family's rows, whose weight is
their sum, changes nothing about the spectral radius except the accuracy
of the summed tail.  One rule sums it (``tail_log_weights``): midpoint
Euler-Maclaurin with the integral in v = X / n taken by product
integration on a fixed grid of v (``jacobi_weights``, from closed-form
moments), which matches direct summation to 1e-14 of a family's total
weight at the roots for beta in {-8, -3, -1, 0, 3} (1.4e-14 at beta =
+-20).  The grid does not move with (t, beta, r), so everything but the
weights' exponent is tabled once per block; a call forms the exponents,
one ``exp`` and one contraction, and solves no eigenproblem.  A system with
tails diverges at t = 1/2 - beta, where the pressure is +inf;
``pressure`` returns the one number P(t, beta) = log rho(B) as a float.

The letters are stored as blocks (``LetterBlock``): a (rows x exponents)
array of zeta, psi per exponent, and the runs of consecutive exponents
that enter the same key.  Everything but the weights is fixed when the
system is built, and so are the extremes of each column of zeta, once
derived; the one scale of all weights, the largest exponent t zeta + beta
psi, comes from those extremes and the tail column's weights without
forming the exponents.  B is then built a chunk of rows at a time in one
buffer that stays in cache (``key_matrix``): the exponents, updated in
place (the tail column overwritten by the tail rule), are floored
``LOG_FLOOR`` below the scale and exponentiated, summed over each run,
and the (rows x runs) sums go into B by one small ``np.bincount``.

t(beta) is the unique zero of the decreasing map t -> P(t, beta).  The
chain reads an operator through two methods alone,
``sys.pressure(t, beta, r=None)`` and ``sys.divergence_abscissa(beta)``
(None for a finite series), so any object with both runs it.  Fuchsian
systems are solved in log r with r = t - (1/2 - beta); the analytic
tail keeps r alive even when it is far below the floating-point
resolution of t itself, which is what the left asymptote needs.  One
bracket search, from a start point and with steps growing 4-fold against
the sign of P, finds a sign change that Brent's method closes.  Along a
beta grid (``free_energy_curve``) the search is a continuation: every
root after the first starts at the root before it, and its first move is
a Newton step on that root's pressure slope: on the presets' default
grid a spectrum takes 0.53 of the pressure calls of cold solves.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from .errors import InvalidCurve, NoSignChange

# Every weight exponent is floored this far below the largest one.  The
# floor keeps the key matrix irreducible: without it the weights of whole
# key classes underflow to zero at large |beta| near the threshold and P
# drops to -inf.  e^-700 is a normal double, so no subnormal ever reaches
# exp or the run sums, where subnormals cost ~100x per value.
LOG_FLOOR = -700.0

# ``key_matrix`` builds the letter weights this many doubles (512 KB) at
# a time, a chunk of whole rows that stays in a core's L2 cache through
# the seven passes over it; a row longer than that is one chunk of its
# own.
CHUNK = 1 << 16


class LetterBlock:
    """Letters stored as a (rows x m) array of weights ``zeta``, with
    ``psi`` one value per column (it depends on the exponent only).

    The columns fall into runs of consecutive exponents that enter the
    same key: ``starts`` holds the first column of each run, and
    ``cells[i, j]`` the key-matrix cell in_key * n_keys + out_key of the
    letters of row i in run j.

    A block of parabolic families carries ``tail``: row i holds the
    numbers (p0, p1, r0, r1) of row i of ``zeta``
    (``induced.LetterFamily.row``).  Its last column then stands for the
    exponents n > m - 1 beyond the explicit ones, and ``tail_log_weights``
    gives its weights from the rows' ``tail_table``; that column's zeta
    and psi are 0 placeholders.
    """

    def __init__(
            self, zeta: np.ndarray,  # (rows, m)
            psi: np.ndarray,  # (m,)
            starts: np.ndarray,  # (runs,)
            cells: np.ndarray,  # (rows, runs)
            tail: np.ndarray = None):  # (rows, 4), or None without a tail column
        self.zeta, self.psi, self.starts, self.cells = zeta, psi, starts, cells
        self.tail = tail

    # The extremes of each column of zeta, from which ``key_matrix`` finds
    # the largest exponent t zeta + beta psi without forming the exponents.
    # Each is derived from zeta on first use: a pass over zeta costs 1.4 ms
    # at cap 6400, which building the system does not pay, and the minima
    # serve only t < 0.
    @cached_property
    def zeta_max(self) -> np.ndarray:
        return self.zeta.max(axis=0, initial=-math.inf)

    @cached_property
    def zeta_min(self) -> np.ndarray:
        return self.zeta.min(axis=0, initial=math.inf)

    @cached_property
    def tail_table(self) -> tuple:
        """(A, B, D, E, L): the parts of ``tail_log_weights`` that do not
        depend on (t, beta, r), derived from ``tail`` on first use, so that
        building the system does not pay for them.  With w0 = p0 + i r0 and
        w1 = p1 + i r1 for each row, X = m - 1/2 and k = X - 1 for the m
        columns: A[i, j] = log|w1 + (v_j / X)(w0 - w1)| of row i at the
        nodes v_j of TAIL_GRID, B[j] = log(1 - v_j / X), L[i] =
        log|w0 + k w1|, D[j - 1, i] = f_j Re om^j with om = w1 / (w0 + k w1)
        and E[j - 1] = f_j / k^j, for j = 1, 2, 3 and the factors f_j of
        ``_EM_COEF``: D t + E beta are the Euler-Maclaurin derivatives.
        """
        p0, p1, r0, r1 = self.tail.T
        w0, w1 = p0 + 1j * r0, p1 + 1j * r1
        x = self.zeta.shape[1] - 0.5
        u = TAIL_GRID / x
        wk = w0 + (x - 1.0) * w1
        om = w1 / wk
        return (np.log(np.abs(w1[:, None] + np.outer(w0 - w1, u))),
                np.log1p(-u),
                _EM_COEF * np.array([(om ** j).real for j in (1, 2, 3)]),
                _EM_COEF / (x - 1.0) ** np.arange(1.0, 4.0)[:, None],
                np.log(np.abs(wk)))


# The tail integral is taken on one fixed grid in v (``tail_log_weights``):
# the TAIL_NODES Chebyshev-Lobatto nodes of [0, 1], v = 0 first, so that
# the rule holds where the weight v^(2r - 1) gathers at v = 0 as r -> 0.
# g is analytic well beyond the unit interval (its nearest singularity,
# u = 1, sits at v = start + 1/2), so its interpolant on 16 nodes gives
# every tail row of both presets at the roots for beta in {-20, -8, -3,
# -1, 0, 3, 20} within 3e-14 of its value by the 16-node Gauss-Jacobi rule
# (whose nodes move with r), and t(beta) at the CLI's 33 default betas and
# at +-30 ... +-3000, caps 60 to 1600, within 1.4e-15 of that rule's.
TAIL_NODES = 16
TAIL_GRID = 0.5 - 0.5 * np.cos(np.arange(TAIL_NODES)
                               * (math.pi / (TAIL_NODES - 1)))


def _legendre_table() -> np.ndarray:
    """C[k, j]: the coefficient of the shifted Legendre polynomial
    P*_k(v) = P_k(2v - 1) in the polynomial of degree < TAIL_NODES that is
    1 at node j of TAIL_GRID and 0 at the other nodes.

    At x = 2v - 1 = -cos(pi j / (n - 1)) that polynomial's Chebyshev
    coefficients are the cosine sums of the discrete orthogonality of the
    T_k on these nodes (the end nodes and the end coefficients halved),
    and the Legendre coefficients of each T_k follow from
    T_(k+1) = 2x T_k - T_(k-1) and x P_m = ((m + 1) P_(m+1) + m P_(m-1))
    / (2m + 1): numpy arithmetic, no solve.
    """
    n = TAIL_NODES
    k = np.arange(n)
    half = np.where((k == 0) | (k == n - 1), 0.5, 1.0)
    # cheb[k, j]: the coefficient of T_k in the j-th cardinal polynomial
    cheb = np.cos(np.outer(k, k) * (math.pi / (n - 1))) * (-1.0) ** k[:, None]
    cheb *= (2.0 / (n - 1)) * np.outer(half, half)
    leg = np.zeros((n, n))  # leg[i, m]: the coefficient of P_m in T_i
    leg[0, 0] = leg[1, 1] = 1.0
    for i in range(1, n - 1):
        c = leg[i] / (2 * k + 1)
        xp = np.zeros(n)
        xp[1:] = k[1:] * c[:-1]
        xp[:-1] += k[1:] * c[1:]
        leg[i + 1] = 2.0 * xp - leg[i - 1]
    return leg.T @ cheb


_LEGENDRE = _legendre_table()
_MOMENT_M = np.arange(1.0, TAIL_NODES)
_MOMENT_0 = (-1.0) ** _MOMENT_M  # P*_k(0), the moments at r = 0


def jacobi_weights(two_r: float) -> np.ndarray:
    """Weights on TAIL_GRID, summing to 1, of the interpolatory rule for
    2r times the integral of v^(2r - 1) h(v) over [0, 1]: exact for every
    h of degree < TAIL_NODES.

    The moments of that weight against the shifted Legendre polynomials
    are in closed form, 2r int_0^1 v^(2r - 1) P*_k(v) dv =
    prod_(m=1..k) (2r - m) / (2r + m), and the weights are their
    contraction with the Legendre coefficients of the cardinal polynomials
    (``_legendre_table``).  At r = 0 every moment is P*_k(0) = (-1)^k and
    the rule is the value at v = 0, so the weights are taken as that unit
    weight plus the contraction of the moments' distances from (-1)^k.
    No factor is formed as 2r - 1, so the rule holds for r down to
    e^-700, where those distances round to 0 and the node v = 0 takes the
    weight 1 exactly.
    """
    mu = np.cumprod((two_r - _MOMENT_M) / (two_r + _MOMENT_M))
    mu -= _MOMENT_0
    w = mu @ _LEGENDRE[1:]
    w[0] += 1.0
    return w


# The factors of the Euler-Maclaurin derivatives: dj = (d/dn)^j log F at X
# is (-1)^j (j-1)! 2 (t Re om^j + beta / k^j) for j = 1, 2, 3, and the
# correction reads them as d1, 3 d2 and 7 d3 / 5760.
_EM_COEF = np.array([[-2.0], [2.0 * 3.0], [-4.0 * 7.0 / 5760.0]])


def tail_log_weights(block: LetterBlock, t: float, beta: float,
                     two_r: float) -> np.ndarray:
    """log sum_{n > start} exp(t zeta_n + beta psi_n) for each row
    (p0, p1, r0, r1) of ``block.tail``, where start = m - 1 for the
    block's m columns, zeta_n = -log((p0 + k p1)^2 + (r0 + k r1)^2),
    k = n - 1, and psi_n = -2 log k.

    Midpoint Euler-Maclaurin from X = start + 1/2: the sum is the integral
    of F(n) = exp(t zeta_n + beta psi_n) over [X, oo) plus F'(X)/24 -
    7 F'''(X)/5760.  With s = 2t + 2 beta = 1 + 2r and u = 1/n, F(n) =
    n^-s g(u), where g(u) = exp(-2t log|w1 + u (w0 - w1)| -
    2 beta log(1 - u)) with w0 = p0 + i r0 and w1 = p1 + i r1; so g is
    smooth, and the integral is X^-2r times that of v^(2r - 1) g(v / X)
    over [0, 1], which the rule of ``jacobi_weights`` takes from g on the
    fixed grid TAIL_GRID.  The logs at the nodes and the numbers of the
    corrections come with the block (``LetterBlock.tail_table``), so a
    call forms -2t A - 2 beta B, one ``exp`` and one contraction with the
    weights, and the corrections, whose derivatives are linear in t and
    beta.  2r is passed in, not derived from t, which keeps the weights
    resolvable down to r = e^-700.  Where the signed corrections outweigh
    the integral (s / X large, the tail far below every other weight), or
    where the interpolant of a g that is steep on the grid leaves no
    positive integral (seen from |beta| ~ 560 at r >= 5, and at t beyond
    1e15, where the root search steps far from every root), the row
    gets a log-weight 708 below its terms, which ``pressure`` floors.
    """
    log_a, log_b, d_t, d_beta, log_f0 = block.tail_table
    x = block.zeta.shape[1] - 0.5
    lg = log_a * (-2.0 * t)
    lg += log_b * (-2.0 * beta)
    top = lg.max(axis=1)
    lg -= top[:, None]
    np.exp(lg, out=lg)
    tiny = np.finfo(float).tiny
    log_int = (top + np.log(np.maximum(lg @ jacobi_weights(two_r), tiny))
               - two_r * math.log(x) - math.log(two_r))
    # F'/24 - 7 F'''/5760 = F (d1/24 - 7 (d3 + 3 d1 d2 + d1^3)/5760)
    d1, d2_3, d3_7 = d_t * t + d_beta * beta  # d1, 3 d2, 7 d3 / 5760
    corr = d1 * (1.0 / 24.0 - 7.0 / 5760.0 * (d2_3 + d1 * d1)) - d3_7
    log_f = log_f0 * (-2.0 * t) - 2.0 * beta * math.log(x - 1.0)
    top = np.maximum(log_int, log_f)
    total = np.exp(log_int - top) + np.exp(log_f - top) * corr
    return top + np.log(np.maximum(total, tiny))


class GdmsSystem:
    """Truncated edge shift whose letters are stored as ``LetterBlock``s.

    Fuchsian instances carry the analytic exponent tails of their
    parabolic letter families as the tail column of their parabolic
    block; finite systems (the delta_c alphabet, synthetic test shifts)
    have none.  The cyclic classes of the key graph come with the system
    (``induced.fuchsian_system`` takes them from its pair graph).
    """

    def __init__(
            self, n_keys: int,
            blocks: list,  # LetterBlock
            # the keys of each cyclic class of the key graph (``cyclic_classes``):
            # every cell of every block runs from class k to class k + 1 mod p
            classes: list,
            log_mult: float = 0.0):  # additive log constant of every weight (quadrature)
        self.n_keys, self.blocks, self.classes = n_keys, blocks, classes
        self.log_mult = log_mult

    @property
    def n_edges(self) -> int:
        return sum(block.zeta.size for block in self.blocks)

    @cached_property
    def fold(self):
        """(S, T): the keys of an independent set S of the key graph (no
        cell between two of its keys, none from a key to itself) and the
        other keys T, or None where p > 1 or 2 |T| >= n_keys.

        S is taken greedily, keys by increasing degree, ties by index;
        ``pressure`` then solves a 2 |T| x 2 |T| companion instead of B.
        Derived from the blocks' cells on first use.
        """
        n = self.n_keys
        if len(self.classes) > 1:
            return None
        adj = np.zeros(n * n, dtype=bool)
        for block in self.blocks:
            adj[block.cells.ravel()] = True
        adj = adj.reshape(n, n)
        adj |= adj.T
        free = ~np.diagonal(adj)
        in_s = np.zeros(n, dtype=bool)
        deg = adj.sum(axis=1).tolist()
        for i in sorted(range(n), key=deg.__getitem__):
            if free[i]:
                in_s[i] = True
                free &= ~adj[i]
        if 2 * (n - in_s.sum()) >= n:
            return None
        return np.flatnonzero(in_s), np.flatnonzero(~in_s)

    def divergence_abscissa(self, beta: float):
        """Analytic divergence threshold in t: 1/2 - beta when a block
        carries the parabolic tails, else None (finite series)."""
        tails = any(block.tail is not None for block in self.blocks)
        return 0.5 - beta if tails else None

    def pressure(self, t: float, beta: float, r: float = None) -> float:
        """P(t, beta) by the module's ``pressure``, looked up at call time."""
        return pressure(self, t, beta, r)


def cyclic_classes(pattern: np.ndarray) -> list:
    """The keys of each cyclic class of the graph with adjacency
    ``pattern``: every edge runs from class k to class k + 1 mod p.

    Each weakly connected component gets BFS potentials, +1 along an edge
    and -1 against it; the period p is the gcd of pot(i) + 1 - pot(j) over
    all edges i -> j (1 when that gcd is 0, as on a graph without a
    directed cycle), and a key's class is pot mod p.
    """
    n = len(pattern)
    src, dst = np.nonzero(pattern)
    nbrs = [[] for _ in range(n)]
    for i, j in zip(src.tolist(), dst.tolist()):
        nbrs[i].append((j, 1))
        nbrs[j].append((i, -1))
    pot = [None] * n
    for root in range(n):
        if pot[root] is None:
            pot[root] = 0
            queue = [root]
            for i in queue:
                for j, d in nbrs[i]:
                    if pot[j] is None:
                        pot[j] = pot[i] + d
                        queue.append(j)
    pot = np.array(pot, dtype=np.int64)
    p = int(np.gcd.reduce(pot[src] + 1 - pot[dst])) or 1
    return [np.flatnonzero(pot % p == k) for k in range(p)]


def key_matrix(sys: GdmsSystem, t: float, beta: float, r: float = None):
    """(scale, B): the letter weights exp(t zeta + beta psi - scale) summed
    into the n_keys x n_keys key matrix B, with the scale the largest
    exponent; B is None where the scale is not finite.

    A tail column weighs the sum of each row's letters beyond the explicit
    exponents (``tail_log_weights``, with 2r from r when r is given, else
    from t).  Every exponent is floored ``LOG_FLOOR`` below the scale.
    The scale is found without the (rows x m) exponents: t x + c rounds
    monotonically in x, so the largest exponent of column j is
    t zeta_max[j] + beta psi[j] (zeta_min when t < 0), and the tail
    column's is its largest tail log-weight.  The weights are then built
    ``CHUNK`` values at a time, in whole rows, in one buffer per block
    updated in place (exponents, floor, ``exp``), and each chunk's run sums
    go into one (rows x runs) array per block; one ``np.bincount`` takes
    those into B.
    """
    blocks = [block for block in sys.blocks if block.zeta.size]
    terms, tops = [], []
    for block in blocks:
        bpsi = beta * block.psi
        top = np.multiply(block.zeta_max if t >= 0.0 else block.zeta_min, t)
        top += bpsi
        tail = None
        if block.tail is not None:
            two_r = 2.0 * r if r is not None else 2.0 * (t + beta) - 1.0
            tail = tail_log_weights(block, t, beta, two_r)
            top[-1] = tail.max()
        terms.append((bpsi, tail))
        tops.append(float(top.max()))
    scale = max(tops, default=0.0)
    if not math.isfinite(scale):
        return scale, None
    cells, sums = [], []
    for block, (bpsi, tail) in zip(blocks, terms):
        rows, m = block.zeta.shape
        step = max(1, CHUNK // m)
        buf = np.empty((min(step, rows), m))
        out = np.empty(block.cells.shape)
        for lo in range(0, rows, step):
            zeta = block.zeta[lo:lo + step]
            lw = np.multiply(zeta, t, out=buf[:len(zeta)])
            lw += bpsi
            if tail is not None:
                lw[:, -1] = tail[lo:lo + step]
            lw -= scale
            np.maximum(lw, LOG_FLOOR, out=lw)
            np.exp(lw, out=lw)
            np.add.reduceat(lw, block.starts, axis=1, out=out[lo:lo + step])
        cells.append(block.cells.ravel())
        sums.append(out.ravel())
    n = sys.n_keys
    b = np.bincount(np.concatenate(cells), weights=np.concatenate(sums),
                    minlength=n * n).reshape(n, n)
    return scale, b


def pressure(sys: GdmsSystem, t: float, beta: float, r: float = None) -> float:
    """log spectral radius of the truncated weighted transfer operator.

    The edge weights are summed into the key-by-key matrix B
    (``key_matrix``), which has the same nonzero spectrum as the
    letter-level operator.  B maps each of the p cyclic classes of the key
    graph, which come with the system (``sys.classes``), to the next, so
    rho(B)^p is the spectral radius of the product of its p blocks
    B_(k, k+1).  With one class (p = 1) and an independent key set S
    whose complement T has k < n_keys / 2 keys (``sys.fold``), rho(B) is
    c rho(C) for the 2k x 2k companion C = [[0, I], [W, Z / c]], where
    Y X = c^2 W is the normalised product of Y = B[T, S] and X = B[S, T],
    and Z = B[T, T]; otherwise B is solved directly.  The call reads the
    system and changes nothing in it.  In a product (``_product_radius``)
    each block is divided by its largest entry and the running product by
    its largest entry after each multiplication, with the logs of the
    divisors kept aside: the dominant cycle of a bipartite key graph at
    large |beta| alternates a weight 1 with the floor, and the plain
    product of such blocks sinks to subnormals.  Entries of the product
    that the key graph reaches but that still fall below the normal range
    are known only to lie in [0, tiny]; when rho changes by more than
    1e-13 between the two ends, the product cannot resolve it and the
    whole matrix is solved (on charts where the entries of a block span
    300 decades, the product of two blocks can lose every entry of its
    dominant cycle).  The dominant eigenvalue comes from a full
    eigensolve; that stays robust when near-critical tail weights make it
    nearly degenerate.

    When a block carries tails, the pressure is +inf where the untruncated
    letter series diverges, i.e. t + beta <= 1/2 (or r <= 0 when the
    shifted variable r = t - (1/2 - beta) is given; the tail rule then
    takes 2r from r, not from t), and where a weight diverged.  All
    weights share one scale, the largest exponent; ``log_mult`` enters
    once, in the returned value.  With no edge weight left the operator
    is empty and the pressure is -inf.
    """
    t0 = sys.divergence_abscissa(beta)
    if t0 is not None and ((r <= 0.0) if r is not None else t <= t0):
        return math.inf
    scale, b = key_matrix(sys, t, beta, r)
    if b is None:
        # every weight zero: empty operator; otherwise a weight diverged
        return -math.inf if scale == -math.inf else math.inf
    cls = sys.classes
    p = len(cls)
    log_rho = None
    if p > 1:
        log_top, rho = _product_radius(
            [b[cls[k]][:, cls[(k + 1) % p]] for k in range(p)])
        if rho is not None:
            log_rho = (log_top + _log(rho)) / p
    elif sys.fold is not None:
        s_keys, t_keys = sys.fold
        n = len(t_keys)
        cols = b[:, t_keys]
        comp = np.eye(2 * n, k=n)  # the first n rows of the companion

        def companion(log_top, w):
            # [[0, I], [W, Z / c]] with c = e^(log_top / 2)
            zc = comp[n:, n:]
            with np.errstate(over="ignore"):
                np.divide(cols[t_keys], math.exp(0.5 * log_top), out=zc)
            if not zc.max() < math.inf:
                return None  # Z / c overflowed: c is far below Z
            comp[n:, :n] = w
            return comp

        # B = L R with L = [[X, 0], [0, I]] and R = [[0, I], [Y, Z]], and R L
        # is the companion [[0, I], [Y X, Z]]; Y X = c^2 W with W the
        # normalised product, so rho(B) = c rho([[0, I], [W, Z / c]])
        log_top, rho = _product_radius([b[t_keys][:, s_keys], cols[s_keys]],
                                       companion)
        if rho is not None:
            log_rho = 0.5 * log_top + _log(rho)
    if log_rho is None:
        # one class and no fold, or a product that lost rho
        log_rho = _log(_radius(b))
    return scale + sys.log_mult + log_rho


def _product_radius(blocks, frame=lambda log_top, w: w):
    """(log_top, rho): rho is the spectral radius of W, the product of the
    non-negative ``blocks`` divided by e^log_top, or of ``frame(log_top,
    W)`` when given; rho is None where the product cannot resolve it.

    Each block is divided by its largest entry before the product and the
    running product by its largest entry after each multiplication, the
    logs of the divisors summed into log_top.  Entries of W that the
    blocks' pattern reaches but that fell below the normal range are known
    only to lie in [0, tiny]; when rho moves by more than 1e-13 with them
    raised to tiny, rho is None, and so it is where a block is zero or
    ``frame`` returns None.
    """
    log_top, prod = 0.0, None
    for m in blocks:
        top = m.max()
        if not top > 0.0:
            return log_top, None
        m = m / top
        log_top += math.log(top)
        if prod is None:
            prod, reach = m, m > 0.0
        else:
            prod, reach = prod @ m, reach @ (m > 0.0)
            top = prod.max()
            if top > 0.0:
                prod /= top
                log_top += math.log(top)
    a = frame(log_top, prod)
    if a is None:
        return log_top, None
    rho = _radius(a)
    tiny = np.finfo(float).tiny
    lost = reach & (prod < tiny)
    if lost.any() and \
            _radius(frame(log_top, np.where(lost, tiny, prod))) \
            > rho * (1 + 1e-13):
        return log_top, None
    return log_top, rho


def _radius(a: np.ndarray) -> float:
    return float(np.abs(np.linalg.eigvals(a)).max())


def _log(x: float) -> float:
    return math.log(x) if x > 0.0 else -math.inf


class FreeEnergyPoint:
    def __init__(self, t: float,
                 r: float,  # t - (1/2 - beta) for Fuchsian systems, else nan
                 err_t: float,  # t-width of the final sign-changing bracket
                 pressure_calls: int,
                 slope: float):  # secant dP/dx at the root (see ``free_energy``)
        self.t, self.r, self.err_t = t, r, err_t
        self.pressure_calls, self.slope = pressure_calls, slope


# The search in x = log r stays in [-700, 41 log 4]: e^-700 is the
# smallest r kept (a normal double, like LOG_FLOOR) and r = 4^41 the
# largest, far beyond every root and below where the tail rule overflows.
X_MIN, X_MAX = -700.0, 41.0 * math.log(4.0)
SEARCH_MOVES = 40


def free_energy(sys: GdmsSystem, beta: float,
                start: FreeEnergyPoint = None) -> FreeEnergyPoint:
    """Unique root of the decreasing map t -> sys.pressure(t, beta).

    Fuchsian systems are solved in x = log r with r = t - (1/2 - beta),
    which resolves roots exponentially close to the divergence threshold;
    systems without a divergence abscissa are solved in x = t.  One
    bracket search starts at x = 0 or, given the ``start`` root at a
    neighbouring beta (as ``free_energy_curve`` does), at its r on the
    left branch (r < 1e-3, where t is nearly 1/2 - beta) and at its t
    elsewhere (t decreases in beta, so the last t bounds the next root
    from above).  It moves against the sign of the pressure, first by the
    Newton step 1.1 |P(x) / s| on the start's ``slope`` s, or by 1 when s
    is not negative and finite, each move 4 times the last; upward moves
    are capped at max(log 4, |x|), so x at most doubles.  At the first
    sign change Brent's method closes the last two points to width 1e-13.
    In log r the search is clipped to [X_MIN, X_MAX]; a pressure still
    negative at r = e^-700 pins the root there, numerically
    indistinguishable from the threshold.  ``err_t`` is the t-width of
    the final sign-changing bracket, e^-700 at a pinned root.  Where the
    pressure at the root is exactly 0 it is the t-width of the nearest
    nonzero pressures on either side, found by steps of 1e-13 + RTOL |x|
    growing 4-fold, since Brent's method stops at a zero however wide its
    bracket is then.  ``slope`` is the secant of the pressure between the
    root and the nearest other abscissa evaluated at least
    1e-9 max(1, |x|) away from it, or the start's slope where the search
    evaluated none that far.
    """
    t0 = sys.divergence_abscissa(beta)
    seen = {}  # x -> pressure; the bracket ends are not evaluated twice

    def press(x):
        if x not in seen:
            if t0 is None:
                seen[x] = sys.pressure(x, beta)
            else:
                r = math.exp(x)
                seen[x] = sys.pressure(t0 + r, beta, r=r)
        return seen[x]

    lo, hi = (X_MIN, X_MAX) if t0 is not None else (-math.inf, math.inf)

    def nonzero_side(x, sign):
        step = 1e-13 + RTOL * abs(x)
        for _ in range(SEARCH_MOVES):
            if press(x + sign * step) != 0.0:
                return x + sign * step
            step *= 4.0
        return sign * math.inf

    def root(x):
        # err_t: the t-width of [y0, y1], from x to the nearest abscissa of
        # opposite sign or to r = 0 at the pinned root, or between the
        # nearest nonzero pressures around an exact zero
        p = seen[x]
        if p == 0.0:
            y0, y1 = nonzero_side(x, -1.0), nonzero_side(x, 1.0)
        elif p < 0.0 and x <= lo:
            y0, y1 = x, -math.inf
        else:
            y0, y1 = x, min((y for y, q in seen.items()
                             if (q > 0.0) != (p > 0.0)),
                            key=lambda y: abs(y - x))
        if t0 is None:
            t, r, err = x, math.nan, abs(y1 - y0)
        else:
            r = math.exp(x)
            t, err = t0 + r, abs(math.exp(y1) - math.exp(y0))
        y = min((y for y in seen if abs(y - x) >= 1e-9 * max(1.0, abs(x))),
                key=lambda y: abs(y - x), default=None)
        slope = s if y is None else (seen[y] - p) / (y - x)
        return FreeEnergyPoint(t, r, err, len(seen), slope)

    x, s = 0.0, math.nan
    if start is not None:
        s = start.slope
        if t0 is None:
            x = start.t
        else:
            # a start at a larger beta can lie below this beta's threshold
            r = start.r if start.r < 1e-3 else start.t - t0
            x = min(max(math.log(r) if r > 0.0 else lo, lo), hi)
    p = press(x)
    step = 1.1 * abs(p / s) if -math.inf < s < 0.0 else 1.0
    for _ in range(SEARCH_MOVES):
        if p == 0.0 or (p < 0.0 and x <= lo):
            return root(x)  # an exact root, or the pinned one
        if p > 0.0:
            if x >= hi:
                break
            nxt = min(x + min(step, max(math.log(4.0), abs(x))), hi)
        else:
            nxt = max(x - step, lo)
        q = press(nxt)
        if q == 0.0 or (q > 0.0) != (p > 0.0):
            return root(_brentq(press, x, nxt, xtol=1e-13))
        x, p = nxt, q
        step *= 4.0
    if t0 is not None:
        raise NoSignChange("pressure positive up to r=%r" % math.exp(x))
    raise NoSignChange("pressure stayed %s t=%r" % (
        "positive up to" if p > 0.0 else "negative down to", x))


RTOL = 4.0 * float(np.finfo(float).eps)  # scipy.optimize.brentq's default


def _brentq(f, xa, xb, xtol):
    """Root of f in the sign-changing bracket [xa, xb] by Brent's method.

    The iteration of scipy.optimize.brentq, step for step (the tests
    compare the two); importing scipy.optimize alone would add ~50 MB to
    the resident size of a run and ~0.7 s to its start.  Returns the last
    abscissa evaluated once the bracket is narrower than
    xtol + RTOL * |x|.
    """
    xpre, xcur = xa, xb
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(100):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + RTOL * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # secant
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # inverse quadratic interpolation
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) \
                        / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:  # IEEE gives inf or nan: bisect
                stry = math.inf
            if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0.0 else -delta
        fcur = f(xcur)
    raise RuntimeError("Brent's method did not converge in 100 steps")


# Slope decreases of t(beta) up to this size are root-finder noise, not a
# convexity violation (``spectrum`` applies the same floor to t and f).
CONVEXITY_NOISE = 1e-6


class FreeEnergyCurve:
    """Sampled free energy t(beta) with the shifted values r(beta), the
    t-width ``err_t`` of each root's final bracket and the pressure
    ``calls`` each root took.

    Invariants (validated): strictly decreasing in beta, convex, and
    t > 1/2 - beta wherever the shifted root resolves.
    """

    def __init__(self, betas: np.ndarray, t: np.ndarray, r: np.ndarray,
                 err_t: np.ndarray, calls: np.ndarray):
        self.betas, self.t, self.r = betas, t, r
        self.err_t, self.calls = err_t, calls

    def validate(self):
        db = np.diff(self.betas)
        dt = np.diff(self.t)
        # strict decrease up to solver noise: deep in the right tail the
        # true decrements fall below the root-finder residual scale
        floor = 1e-9 * np.maximum(1.0, np.abs(self.t[:-1]))
        if not np.all(dt < floor):
            raise InvalidCurve("free energy curve is not decreasing")
        slopes = dt / db
        if not np.all(np.diff(slopes) >= -CONVEXITY_NOISE):
            raise InvalidCurve("free energy curve is not convex")
        if np.any(self.r < 0.0):
            raise InvalidCurve("free energy below the divergence threshold")
        return True


def free_energy_curve(sys: GdmsSystem, betas) -> FreeEnergyCurve:
    """t(beta) on the distinct betas in increasing order by continuation:
    every root after the first starts at the root before it."""
    betas = np.array(sorted(set(map(float, betas))))
    pts = []
    for b in betas:
        pts.append(free_energy(sys, float(b),
                               start=pts[-1] if pts else None))
    return FreeEnergyCurve(betas, np.array([p.t for p in pts]),
                           np.array([p.r for p in pts]),
                           np.array([p.err_t for p in pts]),
                           np.array([p.pressure_calls for p in pts]))


def delta_c(restricted) -> FreeEnergyPoint:
    """Dimension of the bounded-winding subset: the root at beta = 0 of the
    ``restricted`` system (``fuchsian_system(pres, 2, restricted=True)``:
    the hyperbolic letters and the parabolic ones of exponent <= 2)."""
    return free_energy(restricted, 0.0)
