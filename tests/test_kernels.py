"""The pressure eigensolve on small edge shifts, against dense linear algebra.

``gdms.pressure`` is log rho of the key-by-key matrix that the edge-level
matrix M[e, f] = w(e) [out(e) = in(f)] collapses to, taken from the product
of its blocks between consecutive cyclic classes; these checks compare it
with the edge-level matrix itself and with cycles whose radius is known.
"""

import math

import numpy as np
import pytest

from cuspwind import gdms
from cuspwind.gdms import cyclic_classes, pressure
from oracles import system_from_edges


def weighted_system(weights, in_keys, out_keys, n_keys):
    """Edge shift whose weight at t = 1, beta = 0 is the given w(e)."""
    with np.errstate(divide="ignore"):
        zeta = np.log(np.asarray(weights, dtype=float))
    return system_from_edges(n_keys, in_keys, out_keys, zeta,
                             np.zeros(len(zeta)))


def log_radius(sysm):
    return pressure(sysm, 1.0, 0.0)


def dense_log_radius(weights, in_keys, out_keys):
    """log rho of the edge-level matrix M[e, f] = w(e) [out(e) = in(f)]."""
    w = np.asarray(weights, dtype=float)
    m = w[:, None] * (np.asarray(out_keys)[:, None]
                      == np.asarray(in_keys)[None, :])
    rho = max(abs(np.linalg.eigvals(m)))
    return math.log(rho) if rho > 0 else -math.inf


def test_matches_dense_eigenvalues():
    rng = np.random.default_rng(3)
    checked = 0
    for _ in range(200):
        n_keys = int(rng.integers(2, 5))
        n_edges = int(rng.integers(4, 20))
        edges = (rng.uniform(0.05, 1.0, size=n_edges),
                 rng.integers(0, n_keys, size=n_edges),
                 rng.integers(0, n_keys, size=n_edges))
        sysm = weighted_system(*edges, n_keys)
        expect = dense_log_radius(*edges)
        if expect < math.log(1e-12):
            continue  # nilpotent incidence
        assert log_radius(sysm) == pytest.approx(expect, abs=1e-12)
        checked += 1
    assert checked >= 100


def test_periodic_cycles_converge():
    # pure 3-cycle: the radius is the geometric mean of the cycle weights
    edges = ([0.5, 0.2, 0.1], [0, 1, 2], [1, 2, 0])
    sysm = weighted_system(*edges, 3)
    assert log_radius(sysm) == pytest.approx(
        math.log(0.5 * 0.2 * 0.1) / 3.0, abs=1e-12)
    assert log_radius(sysm) == pytest.approx(dense_log_radius(*edges),
                                             abs=1e-12)


def test_period_two_bipartite():
    edges = ([0.7, 0.3], [0, 1], [1, 0])
    sysm = weighted_system(*edges, 2)
    assert log_radius(sysm) == pytest.approx(0.5 * math.log(0.21), abs=1e-12)
    assert log_radius(sysm) == pytest.approx(dense_log_radius(*edges),
                                             abs=1e-12)


def test_zero_weights_give_minus_inf():
    sysm = weighted_system(np.zeros(4), np.zeros(4), np.zeros(4), 1)
    assert log_radius(sysm) == -math.inf


def test_cyclic_classes():
    # a 3-cycle has period 3; a chord 0 -> 2 closes a 2-cycle with 2 -> 0,
    # and the period drops to gcd(3, 2) = 1
    cycle = np.zeros((3, 3), dtype=bool)
    cycle[[0, 1, 2], [1, 2, 0]] = True
    assert [c.tolist() for c in cyclic_classes(cycle)] == [[0], [1], [2]]
    cycle[0, 2] = True
    assert [c.tolist() for c in cyclic_classes(cycle)] == [[0, 1, 2]]
    # two components, periods 2 and 4: the classes of the gcd
    two = np.zeros((6, 6), dtype=bool)
    two[[0, 1, 2, 3, 4, 5], [1, 0, 3, 4, 5, 2]] = True
    assert [c.tolist() for c in cyclic_classes(two)] == [[0, 2, 4], [1, 3, 5]]
    # no cycle: one class, and the pressure of the nilpotent matrix is -inf
    chain = np.zeros((3, 3), dtype=bool)
    chain[[0, 1], [1, 2]] = True
    assert [c.tolist() for c in cyclic_classes(chain)] == [[0, 1, 2]]
    sysm = weighted_system([0.5, 0.5], [0, 1], [1, 2], 3)
    assert log_radius(sysm) == -math.inf


def test_three_cyclic_product_below_underflow(monkeypatch):
    # keys i in class i % 3; every cell from class k to class k + 1 weighs
    # c_k, so B_01 B_12 B_20 = 4 c0 c1 c2 J (J the 2x2 all-ones matrix)
    # and rho(B)^3 = 8 c0 c1 c2, while c0 c1 c2 = e^-800 underflows
    log_c = np.array([0.0, -400.0, -400.0])
    classes = [np.array([k, k + 3]) for k in range(3)]
    in_keys, out_keys, zeta = [], [], []
    for k in range(3):
        for i in classes[k]:
            for j in classes[(k + 1) % 3]:
                in_keys.append(i)
                out_keys.append(j)
                zeta.append(log_c[k])
    sysm = system_from_edges(6, in_keys, out_keys, zeta,
                             np.zeros(len(zeta)))
    b = np.zeros((6, 6))
    b[in_keys, out_keys] = np.exp(zeta)
    plain = b[np.ix_(classes[0], classes[1])] \
        @ b[np.ix_(classes[1], classes[2])] @ b[np.ix_(classes[2], classes[0])]
    assert not plain.any()
    radius, sizes = gdms._radius, []
    monkeypatch.setattr(gdms, "_radius",
                        lambda a: sizes.append(len(a)) or radius(a))
    assert log_radius(sysm) == pytest.approx(
        (math.log(8.0) + log_c.sum()) / 3.0, rel=1e-14)
    assert sizes == [2]  # the normalised product alone resolves rho
    assert [c.tolist() for c in sysm.classes] == [[0, 3], [1, 4], [2, 5]]


def test_product_that_loses_the_cycle_solves_the_whole_matrix():
    # keys a0, a1 | b0, b1 with the 4-cycle a0 -> b0 -> a1 -> b1 -> a0 of
    # weights 1, 1, e^-400, e^-400 and the chord a0 -> b1 of weight e^-300
    # (period 2): rho(B) = e^-200, set by the 4-cycle, but the two-step
    # entry a1 -> a0 of the product is e^-800, below the double range, and
    # the product alone reads e^-350 from the 2-cycle a0 -> b1 -> a0
    sysm = weighted_system(
        np.exp([0.0, 0.0, -400.0, -400.0, -300.0]),
        [0, 2, 1, 3, 0], [2, 1, 3, 0, 3], 4)
    assert log_radius(sysm) == pytest.approx(-200.0, rel=1e-12)
    assert [c.tolist() for c in sysm.classes] == [[0, 1], [2, 3]]


def test_one_class_solves_the_key_matrix_once(monkeypatch):
    # p = 1 (a self-loop): B = [[10000, e^-700], [1, 0]] is its own block
    # and is solved once, as it is; divided by its largest entry its chord
    # would fall below the normal range and call for a second solve
    sysm = weighted_system(np.exp([0.0] * 10_000 + [-700.0, 0.0]),
                           [0] * 10_001 + [1], [0] * 10_000 + [1, 0], 2)
    radius, seen = gdms._radius, []
    monkeypatch.setattr(gdms, "_radius",
                        lambda a: seen.append(a.copy()) or radius(a))
    expect = math.log(5000.0 + math.sqrt(5000.0 ** 2 + math.exp(-700.0)))
    assert log_radius(sysm) == pytest.approx(expect, rel=1e-15)
    assert len(sysm.classes) == 1
    assert len(seen) == 1
    assert np.array_equal(seen[0], [[10000.0, math.exp(-700.0)], [1.0, 0.0]])
