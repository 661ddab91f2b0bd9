"""The pressure eigensolve on small edge shifts, against dense linear algebra.

``gdms.pressure`` is log rho of the key-by-key matrix that the edge-level
matrix M[e, f] = w(e) [out(e) = in(f)] collapses to; these checks compare it
with the edge-level matrix itself and with cycles whose radius is known.
"""

import math

import numpy as np
import pytest

from cuspwind.gdms import GdmsSystem, pressure


def weighted_system(weights, in_keys, out_keys, n_keys):
    """Edge shift whose weight at t = 1, beta = 0 is the given w(e)."""
    with np.errstate(divide="ignore"):
        zeta = np.log(np.asarray(weights, dtype=float))
    return GdmsSystem(
        n_keys=n_keys,
        in_keys=np.asarray(in_keys, dtype=np.int64),
        out_keys=np.asarray(out_keys, dtype=np.int64),
        zeta=zeta,
        psi=np.zeros(len(zeta)),
    )


def log_radius(sysm):
    return pressure(sysm, 1.0, 0.0)


def dense_log_radius(sysm):
    """log rho of the edge-level matrix M[e, f] = w(e) [out(e) = in(f)]."""
    w = np.exp(sysm.zeta)
    m = w[:, None] * (sysm.out_keys[:, None] == sysm.in_keys[None, :])
    rho = max(abs(np.linalg.eigvals(m)))
    return math.log(rho) if rho > 0 else -math.inf


def test_matches_dense_eigenvalues():
    rng = np.random.default_rng(3)
    checked = 0
    for _ in range(200):
        n_keys = int(rng.integers(2, 5))
        n_edges = int(rng.integers(4, 20))
        sysm = weighted_system(
            rng.uniform(0.05, 1.0, size=n_edges),
            rng.integers(0, n_keys, size=n_edges),
            rng.integers(0, n_keys, size=n_edges), n_keys)
        expect = dense_log_radius(sysm)
        if expect < math.log(1e-12):
            continue  # nilpotent incidence
        assert log_radius(sysm) == pytest.approx(expect, abs=1e-12)
        checked += 1
    assert checked >= 100


def test_periodic_cycles_converge():
    # pure 3-cycle: the radius is the geometric mean of the cycle weights
    sysm = weighted_system([0.5, 0.2, 0.1], [0, 1, 2], [1, 2, 0], 3)
    assert log_radius(sysm) == pytest.approx(
        math.log(0.5 * 0.2 * 0.1) / 3.0, abs=1e-12)
    assert log_radius(sysm) == pytest.approx(dense_log_radius(sysm), abs=1e-12)


def test_period_two_bipartite():
    sysm = weighted_system([0.7, 0.3], [0, 1], [1, 0], 2)
    assert log_radius(sysm) == pytest.approx(0.5 * math.log(0.21), abs=1e-12)
    assert log_radius(sysm) == pytest.approx(dense_log_radius(sysm), abs=1e-12)


def test_zero_weights_give_minus_inf():
    sysm = weighted_system(np.zeros(4), np.zeros(4), np.zeros(4), 1)
    assert log_radius(sysm) == -math.inf
