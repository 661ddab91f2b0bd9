"""Cusp-winding multifractal spectra for free Fuchsian groups.

The package computes one chain: a group presentation with Markov
boundary intervals (:mod:`cuspwind.fuchsian`), the induced
countable-alphabet shift with its potentials (:mod:`cuspwind.induced`),
the pressure P(t, beta) of a truncated transfer operator and the free
energy t(beta) (:mod:`cuspwind.gdms`), and the Legendre-transform
spectrum f(alpha) (:mod:`cuspwind.spectrum`).  Bowen-Series coding, the
induced conjugacy check and the Poincare probe (:mod:`cuspwind.coding`)
serve the ``validate``, ``code`` and ``delta`` commands; the command line
lives in :mod:`cuspwind.cli`.  The names below are the chain's public
API.  The reference implementations the tests compare it against
(partition sums, the direct Legendre transform, displacements of coded
words) and the paper's lemma checks (the arc decomposition of a coded
geodesic and the constants C0 and C1) live in ``tests/oracles.py``, not
in the package.

Quick start::

    from cuspwind import build_group, preset_config, fuchsian_system
    from cuspwind import free_energy, free_energy_curve
    from cuspwind.spectrum import spectrum

    pres = build_group(preset_config("gamma2-type"))
    sys400 = fuchsian_system(pres, cap=400)
    print(free_energy(sys400, beta=0.0).t)   # limit-set dimension
"""

from .fuchsian import GroupPresentation, build_group, conjugate_config
from .gdms import (
    FreeEnergyCurve,
    GdmsSystem,
    delta_c,
    free_energy,
    free_energy_curve,
    pressure,
)
from .induced import fuchsian_system
from .mobius import MobiusMap
from .presets import preset_config
# the spectrum() op itself stays at cuspwind.spectrum.spectrum so the bare
# name keeps pointing at the submodule
from .spectrum import SpectrumCurve

__all__ = [
    "FreeEnergyCurve", "GdmsSystem", "GroupPresentation", "MobiusMap",
    "SpectrumCurve", "build_group", "conjugate_config", "delta_c",
    "free_energy", "free_energy_curve", "fuchsian_system", "preset_config",
    "pressure",
]

__version__ = "0.1.0"
