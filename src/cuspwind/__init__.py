"""Cusp-winding multifractal spectra for free Fuchsian groups.

The pipeline: a group presentation with Markov boundary intervals
(:mod:`cuspwind.fuchsian`), Bowen-Series coding of limit points and the
geodesic arc decomposition (:mod:`cuspwind.coding`), the induced
countable-alphabet shift with its potentials (:mod:`cuspwind.induced`),
a truncated transfer-operator pressure engine and the free energy t(beta)
(:mod:`cuspwind.gdms`), and the Legendre-transform spectrum f(alpha)
(:mod:`cuspwind.spectrum`).  The command line lives in
:mod:`cuspwind.cli`.

Quick start::

    from cuspwind import build_group, preset_config, fuchsian_system
    from cuspwind import free_energy, spectrum, free_energy_curve

    pres = build_group(preset_config("gamma2-type"))
    sys400 = fuchsian_system(pres, cap=400)
    print(free_energy(sys400, beta=0.0).t)   # limit-set dimension
"""

from .coding import (
    BlockWord,
    arc_decomposition,
    bowen_series_step,
    code_point,
    displacement,
    mean_cusp_winding,
    poincare_divergence_probe,
    return_time,
)
from .fuchsian import (
    GroupPresentation,
    build_group,
    conjugate_config,
    horocircle_of,
)
from .gdms import (
    FreeEnergyCurve,
    GdmsSystem,
    block_partition_sum,
    delta_c,
    free_energy,
    free_energy_curve,
    left_asymptote_check,
    partition_sum,
    pressure,
)
from .induced import (
    InducedLetter,
    ShiftWord,
    alphabet,
    conjugacy_check,
    fuchsian_system,
    incidence,
    phi,
    psi,
)
from .mobius import (
    MobiusMap,
    PlanePoint,
    apply_boundary,
    apply_plane,
    arc_length_above_height,
    compose,
    derivative_magnitude,
    hyperbolic_distance,
)
from .presets import preset_config
# the spectrum() op itself stays at cuspwind.spectrum.spectrum so the bare
# name keeps pointing at the submodule
from .spectrum import SpectrumCurve, alpha_range, endpoint_slopes, legendre

__all__ = [
    "BlockWord", "FreeEnergyCurve", "GdmsSystem", "GroupPresentation",
    "InducedLetter", "MobiusMap", "PlanePoint",
    "ShiftWord", "SpectrumCurve", "alpha_range", "alphabet",
    "apply_boundary", "apply_plane", "arc_decomposition",
    "arc_length_above_height", "block_partition_sum", "bowen_series_step",
    "build_group", "code_point", "compose", "conjugacy_check",
    "conjugate_config", "delta_c", "derivative_magnitude", "displacement",
    "endpoint_slopes", "free_energy", "free_energy_curve",
    "fuchsian_system", "horocircle_of", "hyperbolic_distance", "incidence",
    "left_asymptote_check", "legendre", "mean_cusp_winding",
    "partition_sum", "phi", "poincare_divergence_probe", "preset_config",
    "pressure", "psi", "return_time",
]

__version__ = "0.1.0"
