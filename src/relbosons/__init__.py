"""Uncertainty bounds for relativistic spin-0 and spin-1 bosons.

The package evaluates Klein-Gordon wavepacket charge and energy
densities (exhibiting the negative-charge shells that disqualify the
charge density as a probability density), builds the effective radial
eigenproblems whose ground levels give the uncertainty product
gamma(d), and minimizes the dispersion functionals directly in momentum
space.  gamma runs from 3/2 in the nonrelativistic limit to
1 + sqrt(5)/2 in the massless limit for the scalar channel, and from
5/2 down to 1 + sqrt(5)/2 for the longitudinal vector channel.

The names below, and the submodules themselves, are loaded on first
access (PEP 562), so ``import relbosons`` costs no scipy import and each
command loads only the scipy modules its own path uses.
"""

import importlib

__version__ = "0.1.0"

_SUBMODULES = ("cli", "eigensolver", "kg_fields", "numkernel", "potentials",
               "variational", "verify")

# public name -> the submodule that defines it
_EXPORTS = {
    **dict.fromkeys(("EigenResult", "GOLDEN_GAMMA", "RadialGrid", "gamma_curve",
                     "solve_ground_fd", "solve_ground_shooting"), "eigensolver"),
    **dict.fromkeys(("DensityField", "FieldSample", "GaussianProfile", "CosineProfile",
                     "Shell", "WavepacketParams", "charge_density",
                     "energy_density", "field_sample", "demo_packet", "scan_density",
                     "total_charge"), "kg_fields"),
    **dict.fromkeys(("BracketError", "MinimizationError", "QuadratureError",
                     "tridiag_ground"), "numkernel"),
    **dict.fromkeys(("INFINITY", "OriginBehavior", "PotentialSpec", "d_parameter",
                     "effective_potential", "origin_behavior", "spec_spin0",
                     "spec_spin1"), "potentials"),
    **dict.fromkeys(("CylindricalGrid", "RadialMomentumGrid",
                     "RayleighState", "dispersion_pair",
                     "minimize_transverse_massless", "separation_oracle"),
                    "variational"),
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _EXPORTS:
        module = importlib.import_module(f"{__name__}.{_EXPORTS[name]}")
        return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_SUBMODULES, *_EXPORTS})
