"""Uncertainty bounds for relativistic spin-0 and spin-1 bosons.

The package evaluates Klein-Gordon wavepacket charge and energy
densities (exhibiting the negative-charge shells that disqualify the
charge density as a probability density), builds the effective radial
eigenproblems whose ground levels give the uncertainty product
gamma(d), and minimizes the dispersion functionals directly in momentum
space.  gamma runs from 3/2 in the nonrelativistic limit to
1 + sqrt(5)/2 in the massless limit for the scalar channel, and from
5/2 down to 1 + sqrt(5)/2 for the longitudinal vector channel.
"""

from .eigensolver import (EigenResult, GammaCurve, GOLDEN_GAMMA, RadialGrid,
                          gamma_curve, solve_ground_fd, solve_ground_shooting,
                          verify_analytic_limits)
from .kg_fields import (DensityField, FieldSample, GaussianProfile, CosineProfile,
                        Shell, TabulatedProfile, WavepacketParams, charge_density,
                        energy_density, field_sample, demo_packet, scan_density,
                        total_charge)
from .numkernel import (BracketError, MinimizationError, QuadratureError,
                        QuadratureSpec, TridiagProblem, integrate_damped,
                        tridiag_ground)
from .potentials import (INFINITY, OriginBehavior, PotentialSpec, d_parameter,
                         effective_potential, origin_behavior, spec_spin0,
                         spec_spin1)
from .variational import (CylindricalGrid, DispersionFunctional, RadialMomentumGrid,
                          RayleighState, check_connection, dispersion_pair,
                          minimize_transverse_massless, rayleigh_gamma,
                          separation_oracle)

__version__ = "0.1.0"
