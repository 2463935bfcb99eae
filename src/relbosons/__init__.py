"""Uncertainty bounds for relativistic spin-0 and spin-1 bosons.

The package evaluates Klein-Gordon wavepacket charge and energy
densities (exhibiting the negative-charge shells that disqualify the
charge density as a probability density), builds the effective radial
eigenproblems whose ground levels give the uncertainty product
gamma(d), and minimizes the dispersion functionals directly in momentum
space.  gamma runs from 3/2 in the nonrelativistic limit to
1 + sqrt(5)/2 in the massless limit for the scalar channel, and from
5/2 down to 1 + sqrt(5)/2 for the longitudinal vector channel.

Import the submodule you use (``from relbosons import eigensolver``);
the package itself defines no other names, and ``import relbosons``
loads nothing, so each command loads only the scipy modules its own
path uses.
"""

__version__ = "0.1.0"
