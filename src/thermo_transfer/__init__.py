"""Thermodynamic-limit free energies of (quasi-)1D classical chains.

The partition function of a chain with nearest-neighbour interactions
is the trace of the L-th power of a transfer operator with a symmetric
positive kernel; in the thermodynamic limit the free energy per site is
governed by the dominant eigenvalue alone,

    F(beta) = -log(lambda_1(T_beta)) / beta   (+ model prefactors).

This package discretizes the operator with Gauss quadrature tailored to
each model's weight function (Nystrom method), extracts lambda_1 with
one dense symmetric eigensolve, and differentiates the free-energy
surface for observables.  Implemented models: an anharmonic particle
chain, the defocusing DNLS chain in polar coordinates, and a
cylindrical lattice of coupled rings, solved as one harmonic chain per
ring Fourier mode.
"""

from .errors import (AssemblyError, ConvergenceError, DomainError,
                     ResourceLimitError)
from .models import (CylinderParams, DnlsParams, ParticleChainParams,
                     cylinder_free_energy, cylinder_log_kernel,
                     dnls_free_energy, dnls_log_kernel,
                     particle_chain_free_energy, particle_chain_log_kernel,
                     reference_cylinder_ax0, reference_particle_chain_gamma0)
from .nystrom import (DominantEig, LogKernel, NystromMatrix, assemble,
                      dominant_eigenvalue, fredholm_det)
from .quadrature import (QuadratureRule, RecurrenceCoefficients, TensorRule,
                         gauss_hermite_rescaled, golub_welsch,
                         stieltjes_recurrence, tensor_product)
from .specfun import erf, erfc, i0_scaled, log_i0, log_i0_scaled
from .thermo import (SweepResult, SweepSpec, dnls_observables, fd_derivative,
                     free_energy_sweep, particle_chain_observables)

__version__ = "0.1.0"

__all__ = [
    "AssemblyError", "ConvergenceError", "DomainError", "ResourceLimitError",
    "CylinderParams", "DnlsParams", "ParticleChainParams",
    "cylinder_free_energy", "cylinder_log_kernel",
    "dnls_free_energy", "dnls_log_kernel",
    "particle_chain_free_energy", "particle_chain_log_kernel",
    "reference_cylinder_ax0", "reference_particle_chain_gamma0",
    "DominantEig", "LogKernel", "NystromMatrix",
    "assemble", "dominant_eigenvalue", "fredholm_det",
    "QuadratureRule", "RecurrenceCoefficients", "TensorRule",
    "gauss_hermite_rescaled", "golub_welsch", "stieltjes_recurrence",
    "tensor_product",
    "erf", "erfc", "i0_scaled", "log_i0", "log_i0_scaled",
    "SweepResult", "SweepSpec", "dnls_observables", "fd_derivative",
    "free_energy_sweep", "particle_chain_observables",
    "__version__",
]
