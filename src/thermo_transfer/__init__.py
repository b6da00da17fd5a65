"""Thermodynamic-limit free energies of (quasi-)1D classical chains.

The partition function of a chain with nearest-neighbour interactions
is the trace of the L-th power of a transfer operator with a symmetric
positive kernel; in the thermodynamic limit the free energy per site is
governed by the dominant eigenvalue alone,

    F(beta) = -log(lambda_1(T_beta)) / beta   (+ model prefactors).

This package discretizes the operator with Gauss quadrature tailored to
each model's weight function (Nystrom method), extracts lambda_1 and
its Perron vector by repeated squaring of the positive matrix, with no
eigendecomposition, and reads the observables off that vector's
stationary marginals (Hellmann-Feynman).
Implemented models: an anharmonic particle chain, the defocusing DNLS
chain in polar coordinates, and a cylindrical lattice of coupled rings,
solved as one harmonic chain per ring Fourier mode.
"""

from .errors import (AssemblyError, ConvergenceError, DomainError,
                     NumericError, ResourceLimitError)
from .models import (CylinderParams, DnlsParams, ParticleChainParams,
                     cylinder_free_energy, cylinder_log_kernel,
                     dnls_free_energy, dnls_log_kernel,
                     particle_chain_free_energy, particle_chain_log_kernel,
                     reference_cylinder, reference_particle_chain_gamma0)
from .nystrom import (DominantEig, LogKernel, assemble, dominant_eigenvalue,
                      fredholm_det)
from .quadrature import (QuadratureRule, RecurrenceCoefficients, TensorRule,
                         gauss_hermite_rescaled, golub_welsch,
                         stieltjes_recurrence, stieltjes_rule,
                         tensor_product)
from .specfun import erfc, i0_scaled, i1_scaled, log_i0
from .thermo import (SweepResult, SweepSpec, dnls_observables, fd_derivative,
                     free_energy_sweep, particle_chain_observables)

__version__ = "0.1.0"

__all__ = [
    "AssemblyError", "ConvergenceError", "DomainError", "NumericError",
    "ResourceLimitError",
    "CylinderParams", "DnlsParams", "ParticleChainParams",
    "cylinder_free_energy", "cylinder_log_kernel",
    "dnls_free_energy", "dnls_log_kernel",
    "particle_chain_free_energy", "particle_chain_log_kernel",
    "reference_cylinder", "reference_particle_chain_gamma0",
    "DominantEig", "LogKernel",
    "assemble", "dominant_eigenvalue", "fredholm_det",
    "QuadratureRule", "RecurrenceCoefficients", "TensorRule",
    "gauss_hermite_rescaled", "golub_welsch", "stieltjes_recurrence",
    "stieltjes_rule", "tensor_product",
    "erfc", "i0_scaled", "i1_scaled", "log_i0",
    "SweepResult", "SweepSpec", "dnls_observables", "fd_derivative",
    "free_energy_sweep", "particle_chain_observables",
    "__version__",
]
