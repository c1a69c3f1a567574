"""Finite-blocklength converse bounds for classical coding over quantum channels."""

from .bounds import (BoundResult, SolverFailure, TestClass, binary_entropy,
                     binary_relative_entropy, classical_converse, depolarising_exact,
                     ea_bound, ea_bound_dual, ea_bound_opt_rho, fano_bound,
                     noisy_storage_minentropy, wang_renner_chi)
from .hypotest import TestResult, binomial_beta, classical_np_beta, quantum_np_beta
from .quantum import (Code, DensityMatrix, QuantumChannel, apply_channel,
                      apply_channel_second, canonical_purification, channel_from_choi,
                      code_to_test, constant_channel, depolarising_channel,
                      identity_channel, max_entangled_op, maximally_mixed,
                      mutual_information, tensor_channels, tensor_power,
                      von_neumann_entropy)

__version__ = "0.1.0"
