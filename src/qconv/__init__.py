"""Finite-blocklength converse bounds for classical coding over quantum channels.

Importing the package sets ``OPENBLAS_NUM_THREADS=1`` unless the caller has
set ``OPENBLAS_NUM_THREADS``, ``GOTO_NUM_THREADS`` or ``OMP_NUM_THREADS``.
OpenBLAS reads it when numpy first loads, so it holds in any process that
imports qconv before numpy, the ``qconv`` command included. The solver's
dense kernels are small, and a second BLAS thread spends CPU on them
without shortening a solve.
"""

import os

if not any(v in os.environ for v in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
                                     "OMP_NUM_THREADS")):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

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
