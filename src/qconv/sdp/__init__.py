"""Dense primal-dual interior-point semidefinite programming."""

from .problem import (Basis, LinearConstraint, SdpProblem, SdpSolution, VerifyReport,
                      diagonal_basis, hermitian_basis, invariant_basis, verify)
from .solver import solve

__all__ = ["Basis", "LinearConstraint", "SdpProblem", "SdpSolution", "VerifyReport",
           "diagonal_basis", "hermitian_basis", "invariant_basis", "verify", "solve"]
