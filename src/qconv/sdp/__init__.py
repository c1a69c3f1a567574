"""Dense primal-dual interior-point semidefinite programming."""

from .problem import (Basis, Frame, LinearConstraint, SdpProblem, SdpSolution, VerifyReport,
                      diagonal_basis, diagonal_frame, hermitian_basis, invariant_basis,
                      invariant_frame, verify)
from .solver import solve

__all__ = ["Basis", "Frame", "LinearConstraint", "SdpProblem", "SdpSolution", "VerifyReport",
           "diagonal_basis", "diagonal_frame", "hermitian_basis", "invariant_basis",
           "invariant_frame", "verify", "solve"]
