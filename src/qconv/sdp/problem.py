"""Standard-form semidefinite programs over Hermitian blocks.

A problem holds PSD variable blocks X_k and scalar linear constraints

    minimize    sum_k <C_k, X_k>
    subject to  sum_k <A_ik, X_k>  (=, <=, >=)  b_i,      X_k >= 0,

with the real inner product <A, X> = Re Tr(A† X), and its dual

    maximize    sum_i b_i y_i
    subject to  C_k - sum_i y_i A_ik >= 0   for every block k.

A program can be stated either way. In the primal form an operator
equation becomes one scalar row per element of a basis of its space. In
the dual (LMI) form the rows are the coordinates of the operator unknowns
in that basis, and each linear matrix inequality is one block k with no
rows of its own; the converse programs in ``bounds`` use this form. A
``Basis`` knows its length before any element is built: the full Hermitian
basis, the diagonal one, or the permutation-invariant one of n uses, whose
span holds an optimum when the program's data is invariant (Gatermann &
Parrilo, *Symmetry groups, semidefinite programs, and sums of squares*,
JPAA 2004).
Scalar inequality rows are converted to equalities with 1x1 slack blocks
inside the solver, which holds every block with a diagonal objective and
diagonal coefficients, the 1x1 ones included, as real vector entries.

A problem counts, as its rows are declared, the coefficient bytes it will
hold during a solve, and rejects rows that would take the program over
MAX_PROGRAM_BYTES before building any of their coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .. import linalg

SENSES = ("==", "<=", ">=")
MAX_PROGRAM_BYTES = 4 * 2**30  # admits the three-use qubit programs, both classes


@dataclass
class LinearConstraint:
    """One scalar constraint: sum over blocks of <coeff, X_block> sense rhs."""

    coeffs: dict[int, np.ndarray]
    rhs: float
    sense: str = "=="


class SdpProblem:
    """Container and validator for a block-diagonal Hermitian SDP.

    ``coefficient_bytes`` is what the declared rows will hold during a
    solve. Each row keeps its own d x d complex coefficient here, 16·d²
    bytes, and the solver keeps a second copy in its per-block stack:
    8 bytes on a 1x1 block, which the solver holds as a real vector entry,
    and 16·d² on a larger block. The solver also gives each inequality
    row a 1x1 slack coefficient, 8 bytes. The count is exact, except on a
    d > 1 block whose objective and coefficients all turn out diagonal:
    the solver keeps only their 8·d real diagonal bytes, so the count is
    an upper bound there.
    """

    def __init__(self, block_dims: list[int]):
        if not block_dims or any(int(d) < 1 for d in block_dims):
            raise ValueError(f"invalid block dimensions {block_dims}")
        self.block_dims = [int(d) for d in block_dims]
        self.objective: dict[int, np.ndarray] = {}
        self.constraints: list[LinearConstraint] = []
        self.coefficient_bytes = 0

    def add_block(self, dim: int) -> int:
        if dim < 1:
            raise ValueError("block dimension must be >= 1")
        self.block_dims.append(int(dim))
        return len(self.block_dims) - 1

    def _dim(self, k: int) -> int:
        if not 0 <= k < len(self.block_dims):
            raise ValueError(f"unknown block index {k}")
        return self.block_dims[k]

    def _admit(self, rows: int, blocks, sense: str) -> None:
        """Count ``rows`` more rows with coefficients on ``blocks``; reject the
        program, before any of them is built, if it would pass MAX_PROGRAM_BYTES."""
        per_row = sum(16 * d * d + (8 if d == 1 else 16 * d * d) for d in map(self._dim, blocks)) \
            + (8 if sense != "==" else 0)
        need = self.coefficient_bytes + rows * per_row
        if need > MAX_PROGRAM_BYTES:
            raise ValueError(f"the program needs {need / 2**30:.1f} GiB of constraint "
                             f"coefficients, over the {MAX_PROGRAM_BYTES / 2**30:.0f} GiB limit")
        self.coefficient_bytes = need

    def _check_coeff(self, k: int, a) -> np.ndarray:
        d = self._dim(k)
        a = np.atleast_2d(np.asarray(a, dtype=complex))
        if a.shape != (d, d):
            raise ValueError(f"coefficient shape {a.shape} does not match block dim {d}")
        return linalg.require_hermitian(a, rtol=1e-10)

    def set_objective(self, k: int, c) -> None:
        self.objective[k] = self._check_coeff(k, c)

    def add_constraint(self, coeffs: dict[int, np.ndarray], rhs: float, sense: str = "==") -> None:
        if sense not in SENSES:
            raise ValueError(f"sense must be one of {SENSES}, got {sense!r}")
        if not coeffs:
            raise ValueError("constraint must touch at least one block")
        self._admit(1, coeffs, sense)
        self._append(coeffs, rhs, sense)

    def _append(self, coeffs: dict[int, np.ndarray], rhs: float, sense: str) -> None:
        checked = {k: self._check_coeff(k, a) for k, a in coeffs.items()}
        self.constraints.append(LinearConstraint(checked, float(rhs), sense))

    def add_operator_equality(self, terms: dict[int, "callable"], basis: "Basis") -> None:
        """Add the operator equation sum_k L_k(X_k) = 0 on the span of ``basis``,
        one scalar row per basis element.

        ``terms`` maps a block index to the adjoint of its linear map:
        a callable taking a basis element H and returning the coefficient
        operator L_k†(H) on that block. Read on the dual side, the rows are
        the coordinates y_H of an operator unknown Y = sum_H y_H H, and
        block k's dual slack gains -L_k†(Y). All ``len(basis)`` rows are
        admitted before the first basis element is built.
        """
        if not terms:
            raise ValueError("constraint must touch at least one block")
        self._admit(len(basis), terms, "==")
        for h in basis:
            self._append({k: adj(h) for k, adj in terms.items()}, 0.0, "==")


class Basis:
    """An orthonormal basis of a real space of d x d Hermitian matrices.

    Its length is known in closed form; iterating builds the elements one
    at a time, so a program can be sized, and rejected, before any exists.
    """

    def __init__(self, size: int, elements):
        self._size, self._elements = size, elements

    def __len__(self) -> int:
        return self._size

    def __iter__(self):
        return iter(self._elements())

    def operator(self, coords: np.ndarray) -> np.ndarray:
        """The Hermitian operator with coordinates ``coords`` in this basis."""
        return sum(c * h for c, h in zip(coords, self))


def diagonal_basis(d: int) -> Basis:
    """The real diagonal d x d matrices: the span fixed by conjugation with
    every diagonal unitary."""

    def elements():
        for i in range(d):
            e = np.zeros((d, d), dtype=complex)
            e[i, i] = 1.0
            yield e

    return Basis(d, elements)


def _use_orbits(dims: tuple[int, ...], n: int) -> np.ndarray:
    """For each matrix unit |i><j| of the n-use space, the index of its orbit
    under permuting the uses.

    An index i of the space (C^d_1)^⊗n ⊗ ... ⊗ (C^d_f)^⊗n, factor-major,
    holds in each use k a local index of C^d_1 ⊗ ... ⊗ C^d_f; the unit
    |i><j| is the product over k of local units, and a permutation of the
    uses permutes them. Its orbit is therefore the multiset of local units.
    """
    d_loc = math.prod(dims)
    size = d_loc ** n
    digits = np.unravel_index(np.arange(size), [d for d in dims for _ in range(n)])
    local = np.zeros((size, n), dtype=np.int64)
    for f, d in enumerate(dims):
        local = local * d + np.stack(digits[f * n:(f + 1) * n], axis=1)
    units = np.sort(local[:, None, :] * d_loc + local[None, :, :], axis=2)
    keys = units @ (d_loc * d_loc) ** np.arange(n - 1, -1, -1, dtype=np.int64)
    return np.unique(keys, return_inverse=True)[1].reshape(size, size)


def invariant_basis(dims: tuple[int, ...], n: int) -> Basis:
    """Hermitian operators on n uses of C^d_1 ⊗ ... ⊗ C^d_f, stored as
    (C^d_1)^⊗n ⊗ ... ⊗ (C^d_f)^⊗n, that are invariant under permuting the
    uses.

    The elements are the orthonormalised orbit sums of matrix units: an
    orbit O equal to its transpose gives O/|O|^½, and a pair O ≠ Oᵀ gives
    (O + Oᵀ) and i(O - Oᵀ), each over (2|O|)^½. There is one element per
    orbit, C(D² + n - 1, n) for D = d_1···d_f. Elements come in the row-major
    order of the first upper-triangular unit of their orbits.
    """
    d_loc = math.prod(dims)

    def elements():
        orbit = _use_orbits(dims, n)
        rows, cols = np.triu_indices(len(orbit))
        pair = np.minimum(orbit, orbit.T)[rows, cols]
        for t in np.sort(np.unique(pair, return_index=True)[1]):
            o, o_t = orbit[rows[t], cols[t]], orbit[cols[t], rows[t]]
            mask = orbit == o
            e = np.zeros(orbit.shape, dtype=complex)
            if o == o_t:
                e[mask] = 1.0 / np.sqrt(np.count_nonzero(mask))
                yield e
                continue
            s = 1.0 / np.sqrt(2 * np.count_nonzero(mask))  # O and Oᵀ are disjoint
            e[mask] = s
            e[mask.T] = s
            yield e
            e = np.zeros(orbit.shape, dtype=complex)
            e[mask] = 1j * s
            e[mask.T] = -1j * s
            yield e

    return Basis(math.comb(d_loc * d_loc + n - 1, n), elements)


def hermitian_basis(d: int) -> Basis:
    """All d x d Hermitian matrices, the one-use case of ``invariant_basis``:
    each diagonal unit, then for each i < j the symmetric and antisymmetric
    pair, in row-major order."""
    return invariant_basis((d,), 1)


@dataclass
class SdpSolution:
    primal_blocks: list[np.ndarray]
    dual_multipliers: np.ndarray
    primal_objective: float
    dual_objective: float
    status: str
    iterations: int
    residuals: dict = field(default_factory=dict)

    @property
    def relative_gap(self) -> float:
        p, d = self.primal_objective, self.dual_objective
        return abs(p - d) / (1.0 + abs(p) + abs(d))


@dataclass
class VerifyReport:
    ok: bool
    max_equality_violation: float
    max_inequality_violation: float
    min_block_eigenvalue: float
    relative_gap: float
    findings: list[str]


VERIFY_FEAS_TOL = 1e-8  # scaled residual above which verify flags a constraint
VERIFY_GAP_TOL = 1e-7  # relative duality gap above which verify flags an optimal solution


def verify(problem: SdpProblem, solution: SdpSolution) -> VerifyReport:
    """Independently re-evaluate feasibility residuals and the duality gap."""
    findings: list[str] = []
    b_scale = 1.0 + max((abs(c.rhs) for c in problem.constraints), default=0.0)
    max_eq = 0.0
    max_ineq = 0.0
    for idx, con in enumerate(problem.constraints):
        value = 0.0
        for k, a in con.coeffs.items():
            value += float(np.real(np.sum(a.conj() * solution.primal_blocks[k])))
        if con.sense == "==":
            viol = abs(value - con.rhs)
            max_eq = max(max_eq, viol)
        elif con.sense == "<=":
            viol = max(0.0, value - con.rhs)
            max_ineq = max(max_ineq, viol)
        else:
            viol = max(0.0, con.rhs - value)
            max_ineq = max(max_ineq, viol)
        if viol > VERIFY_FEAS_TOL * b_scale:
            findings.append(f"constraint {idx} violated by {viol:.3e}")
    min_eig = np.inf
    for k, x in enumerate(solution.primal_blocks):
        w = np.linalg.eigvalsh(linalg.hermitian_part(x))
        min_eig = min(min_eig, float(w.min()))
        if w.min() < -1e-9 * (1.0 + abs(w.max())):
            findings.append(f"block {k} not PSD: min eigenvalue {w.min():.3e}")
    gap = solution.relative_gap
    if solution.status == "optimal" and gap > VERIFY_GAP_TOL:
        findings.append(f"duality gap {gap:.3e} exceeds {VERIFY_GAP_TOL:.1e}")
    return VerifyReport(ok=not findings, max_equality_violation=max_eq,
                        max_inequality_violation=max_ineq,
                        min_block_eigenvalue=float(min_eig),
                        relative_gap=gap, findings=findings)
