import itertools
import math
import time
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import operator_equality, rand_channel, rand_classical_channel, rand_unitary
from qconv import bounds, linalg, quantum
from qconv.sdp import (Frame, SdpProblem, diagonal_basis, diagonal_frame, hermitian_basis,
                       invariant_basis, invariant_frame, solve, solver, verify)
from qconv.sdp.problem import _schur_weyl_runs, invariant_size
from qconv.sdp.solver import _ct, _eigh, _max_step, _nt_scaling, _schur, _StandardForm


def _scalar_lower_bound_problem():
    # min x s.t. x >= 1, the row x - s = 1 on a 1x1 block s
    prob = SdpProblem([1, 1])
    prob.set_objective(0, [[1.0]])
    prob.add_constraint({0: [[1.0]], 1: [[-1.0]]}, 1.0)
    return prob


def _random_strictly_feasible(rng, dims, m):
    """Primal and dual strictly feasible by construction, so the optimum is
    attained with zero gap."""
    X0, S0, A = [], [], []
    for d in dims:
        g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        X0.append(g @ g.conj().T + 0.5 * np.eye(d))
        g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        S0.append(g @ g.conj().T + 0.5 * np.eye(d))
    y0 = rng.normal(size=m)
    b = np.zeros(m)
    for i in range(m):
        row = []
        for k, d in enumerate(dims):
            g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            row.append((g + g.conj().T) / 2)
            b[i] += np.real(np.sum(row[k].conj() * X0[k]))
        A.append(row)
    prob = SdpProblem(list(dims))
    for k, d in enumerate(dims):
        prob.set_objective(k, S0[k] + sum(y0[i] * A[i][k] for i in range(m)))
    for i in range(m):
        prob.add_constraint({k: A[i][k] for k in range(len(dims))}, b[i])
    return prob


class TestClosedFormFixtures:
    def test_scalar_lower_bound(self):
        sol = solve(_scalar_lower_bound_problem())
        assert sol.status == "optimal"
        assert sol.primal_objective == pytest.approx(1.0, abs=1e-7)

    def test_trace_above_identity(self):
        prob = SdpProblem([2, 2])
        prob.set_objective(0, np.eye(2))
        operator_equality(prob, {0: lambda h: h, 1: lambda h: -h}, np.eye(2))
        sol = solve(prob)
        assert sol.status == "optimal"
        assert sol.primal_objective == pytest.approx(2.0, abs=1e-7)

    def test_minimum_eigenvalue(self):
        c = np.array([[1.0, 2j], [-2j, -1.0]])
        prob = SdpProblem([2])
        prob.set_objective(0, c)
        prob.add_constraint({0: np.eye(2)}, 1.0)
        sol = solve(prob)
        assert sol.primal_objective == pytest.approx(np.linalg.eigvalsh(c).min(), abs=1e-7)

    def test_maximum_eigenvalue_epigraph(self):
        # min t s.t. t I >= C, via t I - S = C
        c = np.array([[0.3, 1 - 1j], [1 + 1j, -0.2]])
        prob = SdpProblem([1, 2])
        prob.set_objective(0, [[1.0]])
        operator_equality(prob, {0: lambda h: np.real(np.trace(h)) * np.eye(1),
                                 1: lambda h: -h}, c)
        sol = solve(prob)
        assert sol.primal_objective == pytest.approx(np.linalg.eigvalsh(c).max(), abs=1e-7)

    def test_off_diagonal_magnitude(self):
        # min (X00+X11)/2 with X01 pinned to a -> |a|
        a = 0.6 - 0.8j
        prob = SdpProblem([2])
        prob.set_objective(0, np.eye(2) / 2)
        prob.add_constraint({0: np.diag([1.0, -1.0])}, 0.0)
        prob.add_constraint({0: np.array([[0, 0.5], [0.5, 0]])}, a.real)
        prob.add_constraint({0: np.array([[0, 0.5j], [-0.5j, 0]])}, a.imag)
        sol = solve(prob)
        assert sol.primal_objective == pytest.approx(abs(a), abs=1e-7)

    def test_lovasz_theta_of_pentagon(self):
        n = 5
        prob = SdpProblem([n])
        prob.set_objective(0, -np.ones((n, n)))
        prob.add_constraint({0: np.eye(n)}, 1.0)
        for i in range(n):
            j = (i + 1) % n
            re = np.zeros((n, n), dtype=complex)
            re[i, j] = re[j, i] = 0.5
            im = np.zeros((n, n), dtype=complex)
            im[i, j] = 0.5j
            im[j, i] = -0.5j
            prob.add_constraint({0: re}, 0.0)
            prob.add_constraint({0: im}, 0.0)
        sol = solve(prob)
        assert -sol.primal_objective == pytest.approx(np.sqrt(5), abs=1e-6)

    def test_trace_norm(self):
        # ||A||_1 = min Tr(P+N) s.t. P - N = A
        a = np.array([[0.7, 0.4 + 0.1j], [0.4 - 0.1j, -0.9]])
        prob = SdpProblem([2, 2])
        prob.set_objective(0, np.eye(2))
        prob.set_objective(1, np.eye(2))
        operator_equality(prob, {0: lambda h: h, 1: lambda h: -h}, a)
        sol = solve(prob)
        assert sol.primal_objective == pytest.approx(
            np.abs(np.linalg.eigvalsh(a)).sum(), abs=1e-7)

    def test_linear_program_chain(self):
        # min x + 2y s.t. x + y >= 1, x, y >= 0 -> 1; the row is x + y - s = 1
        prob = SdpProblem([1, 1, 1])
        prob.set_objective(0, [[1.0]])
        prob.set_objective(1, [[2.0]])
        prob.add_constraint({0: [[1.0]], 1: [[1.0]], 2: [[-1.0]]}, 1.0)
        sol = solve(prob)
        assert sol.primal_objective == pytest.approx(1.0, abs=1e-7)

    def test_equal_state_hypothesis_test(self):
        # min <tau, T> s.t. <tau, T> >= 1 - eps, 0 <= T <= I -> 1 - eps; the
        # first row is <tau, T> - s = 1 - eps on a 1x1 block s
        tau = np.diag([0.6, 0.4]).astype(complex)
        eps = 0.3
        prob = SdpProblem([2, 2, 1])
        prob.set_objective(0, tau)
        prob.add_constraint({0: tau, 2: [[-1.0]]}, 1.0 - eps)
        operator_equality(prob, {0: lambda h: h, 1: lambda h: h}, np.eye(2))
        sol = solve(prob)
        assert sol.primal_objective == pytest.approx(1.0 - eps, abs=1e-7)

    def test_diagonal_transportation(self):
        # min sum c_i x_i s.t. sum x_i = 1, x >= 0 (as 1x1 blocks) -> min c_i
        c = [0.9, 0.2, 0.5]
        prob = SdpProblem([1, 1, 1])
        for k, ck in enumerate(c):
            prob.set_objective(k, [[ck]])
        prob.add_constraint({0: [[1.0]], 1: [[1.0]], 2: [[1.0]]}, 1.0)
        sol = solve(prob)
        assert sol.primal_objective == pytest.approx(min(c), abs=1e-7)

    def test_random_strong_duality(self, rng):
        for _ in range(10):
            dims = [int(rng.integers(1, 9)) for _ in range(int(rng.integers(1, 4)))]
            m = int(rng.integers(1, 8))
            sol = solve(_random_strictly_feasible(rng, dims, m))
            assert sol.status == "optimal"
            gap = abs(sol.primal_objective - sol.dual_objective)
            assert gap <= 1e-7 * (1 + abs(sol.primal_objective))


class TestSolverContracts:
    def test_iterates_hermitian(self, rng):
        sol = solve(_random_strictly_feasible(rng, [4, 3], 5))
        for x in sol.primal_blocks:
            assert np.abs(x - x.conj().T).max() <= 1e-12 * (1 + np.abs(x).max())

    @pytest.mark.parametrize("program", ["random", "optimised", "fixed", "classical"])
    def test_dual_blocks_are_full_size_and_psd(self, rng, program):
        # every declared block's dual slack comes back whole, framed blocks
        # reassembled from their sub-blocks, and inside the cone
        prob = {"random": lambda: _random_strictly_feasible(rng, [4, 3, 1], 5),
                "optimised": _depol_ppt_program,
                "fixed": lambda: _depol_fixed_program(0.05),
                "classical": _classical_program}[program]()
        sol = solve(prob)
        assert sol.status == "optimal"
        assert len(sol.dual_blocks) == len(prob.block_dims)
        for s, d in zip(sol.dual_blocks, prob.block_dims):
            assert s.shape == (d, d)
            w = np.linalg.eigvalsh(linalg.hermitian_part(s))
            assert w.min() >= -1e-9 * max(1.0, float(np.abs(w).max()))

    def test_objective_scale_invariance(self, rng):
        # the stored coefficients are packed in each block's frame, and the
        # stored rows re-declare verbatim into a problem with the same blocks
        prob = _random_strictly_feasible(rng, [3], 3)
        sol1 = solve(prob)
        scaled = SdpProblem(list(prob.block_dims), prob.frames)
        for k, c in prob.objective.items():
            scaled.set_objective(k, 7.5 * prob.frames[k].unpack(c))
        for con in prob.constraints:
            scaled.add_constraint({k: prob.frames[k].unpack(a) for k, a in con.coeffs.items()},
                                  con.rhs)
        sol2 = solve(scaled)
        assert sol2.primal_objective == pytest.approx(7.5 * sol1.primal_objective, rel=1e-6)
        assert np.abs(sol1.primal_blocks[0] - sol2.primal_blocks[0]).max() < 1e-6 * (
            1 + np.abs(sol1.primal_blocks[0]).max())

    def test_deterministic(self, rng):
        prob = _random_strictly_feasible(rng, [3, 2], 4)
        sol1, sol2 = solve(prob), solve(prob)
        assert sol1.primal_objective == sol2.primal_objective
        assert sol1.iterations == sol2.iterations
        for x1, x2 in zip(sol1.primal_blocks, sol2.primal_blocks):
            assert np.array_equal(x1, x2)
        for s1, s2 in zip(sol1.dual_blocks, sol2.dual_blocks, strict=True):
            assert np.array_equal(s1, s2)

    @pytest.mark.parametrize("program", ["optimised", "fixed"])
    def test_solve_leaves_its_problem_alone(self, program):
        # a converse grid solves one program per eps, resetting only the _ACC
        # objective in between: a solve reads its problem and changes nothing.
        # The optimised program has framed dense blocks and vector blocks, the
        # fixed-input one objectives on its dense cap blocks
        build = _depol_ppt_program if program == "optimised" else _depol_fixed_program
        prob = build(0.05)
        coeffs = [{k: a.copy() for k, a in con.coeffs.items()} for con in prob.constraints]
        rows = [con.rhs for con in prob.constraints]
        objective = {k: c.copy() for k, c in prob.objective.items()}

        def same(sol1, sol2):
            assert all(np.array_equal(s1, s2)
                       for s1, s2 in zip(sol1.dual_blocks, sol2.dual_blocks, strict=True))
            assert sol1.primal_objective == sol2.primal_objective
            assert sol1.dual_objective == sol2.dual_objective
            assert sol1.iterations == sol2.iterations

        def unchanged():
            assert [con.rhs for con in prob.constraints] == rows
            for con, before in zip(prob.constraints, coeffs, strict=True):
                assert con.coeffs.keys() == before.keys()
                assert all(np.array_equal(con.coeffs[k], a) for k, a in before.items())
            assert prob.objective.keys() == objective.keys()
            assert all(np.array_equal(prob.objective[k], c) for k, c in objective.items()
                       if k != bounds._ACC)

        first = solve(prob)
        unchanged()
        same(first, solve(prob))
        unchanged()
        assert np.array_equal(prob.objective[bounds._ACC], objective[bounds._ACC])
        prob.set_objective(bounds._ACC, [[-(1.0 - 0.2)]])
        reset = solve(prob)
        unchanged()
        assert reset.dual_objective != first.dual_objective
        same(reset, solve(build(0.2)))

    def test_each_iterate_is_evaluated_once(self, rng, monkeypatch):
        calls = []
        residuals = solver._residuals
        monkeypatch.setattr(solver, "_residuals", lambda *a: calls.append(1) or residuals(*a))
        sol = solve(_random_strictly_feasible(rng, [3, 2], 4))
        assert sol.status == "optimal"
        assert len(calls) == sol.iterations

    @pytest.mark.parametrize("blocks, objective, row, rhs", [
        # min x s.t. x = -1 on the 1x1 block x >= 0: infeasible
        (1, 1.0, {0: [[1.0]]}, -1.0),
        # min -x s.t. s = 1 on 1x1 blocks x, s: x is in no row, so the
        # program is unbounded
        (2, -1.0, {1: [[1.0]]}, 1.0),
    ], ids=["infeasible", "unbounded"])
    def test_infeasible_or_unbounded_program_is_never_optimal(self, blocks, objective, row, rhs):
        prob = SdpProblem([1] * blocks)
        prob.set_objective(0, [[objective]])
        prob.add_constraint(row, rhs)
        assert solve(prob).status == "stalled"
        with pytest.raises(bounds.SolverFailure, match="status stalled after"):
            bounds._solve(prob)

    def test_singular_schur_system_falls_back_to_least_squares(self, monkeypatch):
        # min x0 + 2 x1 s.t. x0 + x1 = 1, the row declared twice: the Schur
        # matrix is exactly singular at every iterate
        calls = []
        lstsq = np.linalg.lstsq
        monkeypatch.setattr(np.linalg, "lstsq", lambda *a, **k: calls.append(1) or lstsq(*a, **k))
        prob = SdpProblem([1, 1])
        prob.set_objective(0, [[1.0]])
        prob.set_objective(1, [[2.0]])
        for _ in range(2):
            prob.add_constraint({0: [[1.0]], 1: [[1.0]]}, 1.0)
        sol = solve(prob)
        assert sol.status == "optimal"
        assert sol.primal_objective == pytest.approx(1.0, abs=1e-7)
        assert calls

    def test_program_without_objective(self):
        prob = SdpProblem([2])
        prob.add_constraint({0: np.eye(2)}, 1.0)
        sol = solve(prob)
        assert sol.status == "optimal"
        assert abs(sol.primal_objective) <= 1e-8
        assert abs(sol.dual_objective) <= 1e-8

    def test_rejects_unconstrained(self):
        prob = SdpProblem([2])
        prob.set_objective(0, np.eye(2))
        with pytest.raises(ValueError, match="constraint"):
            solve(prob)

    def test_hermitian_basis_orthonormal(self):
        basis = list(hermitian_basis(3))
        assert len(basis) == len(hermitian_basis(3)) == 9
        for i, hi in enumerate(basis):
            assert np.abs(hi - hi.conj().T).max() < 1e-15
            for j, hj in enumerate(basis):
                want = 1.0 if i == j else 0.0
                assert np.real(np.sum(hi.conj() * hj)) == pytest.approx(want, abs=1e-14)


def _gram(basis) -> np.ndarray:
    flat = np.array([h.reshape(-1) for h in basis])
    return (flat.conj() @ flat.T).real


def _permute_uses(x: np.ndarray, dims: tuple, n: int, perm: tuple) -> np.ndarray:
    """U_perm X U_perm† for U_perm permuting the n uses of every factor."""
    axes = [f * n + k for f in range(len(dims)) for k in perm]
    shape = [d for d in dims for _ in range(n)]
    t = x.reshape(shape + shape)
    return t.transpose(axes + [len(shape) + a for a in axes]).reshape(x.shape)


class TestBases:
    @pytest.mark.parametrize("dims,n", [((2,), 3), ((2, 2), 2), ((2, 3), 2), ((3, 2), 2),
                                        ((2, 2), 3)])
    def test_invariant_basis(self, dims, n):
        basis = invariant_basis(dims, n)
        elements = list(basis)
        d = int(np.prod(dims))
        assert len(basis) == len(elements) == math.comb(d * d + n - 1, n)
        assert all(h.shape == (d**n, d**n) for h in elements)
        assert np.abs(_gram(elements) - np.eye(len(elements))).max() < 1e-14
        for h in elements:
            assert np.abs(h - h.conj().T).max() == 0.0
            for perm in itertools.permutations(range(n)):
                assert np.abs(_permute_uses(h, dims, n, perm) - h).max() == 0.0

    def test_invariant_basis_spans_the_averaged_operators(self, rng):
        # the group average of any Hermitian operator has no part outside the span
        dims, n = (2, 2), 2
        d = 4**n
        g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        x = g + g.conj().T
        avg = sum(_permute_uses(x, dims, n, p) for p in itertools.permutations(range(n))) / 2
        basis = invariant_basis(dims, n)
        coords = [np.real(np.sum(h.conj() * avg)) for h in basis]
        assert_allclose(sum(c * h for c, h in zip(coords, basis)), avg, atol=1e-12)

    def test_diagonal_basis(self):
        basis = diagonal_basis(5)
        assert len(basis) == 5
        assert np.array_equal(sum(basis), np.eye(5))
        assert np.abs(_gram(basis) - np.eye(5)).max() == 0.0
        assert basis.dtype == np.float64 and all(h.dtype == np.float64 for h in basis)

    @pytest.mark.parametrize("dims", [(2,), (3,), (2, 2), (2, 3), (3, 2)])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_real_basis_length_is_its_element_count(self, dims, n):
        # (C(D² + n - 1, n) + F) / 2 real elements, F from its generating function
        basis = invariant_basis(dims, n, real=True)
        elements = list(basis)
        assert len(basis) == len(elements) == invariant_size(math.prod(dims), n, real=True)
        assert basis.dtype == np.float64 and all(h.dtype == np.float64 for h in elements)

    @pytest.mark.parametrize("dims,n", [((2,), 3), ((3,), 2), ((2, 2), 2), ((2, 3), 2)])
    def test_real_basis_is_the_real_elements_of_the_basis(self, dims, n):
        # the complex basis's elements without the antisymmetric i(O - Oᵀ), in order:
        # an orthonormal basis of its real symmetric span
        real = list(invariant_basis(dims, n, real=True))
        want = [h.real for h in invariant_basis(dims, n) if not h.imag.any()]
        assert len(real) == len(want)
        assert all(np.array_equal(h, w) for h, w in zip(real, want))
        assert all(np.array_equal(h, h.T) for h in real)
        assert np.abs(_gram(real) - np.eye(len(real))).max() < 1e-14

    def test_real_lengths_in_closed_form(self):
        # the qubit AB space: 16 -> 10 rows at n = 1, 136 -> 76, 816 -> 430, 3,876 -> 1,996
        assert [invariant_size(4, n) for n in (1, 2, 3, 4)] == [16, 136, 816, 3876]
        assert [invariant_size(4, n, real=True) for n in (1, 2, 3, 4)] == [10, 76, 430, 1996]
        assert invariant_size(1, 7, real=True) == 1
        assert len(hermitian_basis(5, real=True)) == 15

    def test_frame_sizes(self):
        # the Schur-Weyl blocks of C⁴ at n = 2 (symmetric and antisymmetric) and
        # at n = 3 (symmetric, two copies of the mixed irrep, antisymmetric)
        assert invariant_frame((2, 2), 2).sizes == (10, 6)
        assert invariant_frame((2, 2), 3).sizes == (20, 20, 20, 4)
        assert invariant_frame((2, 2), 1) is None

    @pytest.mark.parametrize("dims,n", [((2,), 3), ((2, 2), 2), ((2, 3), 2), ((3, 2), 2),
                                        ((2, 2), 3)])
    def test_frame_block_diagonalises_the_basis(self, dims, n):
        frame = invariant_frame(dims, n)
        u = frame.unitary
        assert np.abs(u.T @ u - np.eye(len(u))).max() < 1e-12
        mask = np.ones(u.shape, dtype=bool)
        start = 0
        for size in frame.sizes:
            mask[start:start + size, start:start + size] = False
            start += size
        for h in invariant_basis(dims, n):
            assert np.abs((u.T @ h @ u)[mask]).max(initial=0.0) < 1e-12
            assert_allclose(frame.unpack(frame.pack(h)), h, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("d", [2, 3, 4, 9])
    def test_frame_runs_obey_schur_weyl_duality(self, d):
        # each irrep λ of GL(d), of size s, comes with the S_n irrep λ, of size
        # f: the copies fill the space (Σ f s = d^n), the invariant operators
        # are one s x s block per λ (Σ s² is the invariant basis's length), and
        # with every partition of n present the S_n irreps make up its regular
        # representation (Σ f² = n!)
        for n in range(1, 9):
            runs = _schur_weyl_runs(d, n)
            assert sum(s * f for s, f in runs) == d**n
            assert sum(s * s for s, _ in runs) == len(invariant_basis((d,), n))
            if d >= n:
                assert sum(f * f for _, f in runs) == math.factorial(n)

    @pytest.mark.parametrize("real", [False, True])
    def test_one_dimensional_space_at_any_n(self, real):
        # n uses of C^1 are one unit and one block: no sum, list or unravelling
        # over the uses, and no permutation of them
        start = time.perf_counter()
        assert _schur_weyl_runs(1, 10**12) == [(1, 1)]
        frame = invariant_frame((1, 1), 10**12)
        assert frame.runs == ((1, 1),) and frame.unitary is None
        assert [e.tolist() for e in invariant_basis((1, 1), 10**12, real)] == [[[1.0]]]
        assert time.perf_counter() - start < 1.0

    def test_frame_is_sized_without_listing_its_groups(self):
        # twenty uses of C⁴ split into about 9.9e8 sub-blocks: the frame's
        # dimension and packed entries come from one (size, count) run per
        # irrep, and its sizes are not listed
        tracemalloc.start()
        try:
            frame = invariant_frame((2, 2), 20)
            assert frame.dim == 4**20
            assert frame.entries == sum(s * s * f for s, f in _schur_weyl_runs(4, 20))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert "sizes" not in vars(frame)
        assert peak < 2**20

    def test_frame_is_deterministic(self):
        assert invariant_frame((2, 2), 3).unitary.tobytes() == \
            invariant_frame((2, 2), 3).unitary.tobytes()

    def test_frame_rejects_a_coefficient_off_its_blocks(self, rng):
        frame = invariant_frame((2, 2), 2)
        with pytest.raises(ValueError, match="block-diagonal"):
            frame.pack(_random_hermitian(rng, 16))
        with pytest.raises(ValueError, match="block-diagonal"):
            SdpProblem([16], [frame]).set_objective(0, _random_hermitian(rng, 16))

    def test_length_is_known_before_any_element(self):
        # four uses of the R space of a qubit channel: 3,876 elements of 256 x 256
        tracemalloc.start()
        try:
            assert len(invariant_basis((2, 2), 4)) == 3876
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**16


class TestLastContractIterate:
    @pytest.mark.slow
    def test_stalled_solve_returns_last_contract_iterate(self, monkeypatch):
        # the two-use optimised-input program of the 2 -> 3 channel of
        # tools/census.py --optimised at seed 2, unrestricted class, eps 0.01:
        # it meets the end-point contract, then drifts off it until its steps
        # collapse, so only the fallback returns an iterate. About 40 s, most
        # of it the unreduced program for the comparison
        chan = rand_channel(np.random.default_rng(2), 2, 3)
        eps = 0.01
        full = bounds.ea_bound_opt_rho(quantum.tensor_power(chan, 2), eps, bounds.TestClass.ALL)
        met, sols = [], []
        contract = solver._meets_contract
        monkeypatch.setattr(solver, "_meets_contract", lambda r: met.append(contract(r)) or met[-1])
        monkeypatch.setattr(bounds.sdp, "solve",
                            lambda prob: sols.append(solve(prob)) or sols[-1])
        res = bounds.ea_bound_opt_rho(chan, eps, bounds.TestClass.ALL, n=2)
        (sol,) = sols
        # an earlier iterate met the contract and the final one (checked last) did not
        assert any(met) and not met[-1]
        assert sol.status == "optimal"
        assert sol.iterations < solver.MAX_ITER
        assert sol.residuals["primal"] <= 1e-8
        assert sol.residuals["dual"] <= 1e-7
        assert sol.residuals["relative_gap"] <= 1e-7
        # the returned iterate is the converse, as the unreduced program says
        assert res.bits == pytest.approx(full.bits, abs=1e-6)


class TestVerify:
    def test_clean_solution_passes(self):
        prob = _scalar_lower_bound_problem()
        sol = solve(prob)
        report = verify(prob, sol)
        assert report.ok
        assert report.max_equality_violation <= 1e-9
        assert report.relative_gap <= 1e-7

    def test_perturbed_solution_flagged(self):
        prob = _scalar_lower_bound_problem()
        sol = solve(prob)
        # the row is x - s = 1 on the 1x1 block s: at x = 0.9, s = 0 it is
        # violated by 0.1
        sol.primal_blocks[0] = np.array([[0.9]], dtype=complex)
        sol.primal_blocks[1] = np.array([[0.0]], dtype=complex)
        report = verify(prob, sol)
        assert not report.ok
        assert report.max_equality_violation == pytest.approx(0.1, abs=1e-9)
        assert any("constraint 0" in f for f in report.findings)

    def test_framed_program_passes(self):
        # packed coefficients are checked against the reassembled primal blocks
        prob = _depol_ppt_program()
        sol = solve(prob)
        assert [x.shape for x in sol.primal_blocks] == [(d, d) for d in prob.block_dims]
        report = verify(prob, sol)
        assert report.ok, report.findings
        assert report.max_equality_violation <= 1e-9


def _depol_ppt_program(eps=0.05):
    """The n = 2 PPT optimised-input program of the qubit depolarising channel."""
    chan = quantum.tensor_power(quantum.depolarising_channel(2, 0.15), 2)
    return bounds._ea_problem((4, 4), lambda: chan.choi, eps, bounds.TestClass.PPT, None,
                              invariant_basis((2, 2), 2), invariant_basis((2,), 2),
                              invariant_frame((2,), 2))


def _depol_fixed_program(eps):
    """The one-use PPT program of the qubit depolarising channel at the input
    diag(0.8, 0.2), whose cap objectives set the solver's objective scale."""
    chan = quantum.depolarising_channel(2, 0.15)
    return bounds._ea_problem((2, 2), lambda: chan.choi, eps, bounds.TestClass.PPT,
                              lambda: np.diag([0.8, 0.2]).astype(complex), hermitian_basis(4))


def _classical_program(p=None):
    """The program of a seeded 3 x 3 classical channel on its diagonal embedding,
    with an optimised input or at the input distribution ``p``."""
    w, _ = rand_classical_channel(np.random.default_rng(33), 3, 3)
    rho_ref = None if p is None else (lambda: np.diag(p).astype(complex))
    return bounds._ea_problem((3, 3), lambda: bounds._embedding_choi(w), 0.1,
                              bounds.TestClass.ALL, rho_ref, diagonal_basis(9), diagonal_basis(3),
                              diagonal_frame(3))


def _members(prob):
    """Every sub-block of the program as the solver orders it, (size, block,
    offset in the block's packed coefficients), over the declared blocks."""
    out = []
    for k, frame in enumerate(prob.frames):
        sizes = frame.sizes
        out += [(s, k, off) for s, off in zip(sizes, np.cumsum([0, *(s * s for s in sizes)]))]
    return out


def _dense_constraints(prob):
    """Per stack, in order of first size, the (m, N, s, s) tensor of every
    row's coefficient on each of its N members, zero where the row does not
    touch the member, cut from the problem's packed coefficients at the
    member's offset."""
    m = len(prob.constraints)
    packed = [np.zeros((m, sum(s * s for s in frame.sizes)), dtype=complex)
              for frame in prob.frames]
    for i, con in enumerate(prob.constraints):
        for k, a in con.coeffs.items():
            packed[k][i] = a.reshape(-1)
    stacks: dict[int, list[np.ndarray]] = {}
    for s, k, off in _members(prob):
        stacks.setdefault(s, []).append(packed[k][:, off:off + s * s].reshape(m, s, s))
    return [np.stack(members, axis=1) for members in stacks.values()]


def _random_hermitian(rng, d, definite=False):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return g @ g.conj().T + 0.5 * np.eye(d) if definite else (g + g.conj().T) / 2


def _random_stacks(rng, sf, definite=False):
    return [np.stack([_random_hermitian(rng, s, definite) for _ in k])
            for k, s in zip(sf.block_of, sf.sizes)]


def _dense_schur(dense, W):
    """sum_k Re<A_ik, W_k A_jk W_k> member by member."""
    m = dense[0].shape[0]
    want = np.zeros((m, m))
    for a, w in zip(dense, W):
        for j in range(w.shape[0]):
            wa = w[j] @ a[:, j] @ w[j]
            want += np.real(a[:, j].conj().reshape(m, -1) @ wa.reshape(m, -1).T)
    return want


# the n = 2 PPT program, whose blocks split into dense and 1x1 sub-blocks,
# and a program of 1x1 sub-blocks only
_KERNEL_PROGRAMS = (_depol_ppt_program, _classical_program)


class TestStandardFormKernels:
    def test_stack_layout(self):
        # the PPT program's 16 x 16 blocks split into 10 and 6, its 4 x 4 blocks
        # into 3 and 1: one stack per size, in order of first appearance, and
        # the 1x1 sub-blocks, the acceptance and trace blocks and the block
        # lambda >= 0 in the s = 1 stack. Every row has a coefficient column on
        # every member. _ea_problem declares the block lambda >= 0 after the
        # R rows, just before the lambda row, its only row, with coefficient
        # +1; the rho_ref and trace blocks precede the R rows, so it is last
        prob = _depol_ppt_program()
        assert prob.block_dims == [16, 16, 4, 1, 16, 16, 4, 1, 1]
        lam = prob.constraints[136]
        assert lam.sense == "==" and lam.coeffs.keys() == {bounds._G, 8}
        assert np.array_equal(lam.coeffs[8], [1.0])
        assert all(8 not in con.coeffs for i, con in enumerate(prob.constraints) if i != 136)
        sf = _StandardForm(prob)
        assert sf.sizes == [10, 6, 3, 1]
        assert [c.shape for c in sf.C] == [(4, 10, 10), (4, 6, 6), (2, 3, 3), (5, 1, 1)]
        assert [a.shape for a in sf.A] == [(147, 400), (147, 144), (147, 18), (147, 5)]
        assert [k.tolist() for k in sf.block_of] == [[0, 1, 4, 5], [0, 1, 4, 5], [2, 6],
                                                     [2, 3, 6, 7, 8]]
        assert sf.block_dims == [16, 16, 4, 1, 16, 16, 4, 1, 1]
        # every classical block is diagonal: a single stack of 1x1 members
        sf = _StandardForm(_classical_program())
        assert sf.sizes == [1]
        assert sf.block_of[0].tolist() == [0] * 9 + [1] * 9 + [2] * 3 + [3] + [4] * 3 + [5, 6]
        assert sf.A[0].shape == (13, 27) and sf.C[0].shape == (27, 1, 1)

    def test_schur_matches_dense_definition(self, rng):
        for program in _KERNEL_PROGRAMS:
            prob = program()
            sf = _StandardForm(prob)
            W = _random_stacks(rng, sf, definite=True)
            want = _dense_schur(_dense_constraints(prob), W)
            got = _schur(sf, W)
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_schur_in_one_member_slices(self, rng, monkeypatch):
        # a budget below any member's W A W takes each stack one member at a time
        monkeypatch.setattr(solver, "SCHUR_SLICE_BYTES", 1)
        for program in _KERNEL_PROGRAMS:
            prob = program()
            sf = _StandardForm(prob)
            W = _random_stacks(rng, sf, definite=True)
            want = _dense_schur(_dense_constraints(prob), W)
            got = _schur(sf, W)
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_stacked_kernels_equal_one_member_stacks(self, rng):
        # NT scaling and the step length of a stack of sub-blocks are exactly
        # those of each sub-block alone; one member is far smaller than the
        # rest, so a floor taken over the whole stack would clamp its
        # eigenvalues
        ds, dV = [], []
        for n in (1, 3, 6, 10):
            X, S, D = (np.stack([_random_hermitian(rng, n, definite) for _ in range(4)])
                       for definite in (True, True, False))
            X[2] *= 1e-18
            scaling = _nt_scaling(X, S)
            for i in range(4):
                alone = _nt_scaling(X[i:i + 1].copy(), S[i:i + 1].copy())
                assert all(np.array_equal(a[i:i + 1], b) for a, b in zip(scaling, alone))
            ds.append(scaling[3])
            dV.append(D)
        step = _max_step(ds, dV)
        assert np.isfinite(step)
        assert step == min(_max_step([d[i:i + 1].copy()], [v[i:i + 1].copy()])
                           for d, v in zip(ds, dV) for i in range(4))

    def test_nt_scaling_identities(self, rng):
        # W S W = X, G G^H = W, and the factor G makes the scaled variable
        # diagonal from both sides: G^H S G = G^-1 X G^-H = diag(d)
        for n in (1, 3, 6, 10):
            X, S = (np.stack([_random_hermitian(rng, n, True) for _ in range(5)])
                    for _ in range(2))
            W, G, G_inv, d = _nt_scaling(X, S)
            assert d.shape == (5, n) and d.min() > 0
            assert_allclose(W @ S @ W, X, rtol=0, atol=1e-10 * np.abs(X).max())
            assert_allclose(G @ _ct(G), W, rtol=0, atol=1e-12 * np.abs(W).max())
            assert_allclose(G_inv @ G, np.broadcast_to(np.eye(n), X.shape), rtol=0, atol=1e-12)
            diag = np.zeros(X.shape)
            diag[:, np.arange(n), np.arange(n)] = d
            for scaled in (_ct(G) @ S @ G, G_inv @ X @ _ct(G_inv)):
                assert_allclose(scaled, diag, rtol=0, atol=1e-11 * d.max())

    def test_scaled_step_is_the_unscaled_step(self, rng):
        # the step length in the scaled space is -1/lambda_min of
        # X^-1/2 dX X^-1/2 for the primal and of S^-1/2 dS S^-1/2 for the dual
        def step(x, dx):
            w, v = np.linalg.eigh(x)
            x_ih = (v * w[..., None, :] ** -0.5) @ _ct(v)
            return -1.0 / np.linalg.eigvalsh(x_ih @ dx @ x_ih).min()

        for n in (1, 3, 6, 10):
            X, S, dX, dS = (np.stack([_random_hermitian(rng, n, definite) for _ in range(5)])
                            for definite in (True, True, False, False))
            _, G, G_inv, d = _nt_scaling(X, S)
            got = _max_step([d], [G_inv @ dX @ _ct(G_inv)])
            assert got == pytest.approx(step(X, dX), rel=1e-10)
            got = _max_step([d], [_ct(G) @ dS @ G])
            assert got == pytest.approx(step(S, dS), rel=1e-10)

    def test_eigh_of_1x1_members_is_numpys(self, rng):
        for n in (1, 7, 300):
            x = rng.normal(size=(n, 1, 1)) + 1j * rng.normal(size=(n, 1, 1))
            x = linalg.hermitian_part(x)
            w, v = _eigh(x)
            want_w, want_v = np.linalg.eigh(x)
            assert w.dtype == want_w.dtype and v.dtype == want_v.dtype
            assert np.array_equal(w, want_w) and np.array_equal(v, want_v)
            assert np.array_equal(_eigh(x, vectors=False), np.linalg.eigvalsh(x))

    def test_apply_and_adjoint(self, rng):
        for program in _KERNEL_PROGRAMS:
            prob = program()
            sf = _StandardForm(prob)
            dense = _dense_constraints(prob)
            X = _random_stacks(rng, sf)
            y = rng.normal(size=sf.m)
            assert_allclose(sf.apply(X), sum(np.einsum("injk,njk->i", a.conj(), x).real
                                             for a, x in zip(dense, X)), rtol=0, atol=1e-12)
            for got, a in zip(sf.adjoint(y), dense, strict=True):
                assert_allclose(got, np.einsum("i,injk->njk", y, a), rtol=0, atol=1e-12)


class TestVectorBlocks:
    def test_rotated_block_is_dense_with_the_same_optimum(self):
        # conjugating one diagonal block's objective and coefficients by a
        # unitary maps its PSD cone onto itself, so the optimum stays; the
        # block is then solved dense, the rest of the program as 1x1 members
        prob = _classical_program(p=np.array([0.2, 0.3, 0.5]))
        u = rand_unitary(np.random.default_rng(5), 9)

        def rotate(k, a):
            a = prob.frames[k].unpack(a)
            return u @ a @ u.conj().T if k == bounds._CAP else a

        # the rotated block is declared without the frame of 1x1 blocks
        rotated = SdpProblem(list(prob.block_dims),
                             [None if k == bounds._CAP else f for k, f in enumerate(prob.frames)])
        for k, c in prob.objective.items():
            rotated.set_objective(k, rotate(k, c))
        for con in prob.constraints:
            rotated.add_constraint({k: rotate(k, a) for k, a in con.coeffs.items()},
                                   con.rhs)
        assert _StandardForm(prob).sizes == [1]
        assert _StandardForm(rotated).sizes == [1, 9]
        sol, sol_rot = solve(prob), solve(rotated)
        assert sol.status == sol_rot.status == "optimal"
        assert sol_rot.primal_objective == pytest.approx(sol.primal_objective, rel=1e-7)
        assert sol_rot.dual_objective == pytest.approx(sol.dual_objective, rel=1e-7)

    def test_one_off_diagonal_coefficient_keeps_a_block_dense(self):
        # a block is split into 1x1 members when it is declared with the frame
        # of 1x1 blocks, which rejects an off-diagonal coefficient
        off = np.zeros((3, 3))
        off[0, 2] = off[2, 0] = 0.5
        framed = SdpProblem([3, 3], [diagonal_frame(3), None])
        with pytest.raises(ValueError, match="block-diagonal"):
            framed.add_constraint({0: np.diag([0.0, 1.0, 0.0]) + off}, 0.2)
        prob = SdpProblem([3, 3], [None, diagonal_frame(3)])
        prob.set_objective(0, np.diag([1.0, 2.0, 3.0]))
        prob.set_objective(1, np.eye(3))
        prob.add_constraint({0: np.eye(3), 1: np.diag([1.0, 0.0, 0.0])}, 1.0)
        prob.add_constraint({0: np.diag([0.0, 1.0, 0.0]) + off, 1: np.eye(3)}, 0.2)
        sf = _StandardForm(prob)
        assert sf.sizes == [3, 1] and [k.tolist() for k in sf.block_of] == [[0], [1, 1, 1]]
        sol = solve(prob)
        assert sol.status == "optimal"
        assert np.count_nonzero(sol.primal_blocks[1] - np.diag(np.diagonal(sol.primal_blocks[1]))) == 0


def _same_solution(sol1, sol2):
    assert sol1.status == sol2.status == "optimal"
    assert sol1.iterations == sol2.iterations
    assert sol1.primal_objective == sol2.primal_objective
    assert sol1.dual_objective == sol2.dual_objective
    assert all(np.array_equal(s1, s2)
               for s1, s2 in zip(sol1.dual_blocks, sol2.dual_blocks, strict=True))
    assert len(sol1.primal_blocks) == len(sol2.primal_blocks)
    assert all(np.array_equal(x1, x2) for x1, x2 in zip(sol1.primal_blocks, sol2.primal_blocks))


class TestDeclaredBlocks:
    def test_standard_basis_frame(self, rng):
        # a frame without a unitary keeps the entries of its groups' diagonal
        # blocks, 2² + 1 + 2² of them, and rejects mass off those blocks
        frame = Frame([(2, 1), (1, 1), (2, 1)])
        x = np.zeros((5, 5), dtype=complex)
        groups = (slice(0, 2), slice(2, 3), slice(3, 5))
        for c in groups:
            x[c, c] = _random_hermitian(rng, c.stop - c.start)
        packed = frame.pack(x)
        assert np.array_equal(packed, np.concatenate([x[c, c].reshape(-1) for c in groups]))
        assert np.array_equal(frame.unpack(packed), x)
        off = x.copy()
        off[0, 4] = off[4, 0] = 0.5
        with pytest.raises(ValueError, match="block-diagonal"):
            frame.pack(off)
        with pytest.raises(ValueError, match="block-diagonal"):
            SdpProblem([5], [frame]).add_constraint({0: off}, 1.0)

    def test_standard_basis_frame_solves_its_groups(self, rng):
        # the block of Frame([(2, 1), (1, 1), (2, 1)]) has two runs of size 2
        # around one of size 1; solved as those sub-blocks it has the optimum
        # of the three blocks 2, 1 and 2 declared apart, and comes back
        # block-diagonal
        groups = (slice(0, 2), slice(2, 3), slice(3, 5))
        parts = [[_random_hermitian(rng, c.stop - c.start) for c in groups] for _ in range(4)]
        objective = [_random_hermitian(rng, c.stop - c.start, definite=True) for c in groups]

        def whole(blocks):
            x = np.zeros((5, 5), dtype=complex)
            for c, b in zip(groups, blocks):
                x[c, c] = b
            return x

        framed = SdpProblem([5, 1], [Frame([(2, 1), (1, 1), (2, 1)]), None])
        apart = SdpProblem([2, 1, 2, 1])
        framed.set_objective(0, whole(objective))
        for k, c in enumerate(objective):
            apart.set_objective(k, c)
        for i, row in enumerate(parts):
            # each row pins <A_i, X> to that of the identity, so X = I is
            # feasible; the first only bounds it above, through the last block
            rhs = sum(float(np.trace(a).real) for a in row)
            framed_row, apart_row = {0: whole(row)}, dict(enumerate(row))
            if i == 0:
                framed_row[1] = apart_row[3] = [[1.0]]
            framed.add_constraint(framed_row, rhs)
            apart.add_constraint(apart_row, rhs)
        assert _StandardForm(framed).sizes == _StandardForm(apart).sizes == [2, 1]
        sol, sol_apart = solve(framed), solve(apart)
        assert sol.status == sol_apart.status == "optimal"
        assert sol.primal_objective == pytest.approx(sol_apart.primal_objective, abs=1e-7)
        x = sol.primal_blocks[0]
        assert np.count_nonzero(x - whole([x[c, c] for c in groups])) == 0

    def test_block_without_a_frame_is_one_group(self, rng):
        # add_block(d) stores Frame([(d, 1)]): the same standard form and the
        # same solution, bit for bit, as declaring that frame
        base = _random_strictly_feasible(rng, [3, 2], 4)
        probs = [SdpProblem([3, 2]), SdpProblem([3, 2], [Frame([(3, 1)]), Frame([(2, 1)])])]
        for prob in probs:
            for k, c in base.objective.items():
                prob.set_objective(k, base.frames[k].unpack(c))
            for con in base.constraints:
                prob.add_constraint({k: base.frames[k].unpack(a) for k, a in con.coeffs.items()},
                                    con.rhs)
        assert [f.sizes for f in probs[0].frames] == [(3,), (2,)]
        sf, sf_framed = (_StandardForm(prob) for prob in probs)
        assert sf.sizes == sf_framed.sizes == [3, 2]
        for got, want in ((sf.A, sf_framed.A), (sf.C, sf_framed.C),
                          (sf.block_of, sf_framed.block_of)):
            assert all(np.array_equal(a, b) for a, b in zip(got, want, strict=True))
        _same_solution(solve(probs[0]), solve(probs[1]))


class TestSizeGuard:
    def test_operator_equality_over_budget_builds_nothing(self, monkeypatch):
        # 64 rows on a 64 x 64 block would hold 8 MiB; one row's coefficient is 64 KiB
        monkeypatch.setattr("qconv.sdp.problem.MAX_PROGRAM_BYTES", 2**20)
        prob = SdpProblem([64])
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="GiB"):
                prob.add_operator_equality({0: lambda h: np.kron(h, np.eye(8))},
                                           hermitian_basis(8))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 64 * 64
        assert prob.constraints == [] and prob.coefficient_bytes == 0

    @staticmethod
    def _program():
        # 4 rows on blocks of 2 and 3 and on a 1x1 block, then Tr X_0 <= 1 and
        # Tr X_1 >= 0.5, each a row on a 1x1 block declared just before it
        prob = SdpProblem([2, 3, 1])
        prob.add_operator_equality({0: lambda h: h, 1: lambda h: np.pad(h, (0, 1)),
                                    2: lambda h: np.real(np.trace(h)) * np.eye(1)},
                                   hermitian_basis(2))
        prob.add_constraint({0: np.eye(2), prob.add_block(1): [[1.0]]}, 1.0)
        prob.add_constraint({1: np.eye(3), prob.add_block(1): [[-1.0]]}, 0.5)
        return prob

    @staticmethod
    def _held(prob):
        sf = _StandardForm(prob)
        return (sum(a.nbytes for con in prob.constraints for a in con.coeffs.values())
                + sum(a.nbytes for a in sf.A))

    def test_count_is_the_bytes_held(self):
        # 16 bytes per entry here: 4 rows of 4 + 9 + 1 entries, then 4 and 9,
        # each with its 1x1 block's entry; 16 bytes per row and entry in the
        # solver: 6 rows on 14 entries and the two 1x1 blocks
        prob = self._program()
        assert prob.coefficient_bytes == self._held(prob) == \
            16 * (4 * 14 + (4 + 1) + (9 + 1)) + 16 * 6 * (14 + 2)

    def test_block_added_after_rows_is_counted(self, monkeypatch):
        # a block added after the rows costs the solver a column per row and
        # entry: 16 * 6 * 4 bytes for a 2 x 2 block
        prob = self._program()
        need = prob.coefficient_bytes + 16 * 6 * 4
        prob.add_block(2)
        assert prob.coefficient_bytes == self._held(prob) == need
        monkeypatch.setattr("qconv.sdp.problem.MAX_PROGRAM_BYTES", need)
        self._program().add_block(2)
        monkeypatch.setattr("qconv.sdp.problem.MAX_PROGRAM_BYTES", need - 1)
        prob = self._program()
        with pytest.raises(ValueError, match="GiB"):
            prob.add_block(2)
        assert prob.block_dims == [2, 3, 1, 1, 1] and prob.coefficient_bytes == need - 16 * 6 * 4


def _real_feasible(rng, dims, m, dtype):
    """A strictly feasible program with real symmetric data, declared in ``dtype``."""
    def sym(d, definite=False):
        g = rng.normal(size=(d, d))
        return g @ g.T + 0.5 * np.eye(d) if definite else (g + g.T) / 2

    X0, S0 = [sym(d, True) for d in dims], [sym(d, True) for d in dims]
    A = [[sym(d) for d in dims] for _ in range(m)]
    y0 = rng.normal(size=m)
    prob = SdpProblem(list(dims), dtype=dtype)
    for k in range(len(dims)):
        prob.set_objective(k, S0[k] + sum(y0[i] * A[i][k] for i in range(m)))
    for row in A:
        prob.add_constraint(dict(enumerate(row)), sum(np.sum(a * x) for a, x in zip(row, X0)))
    return prob


class TestRealPrograms:
    def test_real_program_is_solved_in_real_arithmetic(self):
        # the same real data declared complex and real: the same optimum, and
        # the real problem's coefficients, stacks and primal blocks are float64
        progs = [_real_feasible(np.random.default_rng(5), (3, 2, 1), 4, dtype)
                 for dtype in (complex, float)]
        assert progs[1].dtype == np.float64
        assert all(a.dtype == np.float64 for con in progs[1].constraints
                   for a in con.coeffs.values())
        assert all(a.dtype == np.float64 for a in _StandardForm(progs[1]).A)
        complex_sol, real_sol = (solve(prob) for prob in progs)
        assert real_sol.status == complex_sol.status == "optimal"
        assert all(x.dtype == np.float64 for x in real_sol.primal_blocks)
        assert real_sol.primal_objective == pytest.approx(complex_sol.primal_objective,
                                                           abs=1e-9)
        assert real_sol.dual_objective == pytest.approx(complex_sol.dual_objective, abs=1e-9)
        assert verify(progs[1], real_sol).ok

    def test_real_program_counts_eight_bytes_an_entry(self):
        # TestSizeGuard's program on the real basis of 2 x 2 matrices: 3 rows of
        # 4 + 9 + 1 entries, then 4 and 9 with their 1x1 blocks, here; the
        # solver's 5 rows on 14 entries and the two 1x1 blocks; 8 bytes each
        prob = SdpProblem([2, 3, 1], dtype=float)
        prob.add_operator_equality({0: lambda h: h, 1: lambda h: np.pad(h, (0, 1)),
                                    2: lambda h: np.trace(h) * np.eye(1)},
                                   hermitian_basis(2, real=True))
        prob.add_constraint({0: np.eye(2), prob.add_block(1): [[1.0]]}, 1.0)
        prob.add_constraint({1: np.eye(3), prob.add_block(1): [[-1.0]]}, 0.5)
        assert prob.coefficient_bytes == TestSizeGuard._held(prob) == \
            8 * (3 * 14 + (4 + 1) + (9 + 1)) + 8 * 5 * (14 + 2)

    def test_real_program_takes_real_coefficients(self):
        # a complex coefficient with no imaginary part is stored real; one with
        # an imaginary part is rejected, and a problem is complex or float64
        prob = SdpProblem([2], dtype=float)
        prob.set_objective(0, np.eye(2, dtype=complex))
        assert prob.objective[0].dtype == np.float64
        before = _declared(prob)
        with pytest.raises(ValueError, match="imaginary"):
            prob.add_constraint({0: [[1.0, 1j], [-1j, 1.0]]}, 1.0)
        assert _declared(prob) == before
        with pytest.raises(ValueError, match="float64"):
            SdpProblem([2], dtype=np.float32)


def _declared(prob: SdpProblem):
    """What a rejected declaration must leave as it was."""
    return (list(prob.block_dims), len(prob.frames), [id(c) for c in prob.constraints],
            prob.coefficient_bytes, sorted(prob.objective))


class TestDeclarationChecks:
    @pytest.mark.parametrize("dims,frames", [([], None), ([2, 0], None), ([2, 1], [None]),
                                             ([3], [Frame([(2, 1)])])])
    def test_constructor_rejects_its_blocks(self, dims, frames):
        with pytest.raises(ValueError):
            SdpProblem(dims, frames)

    @pytest.mark.parametrize("runs", [
        [(2, 1), (0, 1), (1, 1)], [(2, 1), (-1, 1), (2, 1)], [(3, 0)], [(1, -1), (2, 2)]])
    def test_frame_rejects_runs_below_one(self, runs):
        # a group of no columns, or a run of no groups, would size a block
        # that the solver cannot lay out
        with pytest.raises(ValueError, match=">= 1"):
            Frame(runs)

    @pytest.mark.parametrize("declare", [
        lambda prob: prob.add_block(0),
        lambda prob: prob.add_block(2, Frame([(1, 3)])),
        lambda prob: prob.set_objective(7, np.eye(2)),
        lambda prob: prob.set_objective(0, np.eye(3)),
        lambda prob: prob.set_objective(0, [[0.0, 1.0], [0.0, 0.0]]),
        lambda prob: prob.add_constraint({7: np.eye(2)}, 1.0),
        lambda prob: prob.add_constraint({0: np.eye(3)}, 1.0),
        lambda prob: prob.add_constraint({0: np.eye(2), 1: [[1.0, 0.0]]}, 1.0),
        lambda prob: prob.add_constraint({0: [[0.0, 1.0], [0.0, 0.0]]}, 1.0),
        lambda prob: prob.add_constraint({}, 1.0),
        lambda prob: prob.add_operator_equality({}, hermitian_basis(2)),
        lambda prob: prob.add_operator_equality({0: lambda h: h, 7: lambda h: h},
                                                hermitian_basis(2)),
        lambda prob: prob.add_operator_equality({1: lambda h: h}, hermitian_basis(2))])
    def test_rejected_declaration_changes_nothing(self, declare):
        # blocks 0..4 have dimensions 2, 3, 1, 1, 1; 7 is unknown
        prob = TestSizeGuard._program()
        prob.set_objective(0, np.eye(2))
        before = _declared(prob)
        with pytest.raises(ValueError):
            declare(prob)
        assert _declared(prob) == before

    def test_operator_equality_declares_all_its_rows_or_none(self):
        # the term fails on the third of four basis elements: the two rows
        # already built are not declared, and no byte is counted
        prob = SdpProblem([2])
        seen = []

        def term(h):
            seen.append(h)
            return np.triu(np.ones((2, 2))) if len(seen) == 3 else h

        with pytest.raises(ValueError, match="Hermitian"):
            prob.add_operator_equality({0: term}, hermitian_basis(2))
        assert len(seen) == 3
        assert prob.constraints == [] and prob.coefficient_bytes == 0
        prob.add_operator_equality({0: lambda h: h}, hermitian_basis(2))
        assert len(prob.constraints) == 4 and prob.coefficient_bytes == 16 * (4 * 4 + 4 * 4)
