import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import rand_channel, rand_classical_channel, rand_povm, rand_state
from oracles import classical_converse_bits, identity_opt_input_bound
from qconv import bounds, cli, linalg, quantum, sdp
from qconv.bounds import (TestClass, binary_entropy, binary_relative_entropy,
                          classical_converse, depolarising_exact, ea_bound, ea_bound_dual,
                          ea_bound_opt_rho, fano_bound, noisy_storage_minentropy,
                          wang_renner_chi)
from qconv.hypotest import classical_np_beta, quantum_np_beta
from qconv.quantum import (Code, DensityMatrix, apply_channel, apply_channel_second,
                           canonical_purification, constant_channel,
                           depolarising_channel, identity_channel, maximally_mixed,
                           tensor_power)

DEPOL = depolarising_channel(2, 0.15)
MU2 = maximally_mixed(2)
BINOMIAL_BITS_005 = 0.5849625007211562  # -log2(2/3)


def _constant(rng, d_in=2, d_out=2):
    return constant_channel(rand_state(rng, d_out), d_in)


class TestEaBound:
    def test_identity_all_small_eps(self):
        res = ea_bound(identity_channel(2), MU2, 0.0, TestClass.ALL)
        assert res.beta == pytest.approx(0.25, abs=1e-7)
        assert res.bits == pytest.approx(2.0, abs=1e-6)

    def test_identity_ppt_small_eps(self):
        res = ea_bound(identity_channel(2), MU2, 0.0, TestClass.PPT)
        assert res.bits == pytest.approx(1.0, abs=1e-6)

    def test_clamped_eps_is_recorded(self):
        res = ea_bound(identity_channel(2), MU2, 0.0, TestClass.PPT)
        assert res.epsilon == 0.0
        assert res.diagnostics["eps_solved"] == 1e-9
        assert "eps_solved" not in ea_bound(DEPOL, MU2, 0.05).diagnostics
        dual = ea_bound_dual(identity_channel(2), MU2, 0.0)
        assert dual.epsilon == 0.0
        assert dual.diagnostics["eps_solved"] == 1e-9
        assert "eps_solved" not in ea_bound_dual(DEPOL, MU2, 0.05).diagnostics

    def test_solver_failure_names_iterations(self, monkeypatch):
        monkeypatch.setattr(sdp.solver, "MAX_ITER", 2)
        with pytest.raises(bounds.SolverFailure,
                           match="status iteration-limit after 2 iterations"):
            ea_bound(DEPOL, MU2, 0.05)

    def test_depolarising_matches_binomial(self):
        res = ea_bound(DEPOL, MU2, 0.05, TestClass.ALL)
        assert res.bits == pytest.approx(BINOMIAL_BITS_005, abs=1e-7)

    def test_constant_channel(self, rng):
        res = ea_bound(_constant(rng), MU2, 0.5, TestClass.ALL)
        assert res.bits == pytest.approx(1.0, abs=1e-7)

    def test_class_must_be_a_test_class(self):
        with pytest.raises(TypeError):
            ea_bound(DEPOL, MU2, 0.05, "PPT")

    def test_eps_validation(self):
        with pytest.raises(ValueError):
            ea_bound(DEPOL, MU2, 1.5)

    def test_result_invariants(self):
        res = ea_bound(DEPOL, MU2, 0.05)
        assert res.bits == pytest.approx(-np.log2(res.beta), abs=1e-9)
        assert 0 < res.beta <= 1
        assert np.trace(res.optimal_sigma).real == pytest.approx(1.0, abs=1e-9)

    def test_sigma_certificate(self, rng):
        for _ in range(4):
            chan = rand_channel(rng, 2, int(rng.integers(2, 4)))
            res = ea_bound(chan, rand_state(rng, 2), 0.1)
            trace_out = linalg.partial_trace(res.optimal_r, (2, chan.dim_out), "a")
            top = np.linalg.eigvalsh(trace_out).max()
            assert top == pytest.approx(res.beta, abs=1e-7)

    def test_optimal_sigma_is_the_adversary_state(self, rng):
        # the Neyman-Pearson test against rho_ref ⊗ sigma attains the bound; it
        # shares no code with the program, so it checks both sides of the solve
        for _ in range(4):
            din = int(rng.integers(2, 4))
            chan = rand_channel(rng, din, int(rng.integers(2, 4)))
            rho = rand_state(rng, din)
            res = ea_bound(chan, rho, 0.1)
            joint = DensityMatrix(apply_channel_second(
                chan, canonical_purification(rho).mat, din))
            prod = DensityMatrix(np.kron(rho.mat.T, res.optimal_sigma), atol=1e-8)
            assert quantum_np_beta(joint, prod, 0.1).beta == pytest.approx(res.beta, abs=1e-6)

    @pytest.mark.parametrize("cls", [TestClass.ALL, TestClass.PPT])
    def test_program_rows_are_the_lmi_unknowns(self, cls):
        # rows: the coordinates of R in its basis, lambda, and those of an
        # optimised input; every inequality is a block with no rows of its own.
        # A fixed input takes all d_ab² = 256 Hermitian coordinates of R; an
        # optimised one the 136 + 10 permutation-invariant ones of R and rho_ref.
        # The lambda row's 1x1 block lambda >= 0 is declared with it, the last block
        chan = tensor_power(DEPOL, 2)
        ppt_blocks = [16, 16] if cls is TestClass.PPT else []
        fixed = bounds._ea_problem((4, 4), lambda: chan.choi, 0.05, cls,
                                   lambda: np.eye(4) / 4, sdp.hermitian_basis(16))
        assert len(fixed.constraints) == 256 + 1
        assert fixed.block_dims == [16, 16, 4, 1] + ppt_blocks + [1]
        optimised = bounds._ea_problem((4, 4), lambda: chan.choi, 0.05, cls, None,
                                       sdp.invariant_basis((2, 2), 2),
                                       sdp.invariant_basis((2,), 2))
        assert len(optimised.constraints) == 136 + 1 + 10 == 147
        assert optimised.block_dims == [16, 16, 4, 1] + ppt_blocks + [4, 1] + [1]

    def test_program_residuals(self):
        # end-to-end feasibility of the assembled program at the solution
        prob = bounds._ea_problem((2, 2), lambda: DEPOL.choi, 0.05, TestClass.ALL,
                                  lambda: MU2.mat.T, sdp.hermitian_basis(4))
        sol = sdp.solve(prob)
        report = sdp.verify(prob, sol)
        assert report.ok, report.findings


def _held_bytes(prob: sdp.SdpProblem) -> int:
    """Coefficient bytes held during a solve: the problem's rows and the solver's stacks."""
    form = sdp.solver._StandardForm(prob)
    return (sum(a.nbytes for con in prob.constraints for a in con.coeffs.values())
            + sum(a.nbytes for a in form.A))


_PROGRAMS = {
    "all": lambda ch: ea_bound(ch, maximally_mixed(ch.dim_in), 0.05),
    "ppt": lambda ch: ea_bound(ch, maximally_mixed(ch.dim_in), 0.05, TestClass.PPT),
    "all-opt": lambda ch: ea_bound_opt_rho(ch, 0.05),
    "ppt-opt": lambda ch: ea_bound_opt_rho(ch, 0.05, TestClass.PPT),
    "dual": lambda ch: ea_bound_dual(ch, maximally_mixed(ch.dim_in), 0.05),
}


class TestProgramLimits:
    def test_eps_near_one_is_rejected(self):
        # solving at 1 - 1e-9 instead would raise beta and understate the bound
        eps = 1.0 - 1e-12
        for bound in (lambda: ea_bound(DEPOL, MU2, eps), lambda: ea_bound_dual(DEPOL, MU2, eps),
                      lambda: ea_bound_opt_rho(DEPOL, eps),
                      lambda: classical_converse(np.eye(2), eps)):
            with pytest.raises(ValueError, match="eps"):
                bound()

    @pytest.mark.parametrize("name", sorted(_PROGRAMS))
    def test_size_estimate_is_the_solver_storage(self, monkeypatch, name):
        probs = []
        solve = bounds._solve
        monkeypatch.setattr(bounds, "_solve", lambda prob: probs.append(prob) or solve(prob))
        _PROGRAMS[name](DEPOL)
        need = probs[0].coefficient_bytes
        assert need == _held_bytes(probs[0])
        monkeypatch.setattr(sdp.problem, "MAX_PROGRAM_BYTES", need)
        _PROGRAMS[name](DEPOL)
        monkeypatch.setattr(sdp.problem, "MAX_PROGRAM_BYTES", need - 1)
        with pytest.raises(ValueError, match="GiB"):
            _PROGRAMS[name](DEPOL)

    def test_size_estimate_bounds_the_classical_storage(self, monkeypatch):
        # every block of the classical program is declared with the frame of 1x1
        # blocks, so only diagonals are kept, and counted, on either side
        probs = []
        solve = bounds._solve
        monkeypatch.setattr(bounds, "_solve", lambda prob: probs.append(prob) or solve(prob))
        w, _ = rand_classical_channel(np.random.default_rng(4), 3, 2)
        classical_converse(w, 0.1)
        classical_converse(w, 0.1, p=np.array([0.2, 0.3, 0.5]))
        for prob in probs:
            assert prob.coefficient_bytes == _held_bytes(prob)

    @pytest.mark.parametrize("cls,count", [
        # the problem's rows, 16 bytes per packed entry: each of the 136 R rows
        # on the AB blocks (10² + 6² entries each), the adversary's block
        # (3² + 1) and the acceptance block, the lambda row on the adversary's
        # block and the block lambda >= 0, and each of the 10 rho_ref rows on
        # the caps, the rho_ref block (3² + 1) and the trace block; the
        # solver's copy, 16 bytes per row and entry: 147 rows on every block's
        # entries, the lambda block's included
        (TestClass.ALL, 16 * (136 * (2 * 136 + 11) + (10 + 1) + 10 * (136 + 11))
         + 16 * 147 * (2 * 136 + 2 * 11 + 1)),
        (TestClass.PPT, 16 * (136 * (4 * 136 + 11) + (10 + 1) + 10 * (2 * 136 + 11))
         + 16 * 147 * (4 * 136 + 2 * 11 + 1))])
    def test_split_size_estimate_is_the_solver_storage(self, monkeypatch, cls, count):
        probs = []
        solve = bounds._solve
        monkeypatch.setattr(bounds, "_solve", lambda prob: probs.append(prob) or solve(prob))
        ea_bound_opt_rho(DEPOL, 0.05, cls, n=2)
        assert probs[0].coefficient_bytes == _held_bytes(probs[0]) == count

    def test_three_uses_are_admitted(self, monkeypatch):
        # about 1.0 GiB (ALL) and 2.0 GiB (PPT): every row is counted and admitted,
        # no operator row is built, and the solve is never reached
        class Admitted(Exception):
            pass

        def stop(prob):
            raise Admitted(prob.coefficient_bytes)

        monkeypatch.setattr(sdp.problem.Basis, "__iter__", lambda basis: iter(()))
        monkeypatch.setattr(bounds, "_solve", stop)
        chan = tensor_power(DEPOL, 3)
        for name in _PROGRAMS:
            with pytest.raises(Admitted) as admitted:
                _PROGRAMS[name](chan)
            assert 2**30 < admitted.value.args[0] <= sdp.problem.MAX_PROGRAM_BYTES

    def test_four_uses_are_rejected_before_allocating(self):
        chan = tensor_power(DEPOL, 4)  # about 257 GiB of coefficients
        tracemalloc.start()
        try:
            for name in _PROGRAMS:
                with pytest.raises(ValueError, match="GiB"):
                    _PROGRAMS[name](chan)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_four_optimised_uses_are_admitted(self, monkeypatch):
        # 3,876 invariant R rows on two 256 x 256 blocks, each split into
        # sub-blocks of 45, 45, 45, 35, 20, 20, 15, 15, 15 and 1 (8,776 packed
        # entries), the adversary's 16 x 16 block, split into 5, 3, 3, 3, 1
        # and 1 (54 entries), and the acceptance block; the lambda row on the
        # adversary's block and the block lambda >= 0; and 35 rho_ref rows on
        # the cap, the rho_ref block (split as the adversary's) and the trace
        # block. The problem keeps 16 bytes per packed entry of each row, the
        # solver 16 per row and entry over all 3,912 rows, the lambda block's
        # included. About 2.05 GiB: admitted, with no operator row built
        class Admitted(Exception):
            pass

        def stop(prob):
            raise Admitted(prob.coefficient_bytes)

        monkeypatch.setattr(sdp.problem.Basis, "__iter__", lambda basis: iter(()))
        monkeypatch.setattr(bounds, "_solve", stop)
        ab, b = 8776, 54
        with pytest.raises(Admitted) as admitted:
            ea_bound_opt_rho(DEPOL, 0.05, TestClass.ALL, n=4)
        assert admitted.value.args[0] == \
            16 * (3876 * (2 * ab + b + 1) + (b + 1) + 35 * (ab + b + 1)) \
            + 16 * (3876 + 1 + 35) * (2 * ab + 2 * (b + 1) + 1)

    # the PPT program has twice the AB blocks, about 4.1 GiB
    @pytest.mark.parametrize("cls", [TestClass.PPT])
    def test_four_optimised_uses_are_rejected_before_the_channel(self, monkeypatch, cls):
        def unbuilt(*args):
            raise AssertionError("tensor_power ran for a rejected program")

        monkeypatch.setattr(quantum, "tensor_power", unbuilt)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="GiB"):
                ea_bound_opt_rho(DEPOL, 0.05, cls, n=4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @pytest.mark.parametrize("cls", [TestClass.ALL, TestClass.PPT])
    def test_four_fixed_input_uses_are_rejected_before_the_channel(self, monkeypatch, cls):
        # 65,536 Hermitian R rows on 256 x 256 blocks: about 257 GiB (ALL)
        def unbuilt(*args):
            raise AssertionError("tensor_power ran for a rejected program")

        monkeypatch.setattr(quantum, "tensor_power", unbuilt)
        tracemalloc.start()
        try:
            for rho in (None, maximally_mixed(16)):
                with pytest.raises(ValueError, match="GiB"):
                    ea_bound(DEPOL, rho, 0.05, cls, n=4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @pytest.mark.parametrize("n", [16, 400])
    @pytest.mark.parametrize("cls", [TestClass.ALL, TestClass.PPT])
    def test_sixteen_optimised_uses_are_rejected_from_closed_forms(self, monkeypatch, cls, n):
        # the C(n + 15, 15) R rows alone are over the limit, and that is checked
        # before any frame is sized: the AB frame of sixteen uses has 7.0e6
        # Schur-Weyl sub-blocks, and summing its runs at 400 uses takes seconds
        def unbuilt(*args):
            raise AssertionError("tensor_power ran for a rejected program")

        monkeypatch.setattr(quantum, "tensor_power", unbuilt)
        tracemalloc.start()
        start = time.perf_counter()
        try:
            with pytest.raises(ValueError, match="GiB"):
                ea_bound_opt_rho(DEPOL, 0.05, cls, n=n)
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert elapsed < 1.0 and peak < 4 * 2**20

    def test_fixed_input_uses_are_the_tensor_power(self):
        # the same program, bit for bit, as on the two-use channel
        res = ea_bound(DEPOL, None, 0.05, n=2)
        assert res.beta == ea_bound(tensor_power(DEPOL, 2), maximally_mixed(4), 0.05).beta
        assert res.n_uses == 2
        with pytest.raises(ValueError, match="state dim"):
            ea_bound(DEPOL, MU2, 0.05, n=2)

    def test_uses_must_be_positive(self):
        with pytest.raises(ValueError, match="n must be"):
            ea_bound_opt_rho(DEPOL, 0.05, n=0)
        with pytest.raises(ValueError, match="n must be"):
            ea_bound(DEPOL, MU2, 0.05, n=0)


class TestEaBoundDual:
    def test_strictly_feasible_interior_point_exists(self, rng):
        # the canonical interior start: G = I/(2 d_B), F = a I, any mu > 0
        chan = rand_channel(rng, 2, 3)
        db = chan.dim_out
        mu = 1.0
        a = 2.0 * mu * np.abs(np.linalg.eigvalsh(chan.choi)).max() + 1.0
        slack = np.kron(np.eye(chan.dim_in), np.eye(db) / (2 * db)) \
            + a * np.eye(chan.dim_in * db) - mu * chan.choi
        assert np.linalg.eigvalsh(slack).min() > 0
        assert db / (2 * db) < 1

    def test_matches_primal_on_depolarising(self):
        primal = ea_bound(DEPOL, MU2, 0.05)
        dual = ea_bound_dual(DEPOL, MU2, 0.05)
        assert dual.bits == pytest.approx(primal.bits, abs=1e-6)

    def test_constant_channel(self, rng):
        res = ea_bound_dual(_constant(rng), MU2, 0.5)
        assert res.bits == pytest.approx(1.0, abs=1e-6)

    def test_is_ea_bound_read_from_the_other_side(self):
        # one solve: the dual's beta is the solver's primal value, which
        # ea_bound keeps as its dual objective, and the other way round
        rng = np.random.default_rng(2112)
        for _ in range(6):
            chan = rand_channel(rng, int(rng.integers(2, 4)), int(rng.integers(2, 4)))
            rho = rand_state(rng, chan.dim_in)
            primal, dual = ea_bound(chan, rho, 0.1), ea_bound_dual(chan, rho, 0.1)
            assert dual.beta == primal.diagnostics["dual_objective"]
            assert dual.diagnostics["dual_objective"] == primal.beta
            assert dual.diagnostics["iterations"] == primal.diagnostics["iterations"]

    def test_strong_duality_random(self, rng):
        for _ in range(5):
            chan = rand_channel(rng, int(rng.integers(2, 4)), int(rng.integers(2, 4)))
            rho = rand_state(rng, chan.dim_in)
            rp = ea_bound(chan, rho, 0.1)
            rd = ea_bound_dual(chan, rho, 0.1)
            assert abs(rp.beta - rd.beta) <= 1e-6 * (1 + abs(rp.beta))


class TestEaBoundOptRho:
    def test_depolarising_optimum_is_maximally_mixed(self):
        res = ea_bound_opt_rho(DEPOL, 0.05, TestClass.ALL)
        fixed = ea_bound(DEPOL, MU2, 0.05, TestClass.ALL)
        assert res.bits == pytest.approx(fixed.bits, abs=1e-6)
        assert np.abs(res.optimal_rho - MU2.mat).max() < 1e-5

    def test_identity_against_grid_oracle(self):
        res = ea_bound_opt_rho(identity_channel(2), 0.05, TestClass.ALL)
        oracle = identity_opt_input_bound(0.05)
        assert res.bits == pytest.approx(oracle, abs=1e-4)

    def test_constant_channel_any_input(self, rng):
        res = ea_bound_opt_rho(_constant(rng), 0.3, TestClass.ALL)
        assert res.bits == pytest.approx(-np.log2(1 - 0.3), abs=1e-6)


class TestClassicalConverse:
    def test_noiseless_bit(self):
        res = classical_converse(np.eye(2), 0.0)
        assert res.bits == pytest.approx(1.0, abs=1e-6)

    def test_useless_channel(self):
        w = np.array([[0.3, 0.3], [0.7, 0.7]])
        for eps in (0.05, 0.4):
            res = classical_converse(w, eps)
            assert res.bits == pytest.approx(-np.log2(1 - eps), abs=1e-6)

    def test_bsc_uniform_input_matches_direct_evaluation(self):
        delta = 0.11
        w = np.array([[1 - delta, delta], [delta, 1 - delta]])
        res = classical_converse(w, 0.05, p=np.array([0.5, 0.5]))
        joint = (w * 0.5).T.reshape(-1)
        # by symmetry the adversarial output distribution is uniform
        direct = classical_np_beta(joint, np.full(4, 0.25), 0.05).beta
        assert res.beta == pytest.approx(direct, abs=1e-9)

    def test_optimized_input_matches_uniform_for_symmetric_channel(self):
        delta = 0.11
        w = np.array([[1 - delta, delta], [delta, 1 - delta]])
        opt = classical_converse(w, 0.05)
        fixed = classical_converse(w, 0.05, p=np.array([0.5, 0.5]))
        assert opt.bits == pytest.approx(fixed.bits, abs=1e-6)

    def test_validation(self):
        with pytest.raises(ValueError):
            classical_converse(np.array([[0.5, 0.2], [0.5, 0.2]]), 0.1)

    def test_matches_brute_force_oracle(self, rng):
        for _ in range(3):
            w, _ = rand_classical_channel(rng, 2, 2)
            p = rng.random(2) + 0.1
            p /= p.sum()
            eps = float(rng.uniform(0.01, 0.3))
            assert classical_converse(w, eps, p).bits == pytest.approx(
                classical_converse_bits(w, eps, p), abs=1e-6)
            assert classical_converse(w, eps).bits == pytest.approx(
                classical_converse_bits(w, eps), abs=1e-6)

    def test_unused_input_symbol(self):
        w = np.array([[0.9, 0.2], [0.1, 0.8]])
        res = classical_converse(w, 0.1, p=np.array([1.0, 0.0]))
        assert res.bits == pytest.approx(classical_converse_bits(w, 0.1, [1.0, 0.0]), abs=1e-6)

    @pytest.mark.parametrize("w,p", [
        (np.array([[np.nan, 0.5], [0.5, 0.5]]), None),
        (np.eye(2), np.array([np.nan, 0.5]))])
    def test_non_finite_input_is_rejected(self, w, p):
        with pytest.raises(ValueError):
            classical_converse(w, 0.1, p)

    def test_sums_within_tolerance_are_renormalised(self):
        # inputs within the 1e-10 check must not fail the Neyman-Pearson
        # test's 1e-12 sum check after the solve
        w = np.array([[0.9, 0.2], [0.1, 0.8]])
        want = classical_converse(w, 0.1, np.array([0.5, 0.5])).bits
        assert classical_converse(w, 0.1, np.array([0.5, 0.5 + 5e-11])).bits == \
            pytest.approx(want, abs=1e-6)
        w_off = w + np.array([[0.0, 0.0], [5e-11, 0.0]])
        assert classical_converse(w_off, 0.1).bits == \
            pytest.approx(classical_converse(w, 0.1).bits, abs=1e-6)
        w_neg = np.array([[1.0 + 1e-13, 0.2], [-1e-13, 0.8]])
        assert np.isfinite(classical_converse(w_neg, 0.1).bits)

    def test_over_budget_matrix_is_rejected(self):
        # 8,192 inputs, 2 outputs: 16,384 diagonal R rows, each 24 bytes per entry of
        # two 16,384-entry diagonal blocks, about 12 GiB, rejected before the 4 GiB
        # Choi matrix or any coefficient is built
        w, p = np.full((2, 8192), 0.5), np.full(8192, 1 / 8192)
        tracemalloc.start()
        try:
            for dist in (p, None):
                with pytest.raises(ValueError, match="GiB"):
                    classical_converse(w, 0.1, dist)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @pytest.mark.parametrize("eps", [0.01, 0.2])
    def test_noiseless_sixteen_symbols(self, eps):
        # w = I: beta = (1 - eps) / 16 on a program whose R blocks are 256 x 256
        # diagonals, solved as vectors
        res = classical_converse(np.eye(16), eps)
        assert res.bits == pytest.approx(4.0 - np.log2(1.0 - eps), abs=1e-9)

    def test_diagonal_program_equals_full_program(self):
        # the phase-invariant (diagonal) R and rho_ref lose nothing on a classical channel
        w, chan = rand_classical_channel(np.random.default_rng(33), 3, 3)
        (diag,) = bounds._ea_bound((3, 3), lambda: chan.choi, [0.1], TestClass.ALL, None,
                                   sdp.diagonal_basis(9), sdp.diagonal_basis(3))
        (full,) = bounds._ea_bound((3, 3), lambda: chan.choi, [0.1], TestClass.ALL, None,
                                   sdp.hermitian_basis(9), sdp.hermitian_basis(3))
        assert diag.bits == pytest.approx(full.bits, abs=1e-7)
        assert classical_converse(w, 0.1).bits == pytest.approx(full.bits, abs=1e-7)


class TestDepolarisingExact:
    def test_single_use_value(self):
        res = depolarising_exact(2, 0.15, 1, 0.05)
        assert res.bits == pytest.approx(0.58496, abs=1e-5)
        assert res.diagnostics["mu"] == pytest.approx(0.8875)
        assert res.diagnostics["lam"] == pytest.approx(0.25)

    def test_noiseless_limit(self):
        for d, n in ((2, 1), (2, 3), (3, 2)):
            res = depolarising_exact(d, 0.0, n, 1e-9)
            assert res.bits == pytest.approx(2 * n * np.log2(d), abs=1e-6)

    def test_stein_rate(self):
        res = depolarising_exact(2, 0.15, 1000, 0.01)
        assert abs(res.bits / 1000 - 1.31428) < 0.10

    def test_bits_consistent_with_beta(self):
        res = depolarising_exact(2, 0.15, 200, 0.01)
        import mpmath as mp
        assert res.bits == pytest.approx(float(-mp.log(res.beta, 2)), abs=1e-9)

    def test_validation(self):
        with pytest.raises(ValueError):
            depolarising_exact(1, 0.1, 1, 0.05)
        with pytest.raises(ValueError):
            depolarising_exact(2, 0.1, 1, 0.0)


class TestDepolarisingConsistency:
    @pytest.mark.parametrize("n,eps", [(1, 0.05), (1, 0.25), (2, 0.05)])
    def test_sdp_equals_exact(self, n, eps):
        res = ea_bound_opt_rho(DEPOL, eps, TestClass.ALL, n)
        exact = depolarising_exact(2, 0.15, n, eps)
        assert res.bits == pytest.approx(exact.bits, abs=1e-5)

    @pytest.mark.slow
    def test_sdp_equals_exact_three_uses(self):
        res = ea_bound_opt_rho(DEPOL, 0.05, TestClass.ALL, n=3)
        exact = depolarising_exact(2, 0.15, 3, 0.05)
        assert res.bits == pytest.approx(exact.bits, abs=1e-5)


def _pauli_channel(probs) -> quantum.QuantumChannel:
    paulis = [np.eye(2), np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]),
              np.diag([1.0, -1.0])]
    return quantum.QuantumChannel([np.sqrt(q) * s for q, s in zip(probs, paulis) if q > 0])


class TestInvariantPrograms:
    """The permutation-invariant program for n uses against independent values."""

    @pytest.mark.parametrize("d_in,d_out,seed,eps,cls", [
        (2, 2, 1, 0.1, TestClass.ALL),
        (2, 2, 1, 0.1, TestClass.PPT),
        # the unreduced programs have 1,377 rows on 36 x 36 blocks, 20-50 s each
        pytest.param(2, 3, 1, 0.1, TestClass.ALL, marks=pytest.mark.slow),
        pytest.param(2, 3, 1, 0.1, TestClass.PPT, marks=pytest.mark.slow),
        pytest.param(3, 2, 1, 0.1, TestClass.ALL, marks=pytest.mark.slow),
        pytest.param(3, 2, 1, 0.1, TestClass.PPT, marks=pytest.mark.slow),
        # programs that stopped at the iteration limit while the barrier degree
        # was the sum of d² over the blocks
        (2, 3, 23, 0.1, TestClass.ALL),
        (2, 3, 3, 0.01, TestClass.ALL),
        # the reduced program still stops at the iteration limit
        pytest.param(2, 2, 1, 0.01, TestClass.ALL,
                     marks=pytest.mark.xfail(strict=True, raises=bounds.SolverFailure))])
    def test_reduced_equals_unreduced(self, d_in, d_out, seed, eps, cls):
        chan = rand_channel(np.random.default_rng(seed), d_in, d_out)
        reduced = ea_bound_opt_rho(chan, eps, cls, n=2)
        full = ea_bound_opt_rho(tensor_power(chan, 2), eps, cls)
        assert reduced.bits == pytest.approx(full.bits, abs=1e-6)
        assert reduced.n_uses == 2

    @pytest.mark.parametrize("cls", [TestClass.ALL, TestClass.PPT])
    def test_split_equals_unsplit(self, cls):
        # the optimised two-use programs of the sdp-depol benchmark workload at
        # seed 1, with and without the frames: the same steps
        chan = tensor_power(DEPOL, 2)
        r_basis, rho_basis = sdp.invariant_basis((2, 2), 2), sdp.invariant_basis((2,), 2)
        whole = [sdp.Basis(len(b), lambda b=b: iter(b)) for b in (r_basis, rho_basis)]
        eps_list = [0.01428, 0.05638, 0.1474]
        splits = bounds._ea_bound((4, 4), lambda: chan.choi, eps_list, cls, None, r_basis,
                                  rho_basis, sdp.invariant_frame((2,), 2))
        unsplits = bounds._ea_bound((4, 4), lambda: chan.choi, eps_list, cls, None, *whole)
        for eps, split, unsplit in zip(eps_list, splits, unsplits, strict=True):
            assert split.diagnostics["iterations"] == unsplit.diagnostics["iterations"]
            assert split.bits == pytest.approx(unsplit.bits, abs=1e-8)
            assert split.bits == pytest.approx(
                ea_bound_opt_rho(DEPOL, eps, cls, n=2).bits, abs=1e-12)

    def test_split_equals_unsplit_on_two_blas_threads(self):
        # numpy imported before qconv, or a caller's override, runs OpenBLAS on
        # two threads, whose sums round differently: the same comparison there
        src = str(Path(bounds.__file__).resolve().parents[1])
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "2",
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        run = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
             f"{__file__}::TestInvariantPrograms::test_split_equals_unsplit"],
            env=env, capture_output=True, text=True)
        assert run.returncode == 0, run.stdout[-2000:]

    @pytest.mark.parametrize("probs,n", [((0.8, 0.1, 0.0, 0.1), 2), ((0.9, 0.0, 0.0, 0.1), 2),
                                         ((0.9, 0.0, 0.0, 0.1), 3)])
    def test_pauli_channel_is_a_classical_test(self, probs, n):
        # Pauli covariance makes both optimal states maximally mixed, so beta is the
        # Neyman-Pearson test between p^⊗n and the uniform distribution on 4^n outcomes
        p_n = np.ones(1)
        for _ in range(n):
            p_n = np.kron(p_n, probs)
        for eps in (0.05, 0.2):
            want = -np.log2(classical_np_beta(p_n, np.full(4**n, 4.0**-n), eps).beta)
            got = ea_bound_opt_rho(_pauli_channel(probs), eps, TestClass.ALL, n).bits
            assert got == pytest.approx(want, abs=1e-6)


def _count_builds(monkeypatch) -> list:
    """Record the test class of every ``_ea_problem`` build."""
    built = []
    build = bounds._ea_problem

    def counted(dims, choi, eps, cls, *args, **kwargs):
        built.append(cls)
        return build(dims, choi, eps, cls, *args, **kwargs)

    monkeypatch.setattr(bounds, "_ea_problem", counted)
    return built


class TestEpsGrids:
    """A sequence of eps builds one program and solves it once per eps; each
    result is exactly that of the one-eps call, whose program is its own."""

    EPS = [0.2, 0.01, 0.05]  # unsorted: results come back in the given order

    def _check(self, grid, one):
        assert [res.epsilon for res in grid] == self.EPS
        for res in grid:
            single = one(res.epsilon)
            assert res.bits == single.bits
            assert res.beta == single.beta

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("cls", [TestClass.ALL, TestClass.PPT])
    def test_opt_rho(self, monkeypatch, cls, n):
        built = _count_builds(monkeypatch)
        grid = ea_bound_opt_rho(DEPOL, self.EPS, cls, n)
        assert built == [cls]
        self._check(grid, lambda eps: ea_bound_opt_rho(DEPOL, eps, cls, n))

    @pytest.mark.parametrize("state", ["maximally-mixed", "file"])
    def test_fixed_input(self, monkeypatch, tmp_path, state):
        rho = None
        if state == "file":
            path = tmp_path / "rho.json"
            mat = rand_state(np.random.default_rng(5), 2).mat
            path.write_text(json.dumps({"dim": 2, "data": [[[z.real, z.imag] for z in row]
                                                           for row in mat]}))
            rho = cli.load_state(str(path))
        built = _count_builds(monkeypatch)
        grid = ea_bound(DEPOL, rho, self.EPS, TestClass.PPT)
        assert built == [TestClass.PPT]
        self._check(grid, lambda eps: ea_bound(DEPOL, rho, eps, TestClass.PPT))

    @pytest.mark.parametrize("p", [None, np.array([0.3, 0.7, 0.0])])
    def test_classical(self, monkeypatch, p):
        w, _ = rand_classical_channel(np.random.default_rng(33), 3, 3)
        built = _count_builds(monkeypatch)
        grid = classical_converse(w, self.EPS, p)
        assert built == [TestClass.ALL]
        self._check(grid, lambda eps: classical_converse(w, eps, p))

    def test_every_eps_is_checked_before_the_build(self, monkeypatch):
        built = _count_builds(monkeypatch)
        with pytest.raises(ValueError, match="eps must be in"):
            ea_bound_opt_rho(DEPOL, [0.05, 1.0 - 1e-10])
        with pytest.raises(ValueError, match="eps must be in"):
            classical_converse(np.eye(2), [0.05, 1.0])
        with pytest.raises(ValueError, match="eps must be in"):
            classical_converse(np.eye(2), [0.05, 1.0], [0.5, 0.5])
        with pytest.raises(ValueError, match="at least one eps"):
            ea_bound(DEPOL, None, [])
        assert built == []

    def test_the_first_eps_carries_the_build(self, monkeypatch):
        # the wall time of a result runs from the previous one, so the build,
        # made slow here, lands on the first eps only
        build = bounds._ea_problem

        def slow(*args, **kwargs):
            time.sleep(0.5)
            return build(*args, **kwargs)

        monkeypatch.setattr(bounds, "_ea_problem", slow)
        first, second = ea_bound(DEPOL, None, [0.05, 0.1])
        assert first.diagnostics["wall_s"] >= 0.5 > second.diagnostics["wall_s"]


class TestWangRennerChi:
    def test_single_state_ensemble(self, rng):
        rho = rand_state(rng, 2)
        for eps in (0.05, 0.3):
            got = wang_renner_chi([(1.0, rho)], DEPOL, eps)
            assert got == pytest.approx(-np.log2(1 - eps), abs=1e-7)

    def test_orthogonal_ensemble_identity_channel(self):
        ens = [(0.5, DensityMatrix(np.diag([1.0, 0.0]).astype(complex))),
               (0.5, DensityMatrix(np.diag([0.0, 1.0]).astype(complex)))]
        got = wang_renner_chi(ens, identity_channel(2), 0.05)
        joint = np.array([0.5, 0.0, 0.0, 0.5])
        prod = np.array([0.25, 0.25, 0.25, 0.25])
        want = -np.log2(classical_np_beta(joint, prod, 0.05).beta)
        assert got == pytest.approx(want, abs=1e-7)

    def test_data_processing_upper_bound(self, rng):
        # the ensemble bound is only as strong as the unrestricted test on
        # the purified pair with the induced output state
        for _ in range(4):
            states = [rand_state(rng, 2) for _ in range(3)]
            probs = rng.random(3) + 0.1
            probs /= probs.sum()
            ens = list(zip(probs.tolist(), states))
            avg = DensityMatrix(sum(p * s.mat for p, s in ens))
            chan = rand_channel(rng, 2, 2)
            eps = 0.1
            chi = wang_renner_chi(ens, chan, eps)
            joint = DensityMatrix(apply_channel_second(
                chan, canonical_purification(avg).mat, 2))
            prod = DensityMatrix(np.kron(avg.mat.T, apply_channel(chan, avg).mat))
            d_all = -np.log2(quantum_np_beta(joint, prod, eps).beta)
            assert chi <= d_all + 1e-6

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            wang_renner_chi([(0.7, rand_state(rng, 2))], DEPOL, 0.1)


class TestFanoBound:
    def test_depolarising_value(self):
        got = fano_bound(DEPOL, MU2, 0.05)
        assert got == pytest.approx(1.68493, abs=1e-4)

    def test_zero_eps_is_mutual_information(self):
        assert fano_bound(DEPOL, MU2, 0.0) == pytest.approx(
            quantum.mutual_information(DEPOL, MU2), abs=1e-12)

    def test_constant_channel(self, rng):
        chan = _constant(rng)
        for eps in (0.1, 0.5):
            assert fano_bound(chan, MU2, eps) == pytest.approx(
                binary_entropy(eps) / (1 - eps), abs=1e-9)

    def test_dominates_sdp_bound(self, rng):
        for _ in range(4):
            chan = rand_channel(rng, 2, 2)
            rho = rand_state(rng, 2)
            res = ea_bound(chan, rho, 0.1)
            assert res.bits <= fano_bound(chan, rho, 0.1) + 1e-6

    def test_binary_relative_entropy_value(self):
        assert binary_relative_entropy(0.8875, 0.25) == pytest.approx(1.31428, abs=1e-5)


class TestNoisyStorage:
    def test_overflow_gives_entropy(self):
        res = bounds.BoundResult(bits=10.0, beta=2**-10.0, epsilon=0.5,
                                 test_class=TestClass.ALL)
        assert noisy_storage_minentropy(12.0, res) == pytest.approx(1.0)

    def test_underflow_gives_nothing(self):
        res = bounds.BoundResult(bits=10.0, beta=2**-10.0, epsilon=0.5,
                                 test_class=TestClass.ALL)
        assert noisy_storage_minentropy(8.0, res) == 0.0

    def test_depolarising_inversion(self):
        rate_per_use = 1.5  # above the ~1.31 bit capacity, so overflow happens
        eps = 0.25
        n = 1
        while True:
            res = depolarising_exact(2, 0.15, n, eps)
            if n * rate_per_use > res.bits:
                break
            n += 1
        got = noisy_storage_minentropy(n * rate_per_use, res)
        assert got == pytest.approx(-np.log2(0.75), abs=1e-12)
        assert got == pytest.approx(0.415, abs=5e-4)


class TestStructuralInvariants:
    def test_class_hierarchy(self, rng):
        for _ in range(6):
            chan = rand_channel(rng, int(rng.integers(2, 4)), int(rng.integers(2, 4)))
            rho = rand_state(rng, chan.dim_in)
            all_bits = ea_bound(chan, rho, 0.1, TestClass.ALL).bits
            ppt_bits = ea_bound(chan, rho, 0.1, TestClass.PPT).bits
            assert ppt_bits <= all_bits + 1e-6

    def test_classical_reduction(self, rng):
        for _ in range(2):
            w, chan = rand_classical_channel(rng, 2, 2)
            p = rng.random(2) + 0.2
            p /= p.sum()
            rho = DensityMatrix(np.diag(p).astype(complex))
            r_all = ea_bound(chan, rho, 0.1, TestClass.ALL)
            r_ppt = ea_bound(chan, rho, 0.1, TestClass.PPT)
            r_cls = classical_converse(w, 0.1, p)
            assert r_all.bits == pytest.approx(r_cls.bits, abs=1e-5)
            assert r_ppt.bits == pytest.approx(r_cls.bits, abs=1e-5)

    def test_beta_convex_in_input_state(self, rng):
        for _ in range(5):
            chan = rand_channel(rng, 2, 2)
            rho1, rho2 = rand_state(rng, 2), rand_state(rng, 2)
            t = float(rng.random())
            mix = DensityMatrix(t * rho1.mat + (1 - t) * rho2.mat)
            beta_mix = ea_bound(chan, mix, 0.1).beta
            beta_split = t * ea_bound(chan, rho1, 0.1).beta \
                + (1 - t) * ea_bound(chan, rho2, 0.1).beta
            assert beta_mix <= beta_split + 1e-6

    def test_bits_monotone_in_eps(self):
        prev = -1.0
        for eps in (0.01, 0.05, 0.1, 0.3, 0.6):
            res = ea_bound(DEPOL, MU2, eps)
            assert res.bits >= prev - 1e-8
            prev = res.bits

    def test_meta_converse_inequality(self, rng):
        # any explicit code's performance certifies a feasible test, so the
        # optimal beta at the code's error rate is at most 1/M
        for m in (2, 3):
            states = [rand_state(rng, 2) for _ in range(m)]
            code = Code(states, rand_povm(rng, 2, m))
            rho = code.average_input()
            chan = rand_channel(rng, 2, 2)
            eps_code = 1.0 - code.success_probability(chan)
            joint = DensityMatrix(apply_channel_second(
                chan, canonical_purification(rho).mat, 2))
            for _ in range(3):
                sigma = rand_state(rng, 2)
                prod = DensityMatrix(np.kron(rho.mat.T, sigma.mat))
                beta = quantum_np_beta(joint, prod, eps_code).beta
                assert beta <= 1.0 / m + 1e-8
