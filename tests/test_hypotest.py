import mpmath as mp
import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import operator_equality, rand_state, rand_unitary
from oracles import (binomial_count_distribution, binomial_np_reference,
                     exhaustive_np_beta, product_distribution)
from qconv import sdp
from qconv.hypotest import binomial_beta, classical_np_beta, quantum_np_beta
from qconv.quantum import DensityMatrix, maximally_mixed

DEPOL_MU, DEPOL_LAM = 0.8875, 0.25
# the depolarising pair and two random ones with lam < mu
ORACLE_PAIRS = [(DEPOL_MU, DEPOL_LAM)] + [
    tuple(float(q) for q in sorted(np.random.default_rng(seed).random(2), reverse=True))
    for seed in (1, 2)]


class TestClassicalNp:
    def test_equal_distributions(self):
        for eps in (0.0, 0.2, 0.7, 1.0):
            res = classical_np_beta([0.3, 0.7], [0.3, 0.7], eps)
            assert res.beta == pytest.approx(1.0 - eps, abs=1e-12)

    def test_full_budget_rejects_everything(self):
        assert classical_np_beta([0.5, 0.5], [0.1, 0.9], 1.0).beta == 0.0

    def test_two_point_example(self):
        res = classical_np_beta([DEPOL_MU, 1 - DEPOL_MU], [DEPOL_LAM, 1 - DEPOL_LAM], 0.05)
        assert res.beta == pytest.approx(2.0 / 3.0, abs=1e-10)
        assert res.gamma == pytest.approx(0.4444, abs=1e-4)
        assert res.alpha <= 0.05 + 1e-12

    def test_against_exhaustive_oracle(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 7))
            p0 = rng.random(n) + 0.01
            p0 /= p0.sum()
            p1 = rng.random(n) + 0.01
            p1 /= p1.sum()
            eps = float(rng.random() * 0.9)
            got = classical_np_beta(p0, p1, eps).beta
            assert got == pytest.approx(exhaustive_np_beta(p0, p1, eps), abs=1e-12)

    def test_handles_zero_likelihood_outcomes(self):
        # an outcome with p1 = 0 is free to accept and must come first
        res = classical_np_beta([0.5, 0.5, 0.0], [0.0, 0.5, 0.5], 0.3)
        assert res.beta == pytest.approx(exhaustive_np_beta(
            [0.5, 0.5, 0.0], [0.0, 0.5, 0.5], 0.3), abs=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            classical_np_beta([0.5, 0.5], [1.0, 0.0], 1.5)
        with pytest.raises(ValueError):
            classical_np_beta([0.5, 0.6], [1.0, 0.0], 0.1)

    def test_non_finite_distribution_is_rejected(self):
        # NaN passes every sum and sign check, and used to give beta = 1
        with pytest.raises(ValueError, match="non-finite"):
            classical_np_beta([np.nan, 1.0], [0.5, 0.5], 0.1)


class TestBinomial:
    def test_zero_budget(self):
        for mu, lam, n in ((0.9, 0.3, 1), (0.6, 0.6, 5), (1.0, 0.2, 3)):
            assert float(binomial_beta(mu, lam, n, 0.0).beta) == pytest.approx(1.0)

    def test_single_sample_matches_two_point(self):
        got = binomial_beta(DEPOL_MU, DEPOL_LAM, 1, 0.05)
        assert float(got.beta) == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert got.gamma == pytest.approx(4.0 / 9.0, abs=1e-10)

    def test_two_sample_value(self):
        got = binomial_beta(DEPOL_MU, DEPOL_LAM, 2, 0.05)
        assert float(got.beta) == pytest.approx(0.36737, abs=5e-6)
        assert got.gamma == pytest.approx(0.18701, abs=1e-5)
        # frozen from the count-space exhaustive oracle
        oracle = exhaustive_np_beta(binomial_count_distribution(DEPOL_MU, 2),
                                    binomial_count_distribution(DEPOL_LAM, 2), 0.05)
        assert float(got.beta) == pytest.approx(oracle, abs=1e-10)

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 12])
    def test_matches_expanded_sequence_distribution(self, n):
        # 1e-9 here: the 2^n-outcome float expansion carries ~1e-15 mass
        # error that the boundary outcome amplifies by p1/p0
        for mu, lam, eps in ((DEPOL_MU, DEPOL_LAM, 0.05), (0.7, 0.4, 0.31), (0.55, 0.1, 0.0)):
            p0 = product_distribution(mu, n)
            p1 = product_distribution(lam, n)
            direct = classical_np_beta(p0 / p0.sum(), p1 / p1.sum(), eps).beta
            assert float(binomial_beta(mu, lam, n, eps).beta) == pytest.approx(direct, abs=1e-9)

    @pytest.mark.parametrize("n", [2, 4, 7, 10, 12])
    def test_matches_count_space_oracle(self, n):
        for mu, lam, eps in ((DEPOL_MU, DEPOL_LAM, 0.13), (0.9, 0.2, 0.01)):
            oracle = exhaustive_np_beta(binomial_count_distribution(mu, n),
                                        binomial_count_distribution(lam, n), eps)
            assert float(binomial_beta(mu, lam, n, eps).beta) == pytest.approx(oracle, abs=1e-10)

    @pytest.mark.parametrize("n", [1, 2, 5, 30, 300, 3000])
    def test_matches_full_tail_oracle(self, n):
        # the oracle sums every term of both tails at 60 digits
        for mu, lam in ORACLE_PAIRS:
            for eps in (1e-300, 1e-12, 1e-6, 1e-3, 0.3, 0.5, 0.9, 0.999999):
                ell, want = binomial_np_reference(mu, lam, n, eps)
                got = binomial_beta(mu, lam, n, eps)
                assert got.threshold == ell, (mu, lam, eps)
                assert abs(got.beta - want) <= 1e-12 * want, (mu, lam, eps)

    @pytest.mark.parametrize("mu,lam,n,eps,want", [
        (0.6, 0.6, 5, 0.3, 0.7),  # mu = lam: beta = 1 - eps
        (1.0, 0.3, 3, 0.2, 0.8 * 0.3**3),  # mu a point mass at n
        (1.0, 1.0, 3, 0.2, 0.8),
        (0.0, 0.0, 3, 0.2, 0.8),  # both point masses at 0
        (0.5, 0.0, 1, 0.2, 0.6),  # lam a point mass at 0
        (0.5, 0.0, 1, 0.7, 0.0),
        (0.7, 0.3, 4, 0.0, 1.0),  # eps = 0 accepts everything
        (0.7, 0.3, 4, 1.0, 0.0),  # eps = 1 rejects everything
        (1.0, 0.3, 4, 1.0, 0.0)])
    def test_degenerate_cases(self, mu, lam, n, eps, want):
        assert float(binomial_beta(mu, lam, n, eps).beta) == pytest.approx(want, rel=1e-12, abs=0)

    def test_hundred_thousand_uses(self):
        res = binomial_beta(DEPOL_MU, DEPOL_LAM, 100_000, 0.01)
        assert mp.isfinite(res.beta) and res.beta > 0
        stein = DEPOL_MU * np.log2(DEPOL_MU / DEPOL_LAM) \
            + (1 - DEPOL_MU) * np.log2((1 - DEPOL_MU) / (1 - DEPOL_LAM))
        assert abs(res.bits() / 100_000 - stein) < 0.1

    def test_stein_rate_close_to_relative_entropy(self):
        res = binomial_beta(DEPOL_MU, DEPOL_LAM, 1000, 0.01)
        rate = res.bits() / 1000
        d = DEPOL_MU * np.log2(DEPOL_MU / DEPOL_LAM) \
            + (1 - DEPOL_MU) * np.log2((1 - DEPOL_MU) / (1 - DEPOL_LAM))
        assert abs(rate - d) < 0.10

    def test_large_n_underflow_safe(self):
        res = binomial_beta(DEPOL_MU, DEPOL_LAM, 10000, 0.001)
        assert res.beta > 0
        assert res.bits() > 1000

    def test_convex_in_eps(self):
        grid = np.linspace(0.0, 1.0, 41)
        values = [float(binomial_beta(0.8, 0.3, 6, float(e)).beta) for e in grid]
        for i in range(1, len(grid) - 1):
            midpoint = 0.5 * (values[i - 1] + values[i + 1])
            assert values[i] <= midpoint + 1e-12

    def test_monotone_in_eps(self):
        prev = 1.1
        for e in np.linspace(0.0, 1.0, 21):
            b = float(binomial_beta(0.8, 0.3, 7, float(e)).beta)
            assert b <= prev + 1e-12
            prev = b

    def test_ordering_validation(self):
        with pytest.raises(ValueError):
            binomial_beta(0.2, 0.8, 3, 0.1)


class TestQuantumNp:
    def test_equal_states(self, rng):
        tau = rand_state(rng, 3)
        for eps in (0.0, 0.25, 0.8):
            assert quantum_np_beta(tau, tau, eps).beta == pytest.approx(1 - eps, abs=1e-9)

    def test_commuting_diagonal_pair(self):
        t0 = DensityMatrix(np.diag([DEPOL_MU, 1 - DEPOL_MU]).astype(complex))
        t1 = DensityMatrix(np.diag([DEPOL_LAM, 1 - DEPOL_LAM]).astype(complex))
        assert quantum_np_beta(t0, t1, 0.05).beta == pytest.approx(2.0 / 3.0, abs=1e-9)

    def test_pure_states_zero_budget(self):
        t0 = DensityMatrix(np.diag([1.0, 0.0]).astype(complex))
        t1 = DensityMatrix(np.full((2, 2), 0.5, dtype=complex))
        assert quantum_np_beta(t0, t1, 0.0).beta == pytest.approx(0.5, abs=1e-9)

    def test_random_commuting_pairs_reduce_to_classical(self, rng):
        for dim in (2, 5, 16):
            w = rng.random(dim) + 0.01
            w /= w.sum()
            u = rng.random(dim) + 0.01
            u /= u.sum()
            basis = rand_unitary(rng, dim)
            t0 = DensityMatrix(basis @ np.diag(w) @ basis.conj().T)
            t1 = DensityMatrix(basis @ np.diag(u) @ basis.conj().T)
            for eps in (0.0, 0.1, 0.6):
                got = quantum_np_beta(t0, t1, eps).beta
                want = classical_np_beta(w, u, eps).beta
                assert got == pytest.approx(want, abs=1e-8)

    def test_monotone_in_eps(self, rng):
        t0, t1 = rand_state(rng, 4), rand_state(rng, 4)
        prev = 1.1
        for eps in np.linspace(0.0, 1.0, 26):
            b = quantum_np_beta(t0, t1, float(eps)).beta
            assert b <= prev + 1e-9
            prev = b

    def test_alpha_within_budget(self, rng):
        for _ in range(10):
            t0, t1 = rand_state(rng, 3), rand_state(rng, 3)
            eps = float(rng.random())
            res = quantum_np_beta(t0, t1, eps)
            assert res.alpha <= eps + 1e-12

    def test_agrees_with_sdp_formulation(self, rng):
        for _ in range(6):
            dim = int(rng.integers(2, 5))
            t0, t1 = rand_state(rng, dim), rand_state(rng, dim)
            eps = float(rng.uniform(0.02, 0.6))
            spectral = quantum_np_beta(t0, t1, eps).beta
            prob = sdp.SdpProblem([dim, dim, 1])  # T, I - T and <t0, T> - (1 - eps)
            prob.set_objective(0, t1.mat)
            prob.add_constraint({0: t0.mat, 2: [[-1.0]]}, 1.0 - eps)
            operator_equality(prob, {0: lambda h: h, 1: lambda h: h},
                              np.eye(dim, dtype=complex))
            sol = sdp.solve(prob)
            assert sol.status == "optimal"
            assert spectral == pytest.approx(sol.primal_objective, abs=1e-7)

    def test_dimension_mismatch(self, rng):
        with pytest.raises(ValueError):
            quantum_np_beta(rand_state(rng, 2), maximally_mixed(3), 0.1)

    @pytest.mark.parametrize("eps", [0.01, 0.5])
    def test_orthogonal_pure_states(self, eps):
        t0 = DensityMatrix(np.diag([1.0, 0.0]).astype(complex))
        t1 = DensityMatrix(np.diag([0.0, 1.0]).astype(complex))
        res = quantum_np_beta(t0, t1, eps)
        assert res.beta == 0.0
        assert res.alpha <= eps
        assert np.isfinite(res.threshold)

    def test_partly_disjoint_supports(self):
        p0, p1 = [0.5, 0.5, 0.0], [0.0, 0.5, 0.5]
        t0, t1 = (DensityMatrix(np.diag(p).astype(complex)) for p in (p0, p1))
        res = quantum_np_beta(t0, t1, 0.3)
        assert res.beta == pytest.approx(0.2, abs=1e-12)
        assert res.beta == pytest.approx(classical_np_beta(p0, p1, 0.3).beta, abs=1e-12)
        res = quantum_np_beta(t0, t1, 0.7)
        assert res.beta == 0.0
        assert res.alpha <= 0.7

    def test_tau1_negative_within_state_tolerance_is_rejected(self):
        # DensityMatrix admits eigenvalues down to -1e-10; below -1e-12 the
        # strict test keeps tau1's negative eigenspace at every threshold
        t0 = DensityMatrix(np.diag([0.0, 1.0]).astype(complex))
        t1 = DensityMatrix(np.diag([1.0 + 1e-11, -1e-11]).astype(complex))
        with pytest.raises(ValueError, match="never binds"):
            quantum_np_beta(t0, t1, 0.05)
