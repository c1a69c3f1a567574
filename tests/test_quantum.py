import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import rand_channel, rand_povm, rand_pure, rand_state
from qconv import linalg, quantum
from qconv.quantum import (Code, DensityMatrix, apply_channel, apply_channel_second,
                           canonical_purification, channel_from_choi, code_to_test,
                           constant_channel, depolarising_channel, identity_channel,
                           max_entangled_op, maximally_mixed, mutual_information,
                           tensor_channels, tensor_power, von_neumann_entropy)

ISOTROPIC_ENTROPY = 0.6857192449958266  # spectrum (0.8875, 0.0375 x3)


class TestMaxEntangled:
    def test_scalar(self):
        assert_allclose(max_entangled_op(1), [[1.0]])

    def test_rank_one_norm(self):
        phi = max_entangled_op(2)
        assert np.trace(phi) == pytest.approx(2.0)
        assert_allclose(phi @ phi, 2 * phi, atol=1e-14)

    def test_marginal_identity(self):
        for d in (2, 3):
            phi = max_entangled_op(d)
            assert_allclose(linalg.partial_trace(phi, (d, d), "b"), np.eye(d), atol=1e-14)


class TestCanonicalPurification:
    def test_maximally_mixed(self):
        pur = canonical_purification(maximally_mixed(2))
        assert_allclose(pur.mat, max_entangled_op(2) / 2, atol=1e-14)

    def test_pure_input(self):
        pur = canonical_purification(DensityMatrix(np.diag([1.0, 0.0]).astype(complex)))
        expected = np.zeros((4, 4))
        expected[0, 0] = 1.0
        assert_allclose(pur.mat, expected, atol=1e-14)

    def test_diagonal_marginals(self):
        rho = DensityMatrix(np.diag([0.7, 0.3]).astype(complex))
        pur = canonical_purification(rho)
        assert_allclose(linalg.partial_trace(pur.mat, (2, 2), "a"), rho.mat, atol=1e-12)
        assert_allclose(linalg.partial_trace(pur.mat, (2, 2), "b"), rho.mat.T, atol=1e-12)

    def test_rank_one_and_transposed_marginal(self, rng):
        rho = rand_state(rng, 3)
        pur = canonical_purification(rho)
        w = np.linalg.eigvalsh(pur.mat)
        assert w[-2] <= 1e-10
        assert_allclose(linalg.partial_trace(pur.mat, (3, 3), "a"), rho.mat, atol=1e-12)
        assert_allclose(linalg.partial_trace(pur.mat, (3, 3), "b"), rho.mat.T, atol=1e-12)


class TestChannels:
    def test_identity_apply(self, rng):
        rho = rand_state(rng, 3)
        out = apply_channel(identity_channel(3), rho)
        assert_allclose(out.mat, rho.mat, atol=1e-14)

    def test_fully_depolarising(self, rng):
        out = apply_channel(depolarising_channel(2, 1.0), rand_state(rng, 2))
        assert_allclose(out.mat, np.eye(2) / 2, atol=1e-12)

    def test_depolarising_action(self):
        out = apply_channel(depolarising_channel(2, 0.15),
                            DensityMatrix(np.diag([1.0, 0.0]).astype(complex)))
        assert_allclose(out.mat, np.diag([0.925, 0.075]), atol=1e-12)

    def test_depolarising_choi_spectrum(self):
        choi = depolarising_channel(2, 0.15).choi
        assert_allclose(np.linalg.eigvalsh(choi), [0.075, 0.075, 0.075, 1.775], atol=1e-12)

    def test_depolarising_validates_p(self):
        with pytest.raises(ValueError):
            depolarising_channel(2, 1.5)

    def test_identity_choi(self):
        assert_allclose(depolarising_channel(2, 0.0).choi, max_entangled_op(2), atol=1e-12)

    def test_constant_choi(self, rng):
        sigma = rand_state(rng, 2)
        chan = constant_channel(sigma, 2)
        assert_allclose(chan.choi, np.kron(np.eye(2), sigma.mat), atol=1e-12)

    def test_choi_marginal_is_identity(self, rng):
        for _ in range(5):
            chan = rand_channel(rng, int(rng.integers(2, 4)), int(rng.integers(2, 4)))
            marg = linalg.partial_trace(chan.choi, (chan.dim_in, chan.dim_out), "b")
            assert_allclose(marg, np.eye(chan.dim_in), atol=1e-10)
            assert np.trace(chan.choi) == pytest.approx(chan.dim_in)

    def test_rejects_non_trace_preserving(self):
        with pytest.raises(ValueError, match="trace preserving"):
            quantum.QuantumChannel([np.eye(2) * 0.9])

    def test_apply_to_second_factor(self, rng):
        chan = depolarising_channel(2, 0.15)
        pur = canonical_purification(maximally_mixed(2))
        iso = apply_channel_second(chan, pur.mat, 2)
        expected = 0.85 * max_entangled_op(2) / 2 + 0.15 * np.eye(4) / 4
        assert_allclose(iso, expected, atol=1e-12)
        ident = apply_channel_second(identity_channel(2), pur.mat, 2)
        assert_allclose(ident, pur.mat, atol=1e-14)

    def test_first_factor_dimension_is_inferred(self, rng):
        chan = rand_channel(rng, 2, 3, 2)
        x = rand_state(rng, 6).mat
        assert_allclose(apply_channel_second(chan, x), apply_channel_second(chan, x, 3),
                        atol=1e-14)
        with pytest.raises(ValueError, match="not divisible"):
            apply_channel_second(chan, rand_state(rng, 5).mat)

    def test_choi_roundtrip(self, rng):
        chan = rand_channel(rng, 3, 2, 3)
        back = channel_from_choi(chan.choi, 3, 2)
        assert_allclose(back.choi, chan.choi, atol=1e-10)


class TestTensorPower:
    def test_single_use(self):
        chan = depolarising_channel(2, 0.15)
        assert_allclose(tensor_power(chan, 1).choi, chan.choi, atol=1e-14)

    def test_identity_square(self):
        out = tensor_power(identity_channel(2), 2)
        assert out.dim_in == 4
        assert_allclose(out.choi, apply_channel_second(out, max_entangled_op(4), 4), atol=1e-12)

    def test_choi_spectrum_of_square(self):
        chan = depolarising_channel(2, 0.15)
        single = np.linalg.eigvalsh(chan.choi)
        double = np.linalg.eigvalsh(tensor_power(chan, 2).choi)
        expected = np.sort(np.outer(single, single).reshape(-1))
        assert_allclose(double, expected, atol=1e-10)

    def test_size_cap(self):
        with pytest.raises(ValueError, match="cap"):
            tensor_power(identity_channel(4), 6)

    @pytest.mark.parametrize("chan,n", [
        (identity_channel(2), 7),  # a 4 GiB Choi matrix
        (depolarising_channel(2, 0.15), 8)])  # 65,536 Kraus operators, 64 GiB
    def test_oversized_power_is_rejected_before_allocating(self, chan, n):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="cap"):
                tensor_power(chan, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


class TestEntropy:
    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_maximally_mixed(self, d):
        assert von_neumann_entropy(maximally_mixed(d)) == pytest.approx(np.log2(d))

    def test_pure_state(self, rng):
        assert von_neumann_entropy(rand_pure(rng, 4)) == pytest.approx(0.0, abs=1e-9)

    def test_isotropic_value(self):
        chan = depolarising_channel(2, 0.15)
        iso = DensityMatrix(apply_channel_second(
            chan, canonical_purification(maximally_mixed(2)).mat, 2))
        assert von_neumann_entropy(iso) == pytest.approx(ISOTROPIC_ENTROPY, abs=1e-12)


class TestMutualInformation:
    def test_identity(self):
        for d in (2, 3):
            got = mutual_information(identity_channel(d), maximally_mixed(d))
            assert got == pytest.approx(2 * np.log2(d), abs=1e-9)

    def test_fully_depolarising(self, rng):
        assert mutual_information(depolarising_channel(3, 1.0), rand_state(rng, 3)) == \
            pytest.approx(0.0, abs=1e-9)

    def test_depolarising_capacity_value(self):
        got = mutual_information(depolarising_channel(2, 0.15), maximally_mixed(2))
        assert got == pytest.approx(1.31428, abs=1e-5)

    def test_additive_on_products(self, rng):
        for _ in range(3):
            e1 = rand_channel(rng, 2, 2, 2)
            e2 = rand_channel(rng, 2, 3, 2)
            r1, r2 = rand_state(rng, 2), rand_state(rng, 2)
            joint = mutual_information(tensor_channels(e1, e2),
                                       DensityMatrix(np.kron(r1.mat, r2.mat)))
            split = mutual_information(e1, r1) + mutual_information(e2, r2)
            assert joint == pytest.approx(split, abs=1e-8)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            mutual_information(identity_channel(2), maximally_mixed(3))


def _basis_code(d: int) -> Code:
    states = [DensityMatrix(np.diag([1.0 if i == w else 0.0 for i in range(d)]).astype(complex))
              for w in range(d)]
    return Code(states, [s.mat.copy() for s in states])


class TestCodeToTest:
    def test_single_message_always_succeeds(self, rng):
        code = Code([rand_state(rng, 2)], [np.eye(2, dtype=complex)])
        rho = code.average_input()
        test = code_to_test(code, rho)
        for _ in range(4):
            chan = rand_channel(rng, 2, 2, int(rng.integers(1, 4)))
            joint = apply_channel_second(chan, canonical_purification(rho).mat, 2)
            assert np.trace(test @ joint).real == pytest.approx(1.0, abs=1e-10)

    def test_basis_code_identity_channel(self):
        code = _basis_code(2)
        rho = code.average_input()
        test = code_to_test(code, rho)
        expected = np.zeros((4, 4), dtype=complex)
        for w in range(2):
            unit = np.zeros((2, 2), dtype=complex)
            unit[w, w] = 1.0
            expected += np.kron(unit, unit)
        assert_allclose(test, expected, atol=1e-10)
        assert code.success_probability(identity_channel(2)) == pytest.approx(1.0)

    def test_reproduces_success_probability(self, rng):
        for m in (2, 3):
            states = [rand_state(rng, 2) for _ in range(m)]
            code = Code(states, rand_povm(rng, 2, m))
            rho = code.average_input()
            test = code_to_test(code, rho)
            pur = canonical_purification(rho).mat
            for _ in range(5):
                chan = rand_channel(rng, 2, 2, int(rng.integers(1, 4)))
                joint = apply_channel_second(chan, pur, 2)
                direct = code.success_probability(chan)
                assert np.trace(test @ joint).real == pytest.approx(direct, abs=1e-10)

    def test_alice_side_completable_to_povm(self, rng):
        states = [rand_state(rng, 2) for _ in range(3)]
        code = Code(states, rand_povm(rng, 2, 3))
        rho = code.average_input()
        ref_inv_root = linalg.herm_inv_sqrt(rho.mat.T)
        total = sum(ref_inv_root @ s.mat.T @ ref_inv_root / 3 for s in states)
        assert np.linalg.eigvalsh(total).max() <= 1 + 1e-10

    def test_average_state_mismatch(self, rng):
        code = Code([rand_state(rng, 2) for _ in range(2)], rand_povm(rng, 2, 2))
        with pytest.raises(ValueError, match="average"):
            code_to_test(code, rand_state(rng, 2))

    def test_povm_validation(self, rng):
        with pytest.raises(ValueError, match="POVM"):
            Code([rand_state(rng, 2) for _ in range(2)],
                 [np.eye(2, dtype=complex), np.eye(2, dtype=complex)])
