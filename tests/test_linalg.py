import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from qconv import linalg
from qconv.quantum import max_entangled_op

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)


def _rand_complex(rng, rows, cols):
    return rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))


def _rand_hermitian(rng, d):
    g = _rand_complex(rng, d, d)
    return (g + g.conj().T) / 2


class TestKron:
    def test_identity(self):
        assert_allclose(linalg.kron(np.eye(2), np.eye(2)), np.eye(4))

    def test_basis_projectors(self):
        p0 = np.diag([1.0, 0.0]).astype(complex)
        p1 = np.diag([0.0, 1.0]).astype(complex)
        out = linalg.kron(p0, p1)
        expected = np.zeros((4, 4))
        expected[1, 1] = 1.0
        assert_allclose(out, expected)

    def test_pauli_spectrum(self):
        w = np.linalg.eigvalsh(linalg.kron(PAULI_X, PAULI_X))
        assert_allclose(w, [-1, -1, 1, 1], atol=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10**6), st.integers(1, 4), st.integers(1, 4))
    def test_trace_multiplicative(self, seed, da, db):
        rng = np.random.default_rng(seed)
        a = _rand_complex(rng, da, da)
        b = _rand_complex(rng, db, db)
        assert np.trace(linalg.kron(a, b)) == pytest.approx(np.trace(a) * np.trace(b))


class TestPartialTrace:
    def test_max_entangled_marginal(self):
        phi = max_entangled_op(2)
        assert_allclose(linalg.partial_trace(phi, (2, 2), "b"), np.eye(2), atol=1e-14)
        assert_allclose(linalg.partial_trace(phi, (2, 2), "a"), np.eye(2), atol=1e-14)

    def test_product_case(self, rng):
        rho = _rand_hermitian(rng, 3)
        sigma = _rand_hermitian(rng, 2)
        out = linalg.partial_trace(np.kron(rho, sigma), (3, 2), "b")
        assert_allclose(out, rho * np.trace(sigma), atol=1e-12)

    def test_trace_preserved(self, rng):
        x = _rand_hermitian(rng, 6)
        for part in ("a", "b"):
            out = linalg.partial_trace(x, (2, 3), part)
            assert np.trace(out) == pytest.approx(np.trace(x).real)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            linalg.partial_trace(np.eye(6), (2, 2), "b")
        with pytest.raises(ValueError):
            linalg.partial_trace(np.eye(4), (2, 2), "c")


class TestPartialTranspose:
    def test_product_case(self, rng):
        rho = _rand_hermitian(rng, 2)
        sigma = _rand_hermitian(rng, 3)
        out = linalg.partial_transpose(np.kron(rho, sigma), (2, 3), "b")
        assert_allclose(out, np.kron(rho, sigma.T), atol=1e-12)

    def test_max_entangled_swap(self):
        out = linalg.partial_transpose(max_entangled_op(2) / 2, (2, 2), "b")
        swap = np.zeros((4, 4))
        for i in range(2):
            for j in range(2):
                swap[i * 2 + j, j * 2 + i] = 1.0
        assert_allclose(out, swap / 2, atol=1e-14)
        assert_allclose(np.linalg.eigvalsh(out), [-0.5, 0.5, 0.5, 0.5], atol=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10**6), st.integers(1, 3), st.integers(1, 3))
    def test_involution_trace_hermiticity(self, seed, da, db):
        rng = np.random.default_rng(seed)
        x = _rand_hermitian(rng, da * db)
        out = linalg.partial_transpose(x, (da, db), "b")
        assert np.abs(out - out.conj().T).max() < 1e-12
        assert np.trace(out) == pytest.approx(np.trace(x).real)
        again = linalg.partial_transpose(out, (da, db), "b")
        assert_allclose(again, x, atol=1e-14)

    def test_first_factor(self, rng):
        x = _rand_complex(rng, 6, 6)
        out = linalg.partial_transpose(x, (2, 3), "a")
        assert_allclose(linalg.partial_transpose(out, (2, 3), "b"), x.T, atol=1e-14)
        assert_allclose(linalg.partial_transpose(out, (2, 3), "a"), x, atol=1e-14)


class TestEigh:
    def test_diagonal(self):
        w, _ = linalg.eigh(np.diag([3.0, 1.0, 2.0]).astype(complex))
        assert_allclose(w, [1, 2, 3])

    def test_pauli(self):
        w, _ = linalg.eigh(PAULI_X)
        assert_allclose(w, [-1, 1], atol=1e-14)

    def test_reconstruction(self, rng):
        x = _rand_hermitian(rng, 12)
        w, v = linalg.eigh(x)
        assert np.abs((v * w) @ v.conj().T - x).max() < 1e-10
        assert np.abs(v @ v.conj().T - np.eye(12)).max() < 1e-10

    def test_psd_floor(self, rng):
        g = _rand_complex(rng, 6, 6)
        w, _ = linalg.eigh(g @ g.conj().T)
        assert w.min() >= -1e-10 * w.max()

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            linalg.eigh(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestHermitianValidation:
    def test_symmetrizes_roundoff(self, rng):
        x = _rand_hermitian(rng, 4)
        noisy = x + 1e-14 * _rand_complex(rng, 4, 4)
        out = linalg.require_hermitian(noisy)
        assert np.abs(out - out.conj().T).max() == 0.0

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            linalg.require_matrix(np.array([[np.nan, 0], [0, 0]]))

    def test_pseudo_inverse_sqrt_on_support(self):
        rho = np.diag([0.5, 0.5, 0.0]).astype(complex)
        inv_root = linalg.herm_inv_sqrt(rho)
        assert_allclose(inv_root, np.diag([np.sqrt(2), np.sqrt(2), 0.0]), atol=1e-12)
