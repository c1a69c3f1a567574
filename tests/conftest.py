# qconv first: it sets its one-thread OpenBLAS default before numpy loads,
# so the tests run the numerics as every qconv process does
import qconv  # noqa: F401  isort: skip

import numpy as np
import pytest

from qconv import quantum, sdp


@pytest.fixture
def rng():
    return np.random.default_rng(20130215)


def rand_state(rng, d: int) -> quantum.DensityMatrix:
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = g @ g.conj().T
    return quantum.DensityMatrix(m / np.trace(m).real)


def rand_pure(rng, d: int) -> quantum.DensityMatrix:
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    v /= np.linalg.norm(v)
    return quantum.DensityMatrix(np.outer(v, v.conj()))


def rand_unitary(rng, d: int) -> np.ndarray:
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def rand_channel(rng, d_in: int, d_out: int, kraus_count: int = 2) -> quantum.QuantumChannel:
    kraus_count = max(kraus_count, -(-d_in // d_out))
    g = rng.normal(size=(d_out * kraus_count, d_in)) + 1j * rng.normal(size=(d_out * kraus_count, d_in))
    q, _ = np.linalg.qr(g)
    return quantum.QuantumChannel([q[i * d_out:(i + 1) * d_out, :] for i in range(kraus_count)])


def rand_real_channel(rng, d_in: int, d_out: int, kraus_count: int = 2) -> quantum.QuantumChannel:
    """A random channel with real Kraus operators, so a real Choi matrix."""
    kraus_count = max(kraus_count, -(-d_in // d_out))
    q, _ = np.linalg.qr(rng.normal(size=(d_out * kraus_count, d_in)))
    return quantum.QuantumChannel([q[i * d_out:(i + 1) * d_out, :] for i in range(kraus_count)])


# the qubit depolarising channel at p = 0.15 by its Pauli Kraus operators,
# sqrt(1 - 3p/4) I and sqrt(p/4) X, Y, Z
PAULI_KRAUS = [np.sqrt(0.8875) * np.eye(2)] + [np.sqrt(0.0375) * np.array(m) for m in (
    [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]])]


def sixty_four_kraus_depol() -> quantum.QuantumChannel:
    """The same channel as 64 Kraus operators sum_k V[j, k] K_k, for a fixed
    real 64 x 4 isometry V and the Pauli operators K_k."""
    v, _ = np.linalg.qr(np.random.default_rng(64).normal(size=(64, 4)))
    return quantum.QuantumChannel([sum(c * k for c, k in zip(row, PAULI_KRAUS)) for row in v])


def rand_povm(rng, d: int, m: int) -> list[np.ndarray]:
    parts = []
    for _ in range(m):
        g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        parts.append(g @ g.conj().T + 0.05 * np.eye(d))
    total = sum(parts)
    w, v = np.linalg.eigh(total)
    inv_root = (v * w**-0.5) @ v.conj().T
    return [inv_root @ p @ inv_root for p in parts]


def rand_classical_channel(rng, n_in: int, n_out: int):
    """Column-stochastic matrix and the quantum channel with diagonal Kraus structure."""
    w = rng.random((n_out, n_in)) + 0.1
    w /= w.sum(axis=0, keepdims=True)
    kraus = []
    for a in range(n_in):
        for b in range(n_out):
            m = np.zeros((n_out, n_in), dtype=complex)
            m[b, a] = np.sqrt(w[b, a])
            kraus.append(m)
    return w, quantum.QuantumChannel(kraus)


def operator_equality(prob: sdp.SdpProblem, terms: dict, rhs: np.ndarray) -> None:
    """The rows of sum_k L_k(X_k) = rhs: one per element H of the full Hermitian
    basis, with coefficients L_k†(H) and right-hand side <H, rhs>."""
    for h in sdp.hermitian_basis(len(rhs)):
        prob.add_constraint({k: adj(h) for k, adj in terms.items()},
                            float(np.real(np.sum(h.conj() * rhs))))
