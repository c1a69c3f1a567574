"""States, channels, purifications, entropies, and the code-to-test construction.

Bipartite operators follow the (reference, system) ordering: the first tensor
factor is a reference copy of the channel input system, the second factor is
the channel input (before) or output (after). The reference marginal of a
canonical purification of ``rho`` is ``rho.T`` in the computational basis.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import linalg

STATE_ATOL = 1e-10
MAX_TENSOR_BYTES = 2**30  # Kraus operators plus Choi matrix that tensor_power may build


class DensityMatrix:
    """Positive semidefinite, unit-trace Hermitian operator, held as complex128."""

    __slots__ = ("mat", "dim")

    def __init__(self, mat: np.ndarray, atol: float = STATE_ATOL):
        mat = linalg.require_hermitian(np.asarray(mat, dtype=complex))
        w = np.linalg.eigvalsh(mat)
        if w.min() < -atol:
            raise ValueError(f"state has negative eigenvalue {w.min():.3e}")
        tr = float(np.trace(mat).real)
        if abs(tr - 1.0) > atol:
            raise ValueError(f"state trace {tr} deviates from 1 by more than {atol}")
        self.mat = mat
        self.dim = mat.shape[0]

    def __repr__(self) -> str:
        return f"DensityMatrix(dim={self.dim})"


def maximally_mixed(d: int) -> DensityMatrix:
    """The state I/d."""
    return DensityMatrix(np.eye(d, dtype=complex) / d)


def max_entangled_op(d: int) -> np.ndarray:
    """Unnormalized maximally entangled operator on a d*d bipartite space.

    Rank one with trace d; dividing by d gives a pure state. Its partial
    trace over either factor is the identity on the other.
    """
    if d < 1:
        raise ValueError("dimension must be >= 1")
    v = np.zeros(d * d, dtype=complex)
    v[:: d + 1] = 1.0
    return np.outer(v, v)


def canonical_purification(rho: DensityMatrix) -> DensityMatrix:
    """Purify ``rho`` against a reference copy: (I ⊗ √ρ) Φ (I ⊗ √ρ).

    The result is pure, its second marginal is ``rho`` and its first
    (reference) marginal is ``rho.T``.
    """
    d = rho.dim
    root = linalg.herm_sqrt(rho.mat)
    side = np.kron(np.eye(d, dtype=complex), root)
    return DensityMatrix(linalg.hermitian_part(side @ max_entangled_op(d) @ side))


class QuantumChannel:
    """Completely positive trace-preserving map in Kraus form, held as complex128.

    The Choi operator ``(id ⊗ E)(Φ)`` on (reference ⊗ output) is computed
    once at construction and cached.
    """

    __slots__ = ("dim_in", "dim_out", "kraus", "choi")

    def __init__(self, kraus: list[np.ndarray], atol: float = STATE_ATOL):
        kraus = [linalg.require_matrix(np.asarray(m, dtype=complex)) for m in kraus]
        if not kraus:
            raise ValueError("need at least one Kraus operator")
        dim_out, dim_in = kraus[0].shape
        if any(m.shape != (dim_out, dim_in) for m in kraus):
            raise ValueError("Kraus operators must share a common shape")
        total = sum(m.conj().T @ m for m in kraus)
        dev = np.abs(total - np.eye(dim_in)).max()
        if dev > atol:
            raise ValueError(f"channel is not trace preserving: ||sum M†M - I|| = {dev:.3e}")
        self.dim_in = dim_in
        self.dim_out = dim_out
        self.kraus = kraus
        self.choi = apply_channel_second(kraus, max_entangled_op(dim_in), dim_in)

    def __repr__(self) -> str:
        return f"QuantumChannel({self.dim_in}->{self.dim_out}, {len(self.kraus)} Kraus)"

    def apply_mat(self, x: np.ndarray) -> np.ndarray:
        x = linalg.require_matrix(x)
        if x.shape != (self.dim_in, self.dim_in):
            raise ValueError(f"input dim {x.shape[0]} != channel input dim {self.dim_in}")
        return sum(m @ x @ m.conj().T for m in self.kraus)


def channel_from_choi(choi: np.ndarray, dim_in: int, dim_out: int,
                      atol: float = STATE_ATOL) -> QuantumChannel:
    """Reconstruct a Kraus representation from a Choi operator.

    Eigenvectors of the Choi operator with eigenvalue above the PSD
    tolerance become Kraus operators; the reconstructed channel's Choi
    operator is checked against the input.
    """
    choi = linalg.require_hermitian(choi)
    if choi.shape != (dim_in * dim_out, dim_in * dim_out):
        raise ValueError(f"Choi shape {choi.shape} does not match dims {dim_in}x{dim_out}")
    w, v = np.linalg.eigh(choi)
    wmax = max(w.max(), 0.0)
    if w.min() < -max(atol, 1e-12 * wmax):
        raise ValueError(f"Choi operator is not PSD: min eigenvalue {w.min():.3e}")
    kraus = []
    for k in range(len(w)):
        if w[k] > max(atol, 1e-14 * wmax):
            # column vector on (ref ⊗ out) reshapes to a (ref, out) matrix;
            # the Kraus operator is its transpose scaled by sqrt(eigenvalue)
            kraus.append(np.sqrt(w[k]) * v[:, k].reshape(dim_in, dim_out).T)
    chan = QuantumChannel(kraus, atol=atol)
    dev = np.abs(chan.choi - choi).max()
    if dev > max(atol, 1e-10 * (1 + wmax)):
        raise ValueError(f"Choi reconstruction mismatch {dev:.3e}")
    return chan


def identity_channel(d: int) -> QuantumChannel:
    return QuantumChannel([np.eye(d, dtype=complex)])


def apply_channel(channel: QuantumChannel, rho: DensityMatrix) -> DensityMatrix:
    """Apply a channel to a state."""
    return DensityMatrix(linalg.hermitian_part(channel.apply_mat(rho.mat)))


def apply_channel_second(channel, x: np.ndarray, dim_first: int | None = None) -> np.ndarray:
    """Apply a channel to the second factor of a bipartite operator.

    ``channel`` may be a QuantumChannel or a raw Kraus list. The first
    factor's dimension is inferred from the operator unless given.
    """
    kraus = channel.kraus if isinstance(channel, QuantumChannel) else channel
    x = linalg.require_matrix(x)
    dim_out, dim_in = kraus[0].shape
    if dim_first is None:
        if x.shape[0] % dim_in != 0:
            raise ValueError(f"operator dim {x.shape[0]} not divisible by channel input {dim_in}")
        dim_first = x.shape[0] // dim_in
    if x.shape[0] != dim_first * dim_in:
        raise ValueError(f"operator dim {x.shape[0]} != {dim_first}*{dim_in}")
    t = x.reshape(dim_first, dim_in, dim_first, dim_in)
    out = np.zeros((dim_first, dim_out, dim_first, dim_out), dtype=complex)
    for m in kraus:
        out += np.einsum("oi,aibj,pj->aobp", m, t, m.conj(), optimize=True)
    return out.reshape(dim_first * dim_out, dim_first * dim_out)


def depolarising_channel(d: int, p: float) -> QuantumChannel:
    """Depolarising channel: τ ↦ (1-p) τ + p Tr(τ) I/d.

    Kraus set: sqrt(1 - p + p/d²) · I plus the d²-1 non-identity
    Heisenberg-Weyl unitaries weighted by sqrt(p/d²).
    """
    if d < 2:
        raise ValueError("dimension must be >= 2")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"depolarising parameter must be in [0, 1], got {p}")
    omega = np.exp(2j * np.pi / d)
    shift = np.roll(np.eye(d, dtype=complex), 1, axis=0)
    clock = np.diag(omega ** np.arange(d))
    kraus = [np.sqrt(1.0 - p + p / d**2) * np.eye(d, dtype=complex)]
    w = np.sqrt(p / d**2)
    if w > 0.0:
        for a in range(d):
            for b in range(d):
                if a == 0 and b == 0:
                    continue
                kraus.append(w * np.linalg.matrix_power(shift, a) @ np.linalg.matrix_power(clock, b))
    return QuantumChannel(kraus)


def constant_channel(sigma: DensityMatrix, dim_in: int) -> QuantumChannel:
    """Channel whose output is ``sigma`` regardless of the input."""
    w, v = np.linalg.eigh(sigma.mat)
    kraus = []
    for k in range(sigma.dim):
        if w[k] > 1e-14:
            col = np.sqrt(w[k]) * v[:, k]
            for i in range(dim_in):
                m = np.zeros((sigma.dim, dim_in), dtype=complex)
                m[:, i] = col
                kraus.append(m)
    return QuantumChannel(kraus)


def tensor_channels(e1: QuantumChannel, e2: QuantumChannel) -> QuantumChannel:
    """Parallel composition E1 ⊗ E2 with Kraus products."""
    kraus = [np.kron(m, n) for m in e1.kraus for n in e2.kraus]
    return QuantumChannel(kraus)


def tensor_power(channel: QuantumChannel, n: int) -> QuantumChannel:
    """n-fold parallel composition of a channel with itself.

    The result holds K^n Kraus operators of d_out^n × d_in^n and a
    (d_in·d_out)^n-square Choi matrix, all complex; when those exceed
    ``MAX_TENSOR_BYTES`` it raises ``ValueError`` before building anything.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    d_in, d_out = channel.dim_in**n, channel.dim_out**n
    size = 16 * (len(channel.kraus)**n * d_out * d_in + (d_in * d_out)**2)
    if size > MAX_TENSOR_BYTES:
        raise ValueError(f"tensor power needs {size} bytes, over the cap {MAX_TENSOR_BYTES}")
    out = channel
    for _ in range(n - 1):
        out = tensor_channels(out, channel)
    return out


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """Entropy -Σ w log₂ w of the spectrum, with 0·log 0 = 0 (bits)."""
    w = np.linalg.eigvalsh(rho.mat)
    w = w[w > 0.0]
    return float(-(w * np.log2(w)).sum()) if w.size else 0.0


def mutual_information(channel: QuantumChannel, rho: DensityMatrix) -> float:
    """Quantum mutual information between reference and output (bits).

    S(ρ) + S(E(ρ)) - S((id ⊗ E) ρ_pur) for the canonical purification,
    clamped to be nonnegative. The joint state is (√ρᵀ ⊗ I) choi (√ρᵀ ⊗ I),
    built from the cached Choi operator.
    """
    if rho.dim != channel.dim_in:
        raise ValueError(f"state dim {rho.dim} != channel input dim {channel.dim_in}")
    side = np.kron(linalg.herm_sqrt(rho.mat).T, np.eye(channel.dim_out))
    joint = DensityMatrix(linalg.hermitian_part(side @ channel.choi @ side))
    value = (von_neumann_entropy(rho)
             + von_neumann_entropy(apply_channel(channel, rho))
             - von_neumann_entropy(joint))
    return max(value, 0.0)


@dataclass
class Code:
    """Unassisted block code: message states on the input, a decoder POVM on the output."""

    input_states: list[DensityMatrix]
    decoder_povm: list[np.ndarray] = field(repr=False)

    def __post_init__(self):
        if len(self.input_states) != len(self.decoder_povm):
            raise ValueError("need one decoder element per message")
        if not self.input_states:
            raise ValueError("code must carry at least one message")
        povm = [linalg.require_hermitian(e) for e in self.decoder_povm]
        for e in povm:
            if np.linalg.eigvalsh(e).min() < -STATE_ATOL:
                raise ValueError("decoder POVM element is not PSD")
        total = sum(povm)
        if np.abs(total - np.eye(total.shape[0])).max() > STATE_ATOL:
            raise ValueError("decoder POVM does not sum to the identity")
        self.decoder_povm = povm

    @property
    def size(self) -> int:
        return len(self.input_states)

    def average_input(self) -> DensityMatrix:
        avg = sum(s.mat for s in self.input_states) / self.size
        return DensityMatrix(linalg.hermitian_part(avg))

    def success_probability(self, channel: QuantumChannel) -> float:
        """Average probability of correct decoding over equiprobable messages."""
        total = 0.0
        for state, effect in zip(self.input_states, self.decoder_povm):
            total += float(np.trace(effect @ channel.apply_mat(state.mat)).real)
        return total / self.size


def code_to_test(code: Code, rho: DensityMatrix, atol: float = STATE_ATOL) -> np.ndarray:
    """Build the bipartite test on (reference ⊗ output) induced by a code.

    The test T satisfies Tr[T (id ⊗ E) ρ_pur] = success probability of the
    code under E with equiprobable messages, for every channel E. Its
    reference-side elements are (1/M) ρ̄^{-1/2} ρ(w)ᵀ ρ̄^{-1/2} with
    ρ̄ = ρᵀ inverted on its support.
    """
    m = code.size
    avg = code.average_input()
    if np.abs(avg.mat - rho.mat).max() > atol:
        raise ValueError("code's average input state does not match rho")
    rho_ref = rho.mat.T
    inv_root = linalg.herm_inv_sqrt(rho_ref)
    test = np.zeros((rho.dim * code.decoder_povm[0].shape[0],) * 2, dtype=complex)
    for state, effect in zip(code.input_states, code.decoder_povm):
        alice = inv_root @ state.mat.T @ inv_root / m
        test += np.kron(alice, effect)
    test = linalg.hermitian_part(test)
    w = np.linalg.eigvalsh(test)
    if w.min() < -atol or w.max() > 1 + atol:
        raise ValueError("constructed test is not a valid POVM element")
    return test
