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
MAX_TENSOR_BYTES = 2**30  # the Choi matrix that tensor_power may build


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
    """Completely positive trace-preserving map, held as its Choi operator ``choi``,
    J = (id ⊗ E)(Φ) on (reference ⊗ output), complex128; from Kraus operators K_k,
    J = Σ_k vec(K_k) vec(K_k)† in Kraus order, with vec(K) = Σ_i |i> ⊗ K|i>. No
    Kraus list is kept: every function of this module reads the channel through J."""

    __slots__ = ("dim_in", "dim_out", "choi")

    def __init__(self, kraus: list[np.ndarray], atol: float = STATE_ATOL):
        kraus = [linalg.require_matrix(np.asarray(m, dtype=complex)) for m in kraus]
        if not kraus:
            raise ValueError("need at least one Kraus operator")
        dim_out, dim_in = kraus[0].shape
        if any(m.shape != (dim_out, dim_in) for m in kraus):
            raise ValueError("Kraus operators must share a common shape")
        choi = _gram([m.T.reshape(-1) for m in kraus], dim_in * dim_out)
        _channel(choi, dim_in, dim_out, atol, self)

    def __repr__(self) -> str:
        return f"QuantumChannel({self.dim_in}->{self.dim_out})"

    def apply_mat(self, x: np.ndarray) -> np.ndarray:
        """E(x), for x on the input space."""
        return apply_channel_second(self, x, 1)


def _gram(vectors: list[np.ndarray], dim: int) -> np.ndarray:
    """Σ_k v_k v_k† over ``vectors`` of C^dim in order, complex."""
    out = np.zeros((dim, dim), dtype=complex)
    for v in vectors:
        out += np.outer(v, v.conj())
    return out


def _channel(choi: np.ndarray, dim_in: int, dim_out: int, atol: float | None = None,
             chan: QuantumChannel | None = None) -> QuantumChannel:
    """``chan``, or a new channel, holding ``choi``; with ``atol``, checked trace preserving."""
    if atol is not None:
        dev = np.abs(linalg.partial_trace(choi, (dim_in, dim_out), "b") - np.eye(dim_in)).max()
        if dev > atol:
            raise ValueError(f"channel is not trace preserving: ||Tr_out J - I|| = {dev:.3e}")
    chan = QuantumChannel.__new__(QuantumChannel) if chan is None else chan
    chan.dim_in, chan.dim_out, chan.choi = dim_in, dim_out, choi
    return chan


def channel_from_choi(choi: np.ndarray, dim_in: int, dim_out: int,
                      atol: float = STATE_ATOL) -> QuantumChannel:
    """The channel with a given PSD Choi operator. It holds the sum of w v v†
    over the eigenpairs above the PSD tolerance, checked to be trace
    preserving and to match the input."""
    choi = linalg.require_hermitian(choi)
    if choi.shape != (dim_in * dim_out, dim_in * dim_out):
        raise ValueError(f"Choi shape {choi.shape} does not match dims {dim_in}x{dim_out}")
    w, v = np.linalg.eigh(choi)
    wmax = max(w.max(), 0.0)
    if w.min() < -max(atol, 1e-12 * wmax):
        raise ValueError(f"Choi operator is not PSD: min eigenvalue {w.min():.3e}")
    kept = [np.sqrt(w[k]) * v[:, k] for k in range(len(w)) if w[k] > max(atol, 1e-14 * wmax)]
    chan = _channel(_gram(kept, len(w)), dim_in, dim_out, atol)
    dev = np.abs(chan.choi - choi).max()
    if dev > max(atol, 1e-10 * (1 + wmax)):
        raise ValueError(f"Choi reconstruction mismatch {dev:.3e}")
    return chan


def identity_channel(d: int) -> QuantumChannel:
    return _channel(max_entangled_op(d), d, d)


def apply_channel(channel: QuantumChannel, rho: DensityMatrix) -> DensityMatrix:
    """Apply a channel to a state."""
    return DensityMatrix(linalg.hermitian_part(channel.apply_mat(rho.mat)))


def apply_channel_second(channel: QuantumChannel, x: np.ndarray,
                         dim_first: int | None = None) -> np.ndarray:
    """Apply a channel to the second factor of a bipartite operator through its
    Choi matrix, (id ⊗ E)(X)_(a,o),(b,p) = Σ_ij X_(a,i),(b,j) J_(i,o),(j,p); the
    first factor's dimension is inferred from the operator unless given."""
    x = linalg.require_matrix(x)
    dim_in, dim_out = channel.dim_in, channel.dim_out
    if dim_first is None:
        if x.shape[0] % dim_in != 0:
            raise ValueError(f"operator dim {x.shape[0]} not divisible by channel input {dim_in}")
        dim_first = x.shape[0] // dim_in
    if x.shape[0] != dim_first * dim_in:
        raise ValueError(f"operator dim {x.shape[0]} != {dim_first}*{dim_in}")
    out = np.einsum("aibj,iojp->aobp", x.reshape(dim_first, dim_in, dim_first, dim_in),
                    channel.choi.reshape(dim_in, dim_out, dim_in, dim_out), optimize=True)
    return out.reshape(dim_first * dim_out, dim_first * dim_out)


def depolarising_channel(d: int, p: float) -> QuantumChannel:
    """Depolarising channel τ ↦ (1-p) τ + p Tr(τ) I/d: Choi matrix (1 - p) Φ + (p/d) I ⊗ I."""
    if d < 2:
        raise ValueError("dimension must be >= 2")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"depolarising parameter must be in [0, 1], got {p}")
    return _channel((1.0 - p) * max_entangled_op(d) + (p / d) * np.eye(d * d), d, d)


def constant_channel(sigma: DensityMatrix, dim_in: int) -> QuantumChannel:
    """Channel whose output is ``sigma`` regardless of the input: Choi matrix I ⊗ sigma."""
    return _channel(np.kron(np.eye(dim_in), sigma.mat), dim_in, sigma.dim)


def tensor_channels(e1: QuantumChannel, e2: QuantumChannel) -> QuantumChannel:
    """Parallel composition E1 ⊗ E2: its Choi matrix is J1 ⊗ J2, each entry one
    product, with the factors reordered to (ref 1, ref 2) ⊗ (out 1, out 2)."""
    (a, b), (c, d) = (e1.dim_in, e1.dim_out), (e2.dim_in, e2.dim_out)
    choi = np.empty((a * c * b * d,) * 2, dtype=complex)
    view = choi.reshape(a, c, b, d, a, c, b, d).transpose(0, 2, 4, 6, 1, 3, 5, 7)
    np.multiply.outer(e1.choi.reshape(a, b, a, b), e2.choi.reshape(c, d, c, d), out=view)
    return _channel(choi, a * c, b * d)


def tensor_power(channel: QuantumChannel, n: int) -> QuantumChannel:
    """n-fold parallel composition of a channel with itself, by repeated squaring with
    ``tensor_channels`` (J ⊗ J at n = 2, (J ⊗ J) ⊗ J at n = 3, 2 log2 n products at
    most). Its (d_in·d_out)^n-square complex Choi matrix is checked against
    ``MAX_TENSOR_BYTES`` before anything is built (``ValueError``)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    # D = d_in d_out >= 2 is over the cap by log2(cap) uses: D^2n is not formed past them
    uses = min(n, MAX_TENSOR_BYTES.bit_length())
    if 16 * (channel.dim_in * channel.dim_out) ** (2 * uses) > MAX_TENSOR_BYTES:
        raise ValueError(f"the Choi matrix of {n} uses is over the {MAX_TENSOR_BYTES}-byte cap")
    if n == 1:
        return channel
    half = tensor_power(channel, n // 2)
    square = tensor_channels(half, half)
    return tensor_channels(square, channel) if n % 2 else square


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
        return sum(float(np.trace(effect @ channel.apply_mat(state.mat)).real)
                   for state, effect in zip(self.input_states, self.decoder_povm)) / self.size


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
