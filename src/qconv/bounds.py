"""Finite-blocklength converse bounds on classical coding over quantum channels.

The central quantity is the minimal type-II error beta of a bipartite
hypothesis test between the channel acting on half of a canonical
purification of the average input, and a product of the purification's
reference marginal with an arbitrary output state, maximized over that
output state. Its negative log2 upper-bounds log2 M for any code with
average error eps: unrestricted tests bound entanglement-assisted codes,
PPT-preserving tests bound unassisted codes.

Both bounds are evaluated as semidefinite programs in the variable
R = rho_ref^(1/2) T rho_ref^(1/2); the worst-case type-II error of a test
becomes the spectral norm of its reference-side partial trace, which the
program minimizes as an epigraph variable lambda. The program is stated as
linear matrix inequalities in R, lambda and (when optimized) rho_ref, whose
coordinates are the solver's dual variables (Vandenberghe & Boyd,
*Semidefinite programming*, SIAM Review 1996).

The coordinates are taken in a basis chosen by the program's symmetry: a
group that leaves the data invariant has an invariant optimum, so R and
rho_ref may be restricted to the invariant operators (Gatermann & Parrilo,
*Symmetry groups, semidefinite programs, and sums of squares*, JPAA 2004).
The optimized-input bound for n uses takes the operators invariant under
permuting the uses, and the classical converse the diagonal ones. A fixed
input need not be invariant, so programs at a fixed input take every
Hermitian coordinate.

The same symmetry makes every coefficient of the program's blocks
block-diagonal in a fixed frame, so each block is declared with it and
solved as its diagonal sub-blocks (``sdp.Frame``): the Schur-Weyl blocks
of the n-use space (10 and 6 for the 16 x 16 blocks of two uses of a qubit
channel; 20, 20, 20 and 4 at three uses), or 1x1 blocks for the classical
converse (Murota, Kanno, Kojima & Kojima, JJIAM 2010).
"""

from __future__ import annotations

import enum
import functools
import math
import time
from collections.abc import Sequence
from dataclasses import dataclass, field

import mpmath as mp
import numpy as np

from . import linalg, quantum, sdp
from .hypotest import binomial_beta, classical_np_beta, quantum_np_beta
from .quantum import DensityMatrix, QuantumChannel, mutual_information


class TestClass(enum.Enum):
    __test__ = False  # not a pytest collectible

    ALL = "ALL"
    PPT = "PPT"


class SolverFailure(RuntimeError):
    """Raised when the interior-point solve does not reach optimality;
    ``solution`` is what the solver returned."""

    def __init__(self, message: str, solution: sdp.SdpSolution | None = None):
        super().__init__(message)
        self.solution = solution


@dataclass
class BoundResult:
    """A converse bound: beta and bits = -log2(beta).

    ``beta`` is an mpmath float on the exact depolarising path, where it
    underflows float64 for large block lengths.
    """

    bits: float
    beta: float | mp.mpf
    epsilon: float
    test_class: TestClass
    n_uses: int = 1
    optimal_r: np.ndarray | None = None
    optimal_sigma: np.ndarray | None = None
    optimal_rho: np.ndarray | None = None
    diagnostics: dict = field(default_factory=dict)


def _result(beta, eps: float, cls: TestClass, n: int = 1, **extra) -> BoundResult:
    if isinstance(beta, mp.mpf):
        bits = float(-mp.log(beta, 2)) if beta > 0 else float("inf")
    else:
        beta = float(min(max(beta, 1e-300), 1.0))
        bits = float(-np.log2(beta))
    return BoundResult(bits=bits, beta=beta, epsilon=eps, test_class=cls, n_uses=n, **extra)


EPS_MAX = 1.0 - 1e-9  # largest eps an SDP program is solved at


def _clamp_eps(eps: float) -> float:
    """The eps an SDP program is solved at. When it differs from the requested
    eps, ``_ea_bound`` records it as ``diagnostics["eps_solved"]``.

    Interior-point programs need strict feasibility at the endpoints. Raising
    eps below 1e-9 to 1e-9 lowers beta, so the reported bits still bound
    log2 M. Lowering eps above EPS_MAX would raise beta and report fewer bits
    than the converse, so such eps are rejected instead.
    """
    if not 0.0 <= eps <= EPS_MAX:
        raise ValueError(f"eps must be in [0, {EPS_MAX!r}] for an SDP bound, got {eps}")
    return max(eps, 1e-9)


def _ref_state(rho: DensityMatrix) -> np.ndarray:
    """Reference marginal of the canonical purification: the transpose."""
    return rho.mat.T.copy()


def _require_class(cls: TestClass) -> None:
    if not isinstance(cls, TestClass):
        raise TypeError(f"expected a TestClass, got {cls!r}")


def _solve(problem: sdp.SdpProblem) -> sdp.SdpSolution:
    solution = sdp.solve(problem)
    if solution.status != "optimal":
        raise SolverFailure(f"SDP terminated with status {solution.status} after "
                            f"{solution.iterations} iterations (residuals {solution.residuals})",
                            solution)
    return solution


# blocks of the converse program: R >= 0, rho_ref ⊗ I - R >= 0, lambda I - Tr_ref R >= 0
# (its multiplier is the adversary's output state), <choi, R> - (1 - eps) >= 0
_POS, _CAP, _G, _ACC = range(4)


def _ea_problem(dims: tuple[int, int], choi, eps: float, cls: TestClass,
                rho_ref, r_basis: sdp.Basis, rho_basis: sdp.Basis | None = None,
                g_frame: sdp.Frame | None = None) -> sdp.SdpProblem:
    """Assemble the converse program as linear matrix inequalities.

    The unknowns are the solver's dual variables y, in row order: the
    coordinates of R in ``r_basis``, then y = -lambda (the solver
    maximizes b·y = -lambda), then, with ``rho_ref is None``, the
    coordinates of the variable input rho_ref in ``rho_basis``. Each
    inequality is one PSD block of the solver's primal, whose dual slack
    is C_k - sum_i y_i A_ik; no block has rows of its own. ``dims`` are
    the input and output dimensions; ``choi()`` returns the channel's
    Choi matrix and ``rho_ref()``, unless ``rho_ref`` is None, the fixed
    reference state. Every block the R rows touch is declared before any
    row, and the R rows are the first rows, so that a program over
    ``sdp.problem.MAX_PROGRAM_BYTES`` is rejected before either is called
    or any coefficient is built. The 1x1 block lambda >= 0 follows the R
    rows, just before the lambda row, its only row.

    The blocks in R (R >= 0, R <= rho_ref ⊗ I and both PPT blocks) are
    declared with ``r_basis.frame``, the rho_ref block with
    ``rho_basis.frame`` and the adversary's block with ``g_frame``: the
    symmetry that restricts R and rho_ref makes every coefficient on them
    block-diagonal there.

    eps enters only as the objective -(1 - eps) of the ``_ACC`` block, so
    one program serves every eps: ``_ea_bound`` builds it once per (n,
    class) and resets that entry with ``set_objective`` before each solve.
    """
    da, db = dims
    dab = da * db
    choi = functools.cache(choi)  # every R row reads it; built once, with the first row
    ab = r_basis.frame
    prob = sdp.SdpProblem([dab, dab, db, 1], [ab, ab, g_frame, None])  # _POS, _CAP, _G, _ACC
    caps = [_CAP]
    r_terms = {_POS: lambda h: -h,
               _CAP: lambda h: h,
               _G: lambda h: linalg.partial_trace(h, (da, db), "a"),
               _ACC: lambda h: -np.real(np.sum(choi().conj() * h)) * np.eye(1)}
    if cls is TestClass.PPT:
        # R^{T_B} >= 0 and rho_ref ⊗ I - R^{T_B} >= 0 in the same R rows
        ppt, ppt_cap = prob.add_block(dab, ab), prob.add_block(dab, ab)
        caps.append(ppt_cap)
        r_terms[ppt] = lambda h: -linalg.partial_transpose(h, (da, db), "b")
        r_terms[ppt_cap] = lambda h: linalg.partial_transpose(h, (da, db), "b")
    if rho_ref is None:
        # rho_ref >= 0 and 1 - Tr rho_ref >= 0; Tr rho_ref <= 1 has the same
        # optimum as Tr rho_ref = 1, since a larger rho_ref only loosens the caps
        rho, trace = prob.add_block(da, rho_basis.frame), prob.add_block(1)
    prob.add_operator_equality(r_terms, r_basis)
    eye_b = np.eye(db, dtype=complex)
    prob.set_objective(_ACC, [[-(1.0 - eps)]])
    if rho_ref is not None:
        for k in caps:
            prob.set_objective(k, np.kron(rho_ref(), eye_b))
    # the lambda row, y = -lambda, on a 1x1 block lambda >= 0: Tr G <= 1 on the primal side
    prob.add_constraint({_G: eye_b, prob.add_block(1): [[1.0]]}, 1.0)
    if rho_ref is None:
        rho_terms = {k: (lambda g: -np.kron(g, eye_b)) for k in caps}
        rho_terms[rho] = lambda g: -g
        rho_terms[trace] = lambda g: np.real(np.trace(g)) * np.eye(1)
        prob.set_objective(trace, [[1.0]])
        prob.add_operator_equality(rho_terms, rho_basis)
    return prob


def _ea_bound(dims: tuple[int, int], choi, eps_list: list[float], cls: TestClass,
              rho_ref, r_basis: sdp.Basis, rho_basis: sdp.Basis | None = None,
              g_frame: sdp.Frame | None = None, n: int = 1) -> list[BoundResult]:
    """Solve ``_ea_problem`` at each eps of ``eps_list`` and read one bound
    off each solution, in order.

    Every eps is checked (``_clamp_eps``) before anything is built. The
    program is then built once and solved once per eps: eps enters only as
    the ``_ACC`` objective, which is the one datum set anew before each
    solve, so each solve sees the data a program built at its eps would
    hold. ``diagnostics["wall_s"]`` is the wall time from the call, or from
    the previous result, to this one: the first eps carries the build.

    beta = lambda = -(dual objective); R and rho_ref are rebuilt from the
    dual variables in their bases, and the adversary's state is the
    multiplier of the block lambda I - Tr_ref R. The solver's primal value
    is the converse dual's, kept as a diagnostic.
    """
    _require_class(cls)
    solved = [_clamp_eps(eps) for eps in eps_list]
    if not solved:
        raise ValueError("need at least one eps")
    start = time.perf_counter()
    prob = _ea_problem(dims, choi, solved[0], cls, rho_ref, r_basis, rho_basis, g_frame)
    results = []
    for eps, eps_c in zip(eps_list, solved):
        prob.set_objective(_ACC, [[-(1.0 - eps_c)]])
        solution = _solve(prob)
        y = solution.dual_multipliers
        g = linalg.hermitian_part(solution.primal_blocks[_G])
        rho_mat = None
        if rho_ref is None:
            rho_opt = rho_basis.operator(y[len(r_basis) + 1:])
            rho_mat = (rho_opt / np.trace(rho_opt).real).T
        diagnostics = dict(solution.residuals, iterations=solution.iterations,
                           dual_objective=-solution.primal_objective)
        if eps_c != eps:
            diagnostics["eps_solved"] = eps_c
        results.append(_result(-solution.dual_objective, eps, cls, n,
                               optimal_r=r_basis.operator(y[:len(r_basis)]),
                               optimal_sigma=g / np.trace(g).real,
                               optimal_rho=rho_mat, diagnostics=diagnostics))
        now = time.perf_counter()
        diagnostics["wall_s"], start = now - start, now
    return results


def _per_eps(eps, bound):
    """``bound(eps_list)`` on eps as a list: its results for a sequence of eps,
    or the one result for a single eps."""
    single = np.ndim(eps) == 0
    results = bound([eps] if single else list(eps))
    return results[0] if single else results


def ea_bound(channel: QuantumChannel, rho: DensityMatrix | None, eps: float | Sequence[float],
             cls: TestClass = TestClass.ALL, n: int = 1) -> BoundResult | list[BoundResult]:
    """Converse bound for n uses of ``channel`` at a fixed average input
    state ``rho`` of the n uses, or at the maximally mixed one when ``rho``
    is None.

    ``eps`` is one error probability, giving one result, or a sequence,
    giving one result per eps: one program is built and solved once per
    eps (``_ea_bound``), and a single eps is the one-element case.

    Returns bits = -log2(min lambda) where lambda I >= Tr_ref R, subject to
    acceptance probability <choi, R> >= 1-eps on the channel hypothesis and
    0 <= R <= rho_ref ⊗ I. For the PPT class the same two-sided cap is
    imposed on the partial transpose. ``optimal_sigma`` is the multiplier
    of the lambda inequality, normalized: the adversary's output state.

    R ranges over every Hermitian operator: a fixed input need not share
    any symmetry of the channel, and restricting R for an input that does
    not would raise beta and report fewer bits than the converse. The
    n-use channel and the maximally mixed state are built only after the
    R rows are admitted, so an oversized program is rejected before
    ``quantum.tensor_power`` runs.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    da, db = channel.dim_in**n, channel.dim_out**n
    if rho is not None and rho.dim != da:
        raise ValueError(f"state dim {rho.dim} != channel input dim {da}")
    ref = (lambda: np.eye(da, dtype=complex) / da) if rho is None else (lambda: _ref_state(rho))
    return _per_eps(eps, lambda eps_list: _ea_bound(
        (da, db), lambda: quantum.tensor_power(channel, n).choi, eps_list, cls,
        ref, sdp.hermitian_basis(da * db), n=n))


def ea_bound_dual(channel: QuantumChannel, rho: DensityMatrix, eps: float) -> BoundResult:
    """The value of the dual of ``ea_bound``'s fixed-input program (unrestricted
    tests): max (1-eps) mu - <F, rho_ref ⊗ I> subject to I ⊗ G + F >= mu choi,
    Tr G <= 1 and F, G, mu >= 0, over the multipliers of the blocks ``_CAP``
    (F), ``_G`` (G) and ``_ACC`` (mu). One primal-dual solve gives both values:
    beta is ``ea_bound``'s ``diagnostics["dual_objective"]``, and the other way round.
    """
    res = ea_bound(channel, rho, eps)
    return _result(res.diagnostics["dual_objective"], eps, TestClass.ALL,
                   diagnostics=dict(res.diagnostics, dual_objective=res.beta))


def ea_bound_opt_rho(channel: QuantumChannel, eps: float | Sequence[float],
                     cls: TestClass = TestClass.ALL,
                     n: int = 1) -> BoundResult | list[BoundResult]:
    """Converse bound for n uses of ``channel``, maximized over input states.
    ``eps`` is one value or a sequence, as in ``ea_bound``: one program is
    built and solved once per eps.

    Joint program: the reference state becomes a variable with
    rho_ref >= 0 and Tr rho_ref <= 1, the cap R <= rho_ref ⊗ I staying
    linear in the pair. The returned optimal_rho is normalized to unit
    trace and transposed back to the input convention.

    Permuting the n uses leaves the program's data invariant, so R and
    rho_ref range over the permutation-invariant operators
    (``sdp.invariant_basis``) without changing the optimum: 147 rows
    instead of 273 for two uses of a qubit channel. The n-use channel is
    built only after those rows are admitted, so an oversized program is
    rejected before ``quantum.tensor_power`` runs; one whose R rows alone
    are over the limit is rejected before any frame is sized.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    da, db = channel.dim_in, channel.dim_out
    # each of the blocks R >= 0 and R <= rho_ref ⊗ I packs at least one entry per
    # R row (sum f s² >= sum s² = rows), held by every R row and by the solver's
    # copy: 64 rows² bytes at least, checked before sizing frames takes time in n
    rows = math.comb((da * db) ** 2 + n - 1, n)
    sdp.problem.check_program_bytes(64 * rows * rows)
    return _per_eps(eps, lambda eps_list: _ea_bound(
        (da**n, db**n), lambda: quantum.tensor_power(channel, n).choi, eps_list, cls,
        None, sdp.invariant_basis((da, db), n), sdp.invariant_basis((da,), n),
        sdp.invariant_frame((db,), n), n))


def binary_entropy(p: float) -> float:
    """h(p) in bits."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability out of range: {p}")
    total = 0.0
    for q in (p, 1.0 - p):
        if q > 0.0:
            total -= q * np.log2(q)
    return total


def binary_relative_entropy(p: float, q: float) -> float:
    """d(p||q) = p log2(p/q) + (1-p) log2((1-p)/(1-q))."""
    if not (0.0 <= p <= 1.0 and 0.0 < q < 1.0):
        raise ValueError(f"invalid binary distributions p={p}, q={q}")
    total = 0.0
    if p > 0.0:
        total += p * np.log2(p / q)
    if p < 1.0:
        total += (1.0 - p) * np.log2((1.0 - p) / (1.0 - q))
    return total


def fano_bound(channel: QuantumChannel, rho: DensityMatrix, eps: float) -> float:
    """Mutual-information (Fano-type) converse: (I(E, rho) + h(eps)) / (1 - eps)."""
    if not 0.0 <= eps < 1.0:
        raise ValueError(f"eps must be in [0, 1), got {eps}")
    return (mutual_information(channel, rho) + binary_entropy(eps)) / (1.0 - eps)


def depolarising_exact(d: int, p: float, n: int, eps: float) -> BoundResult:
    """Exact optimized bound for n uses of the d-dimensional depolarising channel.

    By the channel's full unitary and permutation covariance the bound
    reduces to a binary i.i.d. hypothesis test with success weights
    mu = (1-p) + p/d² against lam = 1/d², evaluated by the closed-form
    binomial expression. ``binomial_beta`` sums only the terms near the
    test's threshold: O(sqrt(n b)) of them for b = 136 working bits.
    ``diagnostics["wall_s"]`` is the wall time of the call.
    """
    start = time.perf_counter()
    if d < 2 or n < 1:
        raise ValueError("need d >= 2 and n >= 1")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"depolarising parameter must be in [0, 1], got {p}")
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must be in (0, 1), got {eps}")
    mu = (1.0 - p) + p / d**2
    lam = 1.0 / d**2
    tr = binomial_beta(mu, lam, n, eps)
    return _result(tr.beta, eps, TestClass.ALL, n,
                   diagnostics={"mu": mu, "lam": lam, "threshold": tr.threshold,
                                "gamma": tr.gamma, "wall_s": time.perf_counter() - start})


def _embedding_choi(w: np.ndarray) -> np.ndarray:
    """Choi matrix of the diagonal embedding of w: diag(w[b, a]) at index a * nb + b."""
    return np.diag(w.T.reshape(-1)).astype(complex)


def _distribution(v: np.ndarray) -> np.ndarray:
    """A solver's near-distribution with roundoff negatives cut and mass renormalized."""
    v = np.maximum(v, 0.0)
    return v / v.sum()


def classical_converse(w: np.ndarray, eps: float | Sequence[float],
                       p: np.ndarray | None = None) -> BoundResult | list[BoundResult]:
    """Converse for a classical channel given by a column-stochastic matrix.

    -log2 of the minimal type-II error of the classical test between the
    joint input-output distribution and p x q, for the worst output
    distribution q and, when ``p`` is omitted, the input p that maximizes
    the bound. Both are read off the unrestricted program on the channel's
    diagonal embedding, the channel with Kraus operators sqrt(w[b, a]) |b><a|.
    Its data is invariant under diagonal phases on input and output, so R
    and rho_ref range over diagonal operators (``sdp.diagonal_basis``),
    which makes it the linear program of Matthews (IEEE Trans. IT 2012);
    beta is then evaluated by the classical Neyman-Pearson test at the
    requested eps. The program's size is bounded only by
    ``sdp.problem.MAX_PROGRAM_BYTES``.

    ``eps`` is one value or a sequence, as in ``ea_bound``: one program is
    built and solved once per eps, and ``diagnostics["wall_s"]`` adds the
    Neyman-Pearson test to the solve's.

    An optimised input (``diagnostics["input_distribution"]`` and
    ``optimal_rho``) is the interior-point estimate of the program's
    optimum: where that optimum is flat it can move in its 4th digit
    between builds whose beta differs by about 5e-12.
    """
    w = np.asarray(w, dtype=float)
    if w.ndim != 2 or not np.isfinite(w).all() or w.min() < -1e-12:
        raise ValueError("channel matrix must be a finite nonnegative matrix")
    if np.abs(w.sum(axis=0) - 1.0).max() > 1e-10:
        raise ValueError("channel matrix columns must be distributions")
    # cut the roundoff the checks allow, so that the Neyman-Pearson test's
    # 1e-12 sum check sees exact distributions
    w = np.maximum(w, 0.0)
    w = w / w.sum(axis=0)
    return _per_eps(eps, lambda eps_list: _classical_converse(w, eps_list, p))


def _classical_converse(w: np.ndarray, eps_list: list[float],
                        p: np.ndarray | None) -> list[BoundResult]:
    """``classical_converse`` of a checked channel matrix at each eps."""
    nb, na = w.shape
    if p is None:
        results = _ea_bound((na, nb), lambda: _embedding_choi(w), eps_list, TestClass.ALL, None,
                            sdp.diagonal_basis(na * nb), sdp.diagonal_basis(na),
                            sdp.diagonal_frame(nb))
        inputs = [_distribution(np.diag(res.optimal_rho).real) for res in results]
    else:
        p = np.asarray(p, dtype=float)
        if p.shape != (na,) or not np.isfinite(p).all() or p.min() < 0 \
                or abs(p.sum() - 1.0) > 1e-10:
            raise ValueError("p must be a distribution over the input alphabet")
        p = p / p.sum()
        used = p > 0  # unused input symbols would leave the program without an interior
        k = int(used.sum())
        results = _ea_bound((k, nb), lambda: _embedding_choi(w[:, used]), eps_list,
                            TestClass.ALL, lambda: np.diag(p[used]).astype(complex),
                            sdp.diagonal_basis(k * nb), g_frame=sdp.diagonal_frame(nb))
        inputs = [p] * len(results)
    out = []
    for res, p in zip(results, inputs):
        start = time.perf_counter()
        q = _distribution(np.diag(res.optimal_sigma).real)
        joint = (w * p[None, :]).T.reshape(-1)  # index a*nb + b
        beta = classical_np_beta(joint, np.outer(p, q).reshape(-1), res.epsilon).beta
        wall_s = res.diagnostics["wall_s"] + time.perf_counter() - start
        out.append(_result(beta, res.epsilon, TestClass.ALL,
                           optimal_sigma=np.diag(q).astype(complex),
                           optimal_rho=np.diag(p).astype(complex),
                           diagnostics={"input_distribution": p.tolist(), "wall_s": wall_s}))
    return out


def wang_renner_chi(ensemble: list[tuple[float, DensityMatrix]],
                    channel: QuantumChannel, eps: float) -> float:
    """Wang-Renner style bound for a fixed input ensemble (bits).

    Builds the classical-quantum state sum_x p(x) |x><x| ⊗ E(rho_x) and
    tests it against tau_C ⊗ E(rho_avg); no maximization over ensembles
    is performed.
    """
    if not ensemble:
        raise ValueError("ensemble must be non-empty")
    probs = np.array([float(pr) for pr, _ in ensemble])
    if probs.min() < 0 or abs(probs.sum() - 1.0) > 1e-10:
        raise ValueError("ensemble probabilities must form a distribution")
    states = [st for _, st in ensemble]
    if any(st.dim != channel.dim_in for st in states):
        raise ValueError("ensemble states must match the channel input dimension")
    k = len(ensemble)
    db = channel.dim_out
    tau_cb = np.zeros((k * db, k * db), dtype=complex)
    avg = np.zeros((channel.dim_in, channel.dim_in), dtype=complex)
    for x, (pr, st) in enumerate(ensemble):
        tau_cb[x * db:(x + 1) * db, x * db:(x + 1) * db] = pr * channel.apply_mat(st.mat)
        avg += pr * st.mat
    tau_b = channel.apply_mat(avg)
    tau_prod = np.kron(np.diag(probs).astype(complex), tau_b)
    result = quantum_np_beta(DensityMatrix(linalg.hermitian_part(tau_cb)),
                             DensityMatrix(linalg.hermitian_part(tau_prod)), eps)
    beta = max(float(result.beta), 1e-300)
    return float(-np.log2(beta))


def noisy_storage_minentropy(code_rate_bits: float, bound: BoundResult) -> float:
    """Min-entropy guarantee against a bounded noisy quantum storage.

    If the rate pushed through the adversary's storage channel exceeds the
    converse bound, any decoding errs with probability above eps, giving
    H_min >= -log2(1 - eps); otherwise no guarantee (0).
    """
    if code_rate_bits > bound.bits:
        return float(-np.log2(1.0 - bound.epsilon))
    return 0.0
