"""Primal-dual interior-point solver for dense Hermitian-block SDPs.

Path-following with Nesterov-Todd scaling and a Mehrotra predictor-corrector
step, on the standard form that ``SdpProblem`` holds

    min sum_k <C_k, X_k>   s.t.   sum_k <A_ik, X_k> = b_i,   X_k >= 0:

equality rows only, every inequality being one of the declared blocks.

Every block is solved as the diagonal sub-blocks of its frame: its
objective and coefficients are block-diagonal there, so only those
sub-blocks of X_k enter, the pinching of a PSD X_k is PSD, and its dual
slack is PSD exactly when each sub-block is. Every copy of a repeated
sub-block is kept, so the split program has the barrier of the whole
block, and its sub-blocks start where the whole block would; the barrier
degree is the rank of the cone, d for a d x d block however it is split.
So a split solve follows the central path of the unsplit one.

The sub-blocks of one size s are one stack of N members, in the problem's
order; every 1x1 block and 1x1 sub-block is a member of the s = 1 stack.
A stack's objective, iterates, scaling point W and scaling factor G are
(N, s, s) arrays, and every row's coefficients on it are one matrix A of
shape (m, N s²), zero where the row does not touch a member. All of them
take the problem's dtype: complex, or float64 for a program over real
symmetric blocks, which is then solved in real arithmetic throughout
(eigendecompositions, Schur products and the LU alike), by the same code.
So A(X), A*(y), NT scaling, the step length, the corrector, the Newton
directions and the iterate update take one numpy call per stack. numpy
rounds each member of a stacked product or eigendecomposition as it would
the matrix alone.

NT scaling eigendecomposes S and S^(1/2) X S^(1/2) = Q diag(d)² Q^H once
per iteration. G = S^(-1/2) Q diag(d)^(1/2) has G G^H = W, where W S W = X,
and makes the scaled variable diagonal, G^H S G = G^-1 X G^-H = diag(d);
any factor of W gives the same NT direction (Todd, Toh & Tütüncü, SIAM J.
Optim. 1998). So the step lengths are taken on scaled directions, and the
corrector's Lyapunov equation is solved entry by entry.

The Schur matrix M_ij = sum_k Re<A_ik, W_k A_jk W_k> is the sum over the
stacks of Re(A · conj(W A W)ᵀ), taken over slices of each stack's members.
The conjugations the inner products need are taken on the iterates and on
each fresh W A W product, never on a stored copy of A. Each Newton system
(one for the predictor, one for the corrector) is a single dense LU solve
of M, with a least-squares fallback when M is exactly singular.

Each iterate, the final one included, is evaluated once, at the top of
the loop: its objectives and residuals decide whether the solve stops
there and are what it returns. Every converse program is feasible and
bounded, so no divergence certificate is sought. A solve stops short in
one of two ways: its steps collapse ("stalled") or it runs out of
MAX_ITER steps ("iteration-limit").

Every produced iterate is re-symmetrized, so Hermiticity is maintained to
roundoff. The solve is deterministic for identical input data.
"""

from __future__ import annotations

import numpy as np

from .. import linalg
from .problem import SdpProblem, SdpSolution

STEP_FRACTION = 0.98
TOL_GAP = 1e-8  # relative duality gap at which a solve is optimal
TOL_FEAS = 1e-8  # scaled primal and dual residual at which a solve is optimal
MAX_ITER = 200
# bytes of the W A W temporary of one slice of a stack's members in _schur
# (a member alone may exceed it). With whole stacks, the standard form and
# one Schur matrix of the fixed-input three-use PPT program peaked at
# 4.1 GiB; with 4 MiB slices at 3.0 GiB, as with one product per block.
# Every stack of the two-use programs fits in one slice
SCHUR_SLICE_BYTES = 4 * 2**20


class _StandardForm:
    """The problem's data, one stack per sub-block size.

    Each problem block is split into the diagonal sub-blocks of its frame.
    Stack g holds the N sub-blocks of size ``sizes[g]``, in the problem's
    order: ``block_of[g]`` is each member's problem block, ``C[g]`` the
    (N, s, s) objective and ``A[g]`` every row's coefficients, flattened
    member by member to (m, N s²), in the problem's ``dtype``. ``place[k]``
    lists, for each (size, count) run of block k's frame, its stack and two
    slices: the columns of A and the entries of the block's packed
    coefficients.

    ``A`` is the only copy of the coefficients the solver holds, 16 bytes
    per row and entry when complex and 8 when real, as ``SdpProblem``
    counts it.
    """

    def __init__(self, problem: SdpProblem):
        if not problem.constraints:
            raise ValueError("problem must carry at least one constraint")
        self.m = len(problem.constraints)
        self.b = np.array([c.rhs for c in problem.constraints], dtype=float)
        self.block_dims, self.frames, self.dtype = problem.block_dims, problem.frames, problem.dtype
        self.sizes, block_of, self.place = [], [], []
        for k, frame in enumerate(self.frames):
            place, start = [], 0
            for s, count in frame.runs:
                if s not in self.sizes:
                    self.sizes.append(s)
                    block_of.append([])
                g = self.sizes.index(s)
                col, width = len(block_of[g]) * s * s, count * s * s
                place.append((g, slice(col, col + width), slice(start, start + width)))
                block_of[g] += [k] * count
                start += width
            self.place.append(place)
        self.block_of = [np.array(k, dtype=np.intp) for k in block_of]
        widths = [len(k) * s * s for k, s in zip(block_of, self.sizes)]
        self.A = [np.zeros((self.m, w), dtype=self.dtype) for w in widths]
        for i, con in enumerate(problem.constraints):
            self._put([a[i] for a in self.A], con.coeffs)
        C = [np.zeros(w, dtype=self.dtype) for w in widths]
        self._put(C, problem.objective)
        self.C = [c.reshape(-1, s, s) for c, s in zip(C, self.sizes)]

    def _put(self, rows: list[np.ndarray], coeffs: dict[int, np.ndarray]) -> None:
        """Write packed per-block ``coeffs`` into one flat row per stack."""
        for k, a in coeffs.items():
            for g, cols, entries in self.place[k]:
                rows[g][cols] = a[entries]

    def block_norms(self, sq: list[np.ndarray]) -> np.ndarray:
        """Per problem block, the root of the sum of ``sq`` (one value per
        member of each stack) over its members: a Frobenius norm of the
        whole block from those of its sub-blocks."""
        out = np.zeros(len(self.block_dims))
        for k, v in zip(self.block_of, sq):
            np.add.at(out, k, v)
        return np.sqrt(out)

    def problem_blocks(self, X: list[np.ndarray]) -> list[np.ndarray]:
        """Every declared block, full size, from the stacks."""
        flat = [x.reshape(-1) for x in X]
        return [frame.unpack(np.concatenate([flat[g][cols] for g, cols, _ in place]))
                for place, frame in zip(self.place, self.frames)]

    def apply(self, X: list[np.ndarray]) -> np.ndarray:
        """A(X): vector of <A_i, X> = Re(A_i · conj(X)) over constraints."""
        return sum((a @ x.reshape(-1).conj()).real for a, x in zip(self.A, X))

    def adjoint(self, y: np.ndarray) -> list[np.ndarray]:
        """A*(y): sum_i y_i A_i on each stack."""
        return [(y @ a).reshape(-1, s, s) for a, s in zip(self.A, self.sizes)]


def _inner(a: list[np.ndarray], b: list[np.ndarray]) -> float:
    """Re<a, b> summed over every member of every pair of stacks."""
    return sum(float(np.vdot(ak, bk).real) for ak, bk in zip(a, b))


def _ct(x: np.ndarray) -> np.ndarray:
    """The conjugate transpose of each member of a stack."""
    return x.conj().swapaxes(-1, -2)


EIG_FLOOR_REL = 1e-14  # eigenvalues are raised to this fraction of each member's largest


def _eigh(x: np.ndarray, vectors: bool = True):
    """``np.linalg.eigh`` (``eigvalsh`` without ``vectors``) of each member of
    a Hermitian stack. A 1x1 member is its own eigenvalue, with eigenvector
    1, as LAPACK returns it, without numpy's per-matrix cost."""
    if x.shape[-1] == 1:
        w = x[..., 0].real.copy()
        return (w, np.ones_like(x)) if vectors else w
    return np.linalg.eigh(x) if vectors else np.linalg.eigvalsh(x)


def _eigh_clamped(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    w, v = _eigh(linalg.hermitian_part(x))
    floor = EIG_FLOOR_REL * np.maximum(w.max(axis=-1, keepdims=True), 1e-300)
    return np.maximum(w, floor), v


def _nt_scaling(x: np.ndarray, s: np.ndarray):
    """(W, G, G^-1, d) of each member of a stack, as the module docstring
    sets them out."""
    ws, vs = _eigh_clamped(s)
    s_half, s_inv_half = (linalg.hermitian_part((vs * (ws**p)[..., None, :]) @ _ct(vs))
                          for p in (0.5, -0.5))
    d2, q = _eigh_clamped(s_half @ x @ s_half)
    d = np.sqrt(d2)
    root = np.sqrt(d)
    g = s_inv_half @ q * root[..., None, :]
    g_inv = (_ct(q) @ s_half) / root[..., :, None]
    return linalg.hermitian_part(g @ _ct(g)), g, g_inv, d


def _schur(sf: _StandardForm, W: list[np.ndarray]) -> np.ndarray:
    """M_ij = sum_k Re<A_ik, W_k A_jk W_k> = sum Re(A · conj(W A W)ᵀ)_ij over
    the stacks, each in slices of members whose W A W fits SCHUR_SLICE_BYTES."""
    m = sf.m
    M = np.zeros((m, m))
    for a, w, s in zip(sf.A, W, sf.sizes):
        step = max(1, SCHUR_SLICE_BYTES // (a.itemsize * m * s * s))
        for j in range(0, len(w), step):
            wj = w[j:j + step]
            aj = a[:, j * s * s:(j + len(wj)) * s * s]
            bj = (wj @ aj.reshape(m, len(wj), s, s) @ wj).reshape(m, -1)
            np.conjugate(bj, out=bj)  # in place: no second full-size temporary
            M += (aj @ bj.T).real
    return 0.5 * (M + M.T)


def _solve_newton(M: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """One dense LU solve of the Schur system; least squares if M is singular."""
    try:
        return np.linalg.solve(M, rhs)
    except np.linalg.LinAlgError:
        return np.linalg.lstsq(M, rhs, rcond=None)[0]


def _residuals(sf: _StandardForm, X, S, y, b_scale: float, c_scale: float):
    """Objectives, residuals and the scaled residual norms of an iterate."""
    pobj = _inner(sf.C, X)
    dobj = float(sf.b @ y)
    rp = sf.b - sf.apply(X)
    Rd = [c - sk - ayk for c, sk, ayk in zip(sf.C, S, sf.adjoint(y))]
    residuals = {
        "primal": float(np.linalg.norm(rp)) / b_scale,
        "dual": float(np.sqrt(_inner(Rd, Rd))) / c_scale,
        "relative_gap": abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj)),
    }
    return pobj, dobj, rp, Rd, residuals


def _meets_contract(residuals: dict) -> bool:
    """The end-point contract: a mildly degraded but still accurate iterate."""
    return (residuals["primal"] <= TOL_FEAS and residuals["dual"] <= 10 * TOL_FEAS
            and residuals["relative_gap"] <= 1e-7)


def _max_step(d: list[np.ndarray], dV: list[np.ndarray]) -> float:
    """Largest alpha with diag(d) + alpha dV >= 0 on every member (d > 0):
    -1 over the least eigenvalue of diag(d)^(-1/2) dV diag(d)^(-1/2)."""
    lam_min = np.inf
    for dk, dv in zip(d, dV):
        r = dk**-0.5
        scaled = linalg.hermitian_part(r[..., :, None] * dv * r[..., None, :])
        lam_min = min(lam_min, float(_eigh(scaled, vectors=False).min()))
    if lam_min >= -1e-14:
        return np.inf
    return -1.0 / lam_min


def solve(problem: SdpProblem) -> SdpSolution:
    """Solve the SDP; see module docstring for the algorithm.

    Status is "optimal" when the relative duality gap and scaled
    primal/dual residuals meet their tolerances, "stalled" when the steps
    collapse first, and "iteration-limit" when MAX_ITER steps are taken
    first. A solve that stops short either way returns the last iterate
    that met the looser end-point contract (``_meets_contract``) as
    "optimal", with the objectives and residuals of its one evaluation.
    ``iterations`` is k when the k-th evaluation meets the tolerances or
    the k-th step collapses, and MAX_ITER when the steps run out. Every
    declared block is returned full size, reassembled from its sub-blocks.
    """
    sf = _StandardForm(problem)
    m = sf.m
    # the barrier degree: the rank of the cone, d for a d x d block however
    # it is split
    n_total = sum(c.shape[0] * c.shape[1] for c in sf.C)

    # normalize the objective so the iterates (and hence the argmin) do not
    # depend on its scale; objective values are mapped back on return
    c_norms = sf.block_norms([np.sum(np.abs(c) ** 2, axis=(1, 2)) for c in sf.C])
    obj_scale = float(c_norms.max())
    if obj_scale > 0.0:
        sf.C = [c / obj_scale for c in sf.C]
    else:
        obj_scale = 1.0

    b_scale = 1.0 + float(np.linalg.norm(sf.b))
    c_norms = c_norms / obj_scale
    c_scale = 1.0 + float(c_norms.max())
    a_row_norms = np.zeros(m)
    a_sq = []
    for a, s in zip(sf.A, sf.sizes):
        sq = np.abs(a)
        sq *= sq
        a_row_norms += sq.sum(axis=1)
        a_sq.append(sq.reshape(m, -1, s * s).sum(axis=(0, 2)))
    a_row_norms = np.sqrt(a_row_norms)
    a_norms = sf.block_norms(a_sq)
    # every sub-block of a problem block starts where the whole block would:
    # from its dimension and its norms
    full = np.array(sf.block_dims, dtype=float)
    xi = np.maximum(np.maximum(10.0, np.sqrt(full)),
                    full * float(np.max((1.0 + np.abs(sf.b)) / (1.0 + a_row_norms))))
    eta = np.maximum(np.maximum(10.0, np.sqrt(full)), 1.0 + np.maximum(c_norms, a_norms))
    X = [xi[k][:, None, None] * np.eye(s, dtype=sf.dtype) for k, s in zip(sf.block_of, sf.sizes)]
    S = [eta[k][:, None, None] * np.eye(s, dtype=sf.dtype) for k, s in zip(sf.block_of, sf.sizes)]
    y = np.zeros(m)

    status = "iteration-limit"
    last_contract = None  # (X, S, y, pobj, dobj, residuals) of the last contract iterate
    for it in range(1, MAX_ITER + 2):
        pobj, dobj, rp, Rd, residuals = _residuals(sf, X, S, y, b_scale, c_scale)
        if max(residuals["primal"], residuals["dual"]) <= TOL_FEAS \
                and residuals["relative_gap"] <= TOL_GAP:
            status = "optimal"
            break
        if _meets_contract(residuals):
            last_contract = X, S, y, pobj, dobj, residuals
        if it > MAX_ITER:
            break
        mu = _inner(X, S) / n_total

        W, G, G_inv, D = zip(*(_nt_scaling(xk, sk) for xk, sk in zip(X, S)))
        M = _schur(sf, W)
        a_of_h = sf.apply([wk @ r @ wk for wk, r in zip(W, Rd)])

        def newton(Rc: list[np.ndarray]):
            rhs = rp - sf.apply(Rc) + a_of_h
            dy = _solve_newton(M, rhs)
            dS = [r - ad for r, ad in zip(Rd, sf.adjoint(dy))]
            dX = [linalg.hermitian_part(rck - wk @ ds @ wk)
                  for rck, wk, ds in zip(Rc, W, dS)]
            return dX, [linalg.hermitian_part(d) for d in dS], dy

        def scaled(dX, dS):
            """G^-1 dX G^-H and G^H dS G: the directions in the scaled space."""
            return ([gi @ dx @ _ct(gi) for gi, dx in zip(G_inv, dX)],
                    [_ct(g) @ ds @ g for g, ds in zip(G, dS)])

        # predictor (affine scaling direction)
        dX_a, dS_a, _ = newton([-xk for xk in X])
        dx_hat, ds_hat = scaled(dX_a, dS_a)
        ap_aff = min(1.0, _max_step(D, dx_hat))
        ad_aff = min(1.0, _max_step(D, ds_hat))
        mu_aff = _inner([xk + ap_aff * dx for xk, dx in zip(X, dX_a)],
                        [sk + ad_aff * ds for sk, ds in zip(S, dS_a)]) / n_total
        sigma = min(max((max(mu_aff, 0.0) / mu) ** 3, 1e-10), 1.0) if mu > 0 else 0.1

        # corrector: target sigma*mu on the central path plus the Mehrotra
        # second-order term. The scaled variable is diag(d), so its Lyapunov
        # equation is solved entry by entry; mapped back as G zp G^H
        Rc = []
        for gk, dk, dx, ds in zip(G, D, dx_hat, ds_hat):
            diag = np.arange(dk.shape[-1])
            zp = -0.5 * (dx @ ds + ds @ dx)
            zp[..., diag, diag] += sigma * mu
            zp = 2.0 * zp / (dk[..., :, None] + dk[..., None, :])
            zp[..., diag, diag] -= dk  # the -V part of -V^2
            Rc.append(linalg.hermitian_part(gk @ zp @ _ct(gk)))
        dX, dS, dy = newton(Rc)

        dx_hat, ds_hat = scaled(dX, dS)
        ap = min(1.0, STEP_FRACTION * _max_step(D, dx_hat))
        ad = min(1.0, STEP_FRACTION * _max_step(D, ds_hat))
        if not np.isfinite(ap) or not np.isfinite(ad) or ap < 1e-10 or ad < 1e-10:
            status = "stalled"
            break
        X = [linalg.hermitian_part(xk + ap * d) for xk, d in zip(X, dX)]
        S = [linalg.hermitian_part(sk + ad * d) for sk, d in zip(S, dS)]
        y = y + ad * dy

    if status != "optimal" and last_contract is not None:
        # late iterates can drift off the contract once the Schur matrix is
        # near singular
        X, S, y, pobj, dobj, residuals = last_contract
        status = "optimal"
    return SdpSolution(
        primal_blocks=sf.problem_blocks(X),
        dual_multipliers=obj_scale * y,
        primal_objective=obj_scale * pobj,
        dual_objective=obj_scale * dobj,
        status=status,
        iterations=min(it, MAX_ITER),
        residuals=residuals,
    )
