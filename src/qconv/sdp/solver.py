"""Primal-dual interior-point solver for dense Hermitian-block SDPs.

Path-following with Nesterov-Todd scaling and a Mehrotra predictor-corrector
step. Scalar inequalities are converted to equalities with 1x1 slack blocks
up front, so the core iteration only sees the standard equality form

    min sum_k <C_k, X_k>   s.t.   sum_k <A_ik, X_k> = b_i,   X_k >= 0.

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
_CHUNK = 1 << 22  # complex entries per Schur-assembly slab


class _StandardForm:
    """Equality-form data: stacked constraint tensors per block."""

    def __init__(self, problem: SdpProblem):
        if not problem.constraints:
            raise ValueError("problem must carry at least one constraint")
        self.dims = list(problem.block_dims)
        self.n_orig = len(self.dims)
        m = len(problem.constraints)
        slack_of: list[int | None] = []
        for con in problem.constraints:
            if con.sense == "==":
                slack_of.append(None)
            else:
                self.dims.append(1)
                slack_of.append(len(self.dims) - 1)
        self.b = np.array([c.rhs for c in problem.constraints], dtype=float)
        self.A = [np.zeros((m, d, d), dtype=complex) for d in self.dims]
        for i, con in enumerate(problem.constraints):
            for k, a in con.coeffs.items():
                self.A[k][i] = a
            if slack_of[i] is not None:
                sign = 1.0 if con.sense == "<=" else -1.0
                self.A[slack_of[i]][i, 0, 0] = sign
        self.C = [np.zeros((d, d), dtype=complex) for d in self.dims]
        for k, c in problem.objective.items():
            self.C[k] = c.astype(complex)
        self.m = m

    def apply(self, blocks: list[np.ndarray]) -> np.ndarray:
        """A(X): vector of <A_i, X> over constraints."""
        out = np.zeros(self.m)
        for ak, x in zip(self.A, blocks):
            out += np.einsum("iab,ab->i", ak.conj(), x).real
        return out

    def adjoint(self, y: np.ndarray) -> list[np.ndarray]:
        """A*(y): per-block sum_i y_i A_ik."""
        return [np.einsum("i,iab->ab", y, ak) for ak in self.A]


def _inner(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.real(np.sum(a.conj() * b)))


def _eigh_clamped(x: np.ndarray, floor_rel: float = 1e-14) -> tuple[np.ndarray, np.ndarray]:
    w, v = np.linalg.eigh(linalg.hermitian_part(x))
    floor = floor_rel * max(float(w.max()), 1e-300)
    return np.maximum(w, floor), v

def _power(x: np.ndarray, p: float) -> np.ndarray:
    w, v = _eigh_clamped(x)
    return linalg.hermitian_part((v * w**p) @ v.conj().T)


def _nt_scaling(x: np.ndarray, s: np.ndarray):
    """NT scaling point W with W S W = X, plus G = W^(1/2) and the scaled
    variable V = G S G (= G^-1 X G^-1) with its eigendecomposition."""
    s_half = _power(s, 0.5)
    s_inv_half = _power(s, -0.5)
    inner = linalg.hermitian_part(s_half @ x @ s_half)
    inner_half = _power(inner, 0.5)
    w_mat = linalg.hermitian_part(s_inv_half @ inner_half @ s_inv_half)
    g = _power(w_mat, 0.5)
    g_inv = _power(w_mat, -0.5)
    v_mat = linalg.hermitian_part(g @ s @ g)
    v_eigs, v_vecs = _eigh_clamped(v_mat)
    return w_mat, g, g_inv, v_eigs, v_vecs


def _schur(A: list[np.ndarray], W: list[np.ndarray]) -> np.ndarray:
    """M_ij = sum_k <A_ik, W_k A_jk W_k>."""
    m = A[0].shape[0]
    M = np.zeros((m, m))
    for ak, wk in zip(A, W):
        n = wk.shape[0]
        bk = np.empty_like(ak)
        rows = max(1, _CHUNK // max(1, n * n))
        for lo in range(0, m, rows):
            hi = min(m, lo + rows)
            bk[lo:hi] = wk @ ak[lo:hi] @ wk
        M += np.real(ak.conj().reshape(m, -1) @ bk.reshape(m, -1).T)
    return 0.5 * (M + M.T)


def _solve_spd(M: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    scale = max(float(np.trace(M)) / M.shape[0], 1e-300)
    jitter = 0.0
    for _ in range(6):
        try:
            L = np.linalg.cholesky(M + jitter * np.eye(M.shape[0]))
            z = np.linalg.solve(L, rhs.T).T if rhs.ndim > 1 else np.linalg.solve(L, rhs)
            return np.linalg.solve(L.conj().T, z)
        except np.linalg.LinAlgError:
            jitter = max(jitter * 100.0, 1e-14 * scale)
    return np.linalg.lstsq(M, rhs, rcond=None)[0]


def _max_step(x: np.ndarray, dx: np.ndarray) -> float:
    """Largest alpha with x + alpha dx >= 0 (x > 0)."""
    w, v = _eigh_clamped(x)
    inv_half = (v * w**-0.5) @ v.conj().T
    lam = np.linalg.eigvalsh(linalg.hermitian_part(inv_half @ dx @ inv_half.conj().T))
    lam_min = float(lam.min())
    if lam_min >= -1e-14:
        return np.inf
    return -1.0 / lam_min


def solve(problem: SdpProblem) -> SdpSolution:
    """Solve the SDP; see module docstring for the algorithm.

    Status is "optimal" when the relative duality gap and scaled
    primal/dual residuals meet their tolerances, "iteration-limit" when
    progress stops first, and an infeasibility status when the iterates
    produce a diverging certificate.
    """
    sf = _StandardForm(problem)
    dims, m = sf.dims, sf.m
    n_total = sum(d * d for d in dims)

    # normalize the objective so the iterates (and hence the argmin) do not
    # depend on its scale; objective values are mapped back on return
    obj_scale = max(float(np.linalg.norm(c)) for c in sf.C)
    if obj_scale > 0.0:
        sf.C = [c / obj_scale for c in sf.C]
    else:
        obj_scale = 1.0

    b_scale = 1.0 + float(np.linalg.norm(sf.b))
    c_scale = 1.0 + max(np.linalg.norm(c) for c in sf.C)
    a_row_norms = np.sqrt(sum(np.einsum("iab,iab->i", ak.conj(), ak).real for ak in sf.A))
    X, S = [], []
    for k, d in enumerate(dims):
        a_norm = float(np.sqrt(np.einsum("iab,iab->", sf.A[k].conj(), sf.A[k]).real))
        xi = max(10.0, np.sqrt(d), d * float(np.max((1.0 + np.abs(sf.b)) / (1.0 + a_row_norms))))
        eta = max(10.0, np.sqrt(d), 1.0 + max(float(np.linalg.norm(sf.C[k])), a_norm))
        X.append(xi * np.eye(d, dtype=complex))
        S.append(eta * np.eye(d, dtype=complex))
    y = np.zeros(m)

    status = "iteration-limit"
    it = 0
    for it in range(1, MAX_ITER + 1):
        pobj = sum(_inner(c, x) for c, x in zip(sf.C, X))
        dobj = float(sf.b @ y)
        rp = sf.b - sf.apply(X)
        a_y = sf.adjoint(y)
        Rd = [c - s - ay for c, s, ay in zip(sf.C, S, a_y)]
        mu = sum(_inner(x, s) for x, s in zip(X, S)) / n_total
        pres = float(np.linalg.norm(rp)) / b_scale
        dres = np.sqrt(sum(float(np.linalg.norm(r)) ** 2 for r in Rd)) / c_scale
        rel_gap = abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj))
        if pres <= TOL_FEAS and dres <= TOL_FEAS and rel_gap <= TOL_GAP:
            status = "optimal"
            break
        # divergence heuristics for infeasible problems
        if np.linalg.norm(y) > 1e13 * b_scale and dobj > 0:
            status = "primal-infeasible"
            break
        if max(float(np.trace(x).real) for x in X) > 1e13 * n_total * b_scale and pobj < 0:
            status = "dual-infeasible"
            break

        scalings = [_nt_scaling(x, s) for x, s in zip(X, S)]
        W = [sc[0] for sc in scalings]
        M = _schur(sf.A, W)
        h = [wk @ rd @ wk for wk, rd in zip(W, Rd)]
        a_of_h = sf.apply(h)

        def newton(Rc: list[np.ndarray]):
            rhs = rp - sf.apply(Rc) + a_of_h
            dy = _solve_spd(M, rhs)
            a_dy = sf.adjoint(dy)
            dS = [rd - ad for rd, ad in zip(Rd, a_dy)]
            dX = [linalg.hermitian_part(rc - wk @ ds @ wk)
                  for rc, wk, ds in zip(Rc, W, dS)]
            dS = [linalg.hermitian_part(ds) for ds in dS]
            return dX, dS, dy

        # predictor (affine scaling direction)
        dX_a, dS_a, _ = newton([-x for x in X])
        ap_aff = min(1.0, min(_max_step(x, dx) for x, dx in zip(X, dX_a)))
        ad_aff = min(1.0, min(_max_step(s, ds) for s, ds in zip(S, dS_a)))
        mu_aff = sum(_inner(x + ap_aff * dx, s + ad_aff * ds)
                     for x, dx, s, ds in zip(X, dX_a, S, dS_a)) / n_total
        sigma = min(max((max(mu_aff, 0.0) / mu) ** 3, 1e-10), 1.0) if mu > 0 else 0.1

        # corrector: target sigma*mu on the central path plus the Mehrotra
        # second-order term, mapped back through the NT scaling
        Rc = []
        for (_, g, g_inv, v_eigs, v_vecs), dx, ds in zip(scalings, dX_a, dS_a):
            dx_hat = g_inv @ dx @ g_inv
            ds_hat = g @ ds @ g
            corr = 0.5 * (dx_hat @ ds_hat + ds_hat @ dx_hat)
            target = sigma * mu * np.eye(g.shape[0]) - corr
            zp = v_vecs.conj().T @ target @ v_vecs
            zp = 2.0 * zp / (v_eigs[:, None] + v_eigs[None, :])
            np.fill_diagonal(zp, zp.diagonal() - v_eigs)  # the -V part of -V^2
            rc_hat = v_vecs @ zp @ v_vecs.conj().T
            Rc.append(linalg.hermitian_part(g @ rc_hat @ g))
        dX, dS, dy = newton(Rc)

        ap = min(1.0, STEP_FRACTION * min(_max_step(x, dx) for x, dx in zip(X, dX)))
        ad = min(1.0, STEP_FRACTION * min(_max_step(s, ds) for s, ds in zip(S, dS)))
        if not np.isfinite(ap) or not np.isfinite(ad) or ap < 1e-10 or ad < 1e-10:
            break
        X = [linalg.hermitian_part(x + ap * dx) for x, dx in zip(X, dX)]
        S = [linalg.hermitian_part(s + ad * ds) for s, ds in zip(S, dS)]
        y = y + ad * dy

    pobj = sum(_inner(c, x) for c, x in zip(sf.C, X))
    dobj = float(sf.b @ y)
    rp = sf.b - sf.apply(X)
    Rd = [c - s - ay for c, s, ay in zip(sf.C, S, sf.adjoint(y))]
    pres = float(np.linalg.norm(rp)) / b_scale
    dres = np.sqrt(sum(float(np.linalg.norm(r)) ** 2 for r in Rd)) / c_scale
    rel_gap = abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj))
    if status not in ("primal-infeasible", "dual-infeasible"):
        # accept a mildly degraded but contract-satisfying endpoint
        if pres <= TOL_FEAS and dres <= 10 * TOL_FEAS and rel_gap <= 1e-7:
            status = "optimal"
    return SdpSolution(
        primal_blocks=[X[k] for k in range(sf.n_orig)],
        dual_multipliers=obj_scale * y,
        primal_objective=obj_scale * pobj,
        dual_objective=obj_scale * dobj,
        status=status,
        iterations=it,
        residuals={"primal": pres, "dual": dres, "relative_gap": rel_gap},
    )
