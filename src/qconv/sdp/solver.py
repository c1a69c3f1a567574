"""Primal-dual interior-point solver for dense Hermitian-block SDPs.

Path-following with Nesterov-Todd scaling and a Mehrotra predictor-corrector
step. Scalar inequalities are converted to equalities with 1x1 slack blocks
up front, so the core iteration only sees the standard equality form

    min sum_k <C_k, X_k>   s.t.   sum_k <A_ik, X_k> = b_i,   X_k >= 0.

A block whose objective and coefficients are all diagonal is a vector
block: only diag(X_k) enters the objective and the rows, and X_k >= 0
exactly when diag(X_k) >= 0, while its dual slack C_k - sum_i y_i A_ik is
diagonal and so PSD exactly when it is entrywise >= 0. Every 1x1 block is
one, the slacks included. All vector blocks together are one pair of
nonnegative vectors x, s, scaled, stepped and corrected elementwise with
the arithmetic of a 1x1 block; the other blocks are dense.

Each block stores only the constraint rows that touch it, once, and the
Schur matrix M_ij = sum_k Re<A_ik, W_k A_jk W_k> is assembled block by block
into those rows. The conjugations the inner products need are taken on the
iterates and on each fresh W A W product, never on a stored copy of A.
Each Newton system (one for the predictor, one for the
corrector) is a single dense LU solve of M, with a least-squares fallback
when M is exactly singular. Each dense matrix is eigendecomposed once per
iteration for all the powers taken of it.

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


def _is_diagonal(a: np.ndarray | None) -> bool:
    return a is None or np.count_nonzero(a) == np.count_nonzero(np.diagonal(a))


class _StandardForm:
    """Equality-form data, stored per block over the rows that touch it.

    Dense block j keeps the indices ``rows[j]`` of the constraint rows with a
    coefficient on it, and those coefficients flattened to complex ``A[j]``
    of shape (len(rows[j]), d_j * d_j), with objective ``C[j]``. Vector
    block k keeps its rows ``vrows[k]`` and the diagonals of their
    coefficients as real ``vA[k]`` of shape (len(vrows[k]), d_k); its
    entries are ``slices[k]`` of the vector variables, whose objective is
    ``c``. ``layout`` gives, for every block in the problem's order (slack
    blocks last), whether it is a vector block and its index among those
    of its kind.

    ``A`` and ``vA`` are the only copy of the coefficients the solver holds:
    16 * d**2 bytes per row on a dense block and 8 * d on a vector block.
    ``SdpProblem`` counts the first for every block with d > 1 and the
    second for 1x1 blocks, so its count is exact unless a d > 1 block turns
    out diagonal, and an upper bound then.
    """

    def __init__(self, problem: SdpProblem):
        if not problem.constraints:
            raise ValueError("problem must carry at least one constraint")
        dims = list(problem.block_dims)
        self.n_orig = len(dims)
        rows: list[list[int]] = [[] for _ in dims]
        coeffs: list[list[np.ndarray]] = [[] for _ in dims]
        for i, con in enumerate(problem.constraints):
            for k, a in con.coeffs.items():
                rows[k].append(i)
                coeffs[k].append(a)
            if con.sense != "==":
                dims.append(1)
                rows.append([i])
                coeffs.append([np.array([[1.0 if con.sense == "<=" else -1.0]])])
        self.m = len(problem.constraints)
        self.b = np.array([c.rhs for c in problem.constraints], dtype=float)
        self.dims, self.rows, self.A, self.C = [], [], [], []
        self.vdims, self.vrows, self.vA, self.slices, c = [], [], [], [], []
        self.layout: list[tuple[bool, int]] = []
        for k, d in enumerate(dims):
            r = np.array(rows[k], dtype=np.intp)
            obj = problem.objective.get(k)
            if _is_diagonal(obj) and all(_is_diagonal(a) for a in coeffs[k]):
                start = self.slices[-1].stop if self.slices else 0
                self.layout.append((True, len(self.vdims)))
                self.vdims.append(d)
                self.slices.append(slice(start, start + d))
                self.vrows.append(r)
                self.vA.append(np.array([np.diagonal(a).real for a in coeffs[k]],
                                        dtype=float).reshape(len(r), d))
                c.append(np.zeros(d) if obj is None else np.diagonal(obj).real)
                continue
            self.layout.append((False, len(self.dims)))
            self.dims.append(d)
            self.rows.append(r)
            # an empty block (no row touches it) gets shape (0, d * d)
            self.A.append(np.array(coeffs[k], dtype=complex).reshape(len(r), d * d))
            self.C.append(np.zeros((d, d), dtype=complex) if obj is None else obj.astype(complex))
        self.c = np.concatenate(c) if c else np.zeros(0)
        self.starts = np.array([sl.start for sl in self.slices], dtype=np.intp)

    def blocks(self):
        """(d, rows, coefficients, objective) of every block in the problem's
        order, slack blocks last; a vector block's are its real parts."""
        for vector, j in self.layout:
            if vector:
                yield self.vdims[j], self.vrows[j], self.vA[j], self.c[self.slices[j]]
            else:
                yield self.dims[j], self.rows[j], self.A[j], self.C[j]

    def block_sums(self, v: np.ndarray) -> np.ndarray:
        """The sum of ``v`` over each vector block's entries."""
        return np.add.reduceat(v, self.starts) if v.size else v

    def apply(self, X: list[np.ndarray], x: np.ndarray) -> np.ndarray:
        """A(X): vector of <A_i, X> = Re(A_i · conj(X)) over constraints."""
        out = np.zeros(self.m)
        for vector, j in self.layout:
            if vector:
                out[self.vrows[j]] += self.vA[j] @ x[self.slices[j]]
            else:
                out[self.rows[j]] += (self.A[j] @ X[j].reshape(X[j].size).conj()).real
        return out

    def adjoint(self, y: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
        """A*(y): per-block sum_i y_i A_ik, dense blocks and the vector."""
        vec = np.empty(self.c.size)
        for rows, a, sl in zip(self.vrows, self.vA, self.slices):
            # in complex arithmetic, as on a dense block, so that a 1x1 block
            # rounds, and steps, as the same block held dense would
            vec[sl] = (y[rows] @ a.astype(complex)).real
        return [(y[rows] @ a).reshape(d, d) for rows, a, d in zip(self.rows, self.A, self.dims)], vec


def _block_sum(sf: _StandardForm, dense: list[float], vec: np.ndarray) -> float:
    """The sum over every block, in the problem's order, of ``dense[j]`` for
    dense block j and of ``vec`` over a vector block's entries."""
    per_vec = sf.block_sums(vec).tolist()
    return sum(per_vec[j] if vector else dense[j] for vector, j in sf.layout)


def _inner(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.real(np.sum(a.conj() * b)))


EIG_FLOOR_REL = 1e-14  # eigenvalues are raised to this fraction of the largest


def _eigh_clamped(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    w, v = np.linalg.eigh(linalg.hermitian_part(x))
    floor = EIG_FLOOR_REL * max(float(w.max()), 1e-300)
    return np.maximum(w, floor), v


def _floor(x: np.ndarray) -> np.ndarray:
    """The eigenvalue floor of ``_eigh_clamped``, each entry its own 1x1 block."""
    return np.maximum(x, EIG_FLOOR_REL * np.maximum(x, 1e-300))


def _powers(x: np.ndarray, *ps: float) -> list[np.ndarray]:
    """x**p for each p, from one eigendecomposition of x."""
    w, v = _eigh_clamped(x)
    return [linalg.hermitian_part((v * w**p) @ v.conj().T) for p in ps]


def _inv_sqrt(x: np.ndarray) -> np.ndarray:
    w, v = _eigh_clamped(x)
    return (v * w**-0.5) @ v.conj().T


def _nt_scaling(x: np.ndarray, s: np.ndarray):
    """NT scaling point W with W S W = X, plus G = W^(1/2) and the scaled
    variable V = G S G (= G^-1 X G^-1) with its eigendecomposition."""
    s_half, s_inv_half = _powers(s, 0.5, -0.5)
    inner = linalg.hermitian_part(s_half @ x @ s_half)
    (inner_half,) = _powers(inner, 0.5)
    w_mat = linalg.hermitian_part(s_inv_half @ inner_half @ s_inv_half)
    g, g_inv = _powers(w_mat, 0.5, -0.5)
    v_mat = linalg.hermitian_part(g @ s @ g)
    v_eigs, v_vecs = _eigh_clamped(v_mat)
    return w_mat, g, g_inv, v_eigs, v_vecs


def _nt_scaling_vec(x: np.ndarray, s: np.ndarray):
    """``_nt_scaling`` of every vector entry at once, in the same order of
    operations: W = s^-½ (s^½ x s^½)^½ s^-½, G = W^½ and V = G s G."""
    s_floor = _floor(s)
    s_half, s_inv_half = s_floor**0.5, s_floor**-0.5
    w = (s_inv_half * _floor((s_half * x) * s_half) ** 0.5) * s_inv_half
    w_floor = _floor(w)
    g, g_inv = w_floor**0.5, w_floor**-0.5
    return w, g, g_inv, _floor((g * s) * g)


def _schur(sf: _StandardForm, W: list[np.ndarray], w: np.ndarray) -> np.ndarray:
    """M_ij = sum_k Re<A_ik, W_k A_jk W_k> = sum_k Re(A_k · conj(W_k A_k W_k)ᵀ)_ij;
    block k adds into M[rows_k, rows_k]. A vector block's W_k is diag(w[slice_k])."""
    M = np.zeros((sf.m, sf.m))
    for vector, j in sf.layout:
        if vector:
            rows, a, wk = sf.vrows[j], sf.vA[j], w[sf.slices[j]]
            M[np.ix_(rows, rows)] += a @ ((wk * a) * wk).T
            continue
        rows, a, wk, d = sf.rows[j], sf.A[j], W[j], sf.dims[j]
        r = len(rows)
        bk = (wk @ a.reshape(r, d, d) @ wk).reshape(r, d * d)
        np.conjugate(bk, out=bk)  # in place: no second full-size temporary
        M[np.ix_(rows, rows)] += (a @ bk.T).real
    return 0.5 * (M + M.T)


def _solve_newton(M: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """One dense LU solve of the Schur system; least squares if M is singular."""
    try:
        return np.linalg.solve(M, rhs)
    except np.linalg.LinAlgError:
        return np.linalg.lstsq(M, rhs, rcond=None)[0]


def _residuals(sf: _StandardForm, X, x, S, s, y, b_scale: float, c_scale: float):
    """Objectives, residuals and the scaled residual norms of an iterate."""
    pobj = _block_sum(sf, [_inner(c, xk) for c, xk in zip(sf.C, X)], sf.c * x)
    dobj = float(sf.b @ y)
    rp = sf.b - sf.apply(X, x)
    ay, ay_vec = sf.adjoint(y)
    Rd = [c - sk - ayk for c, sk, ayk in zip(sf.C, S, ay)]
    rd = sf.c - s - ay_vec
    dual_sq = _block_sum(sf, [float(np.linalg.norm(r)) ** 2 for r in Rd], rd * rd)
    residuals = {
        "primal": float(np.linalg.norm(rp)) / b_scale,
        "dual": float(np.sqrt(dual_sq)) / c_scale,
        "relative_gap": abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj)),
    }
    return pobj, dobj, rp, Rd, rd, residuals


def _meets_contract(residuals: dict) -> bool:
    """The end-point contract: a mildly degraded but still accurate iterate."""
    return (residuals["primal"] <= TOL_FEAS and residuals["dual"] <= 10 * TOL_FEAS
            and residuals["relative_gap"] <= 1e-7)


def _max_step(X_ih: list[np.ndarray], dX: list[np.ndarray],
              x_ih: np.ndarray, dx: np.ndarray) -> float:
    """Largest alpha with X + alpha dX >= 0 on every block (X > 0), given
    X^(-1/2); a vector entry's ratio is x^(-1/2) dx x^(-1/2)."""
    lam = [float(np.linalg.eigvalsh(linalg.hermitian_part(xi @ d @ xi.conj().T)).min())
           for xi, d in zip(X_ih, dX)]
    if dx.size:
        lam.append(float(((x_ih * dx) * x_ih).min()))
    lam_min = min(lam)
    if lam_min >= -1e-14:
        return np.inf
    return -1.0 / lam_min


def solve(problem: SdpProblem) -> SdpSolution:
    """Solve the SDP; see module docstring for the algorithm.

    Status is "optimal" when the relative duality gap and scaled
    primal/dual residuals meet their tolerances, "iteration-limit" when
    progress stops first, and an infeasibility status when the iterates
    produce a diverging certificate. A solve that stops without reaching
    the tolerances returns the last iterate that met the looser end-point
    contract (``_meets_contract``) as "optimal". A vector block's primal
    block is returned as its diagonal matrix.
    """
    sf = _StandardForm(problem)
    m = sf.m
    # the barrier normaliser: d**2 for a dense block, one per vector entry
    n_total = sum(d * d for d in sf.dims) + sf.c.size

    # normalize the objective so the iterates (and hence the argmin) do not
    # depend on its scale; objective values are mapped back on return
    obj_scale = max(float(np.linalg.norm(c)) for _, _, _, c in sf.blocks())
    if obj_scale > 0.0:
        sf.C = [c / obj_scale for c in sf.C]
        # numpy divides a complex array by a real number as a product with its
        # reciprocal; the vector entries round as the dense blocks do
        sf.c = sf.c * (1.0 / obj_scale)
    else:
        obj_scale = 1.0

    b_scale = 1.0 + float(np.linalg.norm(sf.b))
    c_scale = 1.0 + max(float(np.linalg.norm(c)) for _, _, _, c in sf.blocks())
    a_row_norms = np.zeros(m)
    for _, rows, a, _ in sf.blocks():
        sq = np.conjugate(a)  # a new array also when a is real
        sq *= a  # |a|² in one temporary, by numpy's complex product
        a_row_norms[rows] += sq.real.sum(axis=1)
    a_row_norms = np.sqrt(a_row_norms)
    X, S = [], []
    x, s = np.empty(sf.c.size), np.empty(sf.c.size)
    for (vector, j), (d, _, a, c) in zip(sf.layout, sf.blocks()):
        xi = max(10.0, np.sqrt(d), d * float(np.max((1.0 + np.abs(sf.b)) / (1.0 + a_row_norms))))
        eta = max(10.0, np.sqrt(d), 1.0 + max(float(np.linalg.norm(c)), float(np.linalg.norm(a))))
        if vector:
            x[sf.slices[j]], s[sf.slices[j]] = xi, eta
        else:
            X.append(xi * np.eye(d, dtype=complex))
            S.append(eta * np.eye(d, dtype=complex))
    y = np.zeros(m)

    status = "iteration-limit"
    it = 0
    contract_iterate = None  # the last (X, x, S, s, y) that met the end-point contract
    for it in range(1, MAX_ITER + 1):
        pobj, dobj, rp, Rd, rd, residuals = _residuals(sf, X, x, S, s, y, b_scale, c_scale)
        mu = _block_sum(sf, [_inner(xk, sk) for xk, sk in zip(X, S)], x * s) / n_total
        if max(residuals["primal"], residuals["dual"]) <= TOL_FEAS \
                and residuals["relative_gap"] <= TOL_GAP:
            status = "optimal"
            break
        if _meets_contract(residuals):
            contract_iterate = X, x, S, s, y
        # divergence heuristics for infeasible problems
        if np.linalg.norm(y) > 1e13 * b_scale and dobj > 0:
            status = "primal-infeasible"
            break
        traces = [float(np.trace(xk).real) for xk in X] + sf.block_sums(x).tolist()
        if max(traces) > 1e13 * n_total * b_scale and pobj < 0:
            status = "dual-infeasible"
            break

        scalings = [_nt_scaling(xk, sk) for xk, sk in zip(X, S)]
        W = [sc[0] for sc in scalings]
        w, g, g_inv, v = _nt_scaling_vec(x, s)
        M = _schur(sf, W, w)
        a_of_h = sf.apply([wk @ r @ wk for wk, r in zip(W, Rd)], (w * rd) * w)

        def newton(Rc: list[np.ndarray], rc: np.ndarray):
            rhs = rp - sf.apply(Rc, rc) + a_of_h
            dy = _solve_newton(M, rhs)
            a_dy, a_dy_vec = sf.adjoint(dy)
            dS = [r - ad for r, ad in zip(Rd, a_dy)]
            dX = [linalg.hermitian_part(rck - wk @ ds @ wk)
                  for rck, wk, ds in zip(Rc, W, dS)]
            ds = rd - a_dy_vec
            return dX, [linalg.hermitian_part(d) for d in dS], rc - (w * ds) * w, ds, dy

        # predictor (affine scaling direction)
        dX_a, dS_a, dx_a, ds_a, _ = newton([-xk for xk in X], -x)
        X_ih, S_ih = [_inv_sqrt(xk) for xk in X], [_inv_sqrt(sk) for sk in S]
        x_ih, s_ih = _floor(x) ** -0.5, _floor(s) ** -0.5
        ap_aff = min(1.0, _max_step(X_ih, dX_a, x_ih, dx_a))
        ad_aff = min(1.0, _max_step(S_ih, dS_a, s_ih, ds_a))
        mu_aff = _block_sum(sf, [_inner(xk + ap_aff * dx, sk + ad_aff * ds)
                                 for xk, dx, sk, ds in zip(X, dX_a, S, dS_a)],
                            (x + ap_aff * dx_a) * (s + ad_aff * ds_a)) / n_total
        sigma = min(max((max(mu_aff, 0.0) / mu) ** 3, 1e-10), 1.0) if mu > 0 else 0.1

        # corrector: target sigma*mu on the central path plus the Mehrotra
        # second-order term, mapped back through the NT scaling
        Rc = []
        for (_, gk, gk_inv, v_eigs, v_vecs), dx, ds in zip(scalings, dX_a, dS_a):
            dx_hat = gk_inv @ dx @ gk_inv
            ds_hat = gk @ ds @ gk
            corr = 0.5 * (dx_hat @ ds_hat + ds_hat @ dx_hat)
            target = sigma * mu * np.eye(gk.shape[0]) - corr
            zp = v_vecs.conj().T @ target @ v_vecs
            zp = 2.0 * zp / (v_eigs[:, None] + v_eigs[None, :])
            np.fill_diagonal(zp, zp.diagonal() - v_eigs)  # the -V part of -V^2
            rc_hat = v_vecs @ zp @ v_vecs.conj().T
            Rc.append(linalg.hermitian_part(gk @ rc_hat @ gk))
        dx_hat = (g_inv * dx_a) * g_inv
        ds_hat = (g * ds_a) * g
        # the dense corrector's 2 Z / (v_i + v_j), with the reciprocal as above
        zp = 2.0 * (sigma * mu - 0.5 * (dx_hat * ds_hat + ds_hat * dx_hat)) * (1.0 / (v + v)) - v
        dX, dS, dx, ds, dy = newton(Rc, (g * zp) * g)

        ap = min(1.0, STEP_FRACTION * _max_step(X_ih, dX, x_ih, dx))
        ad = min(1.0, STEP_FRACTION * _max_step(S_ih, dS, s_ih, ds))
        if not np.isfinite(ap) or not np.isfinite(ad) or ap < 1e-10 or ad < 1e-10:
            break
        X = [linalg.hermitian_part(xk + ap * d) for xk, d in zip(X, dX)]
        S = [linalg.hermitian_part(sk + ad * d) for sk, d in zip(S, dS)]
        x, s = x + ap * dx, s + ad * ds
        y = y + ad * dy

    pobj, dobj, _, _, _, residuals = _residuals(sf, X, x, S, s, y, b_scale, c_scale)
    if status == "iteration-limit":
        # accept a mildly degraded endpoint that meets the contract, else the
        # last iterate that did: late iterates can drift off it once the
        # Schur matrix is near singular
        if _meets_contract(residuals):
            status = "optimal"
        elif contract_iterate is not None:
            X, x, S, s, y = contract_iterate
            pobj, dobj, _, _, _, residuals = _residuals(sf, X, x, S, s, y, b_scale, c_scale)
            status = "optimal"
    return SdpSolution(
        primal_blocks=[np.diag(x[sf.slices[j]]).astype(complex) if vector else X[j]
                       for vector, j in sf.layout[:sf.n_orig]],
        dual_multipliers=obj_scale * y,
        primal_objective=obj_scale * pobj,
        dual_objective=obj_scale * dobj,
        status=status,
        iterations=it,
        residuals=residuals,
    )
