"""Primal-dual interior-point solver for dense Hermitian-block SDPs.

Path-following with Nesterov-Todd scaling and a Mehrotra predictor-corrector
step. Scalar inequalities are converted to equalities with 1x1 slack blocks
up front, so the core iteration only sees the standard equality form

    min sum_k <C_k, X_k>   s.t.   sum_k <A_ik, X_k> = b_i,   X_k >= 0.

A block declared with a frame is solved as its diagonal sub-blocks: its
objective and coefficients are block-diagonal in the frame, so only those
sub-blocks of X_k enter, the pinching of a PSD X_k is PSD, and its dual
slack is PSD exactly when each sub-block is. Every copy of a repeated
sub-block is kept, so the split program has the barrier of the whole
block, and its sub-blocks start where the whole block would; the barrier
degree is the rank of the cone, d for a d x d block however it is split.
So a split solve follows the central path of the unsplit one. Every 1x1
block and sub-block is a vector entry: X_k >= 0 is x >= 0 there. All of a
problem block's 1x1 sub-blocks are one vector block, and all vector blocks
together one pair of nonnegative vectors x, s, scaled, stepped and
corrected elementwise with the arithmetic of a 1x1 block; the other
sub-blocks are dense.

Each block stores only the constraint rows that touch it, once, as
contiguous runs of rows, and the Schur matrix
M_ij = sum_k Re<A_ik, W_k A_jk W_k> is assembled block by block: each
block's product is added into M through the slices of its runs, so every
entry of M gets its additions in the problem's block order. The
conjugations the inner products need are taken on the iterates and on
each fresh W A W product, never on a stored copy of A. Each Newton system
(one for the predictor, one for the corrector) is a single dense LU solve
of M, with a least-squares fallback when M is exactly singular.

The dense sub-blocks of one size are one 3-D stack: the iterates, the
scaling point W, G = W^(1/2), G^-1 and the scaled variable V are one
(count, s, s) array per size, so NT scaling, the inverse square roots,
the step length, the corrector, the Newton directions and the iterate
update take one numpy call per size, not one per sub-block. numpy rounds
each member of a stacked product or eigendecomposition as it would the
matrix alone. Each stack is eigendecomposed once per iteration for all
the powers taken of it. Per-block scalars (objective, mu, residual norms)
are reduced per member and summed in the problem's block order.

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


def _runs(rows: np.ndarray) -> list[tuple[slice, slice]]:
    """Ascending row indices as contiguous runs: (slice of the constraint
    rows, slice of the positions in ``rows``) for each."""
    cuts = [0, *(np.flatnonzero(np.diff(rows) != 1) + 1).tolist(), len(rows)]
    return [(slice(int(rows[a]), int(rows[b - 1]) + 1), slice(a, b))
            for a, b in zip(cuts[:-1], cuts[1:]) if b > a]


def _add_runs(M: np.ndarray, runs: list[tuple[slice, slice]], p: np.ndarray) -> None:
    """M[rows, rows] += p, run by run."""
    for mi, pi in runs:
        for mj, pj in runs:
            M[mi, mj] += p[pi, pj]


class _StandardForm:
    """Equality-form data, stored per block over the rows that touch it.

    Each problem block (slack blocks last) is split into its diagonal
    sub-blocks (``SdpProblem.sub_blocks``); a block kept whole is one.
    Dense block j is an s x s sub-block with s > 1: it keeps the indices
    ``rows[j]`` of the constraint rows with a coefficient on its problem
    block, the same rows as contiguous ``runs[j]`` (``_runs``), and the
    sub-block of each row's coefficient, flattened to complex ``A[j]`` of
    shape (len(rows[j]), s * s). Dense blocks of one size are one stack:
    ``groups[g]`` lists the dense blocks of stack g in the problem's order,
    ``member[j]`` is the (stack, position) of dense block j, and the
    objective ``C[g]`` has shape (len(groups[g]), s, s), as every dense
    iterate does. Vector block k holds every 1x1 sub-block of one problem
    block: its rows ``vrows[k]``, as runs ``vruns[k]``, and their real
    coefficients ``vA[k]`` of shape (len(vrows[k]), count); its entries are
    ``slices[k]`` of the vector variables, whose objective is ``c``.
    ``layout`` gives, for every dense and vector block in the problem's
    order, whether it is a vector block and its index among those of its
    kind; ``block_of`` its problem block, of dimension ``block_dims``, frame
    ``frames`` and sub-block sizes ``subs``; and ``offsets`` where its
    entries sit in the problem block's packed coefficients.

    ``A`` and ``vA`` are the only copy of the coefficients the solver holds:
    16 * s**2 bytes per row on a dense block and 8 per entry on a vector
    block, as ``SdpProblem`` counts them.
    """

    def __init__(self, problem: SdpProblem):
        if not problem.constraints:
            raise ValueError("problem must carry at least one constraint")
        dims = list(problem.block_dims)
        self.n_orig = len(dims)
        subs = [problem.sub_blocks(k) for k in range(self.n_orig)]
        rows: list[list[int]] = [[] for _ in dims]
        coeffs: list[list[np.ndarray]] = [[] for _ in dims]
        for i, con in enumerate(problem.constraints):
            for k, a in con.coeffs.items():
                rows[k].append(i)
                coeffs[k].append(a.reshape(-1))  # packed, or the whole block's entries
            if con.sense != "==":
                dims.append(1)
                subs.append((1,))
                rows.append([i])
                coeffs.append([np.array([1.0 if con.sense == "<=" else -1.0])])
        self.m = len(problem.constraints)
        self.b = np.array([c.rhs for c in problem.constraints], dtype=float)
        self.block_dims, self.frames, self.subs = dims, problem.frames, subs
        self.dims, self.rows, self.runs, self.A, C = [], [], [], [], []
        self.vdims, self.vrows, self.vruns, self.vA, self.slices, c = [], [], [], [], [], []
        self.layout: list[tuple[bool, int]] = []
        self.block_of, self.offsets = [], []
        for k, sizes in enumerate(subs):
            r = np.array(rows[k], dtype=np.intp)
            obj = problem.objective.get(k)
            obj = np.zeros(sum(s * s for s in sizes), dtype=complex) if obj is None \
                else obj.reshape(-1)
            offsets = np.cumsum([0, *(s * s for s in sizes)])[:-1]
            for s, off in zip(sizes, offsets):
                if s == 1:
                    continue
                self.layout.append((False, len(self.dims)))
                self.block_of.append(k)
                self.offsets.append(off)
                self.dims.append(s)
                self.rows.append(r)
                self.runs.append(_runs(r))
                # a block no row touches gets shape (0, s * s)
                self.A.append(np.array([a[off:off + s * s] for a in coeffs[k]],
                                       dtype=complex).reshape(len(r), s * s))
                C.append(obj[off:off + s * s].reshape(s, s).astype(complex))
            ones = offsets[np.array(sizes) == 1]
            if ones.size:
                start = self.slices[-1].stop if self.slices else 0
                self.layout.append((True, len(self.vdims)))
                self.block_of.append(k)
                self.offsets.append(ones)
                self.vdims.append(ones.size)
                self.slices.append(slice(start, start + ones.size))
                self.vrows.append(r)
                self.vruns.append(_runs(r))
                self.vA.append(np.array([a[ones].real for a in coeffs[k]],
                                        dtype=float).reshape(len(r), ones.size))
                c.append(obj[ones].real)
        groups: dict[int, list[int]] = {}
        for j, s in enumerate(self.dims):
            groups.setdefault(s, []).append(j)
        self.groups = list(groups.values())
        place = {j: (g, i) for g, group in enumerate(self.groups) for i, j in enumerate(group)}
        self.member = [place[j] for j in range(len(self.dims))]
        self.C = self.stacks(C)
        self.c = np.concatenate(c) if c else np.zeros(0)
        self.starts = np.array([sl.start for sl in self.slices], dtype=np.intp)

    def stacks(self, dense: list) -> list[np.ndarray]:
        """Per-dense-block matrices, in the problem's order, as the stacks."""
        return [np.stack([dense[j] for j in group]) for group in self.groups]

    def members(self, stacks: list) -> list:
        """The stacks' members (matrices, or per-member values), one per
        dense block in the problem's order."""
        return [stacks[g][i] for g, i in self.member]

    def blocks(self):
        """(d, rows, coefficients, objective) of every block in the problem's
        order, slack blocks last; a vector block's are its real parts."""
        C = self.members(self.C)
        for vector, j in self.layout:
            if vector:
                yield self.vdims[j], self.vrows[j], self.vA[j], self.c[self.slices[j]]
            else:
                yield self.dims[j], self.rows[j], self.A[j], C[j]

    def block_norms(self, sq: list[float]) -> np.ndarray:
        """Per problem block, the root of the sum of ``sq`` over its dense
        and vector blocks: a Frobenius norm of the whole block from those of
        its sub-blocks."""
        out = np.zeros(len(self.block_dims))
        np.add.at(out, self.block_of, sq)
        return np.sqrt(out)

    def problem_blocks(self, X: list[np.ndarray], x: np.ndarray) -> list[np.ndarray]:
        """The problem's blocks, full size, from the dense stacks and the vector."""
        packed = [np.zeros(sum(s * s for s in sizes), dtype=complex)
                  for sizes in self.subs[:self.n_orig]]
        X = self.members(X)
        for (vector, j), k, off in zip(self.layout, self.block_of, self.offsets):
            if k >= self.n_orig:
                continue
            if vector:
                packed[k][off] = x[self.slices[j]]
            else:
                packed[k][off:off + X[j].size] = X[j].reshape(-1)
        return [v.reshape(d, d) if frame is None else frame.unpack(v)
                for v, d, frame in zip(packed, self.block_dims, self.frames)]

    def block_sums(self, v: np.ndarray) -> np.ndarray:
        """The sum of ``v`` over each vector block's entries."""
        return np.add.reduceat(v, self.starts) if v.size else v

    def apply(self, X: list[np.ndarray], x: np.ndarray) -> np.ndarray:
        """A(X): vector of <A_i, X> = Re(A_i · conj(X)) over constraints."""
        out = np.zeros(self.m)
        X = self.members(X)
        for vector, j in self.layout:
            if vector:
                runs, ax = self.vruns[j], self.vA[j] @ x[self.slices[j]]
            else:
                runs, ax = self.runs[j], (self.A[j] @ X[j].reshape(X[j].size).conj()).real
            for mi, pi in runs:
                out[mi] += ax[pi]
        return out

    def adjoint(self, y: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
        """A*(y): per-block sum_i y_i A_ik, dense stacks and the vector."""
        vec = np.empty(self.c.size)
        for rows, a, sl in zip(self.vrows, self.vA, self.slices):
            # in complex arithmetic, as on a dense block, so that a 1x1 block
            # rounds, and steps, as the same block held dense would
            vec[sl] = (y[rows] @ a.astype(complex)).real
        return self.stacks([(y[rows] @ a).reshape(d, d)
                            for rows, a, d in zip(self.rows, self.A, self.dims)]), vec


def _block_sum(sf: _StandardForm, dense: list[float], vec: np.ndarray) -> float:
    """The sum over every block, in the problem's order, of ``dense[j]`` for
    dense block j and of ``vec`` over a vector block's entries."""
    per_vec = sf.block_sums(vec).tolist()
    return sum(per_vec[j] if vector else dense[j] for vector, j in sf.layout)


def _inner(a: list[np.ndarray], b: list[np.ndarray]) -> list[list[float]]:
    """Re<a, b> of each member of each pair of stacks."""
    return [np.real(np.sum(ak.conj() * bk, axis=(-2, -1))).tolist() for ak, bk in zip(a, b)]


def _ct(x: np.ndarray) -> np.ndarray:
    """The conjugate transpose of each member of a stack."""
    return x.conj().swapaxes(-1, -2)


EIG_FLOOR_REL = 1e-14  # eigenvalues are raised to this fraction of each member's largest


def _eigh_clamped(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    w, v = np.linalg.eigh(linalg.hermitian_part(x))
    floor = EIG_FLOOR_REL * np.maximum(w.max(axis=-1, keepdims=True), 1e-300)
    return np.maximum(w, floor), v


def _floor(x: np.ndarray) -> np.ndarray:
    """The eigenvalue floor of ``_eigh_clamped``, each entry its own 1x1 block."""
    return np.maximum(x, EIG_FLOOR_REL * np.maximum(x, 1e-300))


def _powers(x: np.ndarray, *ps: float) -> list[np.ndarray]:
    """x**p of each member for each p, from one eigendecomposition of x."""
    w, v = _eigh_clamped(x)
    return [linalg.hermitian_part((v * (w**p)[..., None, :]) @ _ct(v)) for p in ps]


def _inv_sqrt(x: np.ndarray) -> np.ndarray:
    w, v = _eigh_clamped(x)
    return (v * (w**-0.5)[..., None, :]) @ _ct(v)


def _nt_scaling(x: np.ndarray, s: np.ndarray):
    """NT scaling point W with W S W = X, plus G = W^(1/2) and the scaled
    variable V = G S G (= G^-1 X G^-1) with its eigendecomposition, of each
    member of a stack."""
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
    block k adds into M[rows_k, rows_k] through its runs. A vector block's
    W_k is diag(w[slice_k])."""
    M = np.zeros((sf.m, sf.m))
    W = sf.members(W)
    for vector, j in sf.layout:
        if vector:
            a, wk = sf.vA[j], w[sf.slices[j]]
            _add_runs(M, sf.vruns[j], a @ ((wk * a) * wk).T)
            continue
        a, wk, d = sf.A[j], W[j], sf.dims[j]
        r = a.shape[0]
        bk = (wk @ a.reshape(r, d, d) @ wk).reshape(r, d * d)
        np.conjugate(bk, out=bk)  # in place: no second full-size temporary
        _add_runs(M, sf.runs[j], (a @ bk.T).real)
    return 0.5 * (M + M.T)


def _solve_newton(M: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """One dense LU solve of the Schur system; least squares if M is singular."""
    try:
        return np.linalg.solve(M, rhs)
    except np.linalg.LinAlgError:
        return np.linalg.lstsq(M, rhs, rcond=None)[0]


def _residuals(sf: _StandardForm, X, x, S, s, y, b_scale: float, c_scale: float):
    """Objectives, residuals and the scaled residual norms of an iterate."""
    pobj = _block_sum(sf, sf.members(_inner(sf.C, X)), sf.c * x)
    dobj = float(sf.b @ y)
    rp = sf.b - sf.apply(X, x)
    ay, ay_vec = sf.adjoint(y)
    Rd = [c - sk - ayk for c, sk, ayk in zip(sf.C, S, ay)]
    rd = sf.c - s - ay_vec
    dual_sq = _block_sum(sf, [float(np.linalg.norm(r)) ** 2 for r in sf.members(Rd)], rd * rd)
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
    X^(-1/2) as stacks; a vector entry's ratio is x^(-1/2) dx x^(-1/2)."""
    lam = [float(np.linalg.eigvalsh(linalg.hermitian_part(xi @ d @ _ct(xi))).min())
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
    contract (``_meets_contract``) as "optimal". Primal blocks are
    returned full size: a framed block reassembled from its sub-blocks.
    """
    sf = _StandardForm(problem)
    m = sf.m
    # the barrier degree: the rank of the cone, d for a d x d block however
    # it is split, one per vector entry
    n_total = sum(sf.dims) + sf.c.size

    # normalize the objective so the iterates (and hence the argmin) do not
    # depend on its scale; objective values are mapped back on return
    c_norms = sf.block_norms([float(np.linalg.norm(c)) ** 2 for _, _, _, c in sf.blocks()])
    obj_scale = float(c_norms.max())
    if obj_scale > 0.0:
        sf.C = [c / obj_scale for c in sf.C]
        # numpy divides a complex array by a real number as a product with its
        # reciprocal; the vector entries round as the dense blocks do
        sf.c = sf.c * (1.0 / obj_scale)
    else:
        obj_scale = 1.0

    b_scale = 1.0 + float(np.linalg.norm(sf.b))
    c_norms = c_norms / obj_scale
    c_scale = 1.0 + float(c_norms.max())
    a_row_norms = np.zeros(m)
    a_sq = []
    for _, rows, a, _ in sf.blocks():
        sq = np.conjugate(a)  # a new array also when a is real
        sq *= a  # |a|² in one temporary, by numpy's complex product
        sq = sq.real.sum(axis=1)
        a_row_norms[rows] += sq
        a_sq.append(float(sq.sum()))
    a_row_norms = np.sqrt(a_row_norms)
    a_norms = sf.block_norms(a_sq)
    # every sub-block of a problem block starts where the whole block would:
    # from its dimension and its norms
    X, S = [], []
    x, s = np.empty(sf.c.size), np.empty(sf.c.size)
    for (vector, j), k, (d, *_) in zip(sf.layout, sf.block_of, sf.blocks()):
        full = sf.block_dims[k]
        xi = max(10.0, np.sqrt(full),
                 full * float(np.max((1.0 + np.abs(sf.b)) / (1.0 + a_row_norms))))
        eta = max(10.0, np.sqrt(full), 1.0 + max(float(c_norms[k]), float(a_norms[k])))
        if vector:
            x[sf.slices[j]], s[sf.slices[j]] = xi, eta
        else:
            X.append(xi * np.eye(d, dtype=complex))
            S.append(eta * np.eye(d, dtype=complex))
    X, S = sf.stacks(X), sf.stacks(S)
    y = np.zeros(m)

    status = "iteration-limit"
    it = 0
    contract_iterate = None  # the last (X, x, S, s, y) that met the end-point contract
    for it in range(1, MAX_ITER + 1):
        pobj, dobj, rp, Rd, rd, residuals = _residuals(sf, X, x, S, s, y, b_scale, c_scale)
        mu = _block_sum(sf, sf.members(_inner(X, S)), x * s) / n_total
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
        traces = [float(np.trace(xk, axis1=-2, axis2=-1).real.max()) for xk in X] \
            + sf.block_sums(x).tolist()
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
        mu_aff = _block_sum(sf, sf.members(_inner([xk + ap_aff * dx for xk, dx in zip(X, dX_a)],
                                                  [sk + ad_aff * ds for sk, ds in zip(S, dS_a)])),
                            (x + ap_aff * dx_a) * (s + ad_aff * ds_a)) / n_total
        sigma = min(max((max(mu_aff, 0.0) / mu) ** 3, 1e-10), 1.0) if mu > 0 else 0.1

        # corrector: target sigma*mu on the central path plus the Mehrotra
        # second-order term, mapped back through the NT scaling
        Rc = []
        for (_, gk, gk_inv, v_eigs, v_vecs), dx, ds in zip(scalings, dX_a, dS_a):
            dx_hat = gk_inv @ dx @ gk_inv
            ds_hat = gk @ ds @ gk
            corr = 0.5 * (dx_hat @ ds_hat + ds_hat @ dx_hat)
            diag = np.arange(gk.shape[-1])
            target = sigma * mu * np.eye(diag.size) - corr
            zp = _ct(v_vecs) @ target @ v_vecs
            zp = 2.0 * zp / (v_eigs[..., :, None] + v_eigs[..., None, :])
            zp[..., diag, diag] -= v_eigs  # the -V part of -V^2
            rc_hat = v_vecs @ zp @ _ct(v_vecs)
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
        primal_blocks=sf.problem_blocks(X, x),
        dual_multipliers=obj_scale * y,
        primal_objective=obj_scale * pobj,
        dual_objective=obj_scale * dobj,
        status=status,
        iterations=it,
        residuals=residuals,
    )
