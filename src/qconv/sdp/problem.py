"""Standard-form semidefinite programs over Hermitian or real symmetric blocks.

A problem holds PSD variable blocks X_k and scalar equality rows

    minimize    sum_k <C_k, X_k>
    subject to  sum_k <A_ik, X_k> = b_i,      X_k >= 0,

with the real inner product <A, X> = Re Tr(A† X), and its dual

    maximize    sum_i b_i y_i
    subject to  C_k - sum_i y_i A_ik >= 0   for every block k.

A program can be stated either way. In the primal form an operator
equation becomes one scalar row per element of a basis of its space. In
the dual (LMI) form the rows are the coordinates of the operator unknowns
in that basis, and each linear matrix inequality is one block k with no
rows of its own; the converse programs in ``bounds`` use this form. A
``Basis`` knows its length before any element is built: the full Hermitian
basis, the diagonal one, or the permutation-invariant one of n uses, whose
span holds an optimum when the program's data is invariant (Gatermann &
Parrilo, *Symmetry groups, semidefinite programs, and sums of squares*,
JPAA 2004). Complex conjugation is such a symmetry of a program whose data
is real, so a basis can also give its real sub-basis, whose span is the real
symmetric operators it holds (de Klerk, Pasechnik & Schrijver, Math.
Program. 2007).

A problem has one dtype: complex, or float64 when every coefficient is real
symmetric. Its coefficients are stored, and solved, in that dtype, so a
real program runs its solve in real arithmetic.

A block may be declared with a ``Frame``: an orthonormal basis of its space
in which every coefficient on the block, and its objective, is
block-diagonal. The same symmetry that restricts the unknowns forces this
structure (the Schur-Weyl decomposition for permutations of n uses, 1x1
blocks for diagonal phases), and a block-diagonal linear matrix inequality
holds exactly when each of its diagonal sub-blocks is PSD (Murota, Kanno,
Kojima & Kojima, JJIAM 2010). Such a block keeps only those sub-blocks; a
block declared without a frame has the standard basis in one group, the
whole block. A scalar inequality is a 1x1 block the program declares
itself, like every other inequality, so the blocks and rows a problem
holds are the ones the solver solves. The solver stacks the sub-blocks of
each size, 1x1 blocks and 1x1 sub-blocks alike, and holds every row's
coefficients on a stack as one dense matrix.

A problem counts, as its rows are declared, the coefficient bytes it will
hold during a solve (16 per complex entry, 8 per real one), and rejects
rows that would take the program over MAX_PROGRAM_BYTES before building
any of their coefficients.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .. import linalg

MAX_PROGRAM_BYTES = 4 * 2**30  # admits the three-use qubit programs, both classes


def check_program_bytes(need: int) -> None:
    """Reject a program that needs ``need`` bytes of coefficients, over MAX_PROGRAM_BYTES."""
    if need > MAX_PROGRAM_BYTES:
        tenths = (20 * need + 2**30) // 2**31  # in integers: a float overflows at many uses
        raise ValueError(f"the program needs {tenths // 10}.{tenths % 10} GiB of constraint "
                         f"coefficients, over the {MAX_PROGRAM_BYTES / 2**30:.0f} GiB limit")


@dataclass
class LinearConstraint:
    """One scalar row: sum over blocks of <coeff, X_block> = rhs, each
    coefficient packed in its block's frame (``Frame.pack``). Every row is
    an equality; ``sense`` is always "==" and stays a field because the
    benchmark's traced solve (``perfbench/traced.py``) reads it."""

    coeffs: dict[int, np.ndarray]
    rhs: float
    sense: str = "=="


FRAME_RTOL = 1e-6  # off-block mass, relative to the coefficient, at which packing fails


class Frame:
    """An orthonormal basis U = [U_1 ... U_r] of C^d, in groups of columns
    given as (size, count) ``runs``, in which every coefficient of a block
    is block-diagonal; a frame is sized without listing its groups.

    ``pack(a)`` keeps the sub-blocks U_iᵀ a U_i, flattened one after another
    into ``entries`` = sum(s²) entries; ``unpack`` maps such a vector back to
    U (X_1 ⊕ ... ⊕ X_r) Uᵀ. ``build()`` returns U, real orthogonal, and is
    called on first use of ``unitary``; a frame without it is the standard
    basis in its groups, so one group is a whole block and 1x1 groups are a
    diagonal one. Packing and unpacking keep the dtype of their input.
    """

    def __init__(self, runs, build=None):
        self.runs = tuple((int(s), int(count)) for s, count in runs)
        if any(s < 1 or count < 1 for s, count in self.runs):
            raise ValueError(f"frame runs need sizes and counts >= 1, got {self.runs}")
        self._build = build

    @functools.cached_property
    def sizes(self) -> tuple[int, ...]:
        return tuple(s for s, count in self.runs for _ in range(count))

    @functools.cached_property
    def dim(self) -> int:
        return sum(s * count for s, count in self.runs)

    @functools.cached_property
    def entries(self) -> int:
        return sum(s * s * count for s, count in self.runs)

    @functools.cached_property
    def unitary(self) -> np.ndarray | None:
        return None if self._build is None else self._build()

    def _groups(self):
        ends = np.cumsum([0, *self.sizes])
        return [slice(a, b) for a, b in zip(ends[:-1], ends[1:])]

    @functools.cached_property
    def _index(self) -> np.ndarray:
        """Where each packed entry sits in the flattened d x d matrix."""
        every = np.arange(self.dim)
        return np.concatenate([(every[c, None] * self.dim + every[c]).reshape(-1)
                               for c in self._groups()])

    def pack(self, a: np.ndarray) -> np.ndarray:
        """The diagonal sub-blocks of Hermitian ``a`` in this frame, packed;
        raises if ``a`` has off-block mass above FRAME_RTOL of its norm."""
        u = self.unitary
        if u is None:
            packed = a.reshape(-1)[self._index]
        else:
            # each sub-block sums the nonzero entries of a times the outer
            # products of rows of U: cheap for the orbit sums of a program
            nz = np.flatnonzero(a)
            p, q = np.divmod(nz, self.dim)
            left, right = u[p] * a.reshape(-1)[nz][:, None], u[q]
            pieces = [left[:, c].T @ right[:, c] for c in self._groups()]
            packed = np.concatenate([(x + x.conj().T).reshape(-1) / 2 for x in pieces])
        total = float(np.vdot(a, a).real)
        if total - float(np.vdot(packed, packed).real) > FRAME_RTOL**2 * total:
            raise ValueError("coefficient is not block-diagonal in the block's frame")
        return packed

    def unpack(self, packed: np.ndarray) -> np.ndarray:
        """The d x d operator whose packed sub-blocks are ``packed``."""
        x = np.zeros(self.dim * self.dim, dtype=packed.dtype)
        x[self._index] = packed
        x = x.reshape(self.dim, self.dim)
        u = self.unitary
        return x if u is None else u @ x @ u.T


def diagonal_frame(d: int) -> Frame:
    """The standard basis of C^d in 1x1 groups: the frame of diagonal blocks."""
    return Frame([(1, d)])


class SdpProblem:
    """Container and validator for a block-diagonal Hermitian SDP.

    ``frames[k]`` is block k's ``Frame``; a block declared without one gets
    ``Frame([(d, 1)])``, the whole block. Every coefficient is stored packed
    in its block's frame, in the problem's ``dtype``: complex, or float64
    for a program over real symmetric blocks, whose coefficients must then
    be real. Every row is an equality, and every inequality is a declared
    block: a scalar one is a 1x1 block.

    ``coefficient_bytes`` is what the declared rows will hold during a
    solve, and it is exact. Each row keeps its own packed coefficients
    here, e bytes per entry: 16 complex, 8 real. The solver keeps a second
    copy, dense over every row and block: e·m·P bytes for m rows and P
    packed entries over all blocks (sum s² over their sub-blocks). So a row
    costs the solver e·P bytes, and a block added after m rows e·m·sum s².
    """

    def __init__(self, block_dims: list[int], frames: list[Frame | None] | None = None,
                 dtype=complex):
        if not block_dims:
            raise ValueError(f"invalid block dimensions {block_dims}")
        self.dtype = np.dtype(dtype)
        if self.dtype not in (np.complex128, np.float64):
            raise ValueError(f"a problem is complex128 or float64, not {self.dtype}")
        self.block_dims: list[int] = []
        self.frames: list[Frame] = []
        self.objective: dict[int, np.ndarray] = {}
        self.constraints: list[LinearConstraint] = []
        self.coefficient_bytes = 0
        self._held = self._rows = self._width = 0  # the rows' own entries; m; P
        for d, frame in zip(block_dims, frames or [None] * len(block_dims), strict=True):
            self.add_block(d, frame)

    def add_block(self, dim: int, frame: Frame | None = None) -> int:
        if int(dim) < 1:
            raise ValueError("block dimension must be >= 1")
        frame = Frame([(dim, 1)]) if frame is None else frame
        if frame.dim != dim:
            raise ValueError(f"frame of dimension {frame.dim} on a block of dimension {dim}")
        self._admit(0, 0, frame.entries)
        self.block_dims.append(int(dim))
        self.frames.append(frame)
        return len(self.block_dims) - 1

    def _frame(self, k: int) -> Frame:
        if not 0 <= k < len(self.frames):
            raise ValueError(f"unknown block index {k}")
        return self.frames[k]

    def _admit(self, rows: int, entries: int, columns: int, build=lambda: None):
        """Count ``rows`` more rows holding ``entries`` packed entries here, and
        ``columns`` more columns of the solver's copy (a block's packed
        entries), and return ``build()``: a program over MAX_PROGRAM_BYTES is
        rejected before the call, and a call that fails counts nothing."""
        held, m, width = self._held + entries, self._rows + rows, self._width + columns
        need = self.dtype.itemsize * (held + m * width)
        check_program_bytes(need)
        built = build()
        self._held, self._rows, self._width = held, m, width
        self.coefficient_bytes = need
        return built

    def _check_coeff(self, k: int, a) -> np.ndarray:
        frame = self._frame(k)
        a = np.atleast_2d(np.asarray(a))
        if np.iscomplexobj(a) and self.dtype == np.float64:
            if np.any(a.imag):
                raise ValueError("a real program's coefficient has an imaginary part")
            a = a.real
        a = a.astype(self.dtype, copy=False)
        if a.shape != (frame.dim, frame.dim):
            raise ValueError(f"coefficient shape {a.shape} does not match block dim {frame.dim}")
        return frame.pack(linalg.require_hermitian(a, rtol=1e-10))

    def set_objective(self, k: int, c) -> None:
        self.objective[k] = self._check_coeff(k, c)

    def add_constraint(self, coeffs: dict[int, np.ndarray], rhs: float) -> None:
        """Add the equality sum_k <coeffs[k], X_k> = rhs. An inequality is
        stated on a block declared for it: sum_k <A_k, X_k> <= rhs is this
        row with +s on a 1x1 block s, and >= with -s."""
        if not coeffs:
            raise ValueError("constraint must touch at least one block")
        packed = {k: self._check_coeff(k, a) for k, a in coeffs.items()}
        self._admit(1, sum(a.size for a in packed.values()), 0)
        self.constraints.append(LinearConstraint(packed, float(rhs)))

    def add_operator_equality(self, terms: dict[int, "callable"], basis: "Basis") -> None:
        """Add the operator equation sum_k L_k(X_k) = 0 on the span of ``basis``,
        one scalar row per basis element.

        ``terms`` maps a block index to the adjoint of its linear map:
        a callable taking a basis element H and returning the coefficient
        operator L_k†(H) on that block. Read on the dual side, the rows are
        the coordinates y_H of an operator unknown Y = sum_H y_H H, and
        block k's dual slack gains -L_k†(Y). All ``len(basis)`` rows are
        admitted before the first basis element is built, and declared once
        all are built, so a term that fails declares none.
        """
        if not terms:
            raise ValueError("constraint must touch at least one block")
        rows = basis.size  # len() fails above sys.maxsize, where a rejection is due
        self.constraints += self._admit(
            rows, rows * sum(self._frame(k).entries for k in terms), 0,
            lambda: [LinearConstraint({k: self._check_coeff(k, adj(h))
                                       for k, adj in terms.items()}, 0.0) for h in basis])


class Basis:
    """An orthonormal basis of a real space of d x d Hermitian matrices.

    Its length is known in closed form; iterating builds the elements one
    at a time, so a program can be sized, and rejected, before any exists.
    ``frame`` is a ``Frame`` in which every element is block-diagonal, or
    None. ``dtype`` is the elements' dtype: float64 when every element is
    real symmetric, else complex.
    """

    def __init__(self, size: int, elements, frame: Frame | None = None, dtype=complex):
        self.size, self._elements, self.frame = size, elements, frame
        self.dtype = np.dtype(dtype)

    def __len__(self) -> int:
        return self.size

    def __iter__(self):
        return iter(self._elements())

    def operator(self, coords: np.ndarray) -> np.ndarray:
        """The Hermitian operator with coordinates ``coords`` in this basis."""
        return sum(c * h for c, h in zip(coords, self))


def diagonal_basis(d: int) -> Basis:
    """The real diagonal d x d matrices: the span fixed by conjugation with
    every diagonal unitary. Its elements are real."""

    def elements():
        for i in range(d):
            e = np.zeros((d, d))
            e[i, i] = 1.0
            yield e

    return Basis(d, elements, diagonal_frame(d), float)


def _use_orbits(dims: tuple[int, ...], n: int) -> np.ndarray:
    """For each matrix unit |i><j| of the n-use space, the index of its orbit
    under permuting the uses.

    An index i of the space (C^d_1)^⊗n ⊗ ... ⊗ (C^d_f)^⊗n, factor-major,
    holds in each use k a local index of C^d_1 ⊗ ... ⊗ C^d_f; the unit
    |i><j| is the product over k of local units, and a permutation of the
    uses permutes them. Its orbit is therefore the multiset of local units.
    """
    d_loc = math.prod(dims)
    size = d_loc ** n
    digits = np.unravel_index(np.arange(size), [d for d in dims for _ in range(n)])
    local = np.zeros((size, n), dtype=np.int64)
    for f, d in enumerate(dims):
        local = local * d + np.stack(digits[f * n:(f + 1) * n], axis=1)
    units = np.sort(local[:, None, :] * d_loc + local[None, :, :], axis=2)
    keys = units @ (d_loc * d_loc) ** np.arange(n - 1, -1, -1, dtype=np.int64)
    return np.unique(keys, return_inverse=True)[1].reshape(size, size)


def invariant_size(d: int, n: int, real: bool = False) -> int:
    """The length of ``invariant_basis`` for D = ``d``, in closed form.

    The basis has one element per orbit of n-tuples of the D² matrix units,
    C(D² + n - 1, n) of them. Its real sub-basis keeps each orbit O equal to
    its transpose and one element per pair O ≠ Oᵀ: (C(D² + n - 1, n) + F) / 2,
    where F counts the orbits equal to their transposes, multisets of D
    diagonal units and of the D(D - 1)/2 off-diagonal pairs {u, uᵀ}: the
    coefficient of xⁿ in (1 - x)^-D (1 - x²)^-D(D-1)/2, which is
    (1 + x)^D (1 - x²)^-D(D+1)/2, a sum of at most D + 1 terms at any n.
    """
    orbits = math.comb(d * d + n - 1, n)
    if not real:
        return orbits
    factors = d * (d + 1) // 2
    fixed = sum(math.comb(d, j) * math.comb(factors + (n - j) // 2 - 1, (n - j) // 2)
                for j in range(n % 2, min(d, n) + 1, 2))
    return (orbits + fixed) // 2


def invariant_basis(dims: tuple[int, ...], n: int, real: bool = False) -> Basis:
    """Hermitian operators on n uses of C^d_1 ⊗ ... ⊗ C^d_f, stored as
    (C^d_1)^⊗n ⊗ ... ⊗ (C^d_f)^⊗n, that are invariant under permuting the
    uses; with ``real``, the real symmetric ones among them.

    The elements are the orthonormalised orbit sums of matrix units: an
    orbit O equal to its transpose gives O/|O|^½, and a pair O ≠ Oᵀ gives
    (O + Oᵀ) and, unless ``real``, i(O - Oᵀ), each over (2|O|)^½. There
    are ``invariant_size(D, n, real)`` elements for D = d_1···d_f, float64
    with ``real`` and complex without. Elements come in the row-major order
    of the first upper-triangular unit of their orbits. For n >= 2 the
    basis carries ``invariant_frame(dims, n)``.
    """
    d_loc = math.prod(dims)
    dtype = float if real else complex

    def elements():
        orbit = _use_orbits(dims, n)
        rows, cols = np.triu_indices(len(orbit))
        pair = np.minimum(orbit, orbit.T)[rows, cols]
        for t in np.sort(np.unique(pair, return_index=True)[1]):
            o, o_t = orbit[rows[t], cols[t]], orbit[cols[t], rows[t]]
            mask = orbit == o
            e = np.zeros(orbit.shape, dtype=dtype)
            if o == o_t:
                e[mask] = 1.0 / np.sqrt(np.count_nonzero(mask))
                yield e
                continue
            s = 1.0 / np.sqrt(2 * np.count_nonzero(mask))  # O and Oᵀ are disjoint
            e[mask] = s
            e[mask.T] = s
            yield e
            if real:
                continue
            e = np.zeros(orbit.shape, dtype=complex)
            e[mask] = 1j * s
            e[mask.T] = -1j * s
            yield e

    return Basis(invariant_size(d_loc, n, real), elements, invariant_frame(dims, n), dtype)


def _partitions(n: int, parts: int, largest: int):
    """The partitions of n into at most ``parts`` parts of at most ``largest``."""
    if n == 0:
        yield ()
        return
    for k in range(min(n, largest), (n - 1) // parts, -1):
        for rest in _partitions(n - k, parts - 1, k):
            yield (k, *rest)


def _schur_weyl_runs(d: int, n: int) -> list[tuple[int, int]]:
    """The sub-block sizes of the operators on (C^d)^⊗n that commute with permuting
    the uses, as decreasing (size, count) runs: for each partition λ of n into at
    most d parts, padded to d, with l_i = λ_i + d - i and Δ = Π_{i<j} (l_i - l_j),
    Δ / Π_{i<j} (j - i) for the GL(d) irrep λ (Weyl), n! Δ / Π l_i! for S_n's (Frobenius)."""
    pairs = list(itertools.combinations(range(d), 2))
    runs = []
    for lam in _partitions(n, d, n):
        shifted = [row + d - 1 - i for i, row in enumerate(lam + (0,) * (d - len(lam)))]
        delta = math.prod(shifted[i] - shifted[j] for i, j in pairs)
        runs.append((delta // math.prod(j - i for i, j in pairs),
                     math.factorial(n) * delta // math.prod(map(math.factorial, shifted))))
    return sorted(runs, reverse=True)


FRAME_SEED = 2004


def invariant_frame(dims: tuple[int, ...], n: int) -> Frame | None:
    """The frame in which every use-permutation-invariant operator on n uses
    of C^d_1 ⊗ ... ⊗ C^d_f (stored as in ``invariant_basis``) is
    block-diagonal, or None for n = 1.

    Its columns are the eigenvectors of A = sum_π c_π (P_π + P_πᵀ), for the
    permutation matrices P_π of the uses and fixed-seed random c_π (Murota,
    Kanno, Kojima & Kojima, JJIAM 2010). An invariant operator commutes with
    A, so it maps each eigenspace of A into itself; for generic c the
    eigenspaces are the Schur-Weyl ones, one of dimension m_λ for each of the
    d_λ copies of each irrep λ. Every copy is kept, so the frame spans the
    whole space. Its groups are in decreasing size, ties in increasing
    eigenvalue; their sizes are known before U is built.
    """
    if n < 2:
        return None
    size = math.prod(dims) ** n
    runs = _schur_weyl_runs(math.prod(dims), n)

    def build():
        sizes = [s for s, count in runs for _ in range(count)]
        index = np.arange(size).reshape([d for d in dims for _ in range(n)])
        every = np.arange(size)
        rng = np.random.default_rng(FRAME_SEED)
        a = np.zeros((size, size))
        for perm in itertools.permutations(range(n)):
            p = index.transpose([f * n + k for f in range(len(dims)) for k in perm]).reshape(-1)
            c = rng.standard_normal()
            a[every, p] += c
            a[p, every] += c
        w, v = np.linalg.eigh(a)
        gaps = np.diff(w)
        cuts = np.sort(np.argsort(gaps)[size - len(sizes):]) + 1
        groups = np.split(every, cuts)
        spread = max(float(w[g[-1]] - w[g[0]]) for g in groups)
        if sorted(map(len, groups), reverse=True) != list(sizes) \
                or (cuts.size and spread > 1e-6 * float(gaps[cuts - 1].min())):
            raise RuntimeError(f"the eigenspaces of the frame's random element are not "
                               f"the Schur-Weyl ones of sizes {sizes}")
        groups.sort(key=lambda g: (-len(g), w[g[0]]))
        return v[:, np.concatenate(groups)]

    return Frame(runs, build)


def hermitian_basis(d: int, real: bool = False) -> Basis:
    """All d x d Hermitian matrices, the one-use case of ``invariant_basis``:
    each diagonal unit, then for each i < j the symmetric and antisymmetric
    pair, in row-major order; with ``real``, the real symmetric ones, without
    the antisymmetric elements."""
    return invariant_basis((d,), 1, real)


@dataclass
class SdpSolution:
    primal_blocks: list[np.ndarray]
    dual_multipliers: np.ndarray
    primal_objective: float
    dual_objective: float
    status: str
    iterations: int
    residuals: dict = field(default_factory=dict)


@dataclass
class VerifyReport:
    ok: bool
    max_equality_violation: float
    min_block_eigenvalue: float
    relative_gap: float
    findings: list[str]


VERIFY_FEAS_TOL = 1e-8  # scaled residual above which verify flags a constraint
VERIFY_GAP_TOL = 1e-7  # relative duality gap above which verify flags an optimal solution


def verify(problem: SdpProblem, solution: SdpSolution) -> VerifyReport:
    """Independently re-evaluate feasibility residuals and the duality gap.
    Every row is an equality and every inequality a block, so the row
    residuals and the blocks' PSD checks cover the whole program."""
    findings: list[str] = []
    b_scale = 1.0 + max((abs(c.rhs) for c in problem.constraints), default=0.0)
    max_eq = 0.0
    # the coefficients are packed, so the primal blocks are too
    primal = [frame.pack(x) for frame, x in zip(problem.frames, solution.primal_blocks)]
    for idx, con in enumerate(problem.constraints):
        value = sum(float(np.vdot(a, primal[k]).real) for k, a in con.coeffs.items())
        viol = abs(value - con.rhs)
        max_eq = max(max_eq, viol)
        if viol > VERIFY_FEAS_TOL * b_scale:
            findings.append(f"constraint {idx} violated by {viol:.3e}")
    min_eig = np.inf
    for k, x in enumerate(solution.primal_blocks):
        w = np.linalg.eigvalsh(linalg.hermitian_part(x))
        min_eig = min(min_eig, float(w.min()))
        if w.min() < -1e-9 * (1.0 + abs(w.max())):
            findings.append(f"block {k} not PSD: min eigenvalue {w.min():.3e}")
    p, d = solution.primal_objective, solution.dual_objective
    gap = abs(p - d) / (1.0 + abs(p) + abs(d))
    if solution.status == "optimal" and gap > VERIFY_GAP_TOL:
        findings.append(f"duality gap {gap:.3e} exceeds {VERIFY_GAP_TOL:.1e}")
    return VerifyReport(ok=not findings, max_equality_violation=max_eq,
                        min_block_eigenvalue=float(min_eig),
                        relative_gap=gap, findings=findings)
