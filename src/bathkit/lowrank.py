"""Low-rank kernels for real matrices.

Two primitives live here:

* ``column_id`` -- a column interpolative decomposition f ~ B @ P built on
  deterministic left-looking pivoted Gram-Schmidt.  B consists of actual
  columns of f, and P carries an exact r x r identity on the selected
  columns.  The factorization stops as soon as the next pivot norm falls
  below ``tol`` times the first one.  It only reads f, through its column
  norms, chosen columns, Gram rows f_j^T f and products q^T f, so a
  structured matrix can supply those without ever being stored; a stale
  residual norm is rebuilt only when it could be the next pivot.  It also
  returns the QR factor of the selected columns, f[:, selected] = Q^T T.

* ``nnls`` -- the Lawson-Hanson active-set method for min ||A z - b|| with
  z >= 0.  The active-set loop runs on a small triangle R of A = QR and
  on Q^T b, solving each passive set by a QR of its columns of R.  Given
  the ID's factor of A, it takes R = T and warm-starts from the
  least-squares solution on T; otherwise it triangularizes [A | b] once,
  without forming Q, and starts from z = 0.  Inactive coordinates are
  exact zeros (never small negatives), which downstream code relies on
  when pruning.

Both are pure functions of their inputs; pivot and index ties break toward
the lowest index, so results are reproducible bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ValidationError

__all__ = ["IdResult", "NnlsResult", "column_id", "nnls"]

# A downdated residual norm^2 that has fallen to this fraction of its last
# exactly computed value is stale (Drmac & Bujanovic 2008).
_RECOMPUTE_RATIO = np.sqrt(np.finfo(float).eps)
# columns built at once when recomputing residual norms
RECOMPUTE_CHUNK = 256
# column_id takes rows of R from Gram rows at this tol and above, from
# products q^T f below it (a Gram row errs by about eps/tol of the first pivot)
GRAM_ROW_MIN_TOL = 1e-6
# nnls gives up after this many outer iterations per column of A
NNLS_ITERATIONS_PER_COLUMN = 3


@dataclass(frozen=True)
class IdResult:
    """Column interpolative decomposition of an m x n matrix.

    ``selected`` lists r column indices in pivot order; ``r_rows`` owns the
    r x n rows q_k^T f of the Gram-Schmidt factor R in original column
    order.  At tol >= ``GRAM_ROW_MIN_TOL`` they come from Gram rows and err
    by about eps/tol times the first pivot norm (at most 3 eps/tol measured
    on the surrogate's sample matrix); below it they are the products
    q_k^T f.  R's pivot columns hold T above their diagonal: ``triangle``
    T = ``np.triu(r_rows[:, selected])`` has pivot k's coefficients over
    its pivot norm in column k, and ``q`` owns the r x m orthonormal rows
    q_k, so f[:, selected] = q.T @ T to roundoff.  ``interp`` is the r x n
    coefficient matrix P = T^-1 R, so f ~ f[:, selected] @ interp; it is
    computed on first read and cached.  ``pivot_norms`` holds the r + 1
    residual norms of the pivot candidates: the r accepted pivots and the
    one that ended the factorization (0.0 when no column with a nonzero
    residual was left).
    """

    rank: int
    selected: np.ndarray
    r_rows: np.ndarray
    pivot_norms: np.ndarray
    triangle: np.ndarray
    q: np.ndarray

    @cached_property
    def interp(self) -> np.ndarray:
        interp = np.linalg.solve(self.triangle, self.r_rows)
        interp[:, self.selected] = np.eye(self.rank)
        return interp


@dataclass(frozen=True)
class NnlsResult:
    """Solution of min ||A z - b||_2 subject to z >= 0.

    On convergence every inactive dual that ``nnls`` stopped on (computed
    on R) is at or below ``dual_tolerance``; duals recomputed on A agree
    with those only to roundoff, a few times the tolerance.  ``iterations``
    counts outer iterations, each adding one column to the passive set;
    with a factor they are those after the warm start, often none.
    """

    z: np.ndarray
    residual_norm: float
    iterations: int
    converged: bool
    dual_tolerance: float


def _validate_matrix(a, name: str) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
        raise ValidationError(f"{name} must be a 2-d matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValidationError(f"{name} contains non-finite entries")
    return a


class _Dense:
    """A dense matrix behind the column-operator interface of ``column_id``."""

    def __init__(self, f):
        self.f = _validate_matrix(f, "f")
        self.shape = self.f.shape
        self.norms2 = np.einsum("ij,ij->j", self.f, self.f)

    def columns(self, idx):
        return self.f[:, idx]

    def rmatvec(self, q):
        return q @ self.f

    def gram_row(self, j):
        return self.f[:, j] @ self.f


def column_id(f, tol: float) -> IdResult:
    """Interpolative decomposition by left-looking pivoted Gram-Schmidt.

    ``f`` is a dense m x n array or a column operator: an object with
    ``shape``, ``norms2`` (the n squared column norms), ``columns(idx)``
    (the m x len(idx) block f[:, idx]), ``gram_row(j)`` (f_j^T f) and
    ``rmatvec(q)`` (q^T f).

    Each step pivots on the largest residual column norm, orthogonalizes
    that column twice against the previous pivots (CGS2), f_j = Q^T c + w,
    and appends the row q^T f of R, q = w / ||w||.  At tol >=
    ``GRAM_ROW_MIN_TOL`` (read at call time) that row is the left-looking
    pivoted Cholesky update (f_j^T f - c^T R) / ||w|| (Higham 1990), which
    errs by about eps/tol of the first pivot norm; below the floor, where
    that error would approach the size of the pivot decisions, it is
    ``rmatvec(q)``.  Pivot columns, their norms and the stop test always
    come from explicit columns, so both give the same pivots unless
    roundoff in R breaks a near tie.  Residual norms are downdated by that
    row; one that has fallen to sqrt(eps) of its last exact value is stale,
    and is computed afresh, as ||f_j - Q^T R_j||^2, once it plus sqrt(eps)
    of that value reaches the largest fresh norm.  A downdate errs by a few
    k*eps of that value, so a stale norm left below the bound cannot be the
    next pivot and the pivots are those of recomputing every stale norm at
    once.  A zero residual, such as a pivot's, never makes a pivot.

    Pivot k's coefficients c and pivot norm ||w|| overwrite rows 0..k of
    R's column j, so ``triangle`` T = ``np.triu(r_rows[:, selected])`` and
    the rows q_k = w / ||w|| of ``q`` are the QR factor of f[:, selected];
    T's diagonal holds the accepted pivot norms, so T is nonsingular.  Q
    and R, sized for rank min(m, n) while the ID runs, return shrunk to r rows
    in place, or as copies of those rows when something else refers to them:
    a Python-level tracer's or debugger's snapshot of the locals (pdb,
    ``python -m trace``) does, and ``ndarray.resize`` then refuses.

    The rank is the smallest k for which the (k+1)-th pivot norm satisfies
    ||residual|| <= tol * (first pivot norm).  The pivots depend on ``tol``
    only through the floor's choice of rows, so on one side of the floor
    the selection at a looser tol is a prefix of the one at a tighter tol.
    A zero matrix yields rank 0 with an empty selection.
    """
    op = f if hasattr(f, "rmatvec") else _Dense(f)
    if not (tol > 0 and np.isfinite(tol)):
        raise ValidationError(f"column_id: tol must be positive, got {tol}")
    m, n = op.shape
    norms2 = np.array(op.norms2, dtype=float)
    if norms2.shape != (n,) or not np.all(np.isfinite(norms2)):
        raise ValidationError("column_id: column norms must be finite")

    gram = tol >= GRAM_ROW_MIN_TOL
    kmax = min(m, n)
    exact = norms2.copy()  # each norm^2 at its last exact evaluation; 0.0 once a pivot
    # sized for the worst-case rank; only the rows reached are written or kept
    q = np.empty((kmax, m))
    r = np.empty((kmax, n))
    selected, pivot_norms = [], []
    for k in range(kmax + 1):
        candidates = exact > 0.0  # a zero residual is never a pivot
        if not candidates.any():
            pivot_norms.append(0.0)
            break
        j = int(np.argmax(np.where(candidates, norms2, -1.0)))  # ties: lowest index
        w = op.columns([j])[:, 0]
        c = np.zeros(k)  # f_j = Q^T c + w: the two passes' coefficients
        for _ in range(2):
            coef = q[:k] @ w
            w = w - q[:k].T @ coef
            c += coef
        pivnorm = float(np.linalg.norm(w))
        pivot_norms.append(pivnorm)
        if k == kmax or pivnorm <= tol * pivot_norms[0]:
            break
        q[k] = w / pivnorm
        r[k] = (op.gram_row(j) - c @ r[:k]) / pivnorm if gram else op.rmatvec(q[k])
        r[:k, j], r[k, j] = c, pivnorm  # T's column k; later rows fall below its diagonal
        selected.append(j)
        exact[j] = 0.0  # f_j now lies in span(Q): its residual is exactly zero
        norms2 -= r[k] * r[k]
        np.maximum(norms2, 0.0, out=norms2)  # roundoff must not drive a residual negative
        live = exact > 0.0
        stale = live & (norms2 <= _RECOMPUTE_RATIO * exact)
        top = np.max(norms2[live & ~stale], initial=0.0)  # the largest fresh norm^2
        stale = np.flatnonzero(stale & (norms2 + _RECOMPUTE_RATIO * exact >= top))
        for start in range(0, stale.size, RECOMPUTE_CHUNK):
            cols = stale[start : start + RECOMPUTE_CHUNK]
            res = op.columns(cols) - q[: k + 1].T @ r[: k + 1, cols]
            exact[cols] = norms2[cols] = np.einsum("ij,ij->j", res, res)
            del res  # free this chunk before the next one's columns are built

    rank = len(selected)
    selected = np.array(selected, dtype=int)
    try:  # in place; refcheck raises if anything else still refers to q or r
        q.resize((rank, m))
        r.resize((rank, n))
    except ValueError:  # a tracer's or debugger's snapshot of these locals refers to them
        q, r = q[:rank].copy(), r[:rank].copy()
    return IdResult(rank, selected, r, np.array(pivot_norms), np.triu(r[:, selected]), q)


def nnls(a, b, factor=None) -> NnlsResult:
    """Lawson-Hanson active-set solver for min ||A z - b||, z >= 0.

    The loop runs on a triangle R of A = QR (Q orthonormal) and on Q^T b
    alone: A[:, P] = Q R[:, P], so each passive-set least-squares problem
    min ||R[:, P] x - Q^T b|| has the same solution as on A, and the duals
    are w = R^T (Q^T b - R z).  Lawson-Hanson passive columns are linearly
    independent (Lawson & Hanson 1974, ch. 23), so that problem is solved
    by a QR of R[:, P] and a square solve, with no SVD.

    Without ``factor``, [A | b] is triangularized once by Householder QR,
    with no Q formed: the first n columns of its triangle are R (min(m, n)
    x n) and the top min(m, n) entries of its last column are Q^T b; the
    loop starts from z = 0, and A may be wide or rank-deficient.  With
    ``factor = (T, Q)``, an n x n nonsingular upper triangle and n x m
    orthonormal rows with A = Q^T T (``column_id``'s ``triangle`` and
    ``q``), R is T and Q^T b is Q @ b, and the loop is warm-started (Bro &
    De Jong 1997): solve T z = Q^T b and, while an entry is <= 0, drop
    those columns and solve again; the loop starts from that feasible z.

    Converges when every inactive dual w_i is below 10 * ||A||_inf *
    ||b||_2 * eps, or when R has as many rows as passive columns (the fit on
    R is then exact, as for a wide A).  A step back drops the index that
    sets it, so each inner pass shrinks the passive set.  It gives up after
    ``NNLS_ITERATIONS_PER_COLUMN`` * n outer iterations (the constant is
    read at call time), with ``converged`` False and the last iterate.
    ``residual_norm`` is ||A z - b|| on A.
    """
    a = _validate_matrix(a, "A")
    b = np.asarray(b, dtype=float)
    m, n = a.shape
    if b.shape != (m,):
        raise ValidationError(f"b must have shape ({m},), got {b.shape}")
    if not np.all(np.isfinite(b)):
        raise ValidationError("b contains non-finite entries")
    max_iter = NNLS_ITERATIONS_PER_COLUMN * n

    dual_tol = 10.0 * np.linalg.norm(a, np.inf) * np.linalg.norm(b) * np.finfo(float).eps
    z = np.zeros(n)
    if factor is None:
        k = min(m, n)
        rb = np.linalg.qr(np.column_stack((a, b)), mode="r")
        r, qtb = rb[:k, :n], rb[:k, n]
    else:
        r, q = (np.asarray(x, dtype=float) for x in factor)
        if r.shape != (n, n) or q.shape != (n, m):
            raise ValidationError(f"factor of a {m} x {n} A must be {n} x {n} and {n} x {m}")
        qtb = q @ b
        cols = np.arange(n)
        sol = np.linalg.solve(r, qtb)
        while cols.size and np.min(sol) <= 0.0:
            cols = cols[sol > 0.0]
            sol = _passive_solve(r, qtb, cols)
        z[cols] = sol
    passive = z > 0.0

    iterations = 0
    converged = False
    while True:
        w = r.T @ (qtb - r @ z)
        inactive = ~passive
        if passive.sum() == r.shape[0] or np.max(w[inactive]) <= dual_tol:
            converged = True
            break
        if iterations >= max_iter:
            break
        iterations += 1
        passive[np.argmax(np.where(inactive, w, -np.inf))] = True

        while True:
            cols = np.flatnonzero(passive)
            if cols.size == 0:
                z = np.zeros(n)
                break
            sol = _passive_solve(r, qtb, cols)
            if np.min(sol) > 0.0:
                z = np.zeros(n)
                z[cols] = sol
                break
            # step back to the feasibility boundary and drop clipped indices
            trial = np.zeros(n)
            trial[cols] = sol
            blocking = np.flatnonzero(passive & (trial <= 0.0))
            denom = z[blocking] - trial[blocking]
            ratios = np.where(denom > 0.0, z[blocking] / np.where(denom > 0, denom, 1.0), 0.0)
            first = np.argmin(ratios)
            z = z + ratios[first] * (trial - z)
            z[blocking[first]] = 0.0  # it leaves even if roundoff left it above 0
            newly_active = passive & (z <= 0.0)
            z[newly_active] = 0.0
            passive &= ~newly_active

    residual = float(np.linalg.norm(a @ z - b))
    return NnlsResult(z, residual, iterations, converged, float(dual_tol))


def _passive_solve(r, qtb, cols) -> np.ndarray:
    """Least-squares solution of min ||R[:, cols] x - Q^T b|| on independent columns."""
    q_p, r_p = np.linalg.qr(r[:, cols])
    return np.linalg.solve(r_p, q_p.T @ qtb)
