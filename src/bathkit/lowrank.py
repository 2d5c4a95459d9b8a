"""Low-rank kernels for real matrices.

Two primitives live here:

* ``column_id`` -- a column interpolative decomposition f ~ B @ P built on
  deterministic left-looking pivoted Gram-Schmidt.  B consists of actual
  columns of f, and P carries an exact r x r identity on the selected
  columns.  The factorization stops as soon as the next pivot norm falls
  below ``tol`` times the first one.  It only reads f, through its column
  norms, chosen columns and products q^T f, so a structured matrix can
  supply those without ever being stored.

* ``nnls`` -- the Lawson-Hanson active-set method for min ||A z - b|| with
  z >= 0.  A is factored A = QR once, and the active-set loop runs on the
  small triangle R and Q^T b.  Inactive coordinates are exact zeros (never
  small negatives), which downstream code relies on when pruning.

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
# exactly computed value is recomputed (Drmac & Bujanovic 2008).
_RECOMPUTE_RATIO = np.sqrt(np.finfo(float).eps)
# columns built at once when recomputing residual norms
_RECOMPUTE_CHUNK = 256


@dataclass(frozen=True)
class IdResult:
    """Column interpolative decomposition of an m x n matrix.

    ``selected`` lists r column indices in pivot order; ``r_rows`` holds
    the r x n rows q_k^T f of the Gram-Schmidt factor R in original column
    order.  ``interp`` is the r x n coefficient matrix P, so
    f ~ f[:, selected] @ interp; it is computed from ``r_rows`` on first
    read and cached.  ``frobenius_error_estimate`` is the
    Frobenius norm of the residual of the unselected columns after
    projection onto the selected ones, which equals ||f - B P||_F up to
    roundoff.  ``pivot_norms`` holds the r + 1 residual norms of the
    pivot candidates: the r accepted pivots and the one that ended the
    factorization (0.0 when no column with a nonzero residual was left).
    """

    rank: int
    selected: np.ndarray
    r_rows: np.ndarray
    frobenius_error_estimate: float
    pivot_norms: np.ndarray

    @cached_property
    def interp(self) -> np.ndarray:
        # R[:, selected] is triangular up to roundoff below the diagonal; drop that
        interp = np.linalg.solve(np.triu(self.r_rows[:, self.selected]), self.r_rows)
        interp[:, self.selected] = np.eye(self.rank)
        return interp


@dataclass(frozen=True)
class NnlsResult:
    """Solution of min ||A z - b||_2 subject to z >= 0.

    ``dual_tolerance`` is the stationarity threshold used for termination;
    KKT checks should compare dual values against it.
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


def column_id(f, tol: float | None = None, max_rank: int | None = None) -> IdResult:
    """Interpolative decomposition by left-looking pivoted Gram-Schmidt.

    ``f`` is a dense m x n array or a column operator: an object with
    ``shape``, ``norms2`` (the n squared column norms), ``columns(idx)``
    (the m x len(idx) block f[:, idx]) and ``rmatvec(q)`` (q^T f).

    Each step pivots on the largest residual column norm, orthogonalizes
    that column twice against the previous pivots (CGS2) and appends the
    row q^T f of R.  Residual norms are downdated by that row and computed
    afresh, as ||f_j - Q^T R_j||^2, once they fall to sqrt(eps) of their
    last exact value; columns that are exactly zero are never pivots.

    The rank is the smallest k for which the (k+1)-th pivot norm satisfies
    ||residual|| <= tol * (first pivot norm), capped at ``max_rank``.  At
    least one of ``tol``/``max_rank`` must be given.  A zero matrix yields
    rank 0 with an empty selection.
    """
    op = f if hasattr(f, "rmatvec") else _Dense(f)
    if tol is None and max_rank is None:
        raise ValidationError("column_id: provide tol or max_rank")
    if tol is not None and not (tol > 0 and np.isfinite(tol)):
        raise ValidationError(f"column_id: tol must be positive, got {tol}")
    if max_rank is not None and max_rank < 0:
        raise ValidationError(f"column_id: max_rank must be >= 0, got {max_rank}")
    m, n = op.shape
    norms2 = np.array(op.norms2, dtype=float)
    if norms2.shape != (n,) or not np.all(np.isfinite(norms2)):
        raise ValidationError("column_id: column norms must be finite")

    kmax = min(m, n)
    if max_rank is not None:
        kmax = min(kmax, max_rank)
    exact = norms2.copy()  # each norm^2 at its last exact evaluation
    free = np.ones(n, dtype=bool)  # not selected yet
    # sized for the worst-case rank; only the rows reached are ever written
    q = np.empty((kmax, m))
    r = np.empty((kmax, n))
    selected, pivot_norms = [], []
    thresh = 0.0
    for k in range(kmax + 1):
        candidates = free & (exact > 0.0)  # a zero residual is never a pivot
        if not candidates.any():
            pivot_norms.append(0.0)
            break
        j = int(np.argmax(np.where(candidates, norms2, -1.0)))  # ties: lowest index
        w = op.columns([j])[:, 0]
        for _ in range(2):
            w = w - q[:k].T @ (q[:k] @ w)
        pivnorm = float(np.linalg.norm(w))
        pivot_norms.append(pivnorm)
        if k == 0 and tol is not None:
            thresh = tol * pivnorm
        if k == kmax or pivnorm <= thresh:
            break
        q[k] = w / pivnorm
        r[k] = op.rmatvec(q[k])
        selected.append(j)
        free[j] = False
        norms2 -= r[k] * r[k]
        # a residual once recomputed as exactly 0 is never recomputed again;
        # roundoff in later rows must not drive it (or the tail) negative
        np.maximum(norms2, 0.0, out=norms2)
        stale = np.flatnonzero(candidates & free & (norms2 <= _RECOMPUTE_RATIO * exact))
        for start in range(0, stale.size, _RECOMPUTE_CHUNK):
            cols = stale[start : start + _RECOMPUTE_CHUNK]
            res = op.columns(cols) - q[: k + 1].T @ r[: k + 1, cols]
            exact[cols] = norms2[cols] = np.einsum("ij,ij->j", res, res)

    rank = len(selected)
    selected = np.array(selected, dtype=int)
    tail = float(np.sqrt(np.sum(norms2[free]))) if rank < min(m, n) else 0.0
    return IdResult(rank, selected, r[:rank], tail, np.array(pivot_norms))


def nnls(a, b, max_iter: int | None = None) -> NnlsResult:
    """Lawson-Hanson active-set solver for min ||A z - b||, z >= 0.

    A is factored A = QR once (Q orthonormal, R min(m, n) x n) and the loop
    runs on R and Q^T b alone: A[:, P] = Q R[:, P], so each passive-set
    least-squares problem min ||R[:, P] x - Q^T b|| has the same (minimum
    norm) solution as on A, and the duals are w = R^T (Q^T b - R z).
    Terminates when every inactive dual w_i is below
    10 * ||A||_inf * ||b||_2 * eps, or after ``max_iter`` outer iterations
    (default 3n), in which case ``converged`` is False and the best
    iterate so far is returned.  ``residual_norm`` is ||A z - b|| on A.
    """
    a = _validate_matrix(a, "A")
    b = np.asarray(b, dtype=float)
    m, n = a.shape
    if b.shape != (m,):
        raise ValidationError(f"b must have shape ({m},), got {b.shape}")
    if not np.all(np.isfinite(b)):
        raise ValidationError("b contains non-finite entries")
    if max_iter is None:
        max_iter = 3 * n

    dual_tol = 10.0 * np.linalg.norm(a, np.inf) * np.linalg.norm(b) * np.finfo(float).eps
    q, r = np.linalg.qr(a)
    qtb = q.T @ b

    z = np.zeros(n)
    passive = np.zeros(n, dtype=bool)
    iterations = 0
    converged = False
    while True:
        w = r.T @ (qtb - r @ z)
        inactive = ~passive
        if not inactive.any() or np.max(w[inactive]) <= dual_tol:
            converged = True
            break
        if iterations >= max_iter:
            break
        iterations += 1
        candidates = np.flatnonzero(inactive)
        passive[candidates[np.argmax(w[candidates])]] = True

        while True:
            cols = np.flatnonzero(passive)
            if cols.size == 0:
                z = np.zeros(n)
                break
            sol = np.linalg.lstsq(r[:, cols], qtb, rcond=None)[0]
            if np.min(sol) > 0.0:
                z = np.zeros(n)
                z[cols] = sol
                break
            # step back to the feasibility boundary and drop clipped indices
            trial = np.zeros(n)
            trial[cols] = sol
            blocking = passive & (trial <= 0.0)
            denom = z[blocking] - trial[blocking]
            ratios = np.where(denom > 0.0, z[blocking] / np.where(denom > 0, denom, 1.0), 0.0)
            alpha = np.min(ratios)
            z = z + alpha * (trial - z)
            newly_active = passive & (z <= 0.0)
            z[newly_active] = 0.0
            passive &= ~newly_active

    residual = float(np.linalg.norm(a @ z - b))
    return NnlsResult(z, residual, iterations, converged, float(dual_tol))
