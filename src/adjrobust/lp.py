"""Dense linear-programming kernel.

Two-phase primal simplex on a dense tableau.  Pricing is Dantzig
(most negative reduced cost) and switches to Bland's rule after
5*(columns+rows) iterations so cycling cannot occur.  Under Dantzig the
ratio test is Harris's two-pass test: among the rows whose ratio is
within a feasibility tolerance of the smallest, it takes the largest
pivot, and right-hand sides that the step leaves within that tolerance
below zero are clipped to zero.  Under Bland it is the exact min-ratio
test with ties to the smallest basic variable index, the tie-break
Bland's termination argument needs.

A pivot does not rewrite the tableau: it appends one rank-one factor,
and a column or row is read through the pending factors.  The
right-hand side and the reduced-cost rows are updated on every pivot.
Every 128 pivots the tableau is rebuilt from the pristine data through
the inverse of the basis matrix and the factors are dropped; a tableau
with fewer than 128 rows folds its factors into the tableau each time
it holds one per row.  The same inverse re-derives the optimal basic
values and reduced costs once per solve.

The inverse is taken block-wise.  Slack and artificial columns are
signed unit columns, so a basis with s structural columns is, up to a
permutation, block lower triangular with a signed identity in the
corner: only the s x s block of the structural columns on the rows no
basic unit column covers is inverted, and the rest of the inverse
follows from it with one product.  On slack-heavy bases this is much
cheaper than a dense inverse: the VRep affine LPs of the worst-case
family at m=16 have a median of 68 structural basic columns among 545.

Conventions
-----------
- Variables have per-coordinate bounds [lower, upper], default [0, inf).
  Internally every problem becomes  min c.y  s.t.  G y <= g, y >= 0:
  finite lower bounds are shifted out, free variables split into a
  difference of two nonnegatives, finite upper bounds become extra rows,
  and equality rows split into a <=/>= pair.
- ``duals[i]`` is the marginal d(objective)/d(rhs_i) of original row i.
- A solution claiming Optimal is certified before it is returned
  (primal feasibility, complementary slackness, duality gap); Infeasible
  carries a validated Farkas combination and Unbounded a validated
  improving ray.  Certification failure raises LpBreakdownError rather
  than returning a silently wrong answer.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

LE, GE, EQ = 0, 1, 2
_REL_CODE = {"<=": LE, ">=": GE, "=": EQ, "==": EQ}

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

PIVOT_TOL = 1e-10
_RC_TOL = 1e-9
# Harris ratio-test tolerance; right-hand sides above -_FEAS_TOL are
# clipped to zero, which removes the overshoot the Harris step allows
_FEAS_TOL = 1e-9


class LpError(Exception):
    pass


class LpBreakdownError(LpError):
    """Numerical breakdown: basis beyond repair or certificates failed."""


class LinearProgram:
    """min/max of obj.x over rows (coeffs, relation, rhs) and bounds."""

    def __init__(self, sense: str, obj, lower=None, upper=None):
        if sense not in ("min", "max"):
            raise ValueError(f"sense must be 'min' or 'max', got {sense!r}")
        self.sense = sense
        self.obj = np.asarray(obj, dtype=float).ravel()
        nv = self.obj.size
        self.lower = (np.zeros(nv) if lower is None
                      else np.asarray(lower, dtype=float).copy())
        self.upper = (np.full(nv, np.inf) if upper is None
                      else np.asarray(upper, dtype=float).copy())
        if self.lower.size != nv or self.upper.size != nv:
            raise ValueError("bounds length mismatch with objective")
        self.A = np.zeros((0, nv))
        self.rel = np.zeros(0, dtype=np.int8)
        self.b = np.zeros(0)

    @classmethod
    def from_arrays(cls, sense, obj, A, rel, b, lower=None, upper=None):
        lp = cls(sense, obj, lower, upper)
        A = np.asarray(A, dtype=float)
        if A.size == 0:
            A = A.reshape(0, lp.num_vars)
        if A.ndim != 2 or A.shape[1] != lp.num_vars:
            raise ValueError("row matrix shape mismatch")
        lp.A = A
        lp.rel = np.asarray([_REL_CODE[r] if isinstance(r, str) else int(r)
                             for r in rel], dtype=np.int8)
        lp.b = np.asarray(b, dtype=float).ravel()
        if lp.rel.size != A.shape[0] or lp.b.size != A.shape[0]:
            raise ValueError("relation/rhs length mismatch")
        return lp

    @property
    def num_vars(self) -> int:
        return self.obj.size

    @property
    def num_rows(self) -> int:
        return self.A.shape[0]

    def with_bounds(self, lower, upper) -> "LinearProgram":
        """Same rows and objective, new bounds; row data is shared."""
        lp = LinearProgram(self.sense, self.obj, lower, upper)
        lp.A, lp.rel, lp.b = self.A, self.rel, self.b
        return lp


@dataclass
class LpSolution:
    status: str
    x: np.ndarray | None
    duals: np.ndarray | None
    objective: float | None
    iterations: int
    dual_objective: float | None = None
    ray: np.ndarray | None = None
    farkas: np.ndarray | None = field(default=None, repr=False)


# ---------------------------------------------------------------------------
# standard-form conversion
# ---------------------------------------------------------------------------

class _Standard:
    __slots__ = ("c", "G", "g", "const", "col_orig", "col_sign", "shift",
                 "row_of", "row_sign", "n_orig_rows", "sense_mult")


def _standardize(lp: LinearProgram) -> _Standard:
    A, rel, b = lp.A, lp.rel, lp.b
    nv = lp.num_vars
    sense_mult = 1.0 if lp.sense == "min" else -1.0
    c0 = sense_mult * lp.obj

    col_orig: list[int] = []
    col_sign: list[float] = []
    shift = np.zeros(nv)
    upper_rows: list[tuple[int, float]] = []  # (new col, ub on that col)
    for j in range(nv):
        lo, up = lp.lower[j], lp.upper[j]
        if lo > up:
            raise _BoundInfeasible
        if np.isfinite(lo) and lo == up:
            shift[j] = lo  # fixed variable, eliminated
        elif np.isfinite(lo):
            shift[j] = lo
            col_orig.append(j)
            col_sign.append(1.0)
            if np.isfinite(up):
                upper_rows.append((len(col_orig) - 1, up - lo))
        elif np.isfinite(up):
            shift[j] = up  # mirrored: x_j = up - y
            col_orig.append(j)
            col_sign.append(-1.0)
        else:
            col_orig.append(j)
            col_sign.append(1.0)
            col_orig.append(j)
            col_sign.append(-1.0)

    co = np.asarray(col_orig, dtype=np.intp)
    cs = np.asarray(col_sign)
    struct = A[:, co] * cs if A.size else np.zeros((A.shape[0], co.size))
    rhs_adj = b - A @ shift if A.size else b.copy()

    # row expansion: >= negated, = split into a <=/>= pair
    srcs: list[int] = []
    signs: list[float] = []
    for i in range(A.shape[0]):
        if rel[i] == LE:
            srcs.append(i)
            signs.append(1.0)
        elif rel[i] == GE:
            srcs.append(i)
            signs.append(-1.0)
        else:
            srcs.append(i)
            signs.append(1.0)
            srcs.append(i)
            signs.append(-1.0)
    src = np.asarray(srcs, dtype=np.intp)
    sgn = np.asarray(signs)
    G = struct[src] * sgn[:, None]
    g = rhs_adj[src] * sgn

    if upper_rows:
        ub_block = np.zeros((len(upper_rows), co.size))
        ub_rhs = np.zeros(len(upper_rows))
        for k, (cidx, ub) in enumerate(upper_rows):
            ub_block[k, cidx] = 1.0
            ub_rhs[k] = ub
        G = np.vstack([G, ub_block])
        g = np.concatenate([g, ub_rhs])

    st = _Standard()
    st.c = c0[co] * cs
    st.G, st.g = np.ascontiguousarray(G), g
    st.const = float(c0 @ shift)
    st.col_orig, st.col_sign, st.shift = co, cs, shift
    st.row_of, st.row_sign = src, sgn
    st.n_orig_rows = A.shape[0]
    st.sense_mult = sense_mult
    return st


class _BoundInfeasible(Exception):
    pass


# ---------------------------------------------------------------------------
# simplex core on  min c.y, G y <= g, y >= 0
# ---------------------------------------------------------------------------

class _Tableau:
    """Tableau of  min c.y, G y <= g, y >= 0  in deferred product form.

    The current tableau is ``T - U[:, :k] @ V[:k]``: ``T`` was last
    rebuilt (or materialized) at some basis, and each pivot since has
    appended one rank-one factor instead of rewriting ``T``.  The
    right-hand side ``rhs`` and the reduced-cost rows ``z1``, ``z2``
    (last entry minus the objective) are kept current on every pivot.
    """

    def __init__(self, c: np.ndarray, G: np.ndarray, g: np.ndarray,
                 bland_after: int, max_iters: int):
        nr, nc = G.shape
        neg = g < 0
        narts = int(neg.sum())
        self.nc, self.nr0, self.narts = nc, nr, narts
        self.art_start = nc + nr
        ncols = nc + nr + narts

        # pristine copies so the tableau can be rebuilt through any basis
        M0 = np.zeros((nr, ncols))
        M0[:, :nc] = np.where(neg[:, None], -G, G)
        slack_sign = np.where(neg, -1.0, 1.0)
        M0[np.arange(nr), nc + np.arange(nr)] = slack_sign
        art_rows = np.flatnonzero(neg)
        art_cols = self.art_start + np.arange(narts)
        M0[art_rows, art_cols] = 1.0
        self.M0 = M0
        # the slack and artificial columns M0[:, nc:] are signed unit
        # columns: the row and sign of each
        self.unit_row = np.concatenate([np.arange(nr), art_rows])
        self.unit_sign = np.concatenate([slack_sign, np.ones(narts)])
        self.g0 = np.abs(g)
        self.T = M0.copy()
        self.rhs = self.g0.copy()

        # pending rank-one factors, one per pivot since T was last current.
        # Past nr factors, reading one row costs more than an eager
        # update of the whole tableau, so a full block is folded into T.
        self.refresh_every = 128
        block = min(self.refresh_every, nr)
        self.U = np.empty((nr, block))
        self.V = np.empty((block, ncols))
        self.k = 0

        basis = nc + np.arange(nr)
        basis[neg] = art_cols
        self.basis = basis

        # phase-2 costs (zero on slacks and artificials), reduced row
        self.z2 = np.zeros(ncols + 1)
        self.z2[:nc] = c
        self.c2_full = self.z2[:-1].copy()
        # phase-1 costs: one on artificials, reduced against initial basis
        self.z1 = np.zeros(ncols + 1)
        self.z1[self.art_start:-1] = 1.0
        self.c1_full = self.z1[:-1].copy()
        if narts:
            self.z1[:-1] -= M0[neg].sum(axis=0)
            self.z1[-1] -= self.g0[neg].sum()

        self.iterations = 0
        self.bland_after = bland_after
        self.max_iters = max_iters
        self.alive = np.ones(nr, dtype=bool)  # rows kept after phase 1

    def column(self, q: int) -> np.ndarray:
        k = self.k
        if k == 0:
            return self.T[:, q].copy()
        return self.T[:, q] - self.U[:, :k] @ self.V[:k, q]

    def row(self, p: int) -> np.ndarray:
        k = self.k
        if k == 0:
            return self.T[p].copy()
        return self.T[p] - self.U[p, :k] @ self.V[:k]

    def materialize(self) -> None:
        """Fold the pending factors into T."""
        k = self.k
        if k:
            self.T -= self.U[:, :k] @ self.V[:k]
            self.k = 0

    def pivot(self, p: int, q: int, col: np.ndarray | None = None) -> None:
        """Pivot on (p, q); ``col`` is column q of the current tableau."""
        if col is None:
            col = self.column(q)
        piv = col[p]
        if abs(piv) <= PIVOT_TOL:
            raise LpBreakdownError("pivot element below threshold")
        if self.k == self.V.shape[0]:
            self.materialize()
        k = self.k
        # T - u v^T turns column q into e_p and scales row p by 1/piv
        v = self.V[k]
        np.divide(self.row(p), piv, out=v)
        v[q] = 1.0
        u = self.U[:, k]
        u[:] = col
        u[p] -= 1.0
        self.k = k + 1
        rhs = self.rhs
        t = rhs[p] / piv
        rhs -= t * col
        rhs[p] = t
        for z in (self.z1, self.z2):
            zq = z[q]
            if zq != 0.0:
                z[:-1] -= zq * v
                z[-1] -= zq * t
                z[q] = 0.0
        self.basis[p] = q
        # keep right-hand sides from drifting slightly negative
        np.copyto(rhs, 0.0, where=(rhs < 0) & (rhs > -_FEAS_TOL))

    def run(self, z: np.ndarray, allowed: np.ndarray) -> str:
        """Pivot until optimal ('optimal') or unbounded ('unbounded')."""
        while True:
            if self.iterations >= self.max_iters:
                raise LpBreakdownError(
                    f"iteration limit {self.max_iters} exceeded")
            if self.iterations and self.iterations % self.refresh_every == 0:
                self.refresh()
            rc = z[:-1]
            dantzig = self.iterations < self.bland_after
            if dantzig:
                priced = np.where(allowed, rc, np.inf)
                q = int(np.argmin(priced))
                if priced[q] >= -_RC_TOL:
                    return OPTIMAL
            else:
                neg_idx = np.flatnonzero(allowed & (rc < -_RC_TOL))
                if neg_idx.size == 0:
                    return OPTIMAL
                q = int(neg_idx[0])
            col = self.column(q)
            rows = (col > PIVOT_TOL).nonzero()[0]
            if rows.size == 0:
                self._entering = q
                return UNBOUNDED
            a = col[rows]
            b = self.rhs[rows]
            ratios = b / a
            if dantzig:
                # Harris: the largest pivot among the rows whose ratio is
                # within the feasibility tolerance of the smallest one
                near = (ratios <= ((b + _FEAS_TOL) / a).min()).nonzero()[0]
                p = int(rows[near[a[near].argmax()]])
            else:
                # exact min ratio, ties to the smallest basic index
                cand = rows[ratios == ratios.min()]
                p = int(cand[self.basis[cand].argmin()])
            self.pivot(p, q, col)
            self.iterations += 1

    def _basis_inverse(self):
        """Inverse of the basis matrix and the basic values it gives, or
        None when the basis is singular or cannot reproduce the
        right-hand side.

        The basic slack and artificial columns are signed unit columns.
        With S the basic structural columns, K the basic unit columns
        and N the rows that no basic unit column covers, the basis
        permuted to (N, K) x (S, K) is ``[[M0[N, S], 0], [M0[K, S], D]]``
        with D a signed identity, so only the s x s block ``M0[N, S]``
        is inverted.  ``Binv`` (rows: basis positions, columns: rows of
        M0) is its inverse on (S, N), D on (K, K) and
        ``-D M0[K, S] inv(M0[N, S])`` on (K, N).  Returns ``Binv``, the
        basic values, N, and the basis positions, rows and signs of K.
        """
        nc, basis, g0 = self.nc, self.basis, self.g0
        nr = basis.size
        unit = basis >= nc
        S = (~unit).nonzero()[0]
        K = unit.nonzero()[0]
        ucols = basis[K] - nc
        rows = self.unit_row[ucols]
        # free[nr] is the row of the slacks of dropped rows
        free = np.ones(nr + 1, dtype=bool)
        free[rows] = False
        N = free[:nr].nonzero()[0]
        # a slack of a dropped row, or two unit columns on one row: singular
        if not free[nr] or N.size != S.size:
            return None
        MS = self.M0[:, basis[S]]
        try:
            Ainv = np.linalg.inv(MS[N])
        except np.linalg.LinAlgError:
            return None
        sign = self.unit_sign[ucols]
        BN = np.empty((nr, S.size))  # Binv[:, N]
        BN[S] = Ainv
        BN[K] = (MS[rows] * -sign[:, None]) @ Ainv
        Binv = np.zeros((nr, nr))
        Binv[:, N] = BN
        Binv[K, rows] = sign
        xb = Binv @ g0
        # MB @ xb - g0 for the basis matrix MB = M0[:, basis]
        resid = MS @ xb[S] - g0
        resid[rows] += sign * xb[K]
        scale = 1.0 + float(g0.max(initial=0.0))
        if float(np.abs(resid).max(initial=0.0)) > 1e-7 * scale:
            return None
        return Binv, xb, N, K, rows, sign

    def refresh(self) -> None:
        """Rebuild the whole tableau from the pristine data through the
        current basis and drop the pending factors.  Rank-one updates
        drift; left unchecked the drift can steer the ratio test into a
        basis that is infeasible in exact arithmetic.  A basis too
        ill-conditioned to reproduce the right-hand side is left alone
        (its factors folded into T) so the certificates judge the raw
        tableau instead.

        The structural block ``Binv @ M0[:, :nc]`` is
        ``Binv[:, N] @ M0[N, :nc]`` plus, in the rows of the basic unit
        columns, their own rows of M0 times D: an nr x s x nc product
        instead of an nr x nr x nc one.  The slack and artificial
        columns of the tableau are signed columns of ``Binv``."""
        inv = self._basis_inverse()
        if inv is None:
            self.materialize()
            return
        Binv, xb, N, K, rows, sign = inv
        scale = 1.0 + float(self.g0.max(initial=0.0))
        if float(xb.min(initial=0.0)) < -1e-7 * scale:
            raise LpBreakdownError("basis lost primal feasibility")
        nc, T, M0 = self.nc, self.T, self.M0
        T[:, :nc] = Binv[:, N] @ M0[N, :nc]
        T[K, :nc] += sign[:, None] * M0[rows, :nc]
        live = np.flatnonzero(self.unit_row < T.shape[0])
        T[:, nc:] = 0.0
        T[:, nc + live] = Binv[:, self.unit_row[live]] * self.unit_sign[live]
        self.k = 0
        self.rhs = np.where(xb < 0.0, 0.0, xb)
        for z, cf in ((self.z1, self.c1_full), (self.z2, self.c2_full)):
            cb = cf[self.basis]
            z[:-1] = cf - (cb @ Binv) @ M0
            z[-1] = -float(cb @ xb)

    def refine_optimal(self) -> None:
        """Re-derive basic values, reduced costs, and the objective from
        the pristine data through the final basis.  Hundreds of pivot
        updates accumulate enough roundoff to trip the optimality
        certificates; one block inverse of the basis (see
        ``_basis_inverse``) removes it."""
        inv = self._basis_inverse()
        if inv is None:
            return
        Binv, xb = inv[:2]
        cb = self.c2_full[self.basis]
        self.rhs = xb
        self.z2[:-1] = self.c2_full - (cb @ Binv) @ self.M0
        self.z2[-1] = -float(cb @ xb)

    def purge_artificials(self, drop_tol: float = 1e-7) -> None:
        """Drive basic artificials out; drop rows proven redundant."""
        if self.narts == 0:
            return
        dead: list[int] = []
        for p in np.flatnonzero(self.basis >= self.art_start):
            row = self.row(p)[:self.art_start]
            cands = np.flatnonzero(np.abs(row) > drop_tol)
            if cands.size:
                self.pivot(int(p), int(cands[0]))
            else:
                dead.append(int(p))
        self.materialize()
        if dead:
            keep = np.ones(self.T.shape[0], dtype=bool)
            keep[dead] = False
            self.alive = keep
            self.T = self.T[keep]
            self.basis = self.basis[keep]
            self.M0 = self.M0[keep]
            self.g0 = self.g0[keep]
            self.rhs = self.rhs[keep]
            # renumber the live rows; the slack of a dropped row gets
            # the row one past the last, which no basis can cover
            renum = np.where(keep, np.cumsum(keep) - 1, keep.sum())
            self.unit_row = renum[self.unit_row]
        # artificial columns are never priced again; chop them off
        self.T = np.ascontiguousarray(self.T[:, :self.art_start])
        self.U = np.empty((self.T.shape[0], self.V.shape[0]))
        self.V = np.empty((self.V.shape[0], self.art_start))
        self.z1 = np.concatenate([self.z1[:self.art_start], self.z1[-1:]])
        self.z2 = np.concatenate([self.z2[:self.art_start], self.z2[-1:]])
        self.M0 = np.ascontiguousarray(self.M0[:, :self.art_start])
        self.c1_full = self.c1_full[:self.art_start]
        self.c2_full = self.c2_full[:self.art_start]
        self.unit_row = self.unit_row[:self.nr0]
        self.unit_sign = self.unit_sign[:self.nr0]


def _simplex(c, G, g, max_iters=None):
    nr, nc = G.shape
    bland_after = 5 * (nc + nr)
    if max_iters is None:
        max_iters = max(200 * (nc + nr), 20000)
    tb = _Tableau(c, G, g, bland_after, max_iters)

    if tb.narts:
        allowed = np.ones(tb.T.shape[1], dtype=bool)
        allowed[tb.art_start:] = False  # artificials never re-enter
        status = tb.run(tb.z1, allowed)
        if status != OPTIMAL:  # phase 1 is bounded below by zero
            raise LpBreakdownError("phase 1 reported unbounded")
        phase1 = -tb.z1[-1]
        if phase1 > 1e-8 * (1.0 + float(np.abs(g).max(initial=0.0))):
            farkas = tb.z1[nc:nc + nr].copy()
            return INFEASIBLE, tb, farkas
        tb.purge_artificials()
    allowed = np.ones(tb.T.shape[1], dtype=bool)
    status = tb.run(tb.z2, allowed)
    return status, tb, None


def solve_lp(lp: LinearProgram, tol: float = 1e-8,
             max_iters: int | None = None) -> LpSolution:
    """Solve lp; statuses 'optimal', 'infeasible', 'unbounded'.

    Optimal solutions come with duals (marginals per original row) and
    are certified: primal residuals, complementary slackness, and the
    primal/dual objective gap are all checked before returning.
    """
    if not (np.all(np.isfinite(lp.A)) and np.all(np.isfinite(lp.b))
            and np.all(np.isfinite(lp.obj))):
        raise ValueError("non-finite data in LP")
    try:
        st = _standardize(lp)
    except _BoundInfeasible:
        return LpSolution(INFEASIBLE, None, None, None, 0)

    status, tb, farkas = _simplex(st.c, st.G, st.g, max_iters)
    nc = st.G.shape[1]
    nr = st.G.shape[0]

    if status == INFEASIBLE:
        _validate_farkas(st, farkas, tol)
        return LpSolution(INFEASIBLE, None, None, None, tb.iterations,
                          farkas=farkas)
    if status == OPTIMAL:
        tb.refine_optimal()

    # internal primal point
    y = np.zeros(nc + nr)
    y[tb.basis] = tb.rhs
    x = st.shift.copy()
    np.add.at(x, st.col_orig, st.col_sign * y[:nc])

    if status == UNBOUNDED:
        d = np.zeros(nc + nr)
        d[tb._entering] = 1.0
        d[tb.basis] = -tb.column(tb._entering)
        ray = np.zeros(lp.num_vars)
        np.add.at(ray, st.col_orig, st.col_sign * d[:nc])
        _validate_ray(lp, st, ray, d[:nc], tol)
        return LpSolution(UNBOUNDED, None, None, None, tb.iterations,
                          ray=ray)

    obj_min = -tb.z2[-1] + st.const
    # duals: rc of slack columns give -d(obj)/d(g_i) for surviving rows
    y_int = np.zeros(nr)
    alive_idx = np.flatnonzero(tb.alive)
    y_int[alive_idx] = -tb.z2[nc + alive_idx]
    dual_min = float(y_int @ st.g) + st.const

    duals = np.zeros(st.n_orig_rows)
    np.add.at(duals, st.row_of, st.row_sign * y_int[:st.row_of.size])
    duals *= st.sense_mult

    sol = LpSolution(OPTIMAL, x, duals, float(st.sense_mult * obj_min),
                     tb.iterations,
                     dual_objective=float(st.sense_mult * dual_min))
    _validate_optimal(lp, st, sol, y, y_int, obj_min, dual_min, tol)
    return sol


# ---------------------------------------------------------------------------
# certificate validation
# ---------------------------------------------------------------------------

def _validate_optimal(lp, st, sol, y_int_vars, y_int, obj_min, dual_min,
                      tol) -> None:
    # validation thresholds sit one to two orders above the pivot/feas
    # tolerances so honest float accumulation does not masquerade as
    # breakdown; property tests assert the tight bounds on small LPs.
    x, A, b, rel = sol.x, lp.A, lp.b, lp.rel
    if A.size:
        act = A @ x
        resid_le = act - b
        bad = (((rel == LE) & (resid_le > 10 * tol * (1 + np.abs(b))))
               | ((rel == GE) & (-resid_le > 10 * tol * (1 + np.abs(b))))
               | ((rel == EQ) & (np.abs(resid_le) > 10 * tol * (1 + np.abs(b)))))
        if bad.any():
            raise LpBreakdownError(
                f"optimal point violates row {int(np.flatnonzero(bad)[0])}")
    lo_pad = 10 * tol * (1.0 + np.abs(np.where(np.isfinite(lp.lower),
                                               lp.lower, 0.0)))
    up_pad = 10 * tol * (1.0 + np.abs(np.where(np.isfinite(lp.upper),
                                               lp.upper, 0.0)))
    if np.any(x < lp.lower - lo_pad) or np.any(x > lp.upper + up_pad):
        raise LpBreakdownError("optimal point violates variable bounds")
    gap = abs(obj_min - dual_min)
    if gap > 100 * tol * (1.0 + abs(obj_min)):
        raise LpBreakdownError(f"duality gap {gap:.3e} failed certification")
    slack_int = y_int_vars[st.G.shape[1]:]
    cs = np.abs(y_int * slack_int)
    if cs.size and cs.max() > 100 * tol * (1.0 + np.abs(st.g)).max():
        raise LpBreakdownError("complementary slackness failed")


def _validate_farkas(st, farkas, tol) -> None:
    lam = farkas
    if lam.min(initial=0.0) < -10 * tol:
        raise LpBreakdownError("Farkas multipliers not nonnegative")
    comb = lam @ st.G
    scale = (1.0 + float(np.abs(st.G).max(initial=0.0))
             * float(np.abs(lam).max(initial=0.0)))
    if comb.size and comb.min() < -100 * tol * scale:
        raise LpBreakdownError("Farkas combination not nonnegative")
    if float(lam @ st.g) >= -1e-10 * (1.0 + float(np.abs(st.g).max(initial=0.0))):
        raise LpBreakdownError("Farkas combination fails to cut off rhs")


def _validate_ray(lp, st, ray, d_struct, tol) -> None:
    A, rel = lp.A, lp.rel
    scale = 1.0 + float(np.abs(d_struct).max(initial=0.0))
    if A.size:
        move = A @ ray
        bad = (((rel == LE) & (move > 100 * tol * scale))
               | ((rel == GE) & (-move > 100 * tol * scale))
               | ((rel == EQ) & (np.abs(move) > 100 * tol * scale)))
        if bad.any():
            raise LpBreakdownError("improving ray leaves the feasible cone")
    drop = st.sense_mult * float(lp.obj @ ray)
    if drop > -1e-9 * scale:
        raise LpBreakdownError("ray fails to improve the objective")
