"""Dense linear-programming kernel.

Simplex on a dense tableau: a dual simplex phase for cold starts with
nonnegative costs and for warm starts, the two-phase primal simplex
otherwise.  Pricing is Dantzig (most negative reduced cost) and
switches to Bland's rule after 5*(columns+rows) iterations so cycling
cannot occur.  Under Dantzig the
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
A basis of slack columns alone is its own signed inverse.

Cold start
----------
A cold solve whose standard-form costs are nonnegative on every priced
column starts from the slack basis of ``[G | I]``: with zero basic
costs its reduced costs are the costs themselves, so the basis is dual
feasible, and the tableau is current there with no inverse.  The dual
and primal phases of a warm start (below) solve it from there, so rows
with a negative right-hand side need no artificial column and there is
no phase 1 (Koberstein, "The dual simplex method, techniques for a fast
and stable implementation", PhD thesis, Paderborn 2005).  The primal
phase cannot end unbounded there: ``c >= 0`` and ``y >= 0`` bound the
objective below.  This covers the vertex LPs and the cut-loop master.
Every other cold LP flips its rows with a negative right-hand side and
runs the artificial phase 1.  Shifting the costs to make them
nonnegative would put the HRep affine LP on the dual route too, but its
free columns (z, P, q) are split in two, so many dual pivots only swap
a column for its mirror, and its larger structural blocks make every
refresh dearer: a prototype that did so spent 38% more time in the
affine LPs of the m=10 ratio table.

Warm start
----------
``solve_lp(lp, start=basis)`` starts from a basis that an earlier solve
returned (``LpSolution.basis``), typically of an LP with the same rows
and objective whose bounds moved.  The tableau is then built on
``[G | I]`` through that basis, with no row flips and no artificials.
A dual simplex phase restores primal feasibility: the leaving row has
the most negative right-hand side, the entering column comes from a
Harris two-pass test on ``|z_j / a_pj|`` over ``a_pj < 0`` (the largest
``|a_pj|`` among the near-smallest ratios), and past the Bland threshold
both choices go to the smallest index.  A row with a negative right-hand
side and no negative entry proves infeasibility, and its slack block
(that row of the basis inverse) is the Farkas vector.  The primal phase
then removes any dual infeasibility left at tolerance level.  A start
that is singular, or neither primal nor dual feasible, is solved cold,
by the rule above.  Warm or cold, a solve ends in the same
certificates.

Conventions
-----------
- Variables have per-coordinate bounds [lower, upper], default [0, inf).
  Internally every problem becomes  min c.y  s.t.  G y <= g, y >= 0:
  finite lower bounds are shifted out, free variables split into a
  difference of two nonnegatives, finite upper bounds become extra rows,
  and equality rows split into a <=/>= pair.  A fixed variable (finite
  lower == upper) keeps its column, with an upper-bound row whose
  right-hand side is 0, so the columns and rows of the standard form
  depend only on which bounds are finite; the bound values move only
  ``g`` and the shift.  A fixed column is never priced: it could enter
  only by a degenerate step, and a Farkas vector covers it through its
  bound row.
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
_ROW_SIGN = np.array([1.0, -1.0, 1.0])  # by relation code

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
    # final basis: one standard-form column index per standard-form row
    basis: np.ndarray | None = field(default=None, repr=False)


# ---------------------------------------------------------------------------
# standard-form conversion
# ---------------------------------------------------------------------------

class _Standard:
    __slots__ = ("c", "G", "g", "const", "col_orig", "col_sign", "shift",
                 "row_of", "row_sign", "n_orig_rows", "sense_mult",
                 "fixed_cols", "fixed_rows")


def _standardize(lp: LinearProgram) -> _Standard:
    A, rel, b = lp.A, lp.rel, lp.b
    lo, up = lp.lower, lp.upper
    if (lo > up).any():
        raise _BoundInfeasible
    sense_mult = 1.0 if lp.sense == "min" else -1.0
    c0 = sense_mult * lp.obj

    # one column per variable, two (y+ then y-) for a free one
    has_lo, has_up = np.isfinite(lo), np.isfinite(up)
    free = ~(has_lo | has_up)
    width = free + 1
    co = np.arange(lp.num_vars).repeat(width)
    first = width.cumsum() - width
    cs = np.ones(co.size)
    cs[first[~has_lo & has_up]] = -1.0   # mirrored: x_j = up - y
    cs[first[free] + 1] = -1.0
    shift = np.where(has_lo, lo, np.where(has_up, up, 0.0))
    # y <= up - lo on every column with both bounds; 0 for a fixed one
    boxed = (has_lo & has_up).nonzero()[0]
    fixed = (lo[boxed] == up[boxed]).nonzero()[0]

    # row expansion: >= negated, = split into a <=/>= pair
    src = np.arange(A.shape[0]).repeat((rel == EQ) + 1)
    sgn = _ROW_SIGN[rel[src]]
    sgn[1:][src[1:] == src[:-1]] = -1.0   # the >= half of an = row
    nrow = src.size
    G = np.zeros((nrow + boxed.size, co.size))
    G[:nrow] = A[src][:, co] * cs * sgn[:, None]
    G[nrow + np.arange(boxed.size), first[boxed]] = 1.0
    g = np.concatenate(((b - A @ shift)[src] * sgn, (up - lo)[boxed]))

    st = _Standard()
    st.c = c0[co] * cs
    st.G, st.g = G, g
    st.const = float(c0 @ shift)
    st.col_orig, st.col_sign, st.shift = co, cs, shift
    st.row_of, st.row_sign = src, sgn
    st.n_orig_rows = A.shape[0]
    st.sense_mult = sense_mult
    # fixed columns and their bound rows
    st.fixed_cols, st.fixed_rows = first[boxed[fixed]], nrow + fixed
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
    right-hand side ``rhs`` and the reduced-cost rows in ``costs``
    (``z2``, and ``z1`` during phase 1; last entry minus the objective)
    are kept current on every pivot.
    """

    def __init__(self, c: np.ndarray, G: np.ndarray, g: np.ndarray,
                 bland_after: int, max_iters: int,
                 start: np.ndarray | None = None):
        nr, nc = G.shape
        # a cold start flips the rows with a negative right-hand side and
        # gives each an artificial; a warm one keeps M0 = [G | I]
        art_rows = ((g < 0).nonzero()[0] if start is None
                    else np.zeros(0, dtype=np.intp))
        narts = art_rows.size
        self.nc, self.nr0, self.narts = nc, nr, narts
        self.art_start = nc + nr
        ncols = nc + nr + narts

        # pristine copies so the tableau can be rebuilt through any basis
        M0 = np.zeros((nr, ncols))
        M0[:, :nc] = G
        slack_sign = np.ones(nr)
        art_cols = self.art_start + np.arange(narts)
        if narts:
            M0[art_rows, :nc] *= -1.0
            slack_sign[art_rows] = -1.0
            M0[art_rows, art_cols] = 1.0
        M0[np.arange(nr), nc + np.arange(nr)] = slack_sign
        self.M0 = M0
        # the slack and artificial columns M0[:, nc:] are signed unit
        # columns: the row and sign of each
        self.unit_row = np.concatenate([np.arange(nr), art_rows])
        self.unit_sign = np.concatenate([slack_sign, np.ones(narts)])
        self.g0 = np.abs(g) if start is None else g.copy()
        self.scale = 1.0 + float(np.abs(g).max(initial=0.0))
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

        if start is None:
            basis = nc + np.arange(nr)
            basis[art_rows] = art_cols
        else:
            basis = start.copy()
        self.basis = basis

        # phase-2 costs (zero on slacks and artificials), reduced row
        self.z2 = np.zeros(ncols + 1)
        self.z2[:nc] = c
        self.c2_full = self.z2[:-1].copy()
        # the reduced-cost rows that pivots and refreshes keep current,
        # each with its costs
        self.costs = [(self.z2, self.c2_full)]
        if narts:
            # phase-1 costs: one on artificials, reduced against the
            # initial basis
            self.z1 = np.zeros(ncols + 1)
            self.z1[self.art_start:-1] = 1.0
            self.c1_full = self.z1[:-1].copy()
            self.z1[:-1] -= M0[art_rows].sum(axis=0)
            self.z1[-1] -= self.g0[art_rows].sum()
            self.costs.append((self.z1, self.c1_full))

        self.iterations = 0
        self.bland_after = bland_after
        self.max_iters = max_iters

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

    def pivot(self, p: int, q: int, col: np.ndarray | None = None,
              row: np.ndarray | None = None) -> None:
        """Pivot on (p, q); ``col`` is column q and ``row`` row p of the
        current tableau."""
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
        np.divide(self.row(p) if row is None else row, piv, out=v)
        v[q] = 1.0
        u = self.U[:, k]
        u[:] = col
        u[p] -= 1.0
        self.k = k + 1
        rhs = self.rhs
        t = rhs[p] / piv
        rhs -= t * col
        rhs[p] = t
        for z, _ in self.costs:
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

    def run_dual(self, priced: np.ndarray) -> str:
        """Dual simplex until the basis is primal feasible ('optimal') or
        a row proves the LP infeasible ('infeasible'; the row is left in
        ``_leaving``).  The leaving row has the most negative right-hand
        side.  The entering column comes from the ``priced`` columns with
        ``a_pj < 0`` by a Harris two-pass test on ``|z_j / a_pj|``: the
        largest ``|a_pj|`` among the ratios within ``_RC_TOL`` of the
        smallest, so reduced costs stay above ``-_RC_TOL``.  Past
        ``bland_after`` pivots both choices fall back to the smallest
        index: the infeasible row of the smallest basic index and, among
        the columns of exactly smallest ratio, the smallest one."""
        if not self.rhs.size:   # no rows, nothing to restore
            return OPTIMAL
        z = self.z2[:-1]
        while True:
            if self.iterations >= self.max_iters:
                raise LpBreakdownError(
                    f"iteration limit {self.max_iters} exceeded")
            if self.iterations and self.iterations % self.refresh_every == 0:
                self.refresh(primal=False)
            rhs = self.rhs
            dantzig = self.iterations < self.bland_after
            if dantzig:
                p = int(rhs.argmin())
                if rhs[p] >= -_FEAS_TOL:
                    return OPTIMAL
            else:
                rows = np.flatnonzero(rhs < -_FEAS_TOL)
                if rows.size == 0:
                    return OPTIMAL
                p = int(rows[self.basis[rows].argmin()])
            row = self.row(p)
            cols = ((row < -PIVOT_TOL) & priced).nonzero()[0]
            if cols.size == 0:
                self._leaving = p
                return INFEASIBLE
            a = -row[cols]
            zc = np.abs(z[cols])
            if dantzig:
                # Harris: the largest |a_pj| among the columns whose ratio
                # is within the reduced-cost tolerance of the smallest one
                near = (zc / a <= ((zc + _RC_TOL) / a).min()).nonzero()[0]
                q = int(cols[near[a[near].argmax()]])
            else:
                # exact min ratio; argmin takes the smallest column on ties
                q = int(cols[(zc / a).argmin()])
            self.pivot(p, q, row=row)
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
        With no structural column basic (s = 0), ``Binv`` is D itself.
        """
        nc, basis, g0 = self.nc, self.basis, self.g0
        nr = basis.size
        unit = basis >= nc
        S = (~unit).nonzero()[0]
        K = unit.nonzero()[0]
        ucols = basis[K] - nc
        rows = self.unit_row[ucols]
        free = np.ones(nr, dtype=bool)
        free[rows] = False
        N = free.nonzero()[0]
        # two unit columns on one row: singular
        if N.size != S.size:
            return None
        sign = self.unit_sign[ucols]
        Binv = np.zeros((nr, nr))
        Binv[K, rows] = sign
        if S.size == 0:
            return Binv, sign * g0[rows], N, K, rows, sign
        MS = self.M0[:, basis[S]]
        try:
            Ainv = np.linalg.inv(MS[N])
        except np.linalg.LinAlgError:
            return None
        BN = np.empty((nr, S.size))  # Binv[:, N]
        BN[S] = Ainv
        BN[K] = (MS[rows] * -sign[:, None]) @ Ainv
        Binv[:, N] = BN
        xb = Binv @ g0
        # MB @ xb - g0 for the basis matrix MB = M0[:, basis]
        resid = MS @ xb[S] - g0
        resid[rows] += sign * xb[K]
        if float(np.abs(resid).max(initial=0.0)) > 1e-7 * self.scale:
            return None
        return Binv, xb, N, K, rows, sign

    def refresh(self, primal: bool = True) -> None:
        """Rebuild the whole tableau from the pristine data through the
        current basis and drop the pending factors.  Rank-one updates
        drift; left unchecked the drift can steer the ratio test into a
        basis that is infeasible in exact arithmetic.  A basis too
        ill-conditioned to reproduce the right-hand side is left alone
        (its factors folded into T) so the certificates judge the raw
        tableau instead.  In the primal phases (``primal``) a basis
        whose values are clearly negative is a breakdown; the dual phase
        expects them.

        The structural block ``Binv @ M0[:, :nc]`` is
        ``Binv[:, N] @ M0[N, :nc]`` plus, in the rows of the basic unit
        columns, their own rows of M0 times D: an nr x s x nc product
        instead of an nr x nr x nc one.  The slack and artificial
        columns of the tableau are signed columns of ``Binv``."""
        inv = self._basis_inverse()
        if inv is None:
            self.materialize()
            return
        if primal:
            xb = inv[1]
            if float(xb.min(initial=0.0)) < -1e-7 * self.scale:
                raise LpBreakdownError("basis lost primal feasibility")
            np.copyto(xb, 0.0, where=xb < 0.0)
        self._rebuild(*inv)

    def start_warm(self, priced: np.ndarray) -> bool:
        """Rebuild the tableau at the start basis.  False when the basis
        is singular, or neither primal feasible nor dual feasible on the
        ``priced`` columns (up to the slack that the certified optimum of
        a related LP leaves)."""
        inv = self._basis_inverse()
        if inv is None:
            return False
        self._rebuild(*inv)
        if float(self.rhs.min(initial=0.0)) >= -_FEAS_TOL:
            return True
        slack = 1e-7 * (1.0 + float(np.abs(self.c2_full).max(initial=0.0)))
        return float(self.z2[:-1][priced].min(initial=0.0)) >= -slack

    def _rebuild(self, Binv, xb, N, K, rows, sign) -> None:
        nc, T, M0 = self.nc, self.T, self.M0
        T[:, :nc] = Binv[:, N] @ M0[N, :nc]
        T[K, :nc] += sign[:, None] * M0[rows, :nc]
        T[:, nc:] = Binv[:, self.unit_row] * self.unit_sign
        self.k = 0
        np.copyto(xb, 0.0, where=(xb < 0) & (xb > -_FEAS_TOL))
        self.rhs = xb
        for z, cf in self.costs:
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

    def purge_artificials(self) -> None:
        """Drive the basic artificials out of the basis.  The slack and
        the artificial of a row are parallel unit columns, so the
        tableau row of a basic artificial holds +-1 in its row's slack
        column: a candidate always exists, and its absence is a
        breakdown.  Afterwards the basis holds one standard-form column
        per row and no artificial."""
        if self.narts == 0:
            return
        for p in np.flatnonzero(self.basis >= self.art_start):
            row = self.row(p)[:self.art_start]
            cands = np.flatnonzero(np.abs(row) > 1e-7)
            if cands.size == 0:
                raise LpBreakdownError("basic artificial cannot be driven out")
            self.pivot(int(p), int(cands[0]))
        self.materialize()
        # artificial columns are never priced again; chop them off
        self.T = np.ascontiguousarray(self.T[:, :self.art_start])
        self.U = np.empty((self.T.shape[0], self.V.shape[0]))
        self.V = np.empty((self.V.shape[0], self.art_start))
        self.z2 = np.concatenate([self.z2[:self.art_start], self.z2[-1:]])
        self.M0 = np.ascontiguousarray(self.M0[:, :self.art_start])
        self.c2_full = self.c2_full[:self.art_start]
        # phase 1 is over: only the phase-2 row is kept current
        del self.z1, self.c1_full
        self.costs = [(self.z2, self.c2_full)]
        self.unit_row = self.unit_row[:self.nr0]
        self.unit_sign = self.unit_sign[:self.nr0]


def _dual_then_primal(tb: _Tableau, priced: np.ndarray):
    """From a dual feasible basis of ``[G | I]``: the dual phase, then the
    primal phase for the dual infeasibility left at tolerance level."""
    if tb.run_dual(priced) == INFEASIBLE:
        # row p reads Binv[p] G y + Binv[p] s = Binv[p] g < 0 with no
        # negative coefficient: Binv[p] is a Farkas vector
        nc, nr = tb.nc, tb.nr0
        return INFEASIBLE, tb, tb.row(tb._leaving)[nc:nc + nr]
    return tb.run(tb.z2, priced), tb, None


def _simplex(c, G, g, fixed, max_iters=None, start=None):
    """Simplex on  min c.y, G y <= g, y >= 0.  The ``fixed`` columns
    (held at zero by a bound row with right-hand side 0) are never
    priced: entering, they could only take a degenerate step, and their
    reduced costs have no sign to keep."""
    nr, nc = G.shape
    bland_after = 5 * (nc + nr)
    if max_iters is None:
        max_iters = max(200 * (nc + nr), 20000)
    priced = np.ones(nc + nr, dtype=bool)
    priced[fixed] = False
    if start is not None:
        tb = _Tableau(c, G, g, bland_after, max_iters, start)
        if tb.start_warm(priced):
            return _dual_then_primal(tb, priced)
    if (c[priced[:nc]] >= 0.0).all():
        # the slack basis is dual feasible, and the tableau on [G | I] is
        # already current at it
        slacks = nc + np.arange(nr)
        return _dual_then_primal(
            _Tableau(c, G, g, bland_after, max_iters, slacks), priced)
    tb = _Tableau(c, G, g, bland_after, max_iters)

    if tb.narts:
        allowed = np.zeros(tb.T.shape[1], dtype=bool)
        allowed[:tb.art_start] = priced  # artificials never re-enter
        status = tb.run(tb.z1, allowed)
        if status != OPTIMAL:  # phase 1 is bounded below by zero
            raise LpBreakdownError("phase 1 reported unbounded")
        phase1 = -tb.z1[-1]
        if phase1 > 1e-8 * (1.0 + float(np.abs(g).max(initial=0.0))):
            farkas = tb.z1[nc:nc + nr].copy()
            return INFEASIBLE, tb, farkas
        tb.purge_artificials()
    return tb.run(tb.z2, priced), tb, None


def solve_lp(lp: LinearProgram, tol: float = 1e-8,
             max_iters: int | None = None,
             start: np.ndarray | None = None) -> LpSolution:
    """Solve lp; statuses 'optimal', 'infeasible', 'unbounded'.

    Optimal solutions come with duals (marginals per original row) and
    are certified: primal residuals, complementary slackness, and the
    primal/dual objective gap are all checked before returning.

    ``start`` is a basis to start from, as ``LpSolution.basis`` returns
    it for an LP whose bounds are finite in the same places (one
    standard-form column per standard-form row).  A start that is
    singular, or neither primal nor dual feasible, is ignored.
    """
    if not (np.all(np.isfinite(lp.A)) and np.all(np.isfinite(lp.b))
            and np.all(np.isfinite(lp.obj))):
        raise ValueError("non-finite data in LP")
    try:
        st = _standardize(lp)
    except _BoundInfeasible:
        return LpSolution(INFEASIBLE, None, None, None, 0)

    nr, nc = st.G.shape
    if start is not None:
        start = np.asarray(start, dtype=np.intp)
        if (start.shape != (nr,) or start.min(initial=0) < 0
                or start.max(initial=-1) >= nc + nr):
            raise ValueError(f"start must hold {nr} column indices "
                             f"below {nc + nr}")
    status, tb, farkas = _simplex(st.c, st.G, st.g, st.fixed_cols,
                                  max_iters, start)

    if status == INFEASIBLE:
        # a fixed column was never priced, so the combination may weigh
        # it negatively; its bound row (rhs 0) makes up the difference
        short = farkas @ st.G[:, st.fixed_cols]
        farkas[st.fixed_rows] += np.maximum(-short, 0.0)
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
                          ray=ray, basis=tb.basis.copy())

    obj_min = -tb.z2[-1] + st.const
    # duals: rc of slack columns give -d(obj)/d(g_i)
    y_int = -tb.z2[nc:nc + nr]
    dual_min = float(y_int @ st.g) + st.const

    duals = np.zeros(st.n_orig_rows)
    np.add.at(duals, st.row_of, st.row_sign * y_int[:st.row_of.size])
    duals *= st.sense_mult

    sol = LpSolution(OPTIMAL, x, duals, float(st.sense_mult * obj_min),
                     tb.iterations,
                     dual_objective=float(st.sense_mult * dual_min),
                     basis=tb.basis.copy())
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
