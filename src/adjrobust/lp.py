"""Dense linear-programming kernel.

Simplex on a dense tableau of ``[G | I]``: a dual simplex phase reaches
a primal feasible basis, then a primal simplex phase reaches an optimal
one.  Pricing is Dantzig (most negative reduced cost) and switches to
Bland's rule after 5*(columns+rows) iterations so cycling cannot occur.
Under Dantzig the
ratio test is Harris's two-pass test: among the rows whose ratio is
within a feasibility tolerance of the smallest, it takes the largest
pivot, and right-hand sides that the step leaves within that tolerance
below zero are clipped to zero.  Under Bland it is the exact min-ratio
test with ties to the smallest basic variable index, the tie-break
Bland's termination argument needs.

A pivot does not rewrite the tableau: it appends one rank-one factor,
and a column or row is read through the pending factors.  The
right-hand side and the reduced-cost row are updated on every pivot.
Every 128 pivots the tableau is rebuilt from the pristine data through
the inverse of the basis matrix and the factors are dropped; a tableau
with fewer than 128 rows folds its factors into the tableau each time
it holds one per row.

The inverse is taken block-wise.  Slack column ``nc + i`` is the unit
column of row i, so a basis with s structural columns is, up to a
permutation, block lower triangular with an identity in the corner:
only the s x s block of the structural columns on the rows no basic
slack covers is inverted, and the rest of the inverse follows from it
with one product.  Its columns are written straight into the tableau;
the nr x nr inverse is never assembled.  On slack-heavy bases this is
much cheaper than a dense inverse: the VRep affine LPs of the
worst-case family at m=16 have a median of 68 structural basic columns
among 545.  A basis of slack columns alone is its own inverse.

An optimal solve re-derives its basic values and duals from the
pristine data with no inversion: one step of iterative refinement,
whose corrections go through the inverse that the tableau's slack
columns already hold.  A refined residual above the rebuild's bound
sends it to the block inverse instead.

Cold start
----------
A cold solve starts from the slack basis of ``[G | I]``, where the
tableau is current with no inverse, and needs no artificial column.
When the standard-form costs are nonnegative on every priced column,
that basis is dual feasible (with zero basic costs its reduced costs
are the costs themselves), so the dual phase runs on the LP's own
costs; the primal phase then cannot end unbounded, as ``c >= 0`` and
``y >= 0`` bound the objective below.  This covers the vertex LPs and
the cut-loop master.  Otherwise the dual phase runs on all-zero costs,
for which every basis is dual feasible: it is a phase 1 that ends at a
primal feasible basis or at a row that proves the LP infeasible
(Koberstein, "The dual simplex method, techniques for a fast and
stable implementation", PhD thesis, Paderborn 2005), and the primal
phase then optimizes the LP's own costs and can end unbounded.  With
zero costs every dual ratio is zero, so the Harris test takes the
largest ``|a_pj|``; the phase is fully dual degenerate, and the switch
to Bland's rule is its termination guarantee.  Shifting the costs to
``max(c, 0)`` would keep the dual phase on nonzero costs, but the HRep
affine LP's free columns (z, P, q) are split in two, so many dual
pivots only swap a column for its mirror: on the affine LPs of the m=10
ratio table (uniform, seeds 200-259) shifted costs took 45,381 pivots
against 25,030 for zero costs, and 1.9 times the CPU time.  Only on the
tiny affine LPs of the m=n=2 cut-loop instances did they take fewer
(930 against 1,175 over 80 seeds).

Warm start
----------
``solve_lp(lp, start=basis)`` starts from a basis that an earlier solve
returned (``LpSolution.basis``), typically of an LP with the same rows
and objective whose bounds moved.  The tableau is then built on
``[G | I]`` through that basis.  A dual simplex phase restores primal
feasibility: the leaving row has the most negative right-hand side,
the entering column comes from a
Harris two-pass test on ``|z_j / a_pj|`` over ``a_pj < 0`` (the largest
``|a_pj|`` among the near-smallest ratios), and past the Bland threshold
both choices go to the smallest index.  A row with a negative right-hand
side and no negative entry proves infeasibility, and its slack block
(that row of the basis inverse) is the Farkas vector.  The primal phase
then removes any dual infeasibility left at tolerance level.  A start
that is singular, or neither primal nor dual feasible, is solved cold,
by the rule above.  Warm or cold, a solve ends in the same
certificates.

A start may also be the pair ``(basis, block)`` for an LP with the same
rows, where ``block`` is the inverse of the basis's s x s structural
block (``_Form.block``): the tableau is then rebuilt at that basis
without an inversion.  The residual check on the new LP's own
right-hand side still judges the block, and a block that fails it
leaves the LP to a cold solve.  Branch and bound hands each child its
parent's pair, and a separation MIP's root the previous root's.  A node
LP differs from the root only in its bound values, so a search builds
the standard form's ``G``, ``c`` and row and column maps once
(``_Form``), and each node computes only ``g``, the shift, the constant
and the fixed columns.  A one-off LP takes the same path with a form of
its own.

Allocation
----------
A solve allocates and frees arrays of a few MB (the tableau, its factor
block, the products of a rebuild).  glibc serves a request above its
mmap threshold with fresh pages, and raises that threshold as such
blocks are freed, so whether a solve reuses heap pages or faults in
new ones depends on the allocation history of the process, down to the
size of its environment.  On the 12 worst-case instances at m=16 a
pass of affine LPs and vertex oracles took about 61k minor page faults
in one layout and a few thousand in another, and its affine LPs about
0.012 against 0.008 s.  Importing this module fixes the mmap threshold
at 32 MiB, glibc's ceiling for its dynamic value, and the trim
threshold at 64 MiB, so that freed blocks stay in the heap for the next
solve: a repeated pass then faults no page.  Either setting alone left
about 10k faults per instance.  Where the C library has no ``mallopt``
the import changes nothing.

Conventions
-----------
- Rows are <= or >=; there are no equality rows.  Variables have
  per-coordinate bounds [lower, upper], default [0, inf).
  Internally every problem becomes  min c.y  s.t.  G y <= g, y >= 0:
  >= rows are negated, finite lower bounds are shifted out, free
  variables split into a difference of two nonnegatives, and finite
  upper bounds become extra rows, so row i of the LP is row i of G.  A
  fixed variable (finite lower == upper) keeps its column, with an
  upper-bound row whose right-hand side is 0, so the columns and rows
  of the standard form depend only on which bounds are finite; the
  bound values move only ``g`` and the shift.  A fixed column is never
  priced: it could enter only by a degenerate step, and a Farkas vector
  covers it through its bound row.
- ``duals[i]`` is the marginal d(objective)/d(rhs_i) of original row i.
- A solution claiming Optimal is certified before it is returned
  (primal feasibility, complementary slackness, duality gap); Infeasible
  carries a validated Farkas combination and Unbounded a validated
  improving ray.  Certification failure raises LpBreakdownError rather
  than returning a silently wrong answer.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass, field

import numpy as np

LE, GE = 0, 1
_REL_CODE = {"<=": LE, ">=": GE}
_ROW_SIGN = np.array([1.0, -1.0])  # by relation code

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

PIVOT_TOL = 1e-10
_RC_TOL = 1e-9
# Harris ratio-test tolerance; right-hand sides above -_FEAS_TOL are
# clipped to zero, which removes the overshoot the Harris step allows
_FEAS_TOL = 1e-9
# scale of the certificate thresholds (see _validate_optimal)
_CERT_TOL = 1e-8


# glibc's mallopt parameters
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3


def _pin_allocator() -> None:
    """Fix glibc's mmap and trim thresholds (see "Allocation" in the
    module docstring).  A no-op where the C library has no mallopt."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)


_pin_allocator()


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
        self._form = None   # set by _Form.with_bounds

    @classmethod
    def from_arrays(cls, sense, obj, A, rel, b, lower=None, upper=None):
        lp = cls(sense, obj, lower, upper)
        A = np.asarray(A, dtype=float)
        if A.size == 0:
            A = A.reshape(0, lp.num_vars)
        if A.ndim != 2 or A.shape[1] != lp.num_vars:
            raise ValueError("row matrix shape mismatch")
        lp.A = A
        codes = [_REL_CODE.get(r, r) if isinstance(r, str) else r for r in rel]
        bad = [r for r in codes if r not in (LE, GE)]
        if bad:
            raise ValueError(f"unknown row relation {bad[0]!r}")
        lp.rel = np.asarray(codes, dtype=np.int8)
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
    """What the bound values move in a ``_Form``'s standard form."""
    __slots__ = ("g", "const", "shift", "fixed_cols", "fixed_rows")


class _Form:
    """The standard form of an LP up to the values of its bounds.

    ``G``, ``c``, the column map and the row signs depend only on the
    rows, the objective and which bounds are finite.  ``standardize``
    adds what the bound values move: ``g``, the shift, the constant and
    the fixed columns.  A branch-and-bound search builds one form for
    its root and solves every node through it (``with_bounds``)."""

    def __init__(self, lp: LinearProgram):
        if not (np.all(np.isfinite(lp.A)) and np.all(np.isfinite(lp.b))
                and np.all(np.isfinite(lp.obj))):
            raise ValueError("non-finite data in LP")
        A = lp.A
        self.lp = lp
        self.sense_mult = 1.0 if lp.sense == "min" else -1.0
        self.c0 = self.sense_mult * lp.obj

        # one column per variable, two (y+ then y-) for a free one
        has_lo, has_up = np.isfinite(lp.lower), np.isfinite(lp.upper)
        free = ~(has_lo | has_up)
        width = free + 1
        co = np.arange(lp.num_vars).repeat(width)
        first = width.cumsum() - width
        cs = np.ones(co.size)
        cs[first[~has_lo & has_up]] = -1.0   # mirrored: x_j = up - y
        cs[first[free] + 1] = -1.0
        # y <= up - lo on every column with both bounds; 0 for a fixed one
        boxed = (has_lo & has_up).nonzero()[0]

        # >= rows negated
        sgn = _ROW_SIGN[lp.rel]
        nrow = A.shape[0]
        # G = [A[:, co] * cs * sgn[:, None]; bound rows], filled in place:
        # the signs are +-1, so the order of the products is exact
        G = np.empty((nrow + boxed.size, co.size))
        top = G[:nrow]
        if co.size == A.shape[1]:
            np.multiply(A, sgn[:, None], out=top)   # no column split
        else:
            np.take(A, co, axis=1, out=top)
            top *= sgn[:, None]
        if (cs < 0).any():
            top *= cs
        G[nrow:] = 0.0
        G[nrow + np.arange(boxed.size), first[boxed]] = 1.0

        self.has_lo, self.has_up = has_lo, has_up
        self.first, self.boxed, self.nrow = first, boxed, nrow
        self.c, self.G = self.c0[co] * cs, G
        self.col_orig, self.col_sign, self.row_sign = co, cs, sgn

    def with_bounds(self, lower, upper) -> LinearProgram:
        """``lp.with_bounds(lower, upper)`` for the form's LP, solved
        through this form when its bounds are finite in the same
        places."""
        node = self.lp.with_bounds(lower, upper)
        if (np.array_equal(np.isfinite(node.lower), self.has_lo)
                and np.array_equal(np.isfinite(node.upper), self.has_up)):
            node._form = self
        return node

    def fits(self, start) -> bool:
        """Whether the basis of ``start``, as ``solve_lp`` takes it,
        holds one column index of ``[G | I]`` per row of ``G``."""
        basis = _split_start(start)[0]
        nr, nc = self.G.shape
        return basis.shape == (nr,) and (
            nr == 0 or (basis.min() >= 0 and basis.max() < nc + nr))

    def block(self, basis: np.ndarray) -> np.ndarray | None:
        """``inv(G[N, S])`` for ``basis`` (see ``_partition``): with the
        basis, the start ``(basis, block)`` that rebuilds a tableau of
        this form at that basis with no inversion
        (``_Tableau._basis_inverse``).  None when the basis is
        singular."""
        part = _partition(basis, self.G.shape[1])
        if part is None:
            return None
        S, _, _, N = part
        if S.size == 0:
            return np.empty((0, 0))
        try:
            return np.linalg.inv(self.G[:, basis[S]][N])
        except np.linalg.LinAlgError:
            return None

    def standardize(self, lo: np.ndarray, up: np.ndarray) -> _Standard:
        if (lo > up).any():
            raise _BoundInfeasible
        lp, boxed = self.lp, self.boxed
        shift = np.where(self.has_lo, lo, np.where(self.has_up, up, 0.0))
        fixed = (lo[boxed] == up[boxed]).nonzero()[0]
        st = _Standard()
        st.g = np.concatenate(((lp.b - lp.A @ shift) * self.row_sign,
                               (up - lo)[boxed]))
        st.const = float(self.c0 @ shift)
        st.shift = shift
        # fixed columns and their bound rows
        st.fixed_cols = self.first[boxed[fixed]]
        st.fixed_rows = self.nrow + fixed
        return st


def _peak(a: np.ndarray) -> float:
    """The largest absolute entry of ``a``, 0 if it is empty."""
    return float(np.abs(a).max(initial=0.0))


def _partition(basis: np.ndarray, nc: int):
    """The block structure of a basis of ``[G | I]`` with ``nc``
    structural columns: the basis positions S of structural columns and
    K of slacks, the rows of K's slacks, and the rows N that no basic
    slack covers.  None when N and S differ in size, which makes the
    basis singular (a slack listed twice)."""
    unit = basis >= nc
    S = (~unit).nonzero()[0]
    K = unit.nonzero()[0]
    rows = basis[K] - nc
    free = np.ones(basis.size, dtype=bool)
    free[rows] = False
    N = free.nonzero()[0]
    if N.size != S.size:
        return None
    return S, K, rows, N


def _split_start(start):
    """``solve_lp``'s ``start`` as a basis array and an inverse block,
    either of which may be None."""
    if start is None:
        return None, None
    block = None
    if isinstance(start, tuple):
        start, block = start
    return np.asarray(start, dtype=np.intp), block


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
    right-hand side ``rhs`` and the reduced-cost row ``z`` (last entry
    minus the objective) are kept current on every pivot.  The columns
    are those of ``[G | I]``: column ``nc + i`` is the slack of row i.
    The pristine data ``M0`` is ``G`` alone; the identity is implicit.
    """

    def __init__(self, c: np.ndarray, G: np.ndarray, g: np.ndarray,
                 bland_after: int, max_iters: int,
                 start: np.ndarray | None = None):
        nr, nc = G.shape
        self.nc = nc
        ncols = nc + nr

        # pristine data, so the tableau can be rebuilt through any basis;
        # the slack block of [G | I] is implicit
        self.M0 = G
        self.g0 = g.copy()
        self.scale = 1.0 + _peak(g)
        # current at the slack basis; a warm start rebuilds it
        self.T = np.empty((nr, ncols))
        self.T[:, :nc] = G
        self.T[:, nc:] = 0.0
        self.T[np.arange(nr), nc + np.arange(nr)] = 1.0
        self.rhs = g.copy()

        # pending rank-one factors, one per pivot since T was last current.
        # Past nr factors, reading one row costs more than an eager
        # update of the whole tableau, so a full block is folded into T.
        self.refresh_every = 128
        block = min(self.refresh_every, nr)
        self.U = np.empty((nr, block))
        self.V = np.empty((block, ncols))
        self.k = 0

        self.basis = nc + np.arange(nr) if start is None else start.copy()

        # costs (zero on slacks) and their reduced row
        self.z = np.zeros(ncols + 1)
        self.z[:nc] = c
        self.cost = self.z[:-1].copy()

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
        z = self.z
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

    def run_dual(self, z: np.ndarray, priced: np.ndarray) -> str:
        """Dual simplex on the reduced-cost row ``z``, which is ``self.z``
        or all zeros, until the basis is primal feasible ('optimal') or
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
        z = z[:-1]
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

    def _basis_inverse(self, block: np.ndarray | None = None):
        """The part of the basis inverse that is not a unit column, and
        the basic values it gives, or None when the basis is singular or
        cannot reproduce the right-hand side.

        With S, K, ``rows`` and N as ``_partition`` returns them, the
        basis permuted to (N, K) x (S, K) is
        ``[[M0[N, S], 0], [M0[K, S], I]]``, so only the s x s block
        ``M0[N, S]`` is inverted.  The inverse ``Binv`` (rows: basis
        positions, columns: rows of M0) is the unit column of basis
        position K[i] in column ``rows[i]``, and ``BN = Binv[:, N]``
        elsewhere: ``inv(M0[N, S])`` on S and ``-M0[K, S] inv(M0[N, S])``
        on K.  Returns ``BN``, the basic values, N, K and ``rows``; the
        nr x nr ``Binv`` is never assembled.

        ``block`` is ``inv(M0[N, S])`` if the caller already has it, as
        a branch-and-bound child has its parent's (``_Form.block``): it
        takes the place of the inversion, and the residual check still
        judges it.
        """
        nc, basis, g0 = self.nc, self.basis, self.g0
        part = _partition(basis, nc)
        if part is None:
            return None
        S, K, rows, N = part
        if S.size == 0:
            return np.empty((basis.size, 0)), g0[rows], N, K, rows
        MS = self.M0[:, basis[S]]
        if block is not None and block.shape == (S.size, S.size):
            Ainv = block
        else:
            try:
                Ainv = np.linalg.inv(MS[N])
            except np.linalg.LinAlgError:
                return None
        BN = np.empty((basis.size, S.size))
        BN[S] = Ainv
        BN[K] = -MS[rows] @ Ainv
        xb = BN @ g0[N]
        xb[K] += g0[rows]
        if _peak(self._residual(xb)) > 1e-7 * self.scale:
            return None
        return BN, xb, N, K, rows

    def _residual(self, xb: np.ndarray) -> np.ndarray:
        """``B xb - g0`` for the basis matrix B = ``[M0 | I][:, basis]``."""
        nc, basis = self.nc, self.basis
        y = np.zeros(nc + basis.size)
        y[basis] = xb
        resid = self.M0 @ y[:nc] - self.g0
        resid += y[nc:]
        return resid

    def _reduced(self, y: np.ndarray) -> np.ndarray:
        """Reduced costs ``cost - y [M0 | I]`` for the duals ``y``."""
        return np.concatenate((self.cost[:self.nc] - y @ self.M0, -y))

    def refresh(self, primal: bool = True) -> None:
        """Rebuild the whole tableau from the pristine data through the
        current basis and drop the pending factors.  Rank-one updates
        drift; left unchecked the drift can steer the ratio test into a
        basis that is infeasible in exact arithmetic.  A basis too
        ill-conditioned to reproduce the right-hand side is left alone
        (its factors folded into T) so the certificates judge the raw
        tableau instead.  In the primal phase (``primal``) a basis
        whose values are clearly negative is a breakdown; the dual phase
        expects them."""
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

    def start_warm(self, priced: np.ndarray,
                   block: np.ndarray | None = None) -> bool:
        """Rebuild the tableau at the start basis, through ``block`` if
        given (see ``_basis_inverse``).  False when the basis is
        singular, or neither primal feasible nor dual feasible on the
        ``priced`` columns (up to the slack that the certified optimum of
        a related LP leaves)."""
        inv = self._basis_inverse(block)
        if inv is None:
            return False
        self._rebuild(*inv)
        if float(self.rhs.min(initial=0.0)) >= -_FEAS_TOL:
            return True
        slack = 1e-7 * (1.0 + _peak(self.cost))
        return float(self.z[:-1][priced].min(initial=0.0)) >= -slack

    def _rebuild(self, BN, xb, N, K, rows) -> None:
        """Write ``Binv [M0 | I]`` into T, column blocks straight from
        ``BN`` (see ``_basis_inverse``).  The structural block is
        ``BN @ M0[N]`` plus, in the rows of the basic slacks, their own
        rows of M0: an nr x s x nc product instead of an nr x nr x nc
        one.  The slack block is ``Binv`` itself."""
        nc, T, M0 = self.nc, self.T, self.M0
        np.matmul(BN, M0[N], out=T[:, :nc])
        T[K, :nc] += M0[rows]
        slack = T[:, nc:]
        slack[:, N] = BN
        slack[:, rows] = 0.0
        slack[K, rows] = 1.0
        self.k = 0
        np.copyto(xb, 0.0, where=(xb < 0) & (xb > -_FEAS_TOL))
        self._price(BN, xb, N)

    def _price(self, BN, xb, N) -> None:
        """Take the basic values ``xb`` and the reduced costs of the
        duals ``y = c_B Binv`` (see ``_basis_inverse``), which are zero
        on the rows of the basic slacks, whose costs are zero."""
        y = np.zeros(xb.size)
        y[N] = self.cost[self.basis] @ BN
        self._settle(xb, self._reduced(y))

    def _settle(self, xb, rc) -> None:
        """Take the basic values ``xb`` and the reduced costs ``rc``."""
        self.rhs = xb
        self.z[:-1] = rc
        self.z[-1] = -float(self.cost[self.basis] @ xb)

    def refine_optimal(self) -> None:
        """Re-derive basic values, reduced costs, and the objective from
        the pristine data through the final basis.  Hundreds of pivot
        updates accumulate enough roundoff to trip the optimality
        certificates.  One step of iterative refinement removes it: the
        residuals of the basic values (``B xb - g0``) and of the duals
        (the reduced costs of the basic columns) are taken from the
        pristine data and corrected through the inverse that the slack
        columns of the tableau hold, read through the pending factors;
        that inverse is never assembled.  If a refined residual still
        exceeds the bound of ``_basis_inverse``, the block inverse
        re-derives them instead."""
        nc, basis, k = self.nc, self.basis, self.k
        slack, U, V = self.T[:, nc:], self.U[:, :k], self.V[:k, nc:]
        r = self._residual(self.rhs)
        xb = self.rhs - (slack @ r - U @ (V @ r))
        y = -self.z[nc:-1]
        d = self._reduced(y)[basis]
        y = y + (d @ slack - (d @ U) @ V)
        rc = self._reduced(y)
        if (_peak(self._residual(xb)) <= 1e-7 * self.scale
                and _peak(rc[basis]) <= 1e-7 * (1.0 + _peak(self.cost))):
            self._settle(xb, rc)
            return
        inv = self._basis_inverse()
        if inv is not None:
            self._price(*inv[:3])


def _simplex(c, G, g, fixed, start=None, block=None):
    """Simplex on  min c.y, G y <= g, y >= 0: a dual phase from a basis
    that is dual feasible on the costs it prices, then a primal phase.
    A usable warm start is primal feasible, or dual feasible on the
    costs.  The slack basis of a cold start is dual feasible on the
    costs if no priced one is negative, and on zero costs always
    (module docstring, "Cold start").  The ``fixed`` columns (held at
    zero by a bound row with right-hand side 0) are never priced:
    entering, they could only take a degenerate step, and their reduced
    costs have no sign to keep.  ``block`` is the start's
    ``inv(M0[N, S])`` if known (``_Tableau._basis_inverse``)."""
    nr, nc = G.shape
    bland_after = 5 * (nc + nr)
    max_iters = max(200 * (nc + nr), 20000)
    priced = np.ones(nc + nr, dtype=bool)
    priced[fixed] = False
    tb = _Tableau(c, G, g, bland_after, max_iters, start)
    if start is not None and not tb.start_warm(priced, block):
        tb, start = _Tableau(c, G, g, bland_after, max_iters), None
    cold_phase1 = start is None and (c[priced[:nc]] < 0.0).any()
    if tb.run_dual(np.zeros_like(tb.z) if cold_phase1 else tb.z,
                   priced) == INFEASIBLE:
        # row p reads Binv[p] G y + Binv[p] s = Binv[p] g < 0 with no
        # negative coefficient: Binv[p] is a Farkas vector
        return INFEASIBLE, tb, tb.row(tb._leaving)[nc:]
    return tb.run(tb.z, priced), tb, None


def solve_lp(lp: LinearProgram,
             start: np.ndarray | tuple | None = None) -> LpSolution:
    """Solve lp; statuses 'optimal', 'infeasible', 'unbounded'.

    Optimal solutions come with duals (marginals per original row) and
    are certified: primal residuals, complementary slackness, and the
    primal/dual objective gap are all checked before returning.

    ``start`` is a basis to start from, as ``LpSolution.basis`` returns
    it for an LP whose bounds are finite in the same places (one
    standard-form column per standard-form row), or the pair
    ``(basis, block)`` of such a basis and its inverse block
    (``_Form.block``) when its LP had the same rows, which spares the
    start an inversion.
    A start that is singular, or neither primal nor dual feasible, is
    ignored.
    """
    form = lp._form or _Form(lp)
    try:
        st = form.standardize(lp.lower, lp.upper)
    except _BoundInfeasible:
        return LpSolution(INFEASIBLE, None, None, None, 0)

    nr, nc = form.G.shape
    if start is not None and not form.fits(start):
        raise ValueError(f"start must hold {nr} column indices "
                         f"below {nc + nr}")
    start, block = _split_start(start)
    status, tb, farkas = _simplex(form.c, form.G, st.g, st.fixed_cols,
                                  start, block)

    if status == INFEASIBLE:
        # a fixed column was never priced, so the combination may weigh
        # it negatively; its bound row (rhs 0) makes up the difference
        short = farkas @ form.G[:, st.fixed_cols]
        farkas[st.fixed_rows] += np.maximum(-short, 0.0)
        _validate_farkas(form.G, st.g, farkas)
        return LpSolution(INFEASIBLE, None, None, None, tb.iterations,
                          farkas=farkas)
    if status == OPTIMAL:
        tb.refine_optimal()

    # internal primal point
    y = np.zeros(nc + nr)
    y[tb.basis] = tb.rhs
    x = st.shift.copy()
    np.add.at(x, form.col_orig, form.col_sign * y[:nc])

    if status == UNBOUNDED:
        d = np.zeros(nc + nr)
        d[tb._entering] = 1.0
        d[tb.basis] = -tb.column(tb._entering)
        ray = np.zeros(lp.num_vars)
        np.add.at(ray, form.col_orig, form.col_sign * d[:nc])
        _validate_ray(lp, ray, d[:nc])
        return LpSolution(UNBOUNDED, None, None, None, tb.iterations,
                          ray=ray, basis=tb.basis.copy())

    sense = form.sense_mult
    obj_min = -tb.z[-1] + st.const
    # duals: rc of slack columns give -d(obj)/d(g_i)
    y_int = -tb.z[nc:nc + nr]
    dual_min = float(y_int @ st.g) + st.const
    duals = sense * form.row_sign * y_int[:form.nrow]

    sol = LpSolution(OPTIMAL, x, duals, float(sense * obj_min),
                     tb.iterations,
                     dual_objective=float(sense * dual_min),
                     basis=tb.basis.copy())
    _validate_optimal(lp, st.g, sol, y[nc:], y_int, obj_min, dual_min)
    return sol


# ---------------------------------------------------------------------------
# certificate validation
# ---------------------------------------------------------------------------

def _validate_optimal(lp, g, sol, slack, y_int, obj_min, dual_min) -> None:
    # validation thresholds sit one to two orders above the pivot/feas
    # tolerances so honest float accumulation does not masquerade as
    # breakdown; property tests assert the tight bounds on small LPs.
    tol = _CERT_TOL
    x, A, b = sol.x, lp.A, lp.b
    if A.size:
        bad = _ROW_SIGN[lp.rel] * (A @ x - b) > 10 * tol * (1 + np.abs(b))
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
    cs = np.abs(y_int * slack)
    if cs.size and cs.max() > 100 * tol * (1.0 + np.abs(g)).max():
        raise LpBreakdownError("complementary slackness failed")


def _validate_farkas(G, g, lam) -> None:
    """``lam >= 0`` with ``lam G >= 0`` and ``lam g < 0`` proves that
    ``G y <= g, y >= 0`` has no solution."""
    tol = _CERT_TOL
    if lam.min(initial=0.0) < -10 * tol:
        raise LpBreakdownError("Farkas multipliers not nonnegative")
    comb = lam @ G
    scale = 1.0 + _peak(G) * _peak(lam)
    if comb.size and comb.min() < -100 * tol * scale:
        raise LpBreakdownError("Farkas combination not nonnegative")
    if float(lam @ g) >= -1e-10 * (1.0 + _peak(g)):
        raise LpBreakdownError("Farkas combination fails to cut off rhs")


def _validate_ray(lp, ray, d_struct) -> None:
    scale = 1.0 + _peak(d_struct)
    if lp.A.size:
        bad = _ROW_SIGN[lp.rel] * (lp.A @ ray) > 100 * _CERT_TOL * scale
        if bad.any():
            raise LpBreakdownError("improving ray leaves the feasible cone")
    drop = (1.0 if lp.sense == "min" else -1.0) * float(lp.obj @ ray)
    if drop > -1e-9 * scale:
        raise LpBreakdownError("ray fails to improve the objective")
