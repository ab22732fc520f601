"""Dense linear-programming kernel.

Bounded-variable simplex on a dense tableau of ``[G | I]``: a dual
simplex phase reaches a primal feasible basis, then a primal simplex
phase reaches an optimal one.  A nonbasic column sits at a finite
bound, or at 0 when free.  Pricing is Dantzig (the largest reduced
cost of a column that may move the way it improves) and switches to
Bland's rule after 5*(columns+rows) iterations so cycling cannot occur.
Under Dantzig the ratio test is Harris's two-pass test: among the basic
columns whose ratio is within a feasibility tolerance of the smallest,
it takes the largest pivot, and basic values that the step leaves
within that tolerance outside their bounds are clipped onto them.
Under Bland it is the exact min-ratio test with ties to the smallest
basic variable index, the tie-break Bland's termination argument needs.
An entering column whose bounds are closer than the step flips to its
other bound with no change of basis.

The tableau's storage (``_Store``) keeps it in deferred product form:
a pivot does not rewrite the tableau but appends one rank-one factor,
and a column or row is read through the pending factors.  The simplex
(``_Tableau``) reaches the storage through these reads and a few
products only.  The right-hand side and the reduced-cost row are
updated on every pivot; a tableau with fewer than 128 rows folds its
factors into the tableau each time it holds one per row.  Every 128
pivots the tableau is refreshed, with no inversion: the factors are
folded into it, and the basic values and reduced costs are re-derived from the
pristine data by one step of iterative refinement.  The step takes
their residuals (``[G | I] x - g`` and the reduced costs of the basic
columns) and corrects them through the inverse of the basis that the
tableau's slack columns already hold.  An optimal solve ends with the
same step.

A refresh whose residual before the step or after it exceeds 1e-7 in
units of the tableau's scale (1 + its largest starting basic value; 1 +
the largest cost, for the duals), and an optimal solve whose refined
residual does, take the same step once more through a store rebuilt at
the basis (``_Store.at_basis``, the module's only inversion: the basis
columns of ``[G | I]`` are inverted densely), which then replaces the
tableau's.  A singular basis, or one whose residuals still exceed the
bound after that step, leaves the tableau as it is, and the
certificates judge it.

Degeneracy
----------
The HRep affine LPs are highly degenerate: many basic values sit at
their bounds, and a pivot whose ratio test stops at such a row makes a
zero step.  So once the primal phase has made more than 5 zero-step
pivots in a row, it shifts the lower bound of every slack from 0 down
to ``-1e-7 (1 + frac(j * golden ratio))`` for the slack of row j
(counted from 1): a basic slack at 0 then has room to move, and a slack
that leaves the basis afterwards sits at its shifted bound (the EXPAND
idea of Gill, Murray, Saunders & Wright, "A practical anti-cycling
procedure for linearly constrained optimization", Math. Prog. 1989;
bound shifting in Koberstein's thesis, below).  The amounts are
deterministic, with no random numbers, and differ from row to row, so
shifted rows rarely tie.  Structural bounds are never shifted: that
took more pivots, not fewer.  A phase shifts at most once, and shorter
runs do not shift: shifting on the first zero step slowed the small
LPs of the cut loop.

Every way out of the primal phase takes the shift back: each nonbasic
slack at its shifted bound returns to 0, which moves the basic values
through its column, and the slack bounds are 0 again.  If that leaves
a basic value outside its bounds, the basis is still dual feasible, so
the dual phase restores primal feasibility on the current costs and
the primal phase runs once more, with no shift.  The certificates
judge the LP's own data, as always.

Cold start
----------
A cold solve starts from the slack basis of ``[G | I]``, where the
tableau is current with no inverse, and needs no artificial column;
each structural column sits at its lower bound, else its upper one,
else 0.  When no cost improves on its column's side (``c_j >= 0`` at a
lower bound, ``<= 0`` at an upper one, 0 when free), that basis is dual
feasible (its reduced costs are the costs themselves), so the dual
phase runs on the LP's own costs, and the primal phase cannot end
unbounded.  This covers the vertex LPs and the cut-loop master.
Otherwise the dual phase runs on all-zero costs, for which every basis
is dual feasible: it is a phase 1 that ends at a primal feasible basis
or at a row that proves the LP infeasible (Koberstein, "The dual
simplex method, techniques for a fast and stable implementation", PhD
thesis, Paderborn 2005), and the primal phase then optimizes the LP's
own costs and can end unbounded.  With zero costs every dual ratio is
zero, so the Harris test takes the largest ``|a_pj|``; the phase is
fully dual degenerate, and the switch to Bland's rule is its
termination guarantee.

Warm start
----------
``solve_lp(lp, start=sol)`` starts from ``sol``, the optimal solution of
an earlier solve of an LP with the same row arrays and sense (as
``LinearProgram.with_bounds`` and ``with_objective`` share them): a
branch-and-bound child or the next root of a cut loop.  An optimal
solution keeps its final tableau, and the solve resumes a copy of it
(``_Tableau.resume``) with no inversion: the pending factors are folded
into the copy, and a new objective is priced, ``z = c - c_B T``.  A
branch-and-bound child narrows the bounds of a basic column, and a
cut-loop root changes only the objective, so neither moves a nonbasic
column: one at its upper bound stays there while the bound is finite,
and any other goes where a cold start puts it.  An LP that would move
one is solved cold.  A copy that is primal feasible goes to the primal
phase; one that is dual feasible (up to the slack that the certified
optimum of a related LP leaves) first goes to the dual simplex phase
(``_Tableau.run_dual``), which restores primal feasibility or ends at a
row that proves infeasibility, whose slack block (that row of the basis
inverse) is the Farkas vector.  A copy that is neither, and an LP on
other rows, is solved cold.  Warm or cold, a solve ends in the same
certificates.

The start's tableau is never written, so the two children of a node can
resume their parent in either order.  The start's final refinement has
just re-derived its values, so a resumed tableau counts the pivots to
its first refresh from 0.  So a branch-and-bound search builds one
standard form (``_Form``) for its root, and a cut loop one for all its
separation MIPs.  An open node holds its parent's tableau.

Threads
-------
A threaded BLAS product sums in another order than a single-threaded
one, which moves the last bits of the tableau and with them the ties
the simplex sees, so a pivot count would depend on the thread count,
and on the HRep affine LPs two threads were no faster than one.  So
``solve_lp`` runs numpy's
bundled OpenBLAS (``scipy_openblas``) on one thread and sets the
caller's thread count back when it returns: a pivot count means the
same in every process, and the rest of the process keeps its threads.
The count is process-wide, so solves running on several threads share
one pin: the first to enter sets one thread, and the last to leave sets
the count it found back.
Where numpy has no such library, the thread count is the environment's
(``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS``, ``MKL_NUM_THREADS``).

Allocation
----------
A solve allocates and frees arrays of a few MB (the tableau, its factor
block, the products of a refresh).  glibc serves a request above its
mmap threshold with fresh pages, and raises that threshold as such
blocks are freed, so whether a solve reuses heap pages or faults in
new ones depends on the allocation history of the process, down to the
size of its environment.  Importing this module fixes the mmap
threshold at 32 MiB, glibc's ceiling for its dynamic value, and the
trim threshold at 64 MiB, so that freed blocks stay in the heap for the
next solve: a repeated pass then faults no page.  Where the C library
has no ``mallopt`` the import changes nothing.

Conventions
-----------
- Rows are <= or >=; there are no equality rows.  Variables have
  per-coordinate bounds [lower, upper], default [0, inf); nan, a lower
  bound of +inf and an upper bound of -inf are rejected.  The standard
  form is the LP itself: min c.x s.t. G x <= g, lower <= x <= upper,
  with the >= rows negated (``G = row_sign * A``) and ``c = obj`` for
  min, ``-obj`` for max; the bounds stay on the columns.  A fixed
  column (lower == upper) is never priced, and a free one, once basic,
  never leaves the basis: no bound stops it.
- ``duals[i]`` is the marginal d(objective)/d(rhs_i) of original row i.
- A solution claiming Optimal is certified on the LP's own data before
  it is returned: primal feasibility, complementary slackness of the
  rows, the duality gap, and dual feasibility (one product
  ``A^T duals``): each row dual has its relation's sign, and each
  reduced cost the sign its column's position allows (none at a
  column between its bounds or free, any when fixed).  Infeasible
  carries a Farkas combination of the rows, validated against the rows
  and the bounds, and Unbounded a validated improving ray.
  Certification failure raises LpBreakdownError rather than returning
  a silently wrong answer.
"""

from __future__ import annotations

import ctypes
import threading
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
# Harris ratio-test tolerance; basic values within _FEAS_TOL outside
# their bounds are clipped onto them, which removes the overshoot the
# Harris step allows
_FEAS_TOL = 1e-9
# scale of the certificate thresholds (see _validate_optimal)
_CERT_TOL = 1e-8
# the primal phase shifts the slack bounds after more than this many
# zero-step pivots in a row; the slack of row j (counted from 1) moves
# down by _SHIFT * (1 + frac(j * golden ratio)) ("Degeneracy" in the
# module docstring)
_SHIFT_AFTER = 5
_SHIFT = 1e-7
_GOLDEN = (1.0 + 5.0 ** 0.5) / 2.0


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


def _openblas_threads():
    """The thread-count getter and setter of numpy's bundled OpenBLAS
    (see "Threads" in the module docstring), or None where numpy has no
    such library."""
    try:
        umath = ctypes.CDLL(np._core._multiarray_umath.__file__)
        get = umath.scipy_openblas_get_num_threads64_
        put = umath.scipy_openblas_set_num_threads64_
    except (AttributeError, OSError):
        return None
    get.argtypes, get.restype = (), ctypes.c_int
    put.argtypes, put.restype = (ctypes.c_int,), None
    return get, put


_OPENBLAS_THREADS = _openblas_threads()
# the solves running now, over all threads, and the thread count the
# first of them found; the first pins one thread and the last sets the
# count back (see "Threads" in the module docstring)
_SOLVING_LOCK = threading.Lock()
_solving = 0
_caller_threads = 1


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
        if not ((self.lower < np.inf).all() and (self.upper > -np.inf).all()):
            raise ValueError("no bound may be nan, +inf below or -inf above")
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
        """Same rows and objective, new bounds; their arrays are shared."""
        lp = LinearProgram(self.sense, self.obj, lower, upper)
        lp.obj, lp.A, lp.rel, lp.b = self.obj, self.A, self.rel, self.b
        return lp

    def with_objective(self, obj) -> "LinearProgram":
        """Same rows and bounds, a new objective; their arrays are
        shared."""
        lp = LinearProgram(self.sense, obj, self.lower, self.upper)
        lp.lower, lp.upper = self.lower, self.upper
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
    # of an infeasible LP: row weights, >= 0 on <= rows and <= 0 on >=
    # rows, with lam.A x above lam.b on the bounds (None if they cross)
    farkas: np.ndarray | None = field(default=None, repr=False)
    # final basis: one column index of [G | I] per row, where column
    # num_vars + i is the slack of row i
    basis: np.ndarray | None = field(default=None, repr=False)
    # of an optimal solution: its final tableau, which a start resumes
    _tab: _Tableau | None = field(default=None, repr=False, compare=False)


# ---------------------------------------------------------------------------
# standard form
# ---------------------------------------------------------------------------

class _Form:
    """The standard form of an LP's rows (module docstring,
    "Conventions"): ``G`` and ``g``.  It depends on the rows and the
    sense alone, so a branch-and-bound search builds one form for its
    root and solves every node through it, and the separation MIPs of a
    cut loop share one (``serves``)."""

    def __init__(self, lp: LinearProgram):
        if not (np.all(np.isfinite(lp.A)) and np.all(np.isfinite(lp.b))):
            raise ValueError("non-finite data in LP")
        self.lp = lp
        self.sense_mult = 1.0 if lp.sense == "min" else -1.0
        self.row_sign = _ROW_SIGN[lp.rel]
        # the signs are +-1, so the products are exact
        self.G = lp.A * self.row_sign[:, None]
        self.g = lp.b * self.row_sign
        # scales of the certificates (``_validate_optimal``)
        self.row_tol = 10 * _CERT_TOL * (1.0 + np.abs(lp.b))
        self.cs_tol = 10 * float(self.row_tol.max(initial=10 * _CERT_TOL))
        self.peak_A = max(lp.A.max(initial=0.0), -lp.A.min(initial=0.0))

    def serves(self, lp: LinearProgram) -> bool:
        """Whether ``lp`` has this form: the same row arrays and the same
        sense."""
        own = self.lp
        return (lp.A is own.A and lp.rel is own.rel and lp.b is own.b
                and lp.sense == own.sense)


def _peak(a: np.ndarray) -> float:
    """The largest absolute entry of ``a``, 0 if it is empty."""
    return float(np.abs(a).max(initial=0.0))


# ---------------------------------------------------------------------------
# simplex core on  min c.x, G x + s = g, lower <= x <= upper, s >= 0
# ---------------------------------------------------------------------------

class _Store:
    """A tableau of ``[G | I]`` in deferred product form: the current
    tableau is ``T - U[:, :k] @ V[:k]``.  ``T`` was last made current
    (folded or rebuilt) at some basis, and each pivot since has appended
    one rank-one factor instead of rewriting it.  Past one factor per
    row, reading one row costs more than an eager update of the whole
    tableau, so the block holds at most that many, and a full block is
    folded into ``T``.  The slack columns of the current tableau are the
    inverse of its basis."""

    def __init__(self, T: np.ndarray, block: int):
        self.T = T
        self.U = np.empty((T.shape[0], block))
        self.V = np.empty((block, T.shape[1]))
        self.k = 0

    @classmethod
    def slack_basis(cls, G: np.ndarray, block: int) -> _Store:
        """``[G | I]``, the tableau of the slack basis."""
        nr, nc = G.shape
        T = np.empty((nr, nc + nr))
        T[:, :nc] = G
        T[:, nc:] = 0.0
        T[np.arange(nr), nc + np.arange(nr)] = 1.0
        return cls(T, block)

    def copy(self) -> _Store:
        """A copy with the pending factors folded in; this store is left
        as it is."""
        k = self.k
        T = self.T - self.U[:, :k] @ self.V[:k] if k else self.T.copy()
        return _Store(T, self.V.shape[0])

    def column(self, q: int) -> np.ndarray:
        k = self.k
        if k == 0:
            return self.T[:, q].copy()
        return self.T[:, q] - self.U[:, :k] @ self.V[:k, q]

    def row(self, p: int, out: np.ndarray | None = None) -> np.ndarray:
        """Row p of the current tableau, written to ``out`` if given; that
        may be the next factor slot ``V[k]``, as the read takes ``V[:k]``."""
        k = self.k
        if out is None:
            out = np.empty_like(self.T[p])
        if k == 0:
            out[:] = self.T[p]
        else:
            np.matmul(self.U[p, :k], self.V[:k], out=out)
            np.subtract(self.T[p], out, out=out)
        return out

    def dot(self, J, x: np.ndarray) -> np.ndarray:
        """Columns ``J`` of the current tableau times ``x``."""
        k = self.k
        if k == 0:
            return self.T[:, J] @ x
        return self.T[:, J] @ x - self.U[:, :k] @ (self.V[:k, J] @ x)

    def rdot(self, y: np.ndarray) -> np.ndarray:
        """``y`` times the current tableau."""
        k = self.k
        if k == 0:
            return y @ self.T
        return y @ self.T - (y @ self.U[:, :k]) @ self.V[:k]

    def solve(self, r: np.ndarray, d: np.ndarray):
        """``Binv r`` and ``d Binv`` for the inverse ``Binv`` of the basis,
        which the slack columns of the current tableau hold."""
        k, nc = self.k, self.T.shape[1] - self.T.shape[0]
        slack, U, V = self.T[:, nc:], self.U[:, :k], self.V[:k, nc:]
        return slack @ r - U @ (V @ r), d @ slack - (d @ U) @ V

    def fold(self) -> None:
        """Fold the pending factors into T."""
        k = self.k
        if k:
            self.T -= self.U[:, :k] @ self.V[:k]
            self.k = 0

    def append(self, p: int, q: int, col: np.ndarray,
               row: np.ndarray | None = None) -> np.ndarray:
        """Append the factor of a pivot on (p, q), after folding a full
        block: ``T - u v^T`` turns column q into e_p and scales row p by
        1/col[p].  ``col`` is column q and ``row`` row p of the current
        tableau, read here if not given.  Returns ``v``, the new row p."""
        if self.k == self.V.shape[0]:
            self.fold()
        k = self.k
        v = self.V[k]
        if row is None:
            row = self.row(p, out=v)
        np.divide(row, col[p], out=v)
        v[q] = 1.0
        u = self.U[:, k]
        u[:] = col
        u[p] -= 1.0
        self.k = k + 1
        return v

    @classmethod
    def at_basis(cls, G: np.ndarray, basis: np.ndarray,
                 block: int) -> _Store | None:
        """The tableau of ``[G | I]`` at ``basis``, through the dense
        inverse of its basis columns; None for a singular basis."""
        store = cls.slack_basis(G, block)
        try:
            Binv = np.linalg.inv(store.T[:, basis])
        except np.linalg.LinAlgError:
            return None
        store.T = Binv @ store.T
        return store


class _Tableau:
    """The simplex on  min c.x, G x + s = g, lower <= x <= upper, s >= 0,
    over a tableau of ``[G | I]`` held in ``store`` (a ``_Store``).

    The basic values ``rhs`` and the reduced-cost row ``z`` are kept
    current on every pivot.  Column ``nc + i`` of ``[G | I]`` is the
    slack of row i, in [0, inf), or in [-shift, inf) while the primal
    phase has shifted the slack bounds (``shifted``; module docstring,
    "Degeneracy"), when a nonbasic slack may sit at its shifted bound
    instead of at 0. ``xn`` holds the nonbasic values (0 on basic
    columns), and ``rise`` and ``fall`` are 1.0 on the nonbasic columns
    that may rise and fall, else 0.0: a fixed column does neither.  The
    pristine data is ``form``: ``G`` and ``g``; the identity is implicit.
    """

    def __init__(self, form: _Form, lp: LinearProgram):
        """The cold tableau of ``lp`` at the slack basis, where it is
        current with no inverse ("Cold start" in the module docstring)."""
        G = form.G
        nr, nc = G.shape
        self.nc = nc
        ncols = nc + nr
        self.form = form
        self.basis = nc + np.arange(nr)
        self._place(lp)
        self.rhs = self._rhs0()
        self.scale = 1.0 + _peak(self.rhs)
        self.refresh_every = 128
        self.store = _Store.slack_basis(G, min(self.refresh_every, nr))

        # costs (zero on slacks) and their reduced row
        self._costs(lp)
        self.z = self.cost.copy()

        self.iterations = 0
        # the iteration of the last refresh (or of the build)
        self.fresh = 0
        self.bland_after = 5 * ncols
        self.max_iters = max(200 * ncols, 20000)

    def _place(self, lp: LinearProgram,
               at_up: np.ndarray | None = None) -> None:
        """Take the bounds of ``lp`` and put each nonbasic column at its
        lower bound, else its upper one, else at 0; the columns that
        ``at_up`` marks go to their upper bound where they have one.
        Nonbasic slacks sit at 0."""
        lower, upper = lp.lower, lp.upper
        nr = self.basis.size
        self.lo = np.concatenate((lower, np.zeros(nr)))
        self.up = np.concatenate((upper, np.full(nr, np.inf)))
        has_up = np.isfinite(upper)
        self.has_up = bool(has_up.any())
        xn = np.where(np.isfinite(lower), lower, np.where(has_up, upper, 0.0))
        if at_up is not None:
            xn = np.where(at_up & has_up, upper, xn)
        self.xn = xn = np.concatenate((xn, np.zeros(nr)))
        xn[self.basis] = 0.0
        self.rise = (xn < self.up).astype(float)
        self.fall = (xn > self.lo).astype(float)
        self.rise[self.basis] = self.fall[self.basis] = 0.0
        # whether a nonbasic column may ever fall (at an upper bound, free)
        self.falls = self.has_up or bool(self.fall.any())
        self.shifted = False
        self._basic_bounds()

    def _costs(self, lp: LinearProgram) -> None:
        """Take the objective of ``lp``: the costs of ``[G | I]``, zero on
        the slacks."""
        self.obj = lp.obj
        self.cost = np.concatenate((self.form.sense_mult * lp.obj,
                                    np.zeros(self.basis.size)))

    def resume(self, lp: LinearProgram) -> _Tableau | None:
        """A copy of this final tableau for ``lp``, an LP on its rows
        (module docstring, "Warm start"), or None when the copy would
        move a nonbasic column or is neither primal feasible nor dual
        feasible (up to the slack that the certified optimum of a related
        LP leaves).  This tableau is left as it is, so several LPs can
        resume it."""
        # a shallow copy made attribute by attribute: ``copy.copy`` would
        # give it a materialized __dict__, and CPython 3.11 stops
        # specializing attribute reads on ``self`` once tableaux of both
        # layouts pass through the same code, which slows small LPs
        tb = _Tableau.__new__(_Tableau)
        for name, value in vars(self).items():
            setattr(tb, name, value)
        nc = self.nc
        # the basis and the values are the copy's own; a nonbasic column
        # at its upper bound stays there while it has one, and any other
        # goes where a cold start puts it
        tb.basis = self.basis.copy()
        tb._place(lp, self.rise[:nc] < self.fall[:nc])
        if (tb.xn[:nc] != self.xn[:nc]).any():
            return None
        tb.store = self.store.copy()
        tb.rhs = self.rhs.copy()
        tb._clip(tb.rhs)
        if lp.obj is self.obj:
            tb.z = self.z.copy()
        else:
            tb._costs(lp)
            tb.z = tb.cost - tb.store.rdot(tb.cost[tb.basis])
            tb.z[tb.basis] = 0.0
        # the start's final step re-derived the values: a fresh period
        tb.fresh = tb.iterations = 0
        if float(tb._excess(tb.rhs).max(initial=0.0)) <= _FEAS_TOL:
            return tb
        slack = 1e-7 * (1.0 + _peak(tb.cost))
        return tb if float(tb.gain().max(initial=0.0)) <= slack else None

    def _rhs0(self) -> np.ndarray:
        """``g - N xn``: what the rows leave to the basic columns.  A
        nonbasic slack is at 0 unless it sits at its shifted bound."""
        nc = self.nc
        return self.form.g - self.form.G @ self.xn[:nc] - self.xn[nc:]

    def _basic_bounds(self) -> None:
        """Read the bounds of the basic columns from ``lo`` and ``up``,
        and the same bounds widened by _FEAS_TOL (see ``_clip``)."""
        self.lo_b, self.up_b = self.lo[self.basis], self.up[self.basis]
        self.lo_t, self.up_t = self.lo_b - _FEAS_TOL, self.up_b + _FEAS_TOL

    def gain(self) -> np.ndarray:
        """Per column, the improvement per unit of a move it may make."""
        z = self.z
        return np.maximum(-z * self.rise, z * self.fall)

    def _rest(self, j: int, at: float) -> None:
        """Put column j, now nonbasic, at its bound ``at``."""
        self.xn[j] = at
        self.rise[j] = at < self.up[j]
        self.fall[j] = at > self.lo[j]

    def _excess(self, xb: np.ndarray) -> np.ndarray:
        """How far each basic value lies outside its bounds (<= 0 inside)."""
        out = self.lo_b - xb
        if self.has_up:
            np.maximum(out, xb - self.up_b, out=out)
        return out

    def _clip(self, xb: np.ndarray) -> None:
        """Snap basic values within _FEAS_TOL outside their bounds back."""
        np.maximum(xb, self.lo_b, out=xb, where=xb > self.lo_t)
        if self.has_up:
            np.minimum(xb, self.up_b, out=xb, where=xb < self.up_t)

    def pivot(self, p: int, q: int, at: float,
              col: np.ndarray | None = None,
              row: np.ndarray | None = None) -> None:
        """Pivot on (p, q): column q enters, moving as far as brings the
        column basic in row p to its bound ``at``, where it leaves.
        ``col`` is column q and ``row`` row p of the current tableau."""
        if col is None:
            col = self.store.column(q)
        piv = col[p]
        if abs(piv) <= PIVOT_TOL:
            raise LpBreakdownError("pivot element below threshold")
        v = self.store.append(p, q, col, row)
        rhs = self.rhs
        delta = (rhs[p] - at) / piv
        rhs -= delta * col
        rhs[p] = self.xn[q] + delta
        z = self.z
        zq = z[q]
        if zq != 0.0:
            z -= zq * v
            z[q] = 0.0
        self._rest(self.basis[p], at)
        self.xn[q] = 0.0
        self.rise[q] = self.fall[q] = 0.0
        self.basis[p] = q
        lo, up = self.lo[q], self.up[q]
        self.lo_b[p], self.up_b[p] = lo, up
        self.lo_t[p], self.up_t[p] = lo - _FEAS_TOL, up + _FEAS_TOL
        # keep basic values from drifting slightly out of their bounds
        self._clip(rhs)

    def _tick(self, primal: bool) -> bool:
        """Stop at the iteration limit, and refresh every
        ``refresh_every`` pivots; whether pricing is still Dantzig's."""
        if self.iterations >= self.max_iters:
            raise LpBreakdownError(f"iteration limit {self.max_iters} reached")
        if self.iterations - self.fresh >= self.refresh_every:
            self.refresh(primal)
        return self.iterations < self.bland_after

    def run(self) -> str:
        """Primal simplex until optimal ('optimal') or unbounded
        ('unbounded'; the improving ray over all columns is left in
        ``_ray``).  A run of zero-step pivots shifts the slack bounds,
        and every way out takes the shift back ("Degeneracy" in the
        module docstring); if that leaves a basic value outside its
        bounds, the dual phase restores them on the current costs and
        the primal phase runs once more, unshifted."""
        try:
            status = self._primal(shift=True)
        finally:
            shifted = self._unshift()
        if (shifted and status == OPTIMAL
                and float(self._excess(self.rhs).max(initial=0.0))
                > _FEAS_TOL):
            if self.run_dual(self.z) == INFEASIBLE:
                raise LpBreakdownError("unshifting lost a feasible LP")
            status = self._primal(shift=False)
        return status

    def _shift(self) -> None:
        """Move the lower bound of every slack below 0 (see _SHIFT).  A
        nonbasic slack stays at 0 until it next leaves the basis."""
        nc = self.nc
        j = np.arange(1, self.xn.size - nc + 1)
        self.lo[nc:] = -_SHIFT * (1.0 + np.modf(j * _GOLDEN)[0])
        self._basic_bounds()
        self.shifted = True

    def _unshift(self) -> bool:
        """Take back ``_shift``: every nonbasic slack at its shifted bound
        returns to 0, which moves the basic values through its column,
        and the slack bounds are 0 again.  Whether there was a shift."""
        if not self.shifted:
            return False
        nc = self.nc
        J = nc + np.flatnonzero(self.xn[nc:])
        if J.size:
            self.rhs -= self.store.dot(J, -self.xn[J])
            self.xn[J] = 0.0
        self.lo[nc:] = 0.0
        self._basic_bounds()
        self._clip(self.rhs)
        self.shifted = False
        return True

    def _primal(self, shift: bool) -> str:
        """The pivots of ``run``; with ``shift``, more than _SHIFT_AFTER
        zero-step pivots in a row shift the slack bounds once."""
        flat = 0
        while True:
            dantzig = self._tick(primal=True)
            gain = self.gain()
            if dantzig:
                q = int(np.argmax(gain))
                if gain[q] <= _RC_TOL:
                    return OPTIMAL
            else:
                cand = np.flatnonzero(gain > _RC_TOL)
                if cand.size == 0:
                    return OPTIMAL
                q = int(cand[0])
            col = self.store.column(q)
            sign = 1.0 if self.z[q] < 0.0 else -1.0
            # a step t of column q moves the basic values by -t * d
            d = col if sign > 0.0 else -col
            lo, up, rhs = self.lo_b, self.up_b, self.rhs
            room = np.where(d > 0.0, rhs - lo, up - rhs)
            rows = ((np.abs(d) > PIVOT_TOL) & (room < np.inf)).nonzero()[0]
            step = np.inf
            if rows.size:
                a = np.abs(d[rows])
                b = room[rows]
                ratios = b / a
                if dantzig:
                    # Harris: the largest pivot among the rows whose ratio
                    # is within the feasibility tolerance of the smallest
                    near = (ratios <= ((b + _FEAS_TOL) / a).min()).nonzero()[0]
                    i = int(near[a[near].argmax()])
                else:
                    # exact min ratio, ties to the smallest basic index
                    cand = (ratios == ratios.min()).nonzero()[0]
                    i = int(cand[self.basis[rows[cand]].argmin()])
                step = ratios[i]
            span = self.up[q] - self.lo[q]
            if span < np.inf and span <= step:
                # the column reaches its other bound first
                self.rhs -= (sign * span) * col
                self._rest(q, self.up[q] if sign > 0.0 else self.lo[q])
                self._clip(self.rhs)
            elif not rows.size:
                self._ray = np.zeros(self.xn.size)
                self._ray[self.basis] = -sign * col
                self._ray[q] = sign
                return UNBOUNDED
            else:
                p = int(rows[i])
                self.pivot(p, q, lo[p] if d[p] > 0.0 else up[p], col)
                flat = flat + 1 if step <= _FEAS_TOL else 0
                if shift and flat > _SHIFT_AFTER and not self.shifted:
                    self._shift()
            self.iterations += 1

    def run_dual(self, z: np.ndarray) -> str:
        """Dual simplex on the reduced-cost row ``z``, which is ``self.z``
        or all zeros, until every basic value is within its bounds
        ('optimal') or a row proves the LP infeasible ('infeasible'; its
        Farkas weights on the rows of G are left in ``_farkas``).  The
        leaving column lies farthest outside its bounds and leaves at the
        one it violates.  The entering column, among those that can move
        the way that brings it back, comes from a Harris two-pass test on
        ``|z_j / a_pj|``: the largest ``|a_pj|`` among the ratios within
        ``_RC_TOL`` of the smallest.  Past ``bland_after`` pivots both
        choices fall back to the smallest index: the infeasible row of
        the smallest basic index and, among the columns of exactly
        smallest ratio, the smallest one."""
        if not self.rhs.size:   # no rows, nothing to restore
            return OPTIMAL
        while True:
            dantzig = self._tick(primal=False)
            rhs, lo, up = self.rhs, self.lo_b, self.up_b
            out = self._excess(rhs)
            if dantzig:
                p = int(out.argmax())
                if out[p] <= _FEAS_TOL:
                    return OPTIMAL
            else:
                rows = np.flatnonzero(out > _FEAS_TOL)
                if rows.size == 0:
                    return OPTIMAL
                p = int(rows[self.basis[rows].argmin()])
            row = self.store.row(p)
            # the basic column of row p must rise (below its lower bound)
            # or fall: r < 0 where a column rising helps, r > 0 falling
            low = rhs[p] < lo[p]
            r = row if low else -row
            cols = r * self.rise < -PIVOT_TOL
            if self.falls:
                cols |= r * self.fall > PIVOT_TOL
            cols = cols.nonzero()[0]
            if cols.size == 0:
                # the signed slack block of row p weighs the rows
                self._farkas = r[self.nc:]
                return INFEASIBLE
            a = np.abs(row[cols])
            zc = np.abs(z[cols])
            if dantzig:
                # Harris: the largest |a_pj| among the columns whose ratio
                # is within the reduced-cost tolerance of the smallest one
                near = (zc / a <= ((zc + _RC_TOL) / a).min()).nonzero()[0]
                q = int(cols[near[a[near].argmax()]])
            else:
                # exact min ratio; argmin takes the smallest column on ties
                q = int(cols[(zc / a).argmin()])
            self.pivot(p, q, lo[p] if low else up[p], row=row)
            self.iterations += 1

    def _values(self, xb: np.ndarray) -> np.ndarray:
        """Every column's value, with ``xb`` on the basic ones."""
        x = self.xn.copy()
        x[self.basis] = xb
        return x

    def _residual(self, xb: np.ndarray) -> np.ndarray:
        """``[G | I] x - g`` at the basic values ``xb``."""
        x = self._values(xb)
        resid = self.form.G @ x[:self.nc] - self.form.g
        resid += x[self.nc:]
        return resid

    def _reduced(self, y: np.ndarray) -> np.ndarray:
        """Reduced costs ``cost - y [G | I]`` for the duals ``y``."""
        return np.concatenate((self.cost[:self.nc] - y @ self.form.G, -y))

    def refresh(self, primal: bool = True) -> None:
        """Fold the pending factors into the tableau and re-derive the
        basic values and reduced costs (``_rederive``, its drift checked).
        Rank-one updates drift; left unchecked the drift can steer the
        ratio test into a basis that is infeasible in exact arithmetic.
        In the primal phase (``primal``) a basis whose values lie clearly
        outside their bounds is a breakdown; the dual phase expects
        them."""
        self.fresh = self.iterations
        self.store.fold()
        if self._rederive(drift=True):
            self._hold(self.rhs, primal)

    def _hold(self, xb: np.ndarray, primal: bool) -> None:
        """Snap re-derived basic values ``xb`` onto their bounds: in the
        primal phase all of them, after a breakdown check, else those
        within _FEAS_TOL (``_clip``)."""
        if primal:
            if float(self._excess(xb).max(initial=0.0)) > 1e-7 * self.scale:
                raise LpBreakdownError("basis lost primal feasibility")
            np.clip(xb, self.lo_b, self.up_b, out=xb)
        self._clip(xb)

    def _rederive(self, drift: bool = False) -> bool:
        """Re-derive the basic values and reduced costs from the pristine
        data by one step of iterative refinement through the store
        (``_refined``).  If that step fails, take it once more through a
        store rebuilt at the basis (``_Store.at_basis``), which then
        replaces the store.  Whether either step held: a singular basis,
        or one too ill-conditioned for the rebuilt step, leaves the
        tableau as it is, for the certificates to judge."""
        refined = self._refined(self.store, drift)
        if refined is None:
            store = _Store.at_basis(self.form.G, self.basis,
                                    min(self.refresh_every, self.basis.size))
            refined = None if store is None else self._refined(store)
            if refined is None:
                return False
            self.store = store
        self.rhs, self.z[:] = refined
        return True

    def _refined(self, store: _Store, drift: bool = False):
        """Basic values and reduced costs re-derived from the pristine
        data through the current basis by one step of iterative
        refinement, or None when a residual after the step exceeds 1e-7
        of ``scale`` (of 1 + the largest cost, for the duals), or, with
        ``drift``, already did before it.  The residuals of the basic
        values (``[G | I] x - g``) and of the duals (the reduced costs of
        the basic columns) are taken from the pristine data and corrected
        through the basis inverse that ``store`` holds."""
        nc, basis = self.nc, self.basis
        xtol = 1e-7 * self.scale
        ztol = 1e-7 * (1.0 + _peak(self.cost))
        r = self._residual(self.rhs)
        y = -self.z[nc:]
        d = self._reduced(y)[basis]
        if drift and (_peak(r) > xtol or _peak(d) > ztol):
            return None
        dx, dy = store.solve(r, d)
        xb = self.rhs - dx
        y = y + dy
        rc = self._reduced(y)
        if _peak(self._residual(xb)) > xtol or _peak(rc[basis]) > ztol:
            return None
        return xb, rc

    def refine_optimal(self) -> None:
        """Re-derive basic values and reduced costs from the pristine
        data through the final basis (``_rederive``).  Hundreds of pivot
        updates accumulate enough roundoff to trip the optimality
        certificates; one step of iterative refinement removes it."""
        self._rederive()


def solve_lp(lp: LinearProgram,
             start: LpSolution | None = None) -> LpSolution:
    """Solve lp; statuses 'optimal', 'infeasible', 'unbounded'.

    Optimal solutions come with duals (marginals per original row); each
    status the simplex ends in is certified (module docstring, "Conventions").
    ``start`` is the optimal solution of an earlier solve, whose final
    tableau the solve resumes when the LP has the start's rows (module
    docstring, "Warm start").  A start that is not optimal, or does not
    fit this LP's ``[G | I]``, raises ValueError; one on other rows, one
    whose nonbasic columns this LP moves, or one neither primal nor dual
    feasible, leaves the LP to a cold solve.
    The solve runs numpy's bundled OpenBLAS on
    one thread and the last solve running gives the caller's thread
    count back (module docstring, "Threads").
    """
    global _solving, _caller_threads
    if _OPENBLAS_THREADS is None:
        return _solve(lp, start)
    get, put = _OPENBLAS_THREADS
    with _SOLVING_LOCK:
        if not _solving:
            _caller_threads = get()
            if _caller_threads != 1:
                put(1)
        _solving += 1
    try:
        return _solve(lp, start)
    finally:
        with _SOLVING_LOCK:
            _solving -= 1
            if not _solving and _caller_threads != 1:
                put(_caller_threads)


def _solve(lp: LinearProgram, start: LpSolution | None) -> LpSolution:
    """``solve_lp`` on the BLAS thread count it was called with."""
    if start is not None and (start.status != OPTIMAL or start._tab is None):
        raise ValueError("start must be an optimal solution of solve_lp")
    if not np.all(np.isfinite(lp.obj)):
        raise ValueError("non-finite data in LP")
    resume = start is not None and start._tab.form.serves(lp)
    form = start._tab.form if resume else _Form(lp)
    if (lp.lower > lp.upper).any():
        return LpSolution(INFEASIBLE, None, None, None, 0)

    nr, nc = form.G.shape
    if start is not None:
        basis = start.basis
        if (basis.shape != (nr,) or start.x.shape != (nc,)
                or (nr and (basis.min() < 0 or basis.max() >= nc + nr))):
            raise ValueError(f"start must hold {nr} column indices "
                             f"below {nc + nr}, from {nc} columns")
    # a resumed start is primal feasible, or dual feasible on the costs;
    # a cold slack basis is dual feasible on the costs if none improves
    # on its column's side, and on zero costs always ("Cold start")
    tb = start._tab.resume(lp) if resume else None
    phase1 = False
    if tb is None:
        tb = _Tableau(form, lp)
        phase1 = float(tb.gain().max(initial=0.0)) > 0.0
    if tb.run_dual(np.zeros_like(tb.z) if phase1 else tb.z) == INFEASIBLE:
        # row p reads x_B[p] + Binv[p] (N x_N + s) = Binv[p] g, and no
        # nonbasic column can bring x_B[p] back within its bounds:
        # Binv[p], negated above an upper bound, weighs the rows of G
        farkas = form.row_sign * tb._farkas
        _validate_farkas(lp, farkas)
        return LpSolution(INFEASIBLE, None, None, None, tb.iterations,
                          farkas=farkas)

    if tb.run() == UNBOUNDED:
        ray = tb._ray[:nc]
        _validate_ray(lp, ray)
        return LpSolution(UNBOUNDED, None, None, None, tb.iterations,
                          ray=ray, basis=tb.basis.copy())

    tb.refine_optimal()
    x = tb._values(tb.rhs)
    # duals: rc of slack columns give -d(obj)/d(g_i)
    y = -tb.z[nc:]
    sense = form.sense_mult
    sol = LpSolution(OPTIMAL, x[:nc], sense * form.row_sign * y,
                     sense * float(tb.cost @ x), tb.iterations,
                     dual_objective=sense * float(
                         y @ form.g + tb.z[:nc] @ tb.xn[:nc]),
                     basis=tb.basis.copy(), _tab=tb)
    _validate_optimal(lp, form, sol)
    return sol


# ---------------------------------------------------------------------------
# certificate validation
# ---------------------------------------------------------------------------

def _validate_optimal(lp, form, sol) -> None:
    # validation thresholds sit one to two orders above the pivot/feas
    # tolerances so honest float accumulation does not masquerade as
    # breakdown; property tests assert the tight bounds on small LPs.
    tol = _CERT_TOL
    x, duals = sol.x, sol.duals
    resid = lp.A @ x - lp.b
    bad = form.row_sign * resid > form.row_tol
    if np.count_nonzero(bad):
        raise LpBreakdownError(
            f"optimal point violates row {int(np.flatnonzero(bad)[0])}")
    pad = 10 * tol * (1.0 + np.abs(x))
    above, below = x - lp.lower, lp.upper - x
    if np.count_nonzero(above < -pad) or np.count_nonzero(below < -pad):
        raise LpBreakdownError("optimal point violates variable bounds")
    gap = abs(sol.objective - sol.dual_objective)
    if gap > 100 * tol * (1.0 + abs(sol.objective)):
        raise LpBreakdownError(f"duality gap {gap:.3e} failed certification")
    if _peak(duals * resid) > form.cs_tol:
        raise LpBreakdownError("complementary slackness failed")
    # dual feasibility, read as for a min LP: no row dual or reduced
    # cost improves on a side its row or column can move to
    dtol = 100 * tol * (1.0 + _peak(lp.obj) + form.peak_A * _peak(duals))
    if (form.sense_mult * form.row_sign * duals).max(initial=0.0) > dtol:
        raise LpBreakdownError("a row dual has the wrong sign")
    r = form.sense_mult * (lp.obj - duals @ lp.A)
    if (np.count_nonzero((r < -dtol) & (below > pad))
            or np.count_nonzero((r > dtol) & (above > pad))):
        raise LpBreakdownError("a reduced cost has the wrong sign: the "
                               "basis is not optimal")


def _validate_farkas(lp, lam) -> None:
    """``lam`` (see ``LpSolution.farkas``) proves the rows and bounds of
    ``lp`` inconsistent: no x within the bounds brings ``lam.A x`` down
    to ``lam.b``."""
    tol = _CERT_TOL
    if (_ROW_SIGN[lp.rel] * lam).min(initial=0.0) < -10 * tol:
        raise LpBreakdownError("Farkas multipliers of the wrong sign")
    v = lam @ lp.A
    # entries at roundoff level count as 0, whatever the bound
    v[np.abs(v) <= 100 * tol * (1.0 + _peak(lp.A) * _peak(lam))] = 0.0
    move = v != 0.0
    least = float(v[move] @ np.where(v[move] > 0.0, lp.lower[move],
                                     lp.upper[move]))
    lam_b = float(lam @ lp.b)
    if not least - lam_b > 1e-10 * (1.0 + abs(lam_b)):
        raise LpBreakdownError("Farkas combination fails to cut off rhs")


def _validate_ray(lp, ray) -> None:
    tol = 100 * _CERT_TOL * (1.0 + _peak(ray))
    leaves = (_ROW_SIGN[lp.rel] * (lp.A @ ray) > tol).any() or (
        (ray < -tol) & np.isfinite(lp.lower)
        | (ray > tol) & np.isfinite(lp.upper)).any()
    if leaves:
        raise LpBreakdownError("improving ray leaves the feasible cone")
    drop = (1.0 if lp.sense == "min" else -1.0) * float(lp.obj @ ray)
    if drop > -1e-9 * (1.0 + _peak(ray)):
        raise LpBreakdownError("ray fails to improve the objective")
