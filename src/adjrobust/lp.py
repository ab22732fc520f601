"""Dense linear-programming kernel.

Two-phase primal simplex on a dense tableau.  Pricing is Dantzig
(most negative reduced cost) and switches to Bland's rule after
5*(columns+rows) iterations so cycling cannot occur; ratio-test ties go
to the smallest basic variable index, which keeps runs deterministic
and is the tie-break Bland's termination argument needs.  A pivot
rewrites only the rows where the entering column is nonzero, so its
cost follows that column's nonzeros rather than the tableau's size.

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
# tableau cells below which a pivot always takes the dense update
_SPARSE_PIVOT_CELLS = 8192


class LpError(Exception):
    pass


class LpBreakdownError(LpError):
    """Numerical breakdown: basis beyond repair or certificates failed."""


class UnboundedSetError(LpError):
    """A set expected to be bounded has an unbounded coordinate."""


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
        self._A = np.zeros((0, nv))
        self._rel = np.zeros(0, dtype=np.int8)
        self._b = np.zeros(0)

    @classmethod
    def from_arrays(cls, sense, obj, A, rel, b, lower=None, upper=None):
        lp = cls(sense, obj, lower, upper)
        A = np.asarray(A, dtype=float)
        if A.size == 0:
            A = A.reshape(0, lp.num_vars)
        if A.ndim != 2 or A.shape[1] != lp.num_vars:
            raise ValueError("row matrix shape mismatch")
        lp._A = A
        lp._rel = np.asarray([_REL_CODE[r] if isinstance(r, str) else int(r)
                              for r in rel], dtype=np.int8)
        lp._b = np.asarray(b, dtype=float).ravel()
        if lp._rel.size != A.shape[0] or lp._b.size != A.shape[0]:
            raise ValueError("relation/rhs length mismatch")
        return lp

    @property
    def A(self) -> np.ndarray:
        return self._A

    @property
    def rel(self) -> np.ndarray:
        return self._rel

    @property
    def b(self) -> np.ndarray:
        return self._b

    @property
    def num_vars(self) -> int:
        return self.obj.size

    @property
    def num_rows(self) -> int:
        return self._A.shape[0]

    def with_bounds(self, lower, upper) -> "LinearProgram":
        """Same rows and objective, new bounds; row data is shared."""
        lp = LinearProgram(self.sense, self.obj, lower, upper)
        lp._A, lp._rel, lp._b = self._A, self._rel, self._b
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
    def __init__(self, c: np.ndarray, G: np.ndarray, g: np.ndarray,
                 bland_after: int, max_iters: int):
        nr, nc = G.shape
        neg = g < 0
        narts = int(neg.sum())
        self.nc, self.nr0, self.narts = nc, nr, narts
        self.art_start = nc + nr
        width = nc + nr + narts + 1

        T = np.zeros((nr, width))
        T[:, :nc] = np.where(neg[:, None], -G, G)
        T[np.arange(nr), nc + np.arange(nr)] = np.where(neg, -1.0, 1.0)
        art_cols = self.art_start + np.arange(narts)
        T[np.flatnonzero(neg), art_cols] = 1.0
        T[:, -1] = np.where(neg, -g, g)
        self.T = T
        self.buf = np.empty_like(T)
        # pristine copies so the tableau can be rebuilt through any basis
        self.M0 = T[:, :-1].copy()
        self.g0 = T[:, -1].copy()

        basis = nc + np.arange(nr)
        basis[neg] = art_cols
        self.basis = basis

        # phase-2 costs (zero on slacks and artificials), reduced row
        self.z2 = np.zeros(width)
        self.z2[:nc] = c
        self.c2_full = self.z2[:-1].copy()
        # phase-1 costs: one on artificials, reduced against initial basis
        self.z1 = np.zeros(width)
        self.z1[self.art_start:-1] = 1.0
        self.c1_full = self.z1[:-1].copy()
        if narts:
            self.z1 -= T[neg].sum(axis=0)

        self.iterations = 0
        self.bland_after = bland_after
        self.max_iters = max_iters
        self.refresh_every = 128
        self.alive = np.ones(nr, dtype=bool)  # rows kept after phase 1

    def pivot(self, p: int, q: int) -> None:
        T = self.T
        piv = T[p, q]
        if abs(piv) <= PIVOT_TOL:
            raise LpBreakdownError("pivot element below threshold")
        pr = T[p] / piv
        colq = T[:, q].copy()
        colq[p] = 0.0
        # a row with colq == 0 would only receive x - 0*y, so skipping it
        # changes no value.  Gathering and scattering the other rows costs
        # more than one buffered dense update on small tableaux and when
        # at least half the rows are nonzero.
        rows = (np.flatnonzero(colq) if T.size >= _SPARSE_PIVOT_CELLS
                else None)
        if rows is not None and 2 * rows.size < colq.size:
            # fewer than half the rows: both halves of buf fit, so no
            # temporary of the update's size is allocated
            k = rows.size
            prod, part = self.buf[:k], self.buf[k:2 * k]
            np.multiply(colq[rows, None], pr, out=prod)
            # rows are in range; any mode but "raise" writes part directly
            np.take(T, rows, axis=0, out=part, mode="clip")
            part -= prod
            T[rows] = part
        else:
            np.multiply(colq[:, None], pr[None, :], out=self.buf)
            T -= self.buf
        T[p] = pr
        T[:, q] = 0.0
        T[p, q] = 1.0
        if self.z1[q] != 0.0:
            self.z1 -= self.z1[q] * pr
            self.z1[q] = 0.0
        if self.z2[q] != 0.0:
            self.z2 -= self.z2[q] * pr
            self.z2[q] = 0.0
        self.basis[p] = q
        # keep right-hand sides from drifting slightly negative
        rhs = T[:, -1]
        np.copyto(rhs, 0.0, where=(rhs < 0) & (rhs > -1e-11))

    def run(self, z: np.ndarray, allowed: np.ndarray) -> str:
        """Pivot until optimal ('optimal') or unbounded ('unbounded')."""
        T = self.T
        while True:
            if self.iterations >= self.max_iters:
                raise LpBreakdownError(
                    f"iteration limit {self.max_iters} exceeded")
            if self.iterations and self.iterations % self.refresh_every == 0:
                self.refresh()
            rc = z[:-1]
            if self.iterations < self.bland_after:
                priced = np.where(allowed, rc, np.inf)
                q = int(np.argmin(priced))
                if priced[q] >= -_RC_TOL:
                    return OPTIMAL
            else:
                neg_idx = np.flatnonzero(allowed & (rc < -_RC_TOL))
                if neg_idx.size == 0:
                    return OPTIMAL
                q = int(neg_idx[0])
            col = T[:, q]
            elig = col > PIVOT_TOL
            if not elig.any():
                self._entering = q
                return UNBOUNDED
            ratios = np.where(elig, T[:, -1] / np.where(elig, col, 1.0),
                              np.inf)
            rmin = ratios.min()
            cand = np.flatnonzero(ratios == rmin)
            p = int(cand[np.argmin(self.basis[cand])])
            self.pivot(p, q)
            self.iterations += 1

    def refresh(self) -> None:
        """Rebuild the whole tableau from the pristine data through the
        current basis.  Dense rank-one updates drift; left unchecked the
        drift can steer the ratio test into a basis that is infeasible in
        exact arithmetic.  Rebuilding as soon as a basic column stops
        looking like a unit vector keeps every later pivot decision honest.
        A basis too ill-conditioned to reproduce the right-hand side is
        left alone so the certificates judge the raw tableau instead."""
        MB = self.M0[:, self.basis]
        try:
            sol = np.linalg.solve(MB, np.column_stack([self.M0, self.g0]))
        except np.linalg.LinAlgError:
            return
        xb = sol[:, -1]
        scale = 1.0 + float(np.abs(self.g0).max(initial=0.0))
        if float(np.abs(MB @ xb - self.g0).max(initial=0.0)) > 1e-7 * scale:
            return
        if float(xb.min(initial=0.0)) < -1e-7 * scale:
            raise LpBreakdownError("basis lost primal feasibility")
        self.T[:, :-1] = sol[:, :-1]
        self.T[:, -1] = np.where(xb < 0.0, 0.0, xb)
        for z, cf in ((self.z1, self.c1_full), (self.z2, self.c2_full)):
            try:
                w = np.linalg.solve(MB.T, cf[self.basis])
            except np.linalg.LinAlgError:
                continue
            z[:-1] = cf - self.M0.T @ w
            z[-1] = -float(cf[self.basis] @ xb)

    def refine_optimal(self) -> None:
        """Re-derive basic values, reduced costs, and the objective from
        the pristine data through the final basis.  Hundreds of dense
        pivot updates accumulate enough roundoff to trip the optimality
        certificates; one exact solve against the basis removes it."""
        MB = self.M0[:, self.basis]
        try:
            xb = np.linalg.solve(MB, self.g0)
            w = np.linalg.solve(MB.T, self.c2_full[self.basis])
        except np.linalg.LinAlgError:
            return
        scale = 1.0 + float(np.abs(self.g0).max(initial=0.0))
        if float(np.abs(MB @ xb - self.g0).max(initial=0.0)) > 1e-7 * scale:
            return
        self.T[:, -1] = xb
        self.z2[:-1] = self.c2_full - self.M0.T @ w
        self.z2[-1] = -float(self.c2_full[self.basis] @ xb)

    def purge_artificials(self, drop_tol: float = 1e-7) -> None:
        """Drive basic artificials out; drop rows proven redundant."""
        if self.narts == 0:
            return
        dead: list[int] = []
        for p in np.flatnonzero(self.basis >= self.art_start):
            row = self.T[p, :self.art_start]
            cands = np.flatnonzero(np.abs(row) > drop_tol)
            if cands.size:
                self.pivot(int(p), int(cands[0]))
            else:
                dead.append(int(p))
        if dead:
            keep = np.ones(self.T.shape[0], dtype=bool)
            keep[dead] = False
            self.alive = keep
            self.T = np.ascontiguousarray(self.T[keep])
            self.buf = np.empty_like(self.T)
            self.basis = self.basis[keep]
            self.M0 = np.ascontiguousarray(self.M0[keep])
            self.g0 = self.g0[keep]
        # artificial columns are never priced again; chop them off
        self.T = np.ascontiguousarray(
            np.hstack([self.T[:, :self.art_start], self.T[:, -1:]]))
        self.buf = np.empty_like(self.T)
        self.z1 = np.concatenate([self.z1[:self.art_start], self.z1[-1:]])
        self.z2 = np.concatenate([self.z2[:self.art_start], self.z2[-1:]])
        self.M0 = np.ascontiguousarray(self.M0[:, :self.art_start])
        self.c1_full = self.c1_full[:self.art_start]
        self.c2_full = self.c2_full[:self.art_start]


def _simplex(c, G, g, max_iters=None):
    nr, nc = G.shape
    bland_after = 5 * (nc + nr)
    if max_iters is None:
        max_iters = max(200 * (nc + nr), 20000)
    tb = _Tableau(c, G, g, bland_after, max_iters)

    if tb.narts:
        allowed = np.ones(tb.T.shape[1] - 1, dtype=bool)
        allowed[tb.art_start:] = False  # artificials never re-enter
        status = tb.run(tb.z1, allowed)
        if status != OPTIMAL:  # phase 1 is bounded below by zero
            raise LpBreakdownError("phase 1 reported unbounded")
        phase1 = -tb.z1[-1]
        if phase1 > 1e-8 * (1.0 + float(np.abs(g).max(initial=0.0))):
            farkas = tb.z1[nc:nc + nr].copy()
            return INFEASIBLE, tb, farkas
        tb.purge_artificials()
    allowed = np.ones(tb.T.shape[1] - 1, dtype=bool)
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
    y[tb.basis] = tb.T[:, -1]
    x = st.shift.copy()
    np.add.at(x, st.col_orig, st.col_sign * y[:nc])

    if status == UNBOUNDED:
        d = np.zeros(nc + nr)
        d[tb._entering] = 1.0
        d[tb.basis] = -tb.T[:, tb._entering]
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


# ---------------------------------------------------------------------------
# helpers on uncertainty sets
# ---------------------------------------------------------------------------

def max_coordinate(uset, i: int, tol: float = 1e-8) -> float:
    """max h_i over the HRep set {h >= 0 : R h <= r}."""
    R = np.asarray(uset.R, dtype=float)
    r = np.asarray(uset.r, dtype=float)
    m = R.shape[1]
    obj = np.zeros(m)
    obj[i] = 1.0
    lp = LinearProgram.from_arrays("max", obj, R, [LE] * R.shape[0], r)
    sol = solve_lp(lp, tol)
    if sol.status == UNBOUNDED:
        raise UnboundedSetError(f"coordinate {i} unbounded on the set")
    if sol.status != OPTIMAL:
        raise LpError(f"coordinate LP ended with status {sol.status}")
    return float(sol.objective)
