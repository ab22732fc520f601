"""Affine recourse policies y(h) = P h + q.

The HRep path builds one compact LP: every robust constraint
"affine(h) >= 0 for all h in U" is replaced by its LP dual over
U = {h >= 0 : R h <= r}, which adds a nonnegative multiplier block per
constraint group.  The VRep path imposes the constraints at the hull's
vertices directly (exact, since both sides are affine in h).  It writes
the policy through its values at a maximal affinely independent subset
of the vertices (0 and the e_i when they are vertices): an affine map is
fixed by its values at the corners of a simplex, every vertex is an
affine combination of these anchors, and their nonnegativity rows become
plain variable bounds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .instances import Instance, InstanceError
from .lp import LinearProgram, solve_lp


@dataclass(frozen=True)
class AffineLayout:
    """Column slices of the compact HRep LP, in declaration order."""

    n: int
    m: int
    L: int

    @property
    def x(self):
        return slice(0, self.n)

    @property
    def z(self):
        return self.n

    @property
    def P(self):
        o = self.n + 1
        return slice(o, o + self.n * self.m)

    @property
    def q(self):
        o = self.n + 1 + self.n * self.m
        return slice(o, o + self.n)

    @property
    def v(self):
        o = self.n + 1 + self.n * self.m + self.n
        return slice(o, o + self.L)

    @property
    def V(self):
        o = self.n + 1 + self.n * self.m + self.n + self.L
        return slice(o, o + self.L * self.m)

    @property
    def U(self):
        o = self.n + 1 + self.n * self.m + self.n + self.L * (self.m + 1)
        return slice(o, o + self.L * self.n)

    @property
    def num_vars(self):
        n, m, L = self.n, self.m, self.L
        return n + 1 + n * m + n + L + L * m + L * n

    def unpack(self, xfull: np.ndarray):
        n, m = self.n, self.m
        return (xfull[self.x].copy(), float(xfull[self.z]),
                xfull[self.P].reshape(n, m).copy(), xfull[self.q].copy())


@dataclass
class AffineResult:
    status: str
    objective: float | None
    x: np.ndarray | None
    P: np.ndarray | None
    q: np.ndarray | None
    iterations: int = 0


def evaluate_policy(P: np.ndarray, q: np.ndarray, h: np.ndarray) -> np.ndarray:
    return P @ np.asarray(h, dtype=float) + q


def build_affine_lp(inst: Instance) -> tuple[LinearProgram, AffineLayout]:
    """Compact LP whose optimum is the best affine-policy value (HRep sets).

    Columns in order x, z, P (row-major), q, v, V (row-major), U
    (row-major); v prices the worst-case objective, column i of V the
    i-th covering row, column j of U the j-th policy-sign row.
    """
    if not inst.uncertainty.is_hrep:
        raise InstanceError("compact affine LP needs an HRep uncertainty set")
    inst.validate()
    m, n = inst.m, inst.n
    R, r = inst.uncertainty.R, inst.uncertainty.r
    L = R.shape[0]
    A, B, d = inst.A, inst.B, inst.d

    lay = AffineLayout(n=n, m=m, L=L)
    nv = lay.num_vars
    oP, oq, oV, oU = lay.P.start, lay.q.start, lay.V.start, lay.U.start

    nrows = 1 + m + m + m * m + n + n * m
    G = np.zeros((nrows, nv))
    rhs = np.zeros(nrows)
    row = 0

    # worst-case objective: z - d.q >= r.v with R^T v >= P^T d
    G[row, lay.z] = 1.0
    G[row, lay.q] = -d
    G[row, lay.v] = -r
    row += 1
    for i in range(m):
        G[row, lay.v] = R[:, i]
        for j in range(n):
            G[row, oP + j * m + i] = -d[j]
        row += 1

    # covering rows: (Ax + Bq)_i >= price of h_i - (BPh)_i over U
    for i in range(m):
        G[row, lay.x] = A[i]
        G[row, lay.q] = B[i]
        G[row, oV + np.arange(L) * m + i] = -r
        row += 1
    for i in range(m):
        for k in range(m):
            G[row, oV + np.arange(L) * m + i] = R[:, k]
            for j in range(n):
                G[row, oP + j * m + k] += B[i, j]
            rhs[row] = 1.0 if i == k else 0.0
            row += 1

    # policy sign: q_j >= price of (-Ph)_j over U
    for j in range(n):
        G[row, oq + j] = 1.0
        G[row, oU + np.arange(L) * n + j] = -r
        row += 1
    for j in range(n):
        for k in range(m):
            G[row, oU + np.arange(L) * n + j] = R[:, k]
            G[row, oP + j * m + k] = 1.0
            row += 1
    assert row == nrows

    obj = np.zeros(nv)
    obj[lay.x] = inst.c
    obj[lay.z] = 1.0
    lower = np.zeros(nv)
    upper = np.full(nv, np.inf)
    lower[lay.z] = -np.inf
    lower[lay.P] = -np.inf
    lower[lay.q] = -np.inf

    lp = LinearProgram.from_arrays("min", obj, G, [">="] * nrows, rhs,
                                   lower=lower, upper=upper)
    return lp, lay


def _solve_hrep(inst: Instance, tol: float) -> AffineResult:
    lp, lay = build_affine_lp(inst)
    sol = solve_lp(lp, tol=tol)
    if sol.status != "optimal":
        return AffineResult(sol.status, None, None, None, None, sol.iterations)
    x, _, P, q = lay.unpack(sol.x)
    return AffineResult("optimal", sol.objective, x, P, q, sol.iterations)


def _pick_anchors(V: np.ndarray) -> np.ndarray:
    """Rows of a maximal affinely independent subset of the vertices.

    Greedy over the vertices, sparsest first; ties go to the larger
    vertex in lexicographic order, so a vertex list holding 0 and every
    e_i yields exactly 0, e_1, ..., e_m.
    """
    m = V.shape[1]
    order = np.lexsort(np.vstack([-V.T[::-1], np.count_nonzero(V, axis=1)]))
    tol = 1e-9 * max(1.0, float(np.abs(V).max()))
    picked = [order[0]]
    for i in order[1:]:
        if len(picked) == m + 1:
            break
        D = V[picked[1:] + [i]] - V[picked[0]]
        if np.linalg.matrix_rank(D, tol) == len(picked):
            picked.append(i)
    return V[picked]


def _solve_rows(M: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """X with M X = rhs: exact for square M, least squares otherwise."""
    if M.shape[0] == M.shape[1]:
        return np.linalg.solve(M, rhs)
    return np.linalg.lstsq(M, rhs, rcond=None)[0]


def _solve_vrep(inst: Instance, tol: float) -> AffineResult:
    # An affine y is fixed by its values u_k = y(a_k) >= 0 at affinely
    # independent anchor vertices a_0..a_K: every vertex is h = sum lam_k a_k
    # with sum lam_k = 1, so y(h) = sum lam_k u_k.  Variables: x, z, u_0..u_K.
    V = inst.uncertainty.vertices
    n = inst.n
    A, B, d = inst.A, inst.B, inst.d
    anchors = _pick_anchors(V)
    a0, D = anchors[0], anchors[1:] - anchors[0]
    lam = np.empty((len(V), len(anchors)))
    lam[:, 1:] = _solve_rows(D.T, (V - a0).T).T
    lam[:, 0] = 1.0 - lam[:, 1:].sum(axis=1)

    blocks: list[np.ndarray] = []
    rhs: list[np.ndarray] = []
    for h, w in zip(V, lam):
        # objective epigraph: z >= d . y(h)
        blocks.append(np.concatenate([np.zeros(n), [1.0], -np.kron(w, d)]))
        rhs.append(np.zeros(1))
        # covering rows with positive right side only: others follow from
        # A, B >= 0, x >= 0 and the policy rows below
        cov = np.flatnonzero(h > 1e-12)
        blocks.append(np.hstack([A[cov], np.zeros((cov.size, 1)),
                                 np.kron(w, B[cov])]))
        rhs.append(h[cov])
        # y(h) >= 0, unless y(h) is a conic combination of the u_k
        if w.min() < -1e-12:
            blocks.append(np.hstack([np.zeros((n, n + 1)),
                                     np.kron(w, np.eye(n))]))
            rhs.append(np.zeros(n))

    G = np.vstack(blocks)
    obj = np.zeros(G.shape[1])
    obj[:n] = inst.c
    obj[n] = 1.0
    lower = np.zeros(G.shape[1])
    lower[n] = -np.inf
    lp = LinearProgram.from_arrays("min", obj, G, [">="] * len(G),
                                   np.concatenate(rhs), lower=lower)
    sol = solve_lp(lp, tol=tol)
    if sol.status != "optimal":
        return AffineResult(sol.status, None, None, None, None, sol.iterations)
    U = sol.x[n + 1:].reshape(len(anchors), n)
    # P (a_k - a_0) = u_k - u_0 for every anchor, q = u_0 - P a_0
    P = _solve_rows(D, U[1:] - U[0]).T
    q = U[0] - P @ a0
    return AffineResult("optimal", sol.objective, sol.x[:n].copy(), P, q,
                        sol.iterations)


def solve_affine(inst: Instance, tol: float = 1e-8) -> AffineResult:
    """Best affine-policy value for either uncertainty representation."""
    inst.validate()
    if inst.uncertainty.is_hrep:
        return _solve_hrep(inst, tol)
    return _solve_vrep(inst, tol)


def solve_affine_dualized(inst: Instance, tol: float = 1e-8) -> AffineResult:
    """Affine policy applied to the dualized second stage.

    The inner problem is rewritten over W = {w >= 0 : B^T w <= d}; the
    recourse prices the support of U, lam(w) = Lam w + lam0, and each
    robust constraint is dualized over W.  Returns the same optimal
    value as solve_affine (on HRep sets) through an entirely different
    LP, which makes it a useful consistency oracle.
    """
    if not inst.uncertainty.is_hrep:
        raise InstanceError("dualized affine path needs an HRep uncertainty set")
    inst.validate()
    m, n = inst.m, inst.n
    R, r = inst.uncertainty.R, inst.uncertainty.r
    L = R.shape[0]
    A, B, d = inst.A, inst.B, inst.d

    # columns: x, z, Lam (L x m, row-major, free), lam0 (L, free),
    # mu (n), M (L x n, row-major), N (m x n, row-major); last three >= 0
    ox, oz = 0, n
    oL = n + 1
    o0 = oL + L * m
    om = o0 + L
    oM = om + n
    oN = oM + L * n
    nv = oN + m * n

    nrows = 1 + m + L + L * m + m + m * m
    G = np.zeros((nrows, nv))
    rhs = np.zeros(nrows)
    row = 0

    # epigraph: z - r.lam0 >= d.mu with B mu + A x >= Lam^T r
    G[row, oz] = 1.0
    G[row, o0:o0 + L] = -r
    G[row, om:om + n] = -d
    row += 1
    for i in range(m):
        G[row, om:om + n] = B[i]
        G[row, ox:ox + n] = A[i]
        G[row, oL + np.arange(L) * m + i] = -r
        row += 1

    # lam(w) >= 0: lam0_l >= d.M_l with B M_l >= -Lam_l
    for l in range(L):
        G[row, o0 + l] = 1.0
        G[row, oM + l * n:oM + (l + 1) * n] = -d
        row += 1
    for l in range(L):
        for i in range(m):
            G[row, oM + l * n:oM + (l + 1) * n] = B[i]
            G[row, oL + l * m + i] = 1.0
            row += 1

    # support rows R^T lam(w) >= w, coordinate k dualized over W
    for k in range(m):
        G[row, o0:o0 + L] = R[:, k]
        G[row, oN + k * n:oN + (k + 1) * n] = -d
        row += 1
    for k in range(m):
        for i in range(m):
            G[row, oN + k * n:oN + (k + 1) * n] = B[i]
            G[row, oL + np.arange(L) * m + i] = R[:, k]
            rhs[row] = 1.0 if i == k else 0.0
            row += 1
    assert row == nrows

    obj = np.zeros(nv)
    obj[ox:ox + n] = inst.c
    obj[oz] = 1.0
    lower = np.zeros(nv)
    lower[oz] = -np.inf
    lower[oL:o0 + L] = -np.inf  # Lam and lam0 free
    lp = LinearProgram.from_arrays("min", obj, G, [">="] * nrows, rhs,
                                   lower=lower)
    sol = solve_lp(lp, tol=tol)
    if sol.status != "optimal":
        return AffineResult(sol.status, None, None, None, None, sol.iterations)
    return AffineResult("optimal", sol.objective, sol.x[:n].copy(), None, None,
                        sol.iterations)


def solve_affine_symmetric_worstcase(m: int, tol: float = 1e-8):
    """Best symmetric affine policy P = theta I + mu (ee^T - I), q = lam e
    for the deterministic structured family; its value equals the full
    affine optimum there because the instance is permutation invariant.
    Returns (value, theta, mu, lam)."""
    from .instances import gen_worst_case

    inst = gen_worst_case(m)
    B, d = inst.B, inst.d
    Vx = inst.uncertainty.vertices
    # variables (theta, mu, lam, z); y_j(h) = theta h_j + mu (sum h - h_j) + lam
    rows: list[tuple[float, ...]] = []
    rhs: list[float] = []
    for h in Vx:
        s = float(h.sum())
        ycoef = [(float(h[j]), s - float(h[j]), 1.0) for j in range(m)]
        # z >= d . y(h)
        gt = -sum(d[j] * ycoef[j][0] for j in range(m))
        gm = -sum(d[j] * ycoef[j][1] for j in range(m))
        gl = -sum(d[j] * ycoef[j][2] for j in range(m))
        rows.append((gt, gm, gl, 1.0))
        rhs.append(0.0)
        for i in range(m):
            # (B y(h))_i >= h_i
            bt = sum(B[i, j] * ycoef[j][0] for j in range(m))
            bm = sum(B[i, j] * ycoef[j][1] for j in range(m))
            bl = sum(B[i, j] * ycoef[j][2] for j in range(m))
            rows.append((bt, bm, bl, 0.0))
            rhs.append(float(h[i]))
            # y_i(h) >= 0
            rows.append((ycoef[i][0], ycoef[i][1], ycoef[i][2], 0.0))
            rhs.append(0.0)

    # symmetry collapses most rows to exact duplicates
    uniq: dict[tuple, float] = {}
    for g, b in zip(rows, rhs):
        key = tuple(round(v, 12) for v in g) + (round(b, 12),)
        uniq[key] = b
    G = np.array([k[:4] for k in uniq])
    rr = np.array([k[4] for k in uniq])

    lp = LinearProgram.from_arrays(
        "min", [0.0, 0.0, 0.0, 1.0], G, [">="] * len(G), rr,
        lower=[-np.inf] * 4)
    sol = solve_lp(lp, tol=tol)
    if sol.status != "optimal":
        raise InstanceError(f"symmetric policy LP came back {sol.status}")
    th, mu, lam, _ = sol.x
    return float(sol.objective), float(th), float(mu), float(lam)
