"""Affine recourse policies y(h) = P h + q.

The HRep path builds one compact LP, the affinely adjustable robust
counterpart (Ben-Tal, Goryashko, Guslitzer & Nemirovski, Math. Prog.
99, 2004).  Each constraint family C y(h) + D x + e z >= E h must hold
for every h in U = {h >= 0 : R h <= r}:

    family               C          D    e    E
    objective epigraph   -d^T       0    1    0
    covering             B          A    0    I_m
    policy sign          I_n        0    0    0

With y(h) = P h + q, row j of a family reads (E - C P)_j h <=
D_j x + e z + C_j q, and its left side's maximum over U is replaced by
the LP dual min {r . Pi_j : Pi_j >= 0, R^T Pi_j >= (E - C P)_j}, one
multiplier vector Pi_j per row.

The VRep path imposes the constraints at the hull's vertices directly
(exact, since both sides are affine in h).  It writes the policy
through its values at a maximal affinely independent subset of the
vertices (0 and the e_i when they are vertices): an affine map is fixed
by its values at the corners of a simplex, every vertex is an affine
combination of these anchors, and their nonnegativity rows become plain
variable bounds.  The same vertex LP with one anchor per vertex
(`vertex_lp(inst, V, I)`) has its own recourse copy at every vertex and
gives the adjustable value z_AR.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .instances import Instance, InstanceError
from .lp import LinearProgram, solve_lp


@dataclass
class AffineResult:
    status: str
    objective: float | None
    x: np.ndarray | None
    P: np.ndarray | None
    q: np.ndarray | None
    iterations: int = 0


def build_affine_lp(inst: Instance) -> LinearProgram:
    """Compact LP whose optimum is the best affine-policy value (HRep sets).

    Columns in order x, z, P (row-major), q, then one multiplier block
    per constraint family (see the module docstring): v (L), V (L x m)
    and U (L x n), each row-major.  Rows are each family's alpha-rows,
    then its beta-rows in (row, coordinate) order.
    """
    if not inst.uncertainty.is_hrep:
        raise InstanceError("compact affine LP needs an HRep uncertainty set")
    m, n = inst.m, inst.n
    R, r = inst.uncertainty.R, inst.uncertainty.r
    L = R.shape[0]
    oP, oq, o = n + 1, n + 1 + n * m, 2 * n + 1 + n * m
    ncols = o + L * (1 + m + n)

    # (C, D, e, E): C y(h) + D x + e z >= E h for all h in U
    families = ((-inst.d[None, :], np.zeros((1, n)), 1.0, np.zeros((1, m))),
                (inst.B, inst.A, 0.0, np.eye(m)),
                (np.eye(n), np.zeros((n, n)), 0.0, np.zeros((n, m))))
    G = np.zeros(((1 + m + n) * (1 + m), ncols))   # k (1 + m) rows per family
    rhs = np.zeros(len(G))
    row = 0
    for C, D, e, E in families:
        k = len(C)
        # Pi (L x k, row-major) puts row j's multipliers at the columns
        # o + j + l k, and P (row-major) puts column i at oP + i + a m.
        # alpha-rows: D x + e z + C q - r . Pi_j >= 0
        alpha = G[row:row + k]
        alpha[:, :n] = D
        alpha[:, n] = e
        alpha[:, oq:oq + n] = C
        # beta-rows (j, i): (C P)_ji + (R^T Pi_j)_i >= E_ji
        beta = G[row + k:row + k + k * m].reshape(k, m, ncols)
        for j in range(k):
            alpha[j, o + j:o + L * k:k] = -r
            beta[j, :, o + j:o + L * k:k] = R.T
        for i in range(m):
            beta[:, i, oP + i:oq:m] = C
        rhs[row + k:row + k + k * m] = E.ravel()
        row += k * (1 + m)
        o += L * k

    obj = np.zeros(ncols)
    obj[:n] = inst.c
    obj[n] = 1.0
    lower = np.zeros(ncols)
    lower[n:oq + n] = -np.inf   # z, P and q are free
    return LinearProgram.from_arrays("min", obj, G, [">="] * len(G), rhs,
                                     lower=lower)


def _solve_hrep(inst: Instance) -> AffineResult:
    sol = solve_lp(build_affine_lp(inst))
    if sol.status != "optimal":
        return AffineResult(sol.status, None, None, None, None, sol.iterations)
    n, m, x = inst.n, inst.m, sol.x
    oq = n + 1 + n * m
    return AffineResult("optimal", sol.objective, x[:n].copy(),
                        x[n + 1:oq].reshape(n, m).copy(), x[oq:oq + n].copy(),
                        sol.iterations)


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


def vertex_lp(inst: Instance, V: np.ndarray, lam: np.ndarray) -> LinearProgram:
    """min c.x + z over x >= 0, z >= 0 and blocks u_k >= 0, one per
    column of `lam`, with the recourse y(h) = sum_k lam[v, k] u_k imposed
    at every vertex h = V[v].  With lam = I each u_v is the recourse copy
    at its own vertex, and the LP's value is z_AR.

    Rows, vertex by vertex: the objective epigraph z >= d . y(h), the
    covering rows A x + B y(h) >= h of the coordinates with h_i > 0 (the
    others follow from A, B >= 0, x >= 0 and y(h) >= 0), and the sign
    rows y(h) >= 0 when some weight is negative (otherwise y(h) is a
    conic combination of the u_k >= 0).  So every y(h) is nonnegative
    and, as d = d_bar e > 0, z >= d . y(h) >= 0 is implied: the bound
    z >= 0 leaves the value unchanged and the costs nonnegative, which
    lets the LP kernel start from the slack basis.
    """
    n, nV, K = inst.n, len(V), lam.shape[1]
    A, B, d = inst.A, inst.B, inst.d
    cover = V > 1e-12
    signs = lam.min(axis=1) < -1e-12
    # first row of each vertex's block
    size = 1 + cover.sum(axis=1) + n * signs
    first = np.cumsum(size) - size
    G = np.zeros((int(size.sum()), n + 1 + K * n))
    rhs = np.zeros(len(G))
    U = G[:, n + 1:]            # u_k at the columns n + 1 + k n + j
    G[first, n] = 1.0
    U[first] = -(lam[:, :, None] * d).reshape(nV, K * n)
    v, i = cover.nonzero()
    rows = first[v] + np.cumsum(cover, axis=1)[v, i]
    G[rows, :n] = A[i]
    U[rows] = (lam[v, :, None] * B[i, None, :]).reshape(len(v), K * n)
    rhs[rows] = V[v, i]
    # sign row j of vertex v: sum_k lam[v, k] u_kj >= 0
    s = signs.nonzero()[0]
    j, k = np.arange(n)[:, None], np.arange(K)
    U[(first[s] + 1 + cover[s].sum(axis=1))[:, None, None] + j,
      k * n + j] = lam[s, None, :]
    obj = np.zeros(G.shape[1])
    obj[:n] = inst.c
    obj[n] = 1.0
    return LinearProgram.from_arrays("min", obj, G, [">="] * len(G), rhs)


def _solve_vrep(inst: Instance) -> AffineResult:
    # An affine y is fixed by its values u_k = y(a_k) >= 0 at affinely
    # independent anchor vertices a_0..a_K: every vertex is h = sum lam_k a_k
    # with sum lam_k = 1, so y(h) = sum lam_k u_k.  Variables: x, z, u_0..u_K.
    V = inst.uncertainty.vertices
    n = inst.n
    anchors = _pick_anchors(V)
    a0, D = anchors[0], anchors[1:] - anchors[0]
    lam = np.empty((len(V), len(anchors)))
    lam[:, 1:] = _solve_rows(D.T, (V - a0).T).T
    lam[:, 0] = 1.0 - lam[:, 1:].sum(axis=1)

    sol = solve_lp(vertex_lp(inst, V, lam))
    if sol.status != "optimal":
        return AffineResult(sol.status, None, None, None, None, sol.iterations)
    U = sol.x[n + 1:].reshape(len(anchors), n)
    # P (a_k - a_0) = u_k - u_0 for every anchor, q = u_0 - P a_0
    P = _solve_rows(D, U[1:] - U[0]).T
    q = U[0] - P @ a0
    return AffineResult("optimal", sol.objective, sol.x[:n].copy(), P, q,
                        sol.iterations)


def solve_affine(inst: Instance) -> AffineResult:
    """Best affine-policy value for either uncertainty representation."""
    if inst.uncertainty.is_hrep:
        return _solve_hrep(inst)
    return _solve_vrep(inst)


def solve_affine_dualized(inst: Instance) -> AffineResult:
    """Affine policy applied to the dualized second stage.

    The inner problem is rewritten over W = {w >= 0 : B^T w <= d}; the
    recourse prices the support of U, lam(w) = Lam w + lam0, and each
    robust constraint is dualized over W.  Returns the same optimal
    value as solve_affine (on HRep sets) through an entirely different
    LP, which makes it a useful consistency oracle.
    """
    if not inst.uncertainty.is_hrep:
        raise InstanceError("dualized affine path needs an HRep uncertainty set")
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
    sol = solve_lp(lp)
    if sol.status != "optimal":
        return AffineResult(sol.status, None, None, None, None, sol.iterations)
    return AffineResult("optimal", sol.objective, sol.x[:n].copy(), None, None,
                        sol.iterations)


def solve_affine_symmetric_worstcase(m: int):
    """Best symmetric affine policy P = theta I + mu (ee^T - I), q = lam e
    for the deterministic structured family; its value equals the full
    affine optimum there because the instance is permutation invariant.
    Returns (value, theta, mu, lam)."""
    from .instances import gen_worst_case

    inst = gen_worst_case(m)
    # 0, e_1 and nu_m (e_1 again at m = 1): every other vertex permutes
    # one of them, and B, d and the policy are permutation invariant, so
    # their rows imply those of every vertex
    H = inst.uncertainty.vertices[[0, 1, -1]]
    # y(h) = Y(h) (theta, mu, lam) with Y(h)_j = (h_j, sum h - h_j, 1)
    Y = np.stack([H, H.sum(axis=1, keepdims=True) - H, np.ones_like(H)],
                 axis=2)
    # variables (theta, mu, lam, z): z >= d . y(h), B y(h) >= h, y(h) >= 0
    G = np.zeros((3 + 6 * m, 4))
    G[:3, :3] = -(inst.d @ Y)
    G[:3, 3] = 1.0
    G[3:, :3] = np.concatenate([(inst.B @ Y).reshape(-1, 3),
                                Y.reshape(-1, 3)])
    rhs = np.concatenate([np.zeros(3), H.ravel(), np.zeros(3 * m)])
    lp = LinearProgram.from_arrays("min", [0.0, 0.0, 0.0, 1.0], G,
                                   [">="] * len(G), rhs, lower=[-np.inf] * 4)
    sol = solve_lp(lp)
    if sol.status != "optimal":
        raise InstanceError(f"symmetric policy LP came back {sol.status}")
    th, mu, lam, _ = sol.x
    return float(sol.objective), float(th), float(mu), float(lam)
