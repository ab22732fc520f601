"""Exact adjustable optimum via cutting planes and a digitized bilinear MIP.

The adjustable value equals

    z_AR = min_{x >= 0} c.x + max_{h in U, w in W} (h - A x)^T w,
    W = {w >= 0 : B^T w <= d},

so a master LP over accumulated cuts z >= (h_k)^T w_k - (A^T w_k).x
alternates with a separation step that maximizes the bilinear form at
the current x.  Separation is a MIP for HRep sets: each h_i and w_i is
written in binary with place values 2^{-k}, k in [-Delta, s] (the
largest place value carries 2^Delta), and the bit products are
McCormick-linearized.  For VRep sets separation is exact: a best-first
search over the vertices h_v solves the small LP max (h_v - A x)^T w
over W only where LP duality (the duals of the LPs already solved)
cannot bound h_v below the best pair found so far.

Digitization accuracy.  Truncating at place 2^{-s} perturbs each
coordinate by at most 2^{-s}, and rounding down preserves feasibility,
so the grid optimum sits within

    2^{-s} * m * (2^{Delta_U} + 2^{Delta_W})

below the true bilinear maximum (and never above it).  Choosing
s = ceil(log2(m (1 + 2^{Delta_U}) / epsilon)) makes that expression at
most epsilon * (1 + 2^{Delta_W}) because
2^{Delta_U} + 2^{Delta_W} <= (1 + 2^{Delta_U})(1 + 2^{Delta_W}).
That product epsilon * (1 + 2^{Delta_W}) is the documented total
accuracy, exposed as Digitization.eps_total.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .instances import Instance, InstanceError, UncertaintySet, enumerate_vertices
from .lp import LinearProgram, max_coordinate, solve_lp
from .mip import MixedBinaryProgram, solve_mip


class SeparationError(Exception):
    """Separation cannot run (unbounded W, digitization overflow)."""


class InconclusiveSeparationError(SeparationError):
    """The separation MIP hit its node limit before proving anything."""


@dataclass(frozen=True)
class DualizedSet:
    """W = {w >= 0 : B^T w <= d_bar e}, the inner dual feasible set."""

    B: np.ndarray
    d_bar: float

    @property
    def is_bounded(self) -> bool:
        # w_i is capped iff it has a positive coefficient somewhere,
        # i.e. row i of B is nonzero (B is nonnegative)
        return bool(np.all(self.B.max(axis=1) > 0))

    def require_bounded(self) -> "DualizedSet":
        """Return self, or raise SeparationError when W is unbounded."""
        if not self.is_bounded:
            raise SeparationError(
                "W is unbounded: some row of B is all zero, so the second "
                "stage cannot cover that demand coordinate")
        return self

    def uncertainty(self) -> UncertaintySet:
        n = self.B.shape[1]
        return UncertaintySet.hrep(self.B.T.copy(),
                                   np.full(n, float(self.d_bar)))

    @classmethod
    def of(cls, inst: Instance) -> "DualizedSet":
        return cls(B=inst.B, d_bar=inst.d_bar)


def _coordinate_caps(uset: UncertaintySet) -> np.ndarray:
    if uset.is_hrep:
        return np.array([max_coordinate(uset, i) for i in range(uset.dim)])
    return uset.vertices.max(axis=0)


def _exponent(cap: float) -> int:
    if cap <= 0.0:
        return 0
    return math.ceil(math.log2(cap) - 1e-12)


@dataclass(frozen=True)
class Digitization:
    """Bit layout of the separation MIP; see the module docstring for
    how s is chosen and what eps_total guarantees."""

    epsilon: float
    s: int
    delta_u: int
    delta_w: int

    @classmethod
    def from_instance(cls, inst: Instance, epsilon: float) -> "Digitization":
        if epsilon <= 0:
            raise ValueError("epsilon must be positive")
        W = DualizedSet.of(inst).require_bounded()
        du = _exponent(float(_coordinate_caps(inst.uncertainty).max(initial=0.0)))
        dw = _exponent(float(_coordinate_caps(W.uncertainty()).max(initial=0.0)))
        s = math.ceil(math.log2(inst.m * (1 + 2.0 ** du) / epsilon) - 1e-12)
        s = max(s, -du)  # keep at least one place value
        return cls(epsilon=epsilon, s=s, delta_u=du, delta_w=dw)

    @property
    def eps_total(self) -> float:
        return self.epsilon * (1.0 + 2.0 ** self.delta_w)

    @property
    def bits_u(self) -> int:
        return self.delta_u + self.s + 1

    @property
    def bits_w(self) -> int:
        return self.delta_w + self.s + 1

    def binaries(self, m: int) -> int:
        return m * (self.bits_u + self.bits_w)


@dataclass
class Cut:
    h: np.ndarray
    w: np.ndarray
    value: float


@dataclass
class CutPool:
    cuts: list[Cut] = field(default_factory=list)

    def add(self, h, w, value) -> None:
        self.cuts.append(Cut(np.asarray(h, float), np.asarray(w, float),
                             float(value)))

    def contains(self, h, w, tol: float = 1e-9) -> bool:
        for c in self.cuts:
            if (np.max(np.abs(c.h - h)) <= tol
                    and np.max(np.abs(c.w - w)) <= tol):
                return True
        return False

    def __len__(self) -> int:
        return len(self.cuts)

    def __iter__(self):
        return iter(self.cuts)

    def to_dict(self) -> dict:
        return {"cuts": [{"h": c.h.tolist(), "w": c.w.tolist(),
                          "value": c.value} for c in self.cuts]}

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2)
            fh.write("\n")


def build_separation_mip(inst: Instance, x_hat, dig: Digitization,
                         binary_budget: int = 256) -> MixedBinaryProgram:
    """Maximize (h - A x_hat)^T w over digitized U x W.

    Columns: h (m), w (m), then per coordinate the h bits alpha, the w
    bits beta, and the McCormick products gamma (continuous, pinned to
    alpha*beta by gamma <= alpha, gamma <= beta, gamma + 1 >= alpha +
    beta; the alpha row caps gamma at 1 so no explicit bound is kept).
    The continuous h, w are tied to their bit expansions by equality
    rows, and R h <= r, B^T w <= d keep both inside their sets.
    """
    if not inst.uncertainty.is_hrep:
        raise InstanceError("separation MIP needs an HRep uncertainty set")
    inst.validate()
    m, n = inst.m, inst.n
    if dig.binaries(m) > binary_budget:
        raise SeparationError(
            f"digitization needs {dig.binaries(m)} binaries at m={m}, "
            f"over the budget of {binary_budget}; relax epsilon")
    R, r = inst.uncertainty.R, inst.uncertainty.r
    L = R.shape[0]
    x_hat = np.asarray(x_hat, dtype=float)
    ax = inst.A @ x_hat

    ku, kw = dig.bits_u, dig.bits_w
    pu = 2.0 ** (dig.delta_u - np.arange(ku))   # place values for h bits
    pw = 2.0 ** (dig.delta_w - np.arange(kw))
    oh, ow = 0, m
    oa = 2 * m
    ob = oa + m * ku
    og = ob + m * kw
    nv = og + m * ku * kw

    nrows = 2 * m + L + n + 3 * m * ku * kw
    G = np.zeros((nrows, nv))
    rhs = np.zeros(nrows)
    rel = []
    row = 0

    for i in range(m):  # h_i = sum alpha bits
        G[row, oh + i] = 1.0
        G[row, oa + i * ku:oa + (i + 1) * ku] = -pu
        rel.append("=")
        row += 1
    for i in range(m):  # w_i = sum beta bits
        G[row, ow + i] = 1.0
        G[row, ob + i * kw:ob + (i + 1) * kw] = -pw
        rel.append("=")
        row += 1
    for l in range(L):
        G[row, oh:oh + m] = R[l]
        rhs[row] = r[l]
        rel.append("<=")
        row += 1
    for j in range(n):
        G[row, ow:ow + m] = inst.B[:, j]
        rhs[row] = inst.d_bar
        rel.append("<=")
        row += 1
    for i in range(m):
        for t in range(ku):
            a_col = oa + i * ku + t
            for u in range(kw):
                b_col = ob + i * kw + u
                g_col = og + (i * ku + t) * kw + u
                G[row, g_col] = 1.0
                G[row, a_col] = -1.0
                rel.append("<=")
                row += 1
                G[row, g_col] = 1.0
                G[row, b_col] = -1.0
                rel.append("<=")
                row += 1
                G[row, g_col] = 1.0
                G[row, a_col] = -1.0
                G[row, b_col] = -1.0
                rhs[row] = -1.0
                rel.append(">=")
                row += 1
    assert row == nrows

    obj = np.zeros(nv)
    obj[ow:ow + m] = -ax
    block = np.outer(pu, pw).ravel()
    for i in range(m):
        obj[og + i * ku * kw:og + (i + 1) * ku * kw] = block

    upper = np.full(nv, np.inf)
    upper[oa:og] = 1.0   # bits
    lp = LinearProgram.from_arrays("max", obj, G, rel, rhs, upper=upper)
    return MixedBinaryProgram(lp, range(oa, og))


def _recover_pair(inst: Instance, x_hat, sol_x, m):
    h = sol_x[:m].copy()
    w = sol_x[m:2 * m].copy()
    value = float((h - inst.A @ np.asarray(x_hat, float)) @ w)
    return h, w, value


def _separate_vrep(inst: Instance, x_hat, tol: float = 1e-8):
    """Exact separation: the best vertex h of U against its LP-optimal w.

    Vertex h's LP is max c_h.w over W with c_h = h - A x_hat; its dual is
    min d_bar*sum(y) over {y >= 0 : B y >= c_h}.  Rather than one LP per
    vertex, a best-first search keeps an upper bound UB_h per vertex.
    UB_h starts at the bound of the box w_i <= d_bar / max_j B_ij that
    contains W, and each solve's duals y_k >= 0 tighten it: t*y_k is
    dual feasible for h at the smallest t >= 0 with t B y_k >= c_h, so
    UB_h <= t d_bar sum(y_k).  Every LP point w_k is also tried against
    all vertices, and the best pair (h, w_k) so far is the incumbent.
    The next LP goes to the unsolved vertex of highest UB_h; the search
    stops once that bound does not exceed the incumbent, so every vertex
    left unsolved has a dual certificate and the result equals the
    maximum over all vertex LPs up to float rounding.
    """
    W = DualizedSet.of(inst).require_bounded()
    ax = inst.A @ np.asarray(x_hat, dtype=float)
    V = inst.uncertainty.vertices
    C = V - ax
    n = inst.n
    rhs = np.full(n, W.d_bar)
    ub = np.maximum(C, 0.0) @ (W.d_bar / W.B.max(axis=1))
    best, best_h, best_w = -np.inf, None, None
    k = int(np.argmax(ub))
    while ub[k] > best:
        lp = LinearProgram.from_arrays("max", C[k], W.B.T, ["<="] * n, rhs)
        sol = solve_lp(lp, tol=tol)
        if sol.status != "optimal":
            raise SeparationError(f"separation LP came back {sol.status}")
        vals = C @ sol.x
        j = int(np.argmax(vals))
        if vals[j] > best:
            best, best_h, best_w = vals[j], j, sol.x.copy()
        y = np.maximum(sol.duals, 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            t = np.where(C > 0.0, C / (W.B @ y), 0.0).max(axis=1)
            np.minimum(ub, t * (W.d_bar * y.sum()), out=ub, where=t < np.inf)
        ub[k] = -np.inf    # solved
        k = int(np.argmax(ub))
    h = V[best_h].copy()
    return h, best_w, float((h - ax) @ best_w)


def separate(inst: Instance, x_hat, z_hat: float, dig: Digitization | None,
             mip_tol: float = 1e-6, node_limit: int | None = None,
             binary_budget: int = 256):
    """Most violated (h, w) pair, or None when nothing beats z_hat.

    The pair's value is recomputed from the returned vectors, so it is
    exact for them even though the MIP search is approximate.  Returns
    (h, w, value) when value > z_hat + 10*mip_tol.
    """
    sep_tol = 10.0 * mip_tol
    if inst.uncertainty.is_hrep:
        if dig is None:
            raise SeparationError("HRep separation needs a Digitization")
        prob = build_separation_mip(inst, x_hat, dig, binary_budget)
        sol = solve_mip(prob, mip_tol=mip_tol, node_limit=node_limit)
        if sol.status == "node_limit":
            raise InconclusiveSeparationError(
                f"separation stopped at {sol.nodes} nodes with gap {sol.gap:.3g}")
        if sol.status != "optimal":
            raise SeparationError(f"separation MIP came back {sol.status}")
        h, w, value = _recover_pair(inst, x_hat, sol.x, inst.m)
    else:
        h, w, value = _separate_vrep(inst, x_hat)
    if value > z_hat + sep_tol:
        return h, w, value
    return None


@dataclass
class AdjustableResult:
    status: str                  # optimal | stalled | iteration_limit
    z_ar: float
    x: np.ndarray
    cuts: CutPool
    iterations: int
    bracket: tuple[float, float]


def _solve_master(inst: Instance, cuts: CutPool, tol: float):
    n = inst.n
    nrows = len(cuts)
    G = np.zeros((nrows, n + 1))
    rhs = np.zeros(nrows)
    for k, cut in enumerate(cuts):
        G[k, :n] = inst.A.T @ cut.w
        G[k, n] = 1.0
        rhs[k] = float(cut.h @ cut.w)
    obj = np.concatenate([inst.c, [1.0]])
    lower = np.zeros(n + 1)
    lower[n] = -np.inf
    lp = LinearProgram.from_arrays("min", obj, G, [">="] * nrows, rhs,
                                   lower=lower)
    sol = solve_lp(lp, tol=tol)
    if sol.status != "optimal":
        raise SeparationError(f"master LP came back {sol.status}")
    return sol.x[:n].copy(), float(sol.x[n]), float(sol.objective)


def solve_adjustable(inst: Instance, eps: float = 1e-3, max_iters: int = 100,
                     mip_tol: float = 1e-6, node_limit: int | None = None,
                     binary_budget: int = 256) -> AdjustableResult:
    """Cutting-plane computation of the adjustable optimum.

    The master value never decreases and always bounds z_AR from below;
    on normal termination it is within separation accuracy (eps_total
    plus sep_tol for MIP separation, LP tolerance for VRep separation)
    of z_AR.  A stalled or iteration-capped run reports the bracket
    [master, master + last unresolved violation] instead.
    """
    inst.validate()
    if max_iters < 1:
        raise ValueError("max_iters must be at least 1")
    dig = (Digitization.from_instance(inst, eps)
           if inst.uncertainty.is_hrep else None)
    DualizedSet.of(inst).require_bounded()

    cuts = CutPool()
    # w = 0 is always in W and bounds the master below by min c.x >= 0
    h0 = (np.zeros(inst.m) if inst.uncertainty.is_hrep
          else inst.uncertainty.vertices[0].copy())
    cuts.add(h0, np.zeros(inst.m), 0.0)
    cuts.add(*separate(inst, np.zeros(inst.n), -math.inf, dig,
                       mip_tol=mip_tol, node_limit=node_limit,
                       binary_budget=binary_budget))

    # separation undershoots the true bilinear max by at most this much
    sep_slack = (dig.eps_total + mip_tol) if dig is not None else 1e-7

    prev = -math.inf
    for it in range(1, max_iters + 1):
        x_hat, z_hat, master = _solve_master(inst, cuts, tol=1e-8)
        if master < prev - 1e-7:
            raise SeparationError(
                f"master value regressed from {prev} to {master}")
        prev = max(prev, master)
        hit = separate(inst, x_hat, z_hat, dig, mip_tol=mip_tol,
                       node_limit=node_limit, binary_budget=binary_budget)
        if hit is None:
            return AdjustableResult("optimal", master, x_hat, cuts, it,
                                    (master, master))
        h, w, value = hit
        # z_AR <= c.x_hat + (true bilinear max at x_hat) for any x_hat
        upper = float(inst.c @ x_hat) + value + sep_slack
        if cuts.contains(h, w):
            return AdjustableResult("stalled", master, x_hat, cuts, it,
                                    (master, max(master, upper)))
        cuts.add(h, w, value)
    return AdjustableResult("iteration_limit", master, x_hat, cuts, max_iters,
                            (master, max(master, upper)))


def adjustable_special_case(inst: Instance, eps: float = 1e-3,
                            mip_tol: float = 1e-6,
                            node_limit: int | None = None,
                            binary_budget: int = 256) -> float:
    """z_AR for A = 0, c = 0: one separation at x = 0 already maximizes
    the bilinear form, so no master loop is needed."""
    inst.validate()
    if inst.A.max(initial=0.0) > 0 or inst.c.max(initial=0.0) > 0:
        raise InstanceError("special case needs A = 0 and c = 0")
    dig = (Digitization.from_instance(inst, eps)
           if inst.uncertainty.is_hrep else None)
    hit = separate(inst, np.zeros(inst.n), -math.inf, dig, mip_tol=mip_tol,
                   node_limit=node_limit, binary_budget=binary_budget)
    return hit[2]


def solve_adjustable_vertex_oracle(inst: Instance, cap: int = 12,
                                   tol: float = 1e-8) -> float:
    """Exact z_AR as one LP with a recourse copy per vertex of U."""
    inst.validate()
    uset = inst.uncertainty
    if uset.is_hrep:
        uset = enumerate_vertices(uset, cap=cap)
    Vx = uset.vertices
    K = len(Vx)
    m, n = inst.m, inst.n
    # columns: x (n), z, then y_v (n each)
    nv = n + 1 + K * n
    nrows = K * (1 + m)
    G = np.zeros((nrows, nv))
    rhs = np.zeros(nrows)
    row = 0
    for v, h in enumerate(Vx):
        oy = n + 1 + v * n
        G[row, n] = 1.0
        G[row, oy:oy + n] = -inst.d
        row += 1
        for i in range(m):
            G[row, :n] = inst.A[i]
            G[row, oy:oy + n] = inst.B[i]
            rhs[row] = h[i]
            row += 1
    obj = np.zeros(nv)
    obj[:n] = inst.c
    obj[n] = 1.0
    lower = np.zeros(nv)
    lower[n] = -np.inf
    lp = LinearProgram.from_arrays("min", obj, G, [">="] * nrows, rhs,
                                   lower=lower)
    sol = solve_lp(lp, tol=tol)
    if sol.status != "optimal":
        raise SeparationError(f"vertex oracle LP came back {sol.status}")
    return float(sol.objective)
