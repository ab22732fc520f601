"""Exact adjustable optimum via cutting planes and a digitized bilinear MIP.

The adjustable value equals

    z_AR = min_{x >= 0} c.x + max_{h in U, w in W} (h - A x)^T w,
    W = {w >= 0 : B^T w <= d},

so a master LP over accumulated cuts z >= (h_k)^T w_k - (A^T w_k).x
alternates with a separation step that maximizes the bilinear form at
the current x.  Separation is a MIP for HRep sets: each h_i is written
in binary with place values 2^{-k}, k in [-Delta_U, s] (the largest
place value carries 2^Delta_U), w stays continuous, and each product of
an h bit with w_i is linearized by two McCormick rows (one digitized
factor per bilinear term is enough; Gupte, Ahmed, Cheon & Dey, SIAM J.
Optim. 23(2), 2013).  For VRep sets separation is exact: a best-first
search over the vertices h_v solves the small LP max (h_v - A x)^T w
over W only where LP duality (the duals of the LPs already solved)
cannot bound h_v below the best pair found so far.

Digitization accuracy.  Truncating h_i at place 2^{-s} lowers it by
less than 2^{-s}, and rounding down keeps h in U because R >= 0, so the
grid optimum sits within

    2^{-s} * sum_i w_i <= 2^{-s} * m * 2^{Delta_W}

below the true bilinear maximum (and never above it); w is not rounded.
Choosing s = ceil(log2(m (1 + 2^{Delta_U}) / epsilon)) makes that
expression at most epsilon * 2^{Delta_W} / (1 + 2^{Delta_U}), below
the documented total accuracy epsilon * (1 + 2^{Delta_W}), exposed as
Digitization.eps_total.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .affine import vertex_lp
from .instances import Instance, InstanceError, UncertaintySet, enumerate_vertices
from .lp import LinearProgram, solve_lp
from .mip import MixedBinaryProgram, solve_mip

# most binaries a separation MIP may carry before epsilon must be relaxed
BINARY_BUDGET = 256


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
        # w_i is capped iff row i of B is nonzero (B is nonnegative)
        return bool(np.isfinite(self.caps).all())

    def require_bounded(self) -> "DualizedSet":
        """Return self, or raise SeparationError when W is unbounded."""
        if not self.is_bounded:
            raise SeparationError(
                "W is unbounded: some row of B is all zero, so the second "
                "stage cannot cover that demand coordinate")
        return self

    @property
    def caps(self) -> np.ndarray:
        """max w_i over W, d_bar / max_j B_ij (inf on a zero row of B)."""
        return self.uncertainty().caps

    def uncertainty(self) -> UncertaintySet:
        n = self.B.shape[1]
        return UncertaintySet.hrep(self.B.T.copy(),
                                   np.full(n, float(self.d_bar)))

    @classmethod
    def of(cls, inst: Instance) -> "DualizedSet":
        return cls(B=inst.B, d_bar=inst.d_bar)


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
        du = _exponent(float(inst.uncertainty.caps.max(initial=0.0)))
        dw = _exponent(float(W.caps.max(initial=0.0)))
        s = math.ceil(math.log2(inst.m * (1 + 2.0 ** du) / epsilon) - 1e-12)
        s = max(s, -du)  # keep at least one place value
        return cls(epsilon=epsilon, s=s, delta_u=du, delta_w=dw)

    @property
    def eps_total(self) -> float:
        return self.epsilon * (1.0 + 2.0 ** self.delta_w)

    @property
    def bits_u(self) -> int:
        return self.delta_u + self.s + 1

    def binaries(self, m: int) -> int:
        return m * self.bits_u


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


def build_separation_mip(inst: Instance, x_hat,
                         dig: Digitization) -> MixedBinaryProgram:
    """Maximize (h - A x_hat)^T w over digitized U x W.

    Columns: h (m), w (m), the h bits alpha (bits_u per coordinate), then
    the products z_it = alpha_it * w_i (continuous).  Equality rows tie
    h_i to its bits, R h <= r and B^T w <= d keep h and w in their sets,
    and each product gets the two upper McCormick rows z_it <= 2^Delta_W
    alpha_it (w_i <= 2^Delta_W on W) and z_it <= w_i.  The objective
    sum p_t z_it - (A x_hat).w rewards every product, so the lower
    envelope would never bind; at binary alpha the two rows give
    z_it <= alpha_it w_i, so the MIP never overstates the bilinear value
    of its (h, w).
    """
    if not inst.uncertainty.is_hrep:
        raise InstanceError("separation MIP needs an HRep uncertainty set")
    inst.validate()
    m, n = inst.m, inst.n
    k = dig.binaries(m)
    if k > BINARY_BUDGET:
        raise SeparationError(
            f"digitization needs {k} binaries at m={m}, "
            f"over the budget of {BINARY_BUDGET}; relax epsilon")
    R, r = inst.uncertainty.R, inst.uncertainty.r
    L = R.shape[0]
    ax = inst.A @ np.asarray(x_hat, dtype=float)

    pu = 2.0 ** (dig.delta_u - np.arange(dig.bits_u))   # place values
    oa, oz = 2 * m, 2 * m + k
    prods = np.arange(k)
    G = np.zeros((m + L + n + 2 * k, oz + k))
    G[:m, :m] = np.eye(m)                           # h_i = sum p_t alpha_it
    G[:m, oa:oz] = -np.kron(np.eye(m), pu)
    G[m:m + L, :m] = R
    G[m + L:m + L + n, m:oa] = inst.B.T
    cap_rows = m + L + n + prods                    # z_it <= 2^dw alpha_it
    G[cap_rows, oz + prods] = 1.0
    G[cap_rows, oa + prods] = -2.0 ** dig.delta_w
    w_rows = cap_rows + k                           # z_it <= w_i
    G[w_rows, oz + prods] = 1.0
    G[w_rows, m + prods // dig.bits_u] = -1.0
    rhs = np.concatenate([np.zeros(m), r, np.full(n, float(inst.d_bar)),
                          np.zeros(2 * k)])
    rel = ["="] * m + ["<="] * (L + n + 2 * k)

    obj = np.concatenate([np.zeros(m), -ax, np.zeros(k), np.tile(pu, m)])
    upper = np.full(oz + k, np.inf)
    upper[oa:oz] = 1.0   # bits
    lp = LinearProgram.from_arrays("max", obj, G, rel, rhs, upper=upper)
    return MixedBinaryProgram(lp, range(oa, oz))


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
    stops once that bound is at most best + 1e-9 (1 + |best|) for the
    incumbent value best, so every vertex left unsolved has a dual
    certificate that its LP beats the incumbent by at most that much,
    and the result is the maximum over all vertex LPs to within
    1e-9 (1 + |best|) plus float rounding.  The tolerance keeps near
    ties, which the last bits of the duals decide, from changing which
    LPs are solved.
    """
    W = DualizedSet.of(inst).require_bounded()
    ax = inst.A @ np.asarray(x_hat, dtype=float)
    V = inst.uncertainty.vertices
    C = V - ax
    n = inst.n
    rhs = np.full(n, W.d_bar)
    ub = np.maximum(C, 0.0) @ W.caps
    best, best_h, best_w = -np.inf, None, None
    k = int(np.argmax(ub))
    while True:
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
        if ub[k] <= best + 1e-9 * (1.0 + abs(best)):
            break
    h = V[best_h].copy()
    return h, best_w, float((h - ax) @ best_w)


class _RootStart:
    """The optimal root basis of the last separation MIP of a cut loop.
    The separation MIPs of one loop share rows and bounds and differ only
    in the objective, so it is primal feasible for the next root."""
    __slots__ = ("start",)

    def __init__(self):
        self.start = None


def separate(inst: Instance, x_hat, z_hat: float, dig: Digitization | None,
             mip_tol: float = 1e-6, node_limit: int | None = None,
             root: _RootStart | None = None):
    """Most violated (h, w) pair, or None when nothing beats z_hat.

    The pair's value is recomputed from the returned vectors, so it is
    exact for them even though the MIP search is approximate.  Returns
    (h, w, value) when value > z_hat + 10*mip_tol.  With ``root``, the
    separation MIP's root LP starts from ``root.start``, which then
    takes this root's optimal basis.
    """
    sep_tol = 10.0 * mip_tol
    if inst.uncertainty.is_hrep:
        if dig is None:
            raise SeparationError("HRep separation needs a Digitization")
        prob = build_separation_mip(inst, x_hat, dig)
        sol = solve_mip(prob, mip_tol=mip_tol, node_limit=node_limit,
                        start=None if root is None else root.start)
        if root is not None:
            root.start = sol.root_start
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
    # z >= 0 repeats the w = 0 cut as a bound, so every cost is
    # nonnegative and the LP kernel starts from the slack basis
    obj = np.concatenate([inst.c, [1.0]])
    lp = LinearProgram.from_arrays("min", obj, G, [">="] * nrows, rhs)
    sol = solve_lp(lp, tol=tol)
    if sol.status != "optimal":
        raise SeparationError(f"master LP came back {sol.status}")
    return sol.x[:n].copy(), float(sol.x[n]), float(sol.objective)


def solve_adjustable(inst: Instance, eps: float = 1e-3, max_iters: int = 100,
                     mip_tol: float = 1e-6,
                     node_limit: int | None = None) -> AdjustableResult:
    """Cutting-plane computation of the adjustable optimum.

    The master value never decreases and always bounds z_AR from below.
    Separation returns nothing once the best pair is worth at most
    z_hat + sep_tol (sep_tol = 10*mip_tol), so on normal termination the
    master is within sep_tol of z_AR for exact VRep separation and within
    eps_total + mip_tol + sep_tol for MIP separation.  A stalled or
    iteration-capped run reports the bracket [master, master + last
    unresolved violation] instead.
    """
    inst.validate()
    if max_iters < 1:
        raise ValueError("max_iters must be at least 1")
    dig = (Digitization.from_instance(inst, eps)
           if inst.uncertainty.is_hrep else None)

    cuts = CutPool()
    # w = 0 is always in W and bounds the master below by min c.x >= 0
    h0 = (np.zeros(inst.m) if inst.uncertainty.is_hrep
          else inst.uncertainty.vertices[0].copy())
    cuts.add(h0, np.zeros(inst.m), 0.0)
    root = _RootStart()
    cuts.add(*separate(inst, np.zeros(inst.n), -math.inf, dig,
                       mip_tol=mip_tol, node_limit=node_limit, root=root))

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
                       node_limit=node_limit, root=root)
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
                            node_limit: int | None = None) -> float:
    """z_AR for A = 0, c = 0: one separation at x = 0 already maximizes
    the bilinear form, so no master loop is needed."""
    inst.validate()
    if inst.A.max(initial=0.0) > 0 or inst.c.max(initial=0.0) > 0:
        raise InstanceError("special case needs A = 0 and c = 0")
    dig = (Digitization.from_instance(inst, eps)
           if inst.uncertainty.is_hrep else None)
    hit = separate(inst, np.zeros(inst.n), -math.inf, dig, mip_tol=mip_tol,
                   node_limit=node_limit)
    return hit[2]


def solve_adjustable_vertex_oracle(inst: Instance, cap: int = 12,
                                   tol: float = 1e-8) -> float:
    """Exact z_AR as one LP with a recourse copy per vertex of U: the
    vertex LP of the affine policy with each vertex its own anchor."""
    inst.validate()
    uset = inst.uncertainty
    if uset.is_hrep:
        uset = enumerate_vertices(uset, cap=cap)
    Vx = uset.vertices
    lp = vertex_lp(inst, Vx, np.eye(len(Vx)))
    sol = solve_lp(lp, tol=tol)
    if sol.status != "optimal":
        raise SeparationError(f"vertex oracle LP came back {sol.status}")
    return float(sol.objective)
