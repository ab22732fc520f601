"""Exact adjustable optimum via cutting planes and separation MIPs.

The adjustable value equals

    z_AR = min_{x >= 0} c.x + max_{h in U, w in W} (h - A x)^T w,
    W = {w >= 0 : B^T w <= d},

so a master LP over accumulated cuts z >= (h_k)^T w_k - (A^T w_k).x
alternates with a separation step that maximizes the bilinear form at
the current x.  Each solve picks its separation route once, from U:

- The budget set {h in [0,1]^m : sum h <= sqrt(m)} (an exact match with
  ``budget_set(m)``) gets an exact 0/1 MIP, ``TopK``.  With
  k = floor(sqrt(m)) and theta = sqrt(m) - k, max_{h in U} h.w is
  (1 - theta) top_k(w) + theta top_{k+1}(w) for w >= 0, where top_j sums
  the j largest entries; binaries b and g pick those entries, and
  h = (1 - theta) b + theta g is the pair's point of U.  Its only error
  is the MIP's mip_tol.  On the m=2 cut loops of the benchmark
  (``cutloop-hrep``, 40 seeds) it takes 118 B&B nodes where the
  digitized MIP below took 605.
- Every other HRep set gets a digitized bilinear MIP: each h_i is
  written in binary with place values 2^{-k}, k in [-Delta_U, s] (the
  largest place value carries 2^Delta_U), w stays continuous, and each
  product of an h bit with w_i is linearized by two McCormick rows (one
  digitized factor per bilinear term is enough; Gupte, Ahmed, Cheon &
  Dey, SIAM J. Optim. 23(2), 2013).
- VRep sets get an exact search: a best-first search over the vertices
  h_v solves the small LP max (h_v - A x)^T w over W only where LP
  duality (the duals of the LPs already solved) cannot bound h_v below
  the best pair found so far.

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

import math
from dataclasses import dataclass, replace

import numpy as np

from .affine import vertex_lp
from .instances import (Instance, InstanceError, UncertaintySet, budget_set,
                        enumerate_vertices)
from .lp import LinearProgram, solve_lp
from .mip import MixedBinaryProgram, solve_mip

# most binaries a separation MIP may carry before epsilon must be relaxed
BINARY_BUDGET = 256


class SeparationError(Exception):
    """Separation cannot run (unbounded W, digitization overflow)."""


def _w_caps(inst: Instance) -> np.ndarray:
    """max w_i over W = {w >= 0 : B^T w <= d_bar e}: d_bar / max_j B_ij,
    and 0 on a zero row of B (B is nonnegative).

    On a zero row i, e_i is a ray of W, so the inner max is finite only
    where the first stage covers the row, A_i x >= cap_i of U, and then
    w_i = 0 attains it: the cut loop's master takes that row, and
    separation holds w_i at 0.  Raises SeparationError when no x covers
    it: cap_i > 0 and row i of A is zero too."""
    top = inst.B.max(axis=1, initial=0.0)
    caps = inst.d_bar / np.where(top > 0.0, top, np.inf)
    if ((caps == 0.0) & (inst.uncertainty.caps > 0.0)
            & (inst.A.max(axis=1, initial=0.0) <= 0.0)).any():
        raise SeparationError(
            "W is unbounded: some row of B is all zero, so the second "
            "stage cannot cover that demand coordinate, and the same row "
            "of A is zero")
    return caps


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
        inst.uncertainty.check_bounded()
        du = _exponent(float(inst.uncertainty.caps.max(initial=0.0)))
        dw = _exponent(float(_w_caps(inst).max(initial=0.0)))
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
    def place_values(self) -> np.ndarray:
        """2^{Delta_U}, ..., 2^{-s}: the value of each bit of one h_i."""
        return 2.0 ** (self.delta_u - np.arange(self.bits_u))

    def binaries(self, m: int) -> int:
        return m * self.bits_u


@dataclass(frozen=True)
class TopK:
    """The budget set's separation route: k = floor(sqrt(m)) and
    theta = sqrt(m) - k; see the module docstring."""

    k: int
    theta: float

    @classmethod
    def of(cls, uset: UncertaintySet) -> "TopK | None":
        """The route of ``uset`` when its R and r are those of
        ``budget_set(m)`` exactly, else None."""
        if not uset.is_hrep:
            return None
        ref = budget_set(uset.dim)
        if (uset.R.shape != ref.R.shape or not np.array_equal(uset.R, ref.R)
                or not np.array_equal(uset.r, ref.r)):
            return None
        k = math.isqrt(uset.dim)
        return cls(k=k, theta=math.sqrt(uset.dim) - k)

    @property
    def sets(self) -> tuple[tuple[float, int], ...]:
        """(weight, most ones) of b, then of g when theta > 0."""
        if self.theta == 0.0:
            return ((1.0, self.k),)
        return ((1.0 - self.theta, self.k), (self.theta, self.k + 1))


def _route(inst: Instance, eps: float) -> Digitization | TopK | None:
    """The separation route of ``inst``'s U: TopK on the budget set, a
    Digitization to ``eps`` on other HRep sets, None on VRep sets."""
    if not inst.uncertainty.is_hrep:
        return None
    return TopK.of(inst.uncertainty) or Digitization.from_instance(inst, eps)


@dataclass
class Cut:
    h: np.ndarray
    w: np.ndarray
    value: float


def build_separation_mip(inst: Instance, x_hat,
                         dig: Digitization) -> MixedBinaryProgram:
    """Maximize (h - A x_hat)^T w over digitized U x W.

    Columns: w (m), the h bits alpha (bits_u per coordinate), then the
    products z_it = alpha_it * w_i (continuous).  h is not a column:
    h = K alpha with K = kron(I_m, p) for the place values p, so
    R h <= r is written R K alpha <= r.  B^T w <= d keeps w in W, and
    each product gets the two upper McCormick rows z_it <= 2^Delta_W
    alpha_it (w_i <= 2^Delta_W on W) and z_it <= w_i.  Every row is <=.
    The objective sum p_t z_it - (A x_hat).w rewards every product, so
    the lower envelope would never bind; at binary alpha the two rows
    give z_it <= alpha_it w_i, so the MIP never overstates the bilinear
    value of its (h, w).
    """
    if not inst.uncertainty.is_hrep:
        raise InstanceError("separation MIP needs an HRep uncertainty set")
    m, n = inst.m, inst.n
    k = dig.binaries(m)
    if k > BINARY_BUDGET:
        raise SeparationError(
            f"digitization needs {k} binaries at m={m}, "
            f"over the budget of {BINARY_BUDGET}; relax epsilon")
    R, r = inst.uncertainty.R, inst.uncertainty.r
    L = R.shape[0]

    pu = dig.place_values
    oz = m + k
    prods = np.arange(k)
    G = np.zeros((L + n + 2 * k, oz + k))
    G[:L, m:oz] = np.kron(R, pu)                    # R K alpha <= r
    G[L:L + n, :m] = inst.B.T
    cap_rows = L + n + prods                        # z_it <= 2^dw alpha_it
    G[cap_rows, oz + prods] = 1.0
    G[cap_rows, m + prods] = -2.0 ** dig.delta_w
    w_rows = cap_rows + k                           # z_it <= w_i
    G[w_rows, oz + prods] = 1.0
    G[w_rows, prods // dig.bits_u] = -1.0
    rhs = np.concatenate([r, np.full(n, float(inst.d_bar)), np.zeros(2 * k)])

    upper = np.full(oz + k, np.inf)
    upper[m:oz] = 1.0   # bits
    upper[:m][_w_caps(inst) == 0.0] = 0.0   # w_i on a zero row of B
    obj = _separation_objective(inst, x_hat, dig)
    lp = LinearProgram.from_arrays("max", obj, G, ["<="] * len(G), rhs,
                                   upper=upper)
    return MixedBinaryProgram(lp, range(m, oz))


def _separation_objective(inst: Instance, x_hat,
                          dig: Digitization) -> np.ndarray:
    """The objective of ``build_separation_mip``: ``-(A x_hat).w`` plus
    the place value of each product.  Of the separation MIP, only it
    depends on ``x_hat``."""
    ax = inst.A @ np.asarray(x_hat, dtype=float)
    k = dig.binaries(inst.m)
    return np.concatenate([-ax, np.zeros(k), np.tile(dig.place_values,
                                                     inst.m)])


def _recover_pair(inst: Instance, x_hat, sol_x, dig: Digitization):
    """(h, w, value) of a separation MIP's solution: h decoded from its
    bits, and the bilinear value recomputed from (h, w)."""
    m = inst.m
    w = sol_x[:m].copy()
    h = sol_x[m:m + dig.binaries(m)].reshape(m, -1) @ dig.place_values
    value = float((h - inst.A @ np.asarray(x_hat, float)) @ w)
    return h, w, value


def build_topk_mip(inst: Instance, x_hat, topk: TopK) -> MixedBinaryProgram:
    """Maximize (h - A x_hat)^T w over the budget set x W, exactly.

    Columns: w (m), one block of m binaries per entry of ``topk.sets``
    (b, then g), then one block of m products per set (p, then q).  Each
    set's binaries hold at most its number of ones, b <= g when both
    exist, and each product gets the two upper McCormick rows
    p_i <= w_i and p_i <= cap_i b_i, with cap_i = max w_i over W
    (``_w_caps``).  The objective sum_s weight_s sum_i p_si - (A x_hat).w
    rewards every product, so at binary b the rows give p_i <= b_i w_i
    with equality at the optimum, which is max_{h in U} h.w -
    (A x_hat).w.  Every row is <=.
    """
    m, n = inst.m, inst.n
    caps = _w_caps(inst)
    sets = topk.sets
    ns = len(sets)
    ob, op = m, m + ns * m          # first binary, first product
    nest = m if ns == 2 else 0
    G = np.zeros((n + ns + nest + 2 * ns * m, op + ns * m))
    G[:n, :m] = inst.B.T                                # B^T w <= d_bar
    i = np.arange(m)
    if nest:                                            # b_i <= g_i
        G[n + ns + i, ob + i] = 1.0
        G[n + ns + i, ob + m + i] = -1.0
    for s in range(ns):
        G[n + s, ob + s * m:ob + (s + 1) * m] = 1.0     # sum b <= k
        rows = n + ns + nest + 2 * s * m + i
        G[rows, op + s * m + i] = 1.0                   # p_i <= w_i
        G[rows, i] = -1.0
        G[rows + m, op + s * m + i] = 1.0               # p_i <= cap_i b_i
        G[rows + m, ob + s * m + i] = -caps
    rhs = np.zeros(len(G))
    rhs[:n] = inst.d_bar
    rhs[n:n + ns] = [ones for _, ones in sets]
    upper = np.full(op + ns * m, np.inf)
    upper[ob:op] = 1.0
    upper[:m][caps == 0.0] = 0.0   # w_i on a zero row of B
    lp = LinearProgram.from_arrays("max", _topk_objective(inst, x_hat, topk),
                                   G, ["<="] * len(G), rhs, upper=upper)
    return MixedBinaryProgram(lp, range(ob, op))


def _topk_objective(inst: Instance, x_hat, topk: TopK) -> np.ndarray:
    """The objective of ``build_topk_mip``; only it depends on x_hat."""
    m = inst.m
    ax = inst.A @ np.asarray(x_hat, dtype=float)
    weights = [np.full(m, wt) for wt, _ in topk.sets]
    return np.concatenate([-ax, np.zeros(len(weights) * m), *weights])


def _recover_topk_pair(inst: Instance, x_hat, sol_x, topk: TopK):
    """(h, w, value) of a top-k MIP's solution: h = (1 - theta) b +
    theta g, written as 1 where b is set and theta where only g is, so
    that h_i <= 1 holds exactly; the value is recomputed from (h, w)."""
    m = inst.m
    w = sol_x[:m].copy()
    b = sol_x[m:2 * m] > 0.5
    h = b.astype(float)
    if topk.theta > 0.0:
        h[~b & (sol_x[2 * m:3 * m] > 0.5)] = topk.theta
    value = float((h - inst.A @ np.asarray(x_hat, float)) @ w)
    return h, w, value


def _separate_vrep(inst: Instance, x_hat):
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
    caps = _w_caps(inst)
    ax = inst.A @ np.asarray(x_hat, dtype=float)
    V = inst.uncertainty.vertices
    C = V - ax
    n = inst.n
    rhs = np.full(n, inst.d_bar)
    # w_i is held at 0 on a zero row of B, which then bounds nothing
    live = caps > 0.0
    upper = np.where(live, np.inf, 0.0)
    # the entries of c_h that bound t: positive, on a live w_i
    binds = (C > 0.0) & live
    ub = np.maximum(C, 0.0) @ caps
    best, best_h, best_w = -np.inf, None, None
    k = int(np.argmax(ub))
    while True:
        lp = LinearProgram.from_arrays("max", C[k], inst.B.T, ["<="] * n, rhs,
                                       upper=upper)
        sol = solve_lp(lp)
        if sol.status != "optimal":
            raise SeparationError(f"separation LP came back {sol.status}")
        vals = C @ sol.x
        j = int(np.argmax(vals))
        if vals[j] > best:
            best, best_h, best_w = vals[j], j, sol.x.copy()
        y = np.maximum(sol.duals, 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            t = np.where(binds, C / (inst.B @ y), 0.0).max(axis=1)
            np.minimum(ub, t * (inst.d_bar * y.sum()), out=ub,
                       where=t < np.inf)
        ub[k] = -np.inf    # solved
        k = int(np.argmax(ub))
        if ub[k] <= best + 1e-9 * (1.0 + abs(best)):
            break
    h = V[best_h].copy()
    return h, best_w, float((h - ax) @ best_w)


class _RootStart:
    """The separation MIP of a cut loop's first separation, the optimal
    root LP solution of its last, and the B&B nodes of all of them.  The
    separation MIPs of one loop differ only in the objective, so each is
    built from the first one's row and bound arrays
    (``LinearProgram.with_objective``), and each root resumes the last
    root's tableau, which is primal feasible for it."""
    __slots__ = ("prob", "start", "nodes")

    def __init__(self):
        self.prob = self.start = None
        self.nodes = 0


def separate(inst: Instance, x_hat, z_hat: float,
             route: Digitization | TopK | None, mip_tol: float = 1e-6,
             root: _RootStart | None = None):
    """Most violated (h, w) pair, or None when nothing beats z_hat.

    ``route`` names the separation of ``inst``'s U (module docstring):
    a ``TopK`` solves the budget set's exact MIP, whose pair is within
    mip_tol of the bilinear maximum; a ``Digitization`` solves the
    digitized MIP, within eps_total + mip_tol; None, on VRep sets,
    searches the vertices, within 1e-9 (1 + |value|).  The pair's value
    is recomputed from the returned vectors, so it is exact for them
    even though the search is approximate.  Returns (h, w, value) when
    value > z_hat + 10*mip_tol.  With a finite z_hat a MIP's search
    prunes every node whose bound does not exceed that threshold, and
    returns None when no pair does.  With ``root``, the MIP shares the
    rows of ``root.prob`` and its root LP starts from ``root.start``;
    both then hold this separation's, and ``root.nodes`` counts its
    nodes.
    """
    sep_tol = 10.0 * mip_tol
    if inst.uncertainty.is_hrep:
        if isinstance(route, TopK):
            build, objective, recover = (build_topk_mip, _topk_objective,
                                         _recover_topk_pair)
        elif isinstance(route, Digitization):
            build, objective, recover = (build_separation_mip,
                                         _separation_objective, _recover_pair)
        else:
            raise SeparationError(
                "HRep separation needs a Digitization or a TopK")
        if root is not None and root.prob is not None:
            obj = objective(inst, x_hat, route)
            prob = replace(root.prob, lp=root.prob.lp.with_objective(obj))
        else:
            prob = build(inst, x_hat, route)
        cutoff = z_hat + sep_tol if math.isfinite(z_hat) else None
        sol = solve_mip(prob, mip_tol=mip_tol, node_limit=None,
                        start=None if root is None else root.start,
                        cutoff=cutoff)
        if root is not None:
            root.prob, root.start = prob, sol.root_start
            root.nodes += sol.nodes
        if sol.status == "cutoff":
            return None
        if sol.status != "optimal":
            raise SeparationError(f"separation MIP came back {sol.status}")
        h, w, value = recover(inst, x_hat, sol.x, route)
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
    cuts: list[Cut]
    iterations: int
    bracket: tuple[float, float]
    nodes: int                   # B&B nodes of all separations


def _solve_master(inst: Instance, cuts: list[Cut], cover):
    """The master LP over ``cuts`` and the rows ``cover = (A_c, cap_c)``,
    ``A_c x >= cap_c``, that the zero rows of B ask of the first stage
    (``_w_caps``): x, z and the value."""
    n = inst.n
    A_c, cap_c = cover
    ncuts = len(cuts)
    nrows = ncuts + len(cap_c)
    G = np.zeros((nrows, n + 1))
    rhs = np.zeros(nrows)
    for k, cut in enumerate(cuts):
        G[k, :n] = inst.A.T @ cut.w
        G[k, n] = 1.0
        rhs[k] = float(cut.h @ cut.w)
    G[ncuts:, :n] = A_c
    rhs[ncuts:] = cap_c
    # z >= 0 repeats the w = 0 cut as a bound, so every cost is
    # nonnegative and the LP kernel starts from the slack basis
    obj = np.concatenate([inst.c, [1.0]])
    lp = LinearProgram.from_arrays("min", obj, G, [">="] * nrows, rhs)
    sol = solve_lp(lp)
    if sol.status != "optimal":
        raise SeparationError(f"master LP came back {sol.status}")
    return sol.x[:n].copy(), float(sol.x[n]), float(sol.objective)


def solve_adjustable(inst: Instance, eps: float = 1e-3, max_iters: int = 100,
                     mip_tol: float = 1e-6) -> AdjustableResult:
    """Cutting-plane computation of the adjustable optimum.

    The master value never decreases and always bounds z_AR from below.
    Separation returns nothing once the best pair is worth at most
    z_hat + sep_tol (sep_tol = 10*mip_tol), so on normal termination the
    master is within sep_tol of z_AR on VRep sets (exact separation),
    within mip_tol + sep_tol on the budget set (the exact top-k MIP) and
    within eps_total + mip_tol + sep_tol on other HRep sets (the
    digitized MIP; ``separate``).  A stalled or iteration-capped run
    reports the bracket [master, c.x + value + slack] instead, for the
    last unresolved pair's value and the route's slack: 1e-7, mip_tol
    and eps_total + mip_tol in that order.  ``nodes`` sums the B&B nodes
    of the loop's separation MIPs.
    """
    if max_iters < 1:
        raise ValueError("max_iters must be at least 1")
    route = _route(inst, eps)
    caps = inst.uncertainty.caps
    covered = (_w_caps(inst) == 0.0) & (caps > 0.0)
    cover = inst.A[covered], caps[covered]

    # w = 0 is always in W and bounds the master below by min c.x >= 0
    h0 = (np.zeros(inst.m) if inst.uncertainty.is_hrep
          else inst.uncertainty.vertices[0].copy())
    cuts = [Cut(h0, np.zeros(inst.m), 0.0)]
    root = _RootStart()
    cuts.append(Cut(*separate(inst, np.zeros(inst.n), -math.inf, route,
                              mip_tol=mip_tol, root=root)))

    # separation undershoots the true bilinear max by at most this much
    if isinstance(route, Digitization):
        sep_slack = route.eps_total + mip_tol
    else:
        sep_slack = 1e-7 if route is None else mip_tol

    prev = -math.inf
    for it in range(1, max_iters + 1):
        x_hat, z_hat, master = _solve_master(inst, cuts, cover)
        if master < prev - 1e-7:
            raise SeparationError(
                f"master value regressed from {prev} to {master}")
        prev = max(prev, master)
        hit = separate(inst, x_hat, z_hat, route, mip_tol=mip_tol,
                       root=root)
        if hit is None:
            return AdjustableResult("optimal", master, x_hat, cuts, it,
                                    (master, master), root.nodes)
        h, w, value = hit
        # z_AR <= c.x_hat + (true bilinear max at x_hat) for any x_hat
        upper = float(inst.c @ x_hat) + value + sep_slack
        if any(np.max(np.abs(c.h - h)) <= 1e-9
               and np.max(np.abs(c.w - w)) <= 1e-9 for c in cuts):
            return AdjustableResult("stalled", master, x_hat, cuts, it,
                                    (master, max(master, upper)), root.nodes)
        cuts.append(Cut(h, w, value))
    return AdjustableResult("iteration_limit", master, x_hat, cuts, max_iters,
                            (master, max(master, upper)), root.nodes)


def adjustable_special_case(inst: Instance, eps: float = 1e-3,
                            mip_tol: float = 1e-6) -> float:
    """z_AR for A = 0, c = 0: one separation at x = 0 already maximizes
    the bilinear form, so no master loop is needed."""
    if inst.A.max(initial=0.0) > 0 or inst.c.max(initial=0.0) > 0:
        raise InstanceError("special case needs A = 0 and c = 0")
    hit = separate(inst, np.zeros(inst.n), -math.inf, _route(inst, eps),
                   mip_tol=mip_tol)
    return hit[2]


def solve_adjustable_vertex_oracle(inst: Instance) -> float:
    """Exact z_AR as one LP with a recourse copy per vertex of U: the
    vertex LP of the affine policy with each vertex its own anchor."""
    uset = inst.uncertainty
    if uset.is_hrep:
        uset = enumerate_vertices(uset)
    Vx = uset.vertices
    lp = vertex_lp(inst, Vx, np.eye(len(Vx)))
    sol = solve_lp(lp)
    if sol.status != "optimal":
        raise SeparationError(f"vertex oracle LP came back {sol.status}")
    return float(sol.objective)
