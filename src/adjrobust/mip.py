"""Branch and bound for LPs with binary variables.

Search order is best-bound from the root.  Branching picks the most
fractional binary (lowest index on ties, which roundoff in the node
LP's solution does not break), and of two open nodes with the same
bound the older goes first, so the child matching the rounded
relaxation value precedes its sibling.  There is no primal heuristic:
incumbents are the integral node LPs.  Everything is deterministic.

The root LP is solved cold unless a ``start`` is given, as
``solve_lp`` takes it: the cut loop starts each separation MIP's root
from the previous root's optimal solution (``MipSolution.root_start``),
whose tableau is primal feasible because the MIPs share rows and
bounds.  A binary's [0, 1] and a branch's fixing are bounds of its
column, not rows, so every node LP has the root's rows.  Every child
starts from its parent's optimal solution (``solve_lp(child,
start=parent)``): it differs from the parent only in one column's
bounds, which keeps that basis, with each nonbasic column on its side,
dual feasible, so the LP kernel's dual simplex phase re-solves it in a
few pivots.  Node LPs are made by ``LinearProgram.with_bounds``, so
they share the root's arrays, and the LP kernel solves them all
through the root's standard form.  A child's solve resumes a copy of
its parent's final tableau, with no inversion; the parent's is left
as it is, so both children resume it.  An open node keeps its parent's
solution, and with it that tableau.  Where the parent's LP has
alternative optima, a warm re-solve can end at another one than a cold
solve, so the node count can differ from that of a cold search; values
agree to the tolerances.
``MipSolution.pivots`` counts the LP pivots of the whole search.

The reported bound never lies below the optimum (up to mip_tol, the
slack at which nodes are pruned).  An exhausted search reports the
incumbent.  With a ``cutoff``, a node whose bound is not above it is
pruned, as is an integral node LP whose value is not, so a search that
finds no incumbent above the cutoff ends with status ``cutoff``: the
optimum is at most the cutoff, or the MIP is infeasible.  A search cut
short by the node limit reports the largest of the incumbent, the bound
of the node just popped and the top of the heap, which between them
bound every node left open.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np

from .lp import LinearProgram, LpSolution, solve_lp

INT_TOL = 1e-6
_TIE_TOL = 1e-9


class MipError(Exception):
    pass


@dataclass(frozen=True)
class MixedBinaryProgram:
    lp: LinearProgram
    binary_vars: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "binary_vars",
                           tuple(int(j) for j in self.binary_vars))
        n = self.lp.num_vars
        for j in self.binary_vars:
            if not 0 <= j < n:
                raise MipError(f"binary index {j} out of range for {n} columns")
        if len(set(self.binary_vars)) != len(self.binary_vars):
            raise MipError("duplicate binary indices")


@dataclass
class MipSolution:
    # optimal | node_limit | infeasible | unbounded | cutoff
    status: str
    x: np.ndarray | None
    objective: float | None
    bound: float
    gap: float
    nodes: int
    pivots: int                      # LP pivots, root included
    # the root LP's optimal solution: a start for the root of a MIP with
    # the same rows and bounds; None if the root was not solved to
    # optimality
    root_start: LpSolution | None = field(default=None, repr=False)


def _fractionality(x, binaries):
    f = x[binaries]
    return np.minimum(f - np.floor(f), np.ceil(f) - f)


def _most_fractional(frac):
    """Index of the most fractional binary, the lowest on ties.  Values
    within _TIE_TOL of the largest tie with it, so that roundoff in the
    LP solution does not pick the branch."""
    return int(np.argmax(frac >= frac.max() - _TIE_TOL))


def solve_mip(prob: MixedBinaryProgram, mip_tol: float = 1e-6,
              node_limit: int | None = 1_000_000,
              start: LpSolution | None = None,
              cutoff: float | None = None) -> MipSolution:
    """Solve max/min c.x over the LP's rows with the given columns binary.

    `mip_tol` is the absolute optimality gap at which nodes are pruned
    against the incumbent, so the returned objective is within mip_tol
    of the true optimum.  With `node_limit` set, the search stops after
    that many LP relaxations and reports the surviving bound and gap.
    `start` starts the root LP, as `solve_lp` takes it; a MIP with the
    same rows and bounds returns one in `MipSolution.root_start`.  A
    start of the wrong shape raises ValueError, and one on other rows or
    unusable leaves the root to a cold solve.  With `cutoff`, only
    solutions better than it count: nodes whose bound is not above it
    (below it, for min) are pruned, and a search with no incumbent
    better than it returns status "cutoff".
    """
    lp = prob.lp
    binaries = np.asarray(prob.binary_vars, dtype=np.intp)
    sgn = 1.0 if lp.sense == "max" else -1.0

    lower = lp.lower.copy()
    upper = lp.upper.copy()
    # binaries live in {0,1}; intersect with any caller bounds
    lower[binaries] = np.maximum(lower[binaries], 0.0)
    upper[binaries] = np.minimum(upper[binaries], 1.0)
    nodes = pivots = 0
    incumbent_x = None
    incumbent_val = None          # in sgn-units (larger is better)
    floor = -np.inf if cutoff is None else sgn * cutoff
    root_start = None

    # (-bound, tiebreak, lo, up, the parent's LpSolution)
    heap: list = [(-np.inf, 0, lower, upper, start)]
    tie = 1

    def finish(status: str, bound: float) -> MipSolution:
        if incumbent_val is None:
            return MipSolution(status, None, None, sgn * bound, np.inf, nodes,
                               pivots, root_start)
        return MipSolution(status, incumbent_x, sgn * incumbent_val,
                           sgn * bound, bound - incumbent_val, nodes, pivots,
                           root_start)

    while heap:
        negb, _, lo, up, parent = heapq.heappop(heap)
        if -negb <= floor or (incumbent_val is not None
                              and -negb <= incumbent_val + mip_tol):
            continue

        if node_limit is not None and nodes >= node_limit:
            # the popped node and the heap hold every unexplored bound
            bound = max(-negb, -heap[0][0] if heap else -np.inf,
                        -np.inf if incumbent_val is None else incumbent_val)
            return finish("node_limit", bound)
        nodes += 1
        # every node LP differs from the root in bound values only
        sol = solve_lp(lp.with_bounds(lo, up), start=parent)
        pivots += sol.iterations
        if sol.status == "infeasible":
            continue
        if sol.status == "unbounded":
            return MipSolution("unbounded", None, None, sgn * np.inf, np.inf,
                               nodes, pivots)
        if nodes == 1:
            root_start = sol
        val = sgn * sol.objective

        if val <= floor or (incumbent_val is not None
                            and val <= incumbent_val + mip_tol):
            continue

        frac = _fractionality(sol.x, binaries)
        if frac.size == 0 or frac.max() <= INT_TOL:
            # val beats the incumbent by more than mip_tol: replace it
            incumbent_x, incumbent_val = sol.x.copy(), val
            incumbent_x[binaries] = np.round(incumbent_x[binaries])
            continue

        j = int(binaries[_most_fractional(frac)])
        pref = float(np.round(sol.x[j]))
        for value in (pref, 1.0 - pref):
            clo, cup = lo.copy(), up.copy()
            clo[j] = cup[j] = value
            heapq.heappush(heap, (-val, tie, clo, cup, sol))
            tie += 1

    # exhausted: every open node was solved or pruned against the incumbent
    if incumbent_val is None:
        if cutoff is not None:
            return finish("cutoff", floor)
        return finish("infeasible", -np.inf)
    return finish("optimal", incumbent_val)

