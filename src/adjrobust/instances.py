"""Problem instances: two-stage data (c, A, B, d) plus an uncertainty set.

An instance describes

    min_{x >= 0} c.x + max_{h in U} min_{y >= 0, Ax + By >= h} d.y

with d = d_bar * ones(n).  The uncertainty set U lives in the
nonnegative orthant and is either an HRep {h >= 0 : R h <= r} with
nonnegative R, r, or a VRep convex hull of nonnegative vertices.  Sets
and instances check these invariants when built (InstanceError), so a
built one is valid.  Generators are pure functions of (shape,
distribution, seed); see `rng` for the exact substream convention that
makes them portable.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, replace

import numpy as np

from . import rng as _rng


class InstanceError(ValueError):
    """An instance invariant does not hold; message names the invariant."""


class UnboundedSetError(InstanceError):
    """A set expected to be bounded has an unbounded coordinate."""


class InstanceFormatError(ValueError):
    """An instance document cannot be parsed; message names the defect."""


class DimensionCapError(ValueError):
    """Vertex enumeration requested above its dimension cap, m = 12."""


# ---------------------------------------------------------------------------
# uncertainty sets
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class UncertaintySet:
    """Either {h >= 0 : R h <= r} (HRep) or conv(vertices) (VRep)."""

    R: np.ndarray | None = None
    r: np.ndarray | None = None
    vertices: np.ndarray | None = None

    @classmethod
    def hrep(cls, R, r) -> "UncertaintySet":
        return cls(R=R, r=r)

    @classmethod
    def vrep(cls, vertices) -> "UncertaintySet":
        return cls(vertices=vertices)

    @property
    def is_hrep(self) -> bool:
        return self.R is not None

    @property
    def dim(self) -> int:
        return self.R.shape[1] if self.is_hrep else self.vertices.shape[1]

    def __post_init__(self) -> None:
        # arrays of floats, whatever array-likes were given
        def keep(name, a):
            object.__setattr__(self, name, a)

        if self.is_hrep:
            keep("R", np.atleast_2d(np.asarray(self.R, dtype=float)))
            keep("r", np.asarray(self.r, dtype=float).ravel())
            if self.r.size != self.R.shape[0]:
                raise InstanceError("uncertainty r length must match R rows")
            if not np.all(np.isfinite(self.R)) or not np.all(np.isfinite(self.r)):
                raise InstanceError("uncertainty R/r must be finite")
            if self.R.min(initial=0.0) < 0:
                raise InstanceError("uncertainty R must be nonnegative")
            if self.r.min(initial=0.0) < 0:
                raise InstanceError("uncertainty r must be nonnegative")
        else:
            V = np.atleast_2d(np.asarray(
                [] if self.vertices is None else self.vertices, dtype=float))
            keep("vertices", V)
            if V.size == 0:
                raise InstanceError("uncertainty needs an HRep or vertices")
            if not np.all(np.isfinite(V)):
                raise InstanceError("uncertainty vertices must be finite")
            if V.min() < 0:
                raise InstanceError("uncertainty vertices must be nonnegative")

    @property
    def caps(self) -> np.ndarray:
        """max h_i over the set, inf where h_i is unbounded.

        On HRep sets R, r >= 0 and h >= 0, so raising the other
        coordinates only tightens the rows: the cap is the smallest
        r_k / R_ki over the rows with R_ki > 0.
        """
        if not self.is_hrep:
            return self.vertices.max(axis=0)
        ratios = np.divide(self.r[:, None], self.R, where=self.R > 0,
                           out=np.full(self.R.shape, np.inf))
        return ratios.min(axis=0, initial=np.inf)

    def check_bounded(self) -> None:
        """Raise UnboundedSetError when some coordinate has no cap (an
        all-zero column of R)."""
        unbounded = np.flatnonzero(np.isinf(self.caps))
        if unbounded.size:
            raise UnboundedSetError(
                f"coordinate {unbounded[0]} unbounded on the set")


def budget_set(m: int) -> UncertaintySet:
    """{h in [0,1]^m : sum h_i <= sqrt(m)}."""
    if m < 1:
        raise InstanceError("budget set needs m >= 1")
    R = np.vstack([np.eye(m), np.ones((1, m))])
    r = np.concatenate([np.ones(m), [math.sqrt(m)]])
    return UncertaintySet.hrep(R, r)


def budget_vertices(m: int) -> UncertaintySet:
    """The vertices of budget_set(m) in closed form.

    With k = floor(sqrt(m)) and f = sqrt(m) - k, they are the 0/1
    vectors with at most k ones and, when f > 0, the vectors with k ones
    plus one more coordinate at f.  Rows are sorted lexicographically,
    the order enumerate_vertices returns.
    """
    if m < 1:
        raise InstanceError("budget set needs m >= 1")
    k = math.isqrt(m)
    f = math.sqrt(m) - k
    rows = []
    for ones in range(k + 1):
        for idx in itertools.combinations(range(m), ones):
            h = np.zeros(m)
            h[list(idx)] = 1.0
            rows.append(h)
            if ones == k and f > 0.0:
                for j in np.flatnonzero(h == 0.0):
                    g = h.copy()
                    g[j] = f
                    rows.append(g)
    V = np.asarray(rows)
    return UncertaintySet.vrep(V[np.lexsort(V.T[::-1])])


def _merge_near(pts: np.ndarray) -> np.ndarray:
    """The rows of ``pts`` in order, less each row within 1e-9
    coordinatewise of a row kept before it."""
    kept = np.empty_like(pts)
    n = 0
    for p in pts:
        if not (np.abs(kept[:n] - p).max(axis=1) <= 1e-9).any():
            kept[n] = p
            n += 1
    return kept[:n]


def enumerate_vertices(uset: UncertaintySet) -> UncertaintySet:
    """All vertices of an HRep set by active-set brute force, m <= 12.

    Every m-subset of the rows of {R h <= r} stacked with {h >= 0} that
    forms a nonsingular system contributes its solution when feasible
    (within 1e-9).  Points within 1e-9 of each other coordinatewise are
    merged; output rows are sorted lexicographically.
    """
    if not uset.is_hrep:
        raise InstanceError("enumerate_vertices expects an HRep set")
    m = uset.dim
    if m > 12:
        raise DimensionCapError(f"vertex enumeration capped at 12, got m={m}")
    uset.check_bounded()
    G = np.vstack([uset.R, -np.eye(m)])
    g = np.concatenate([uset.r, np.zeros(m)])
    nrows = G.shape[0]

    found: list[np.ndarray] = []
    combos = itertools.combinations(range(nrows), m)
    while True:
        chunk = list(itertools.islice(combos, 50000))
        if not chunk:
            break
        idx = np.asarray(chunk, dtype=np.intp)
        Ms = G[idx]                      # (k, m, m)
        dets = np.linalg.det(Ms)
        ok = np.abs(dets) > 1e-10
        if not ok.any():
            continue
        sols = np.linalg.solve(Ms[ok], g[idx[ok]][..., None])[..., 0]
        feas = np.all(sols @ G.T <= g + 1e-9, axis=1)
        if feas.any():
            found.append(sols[feas])
    if not found:
        raise InstanceError("set has no vertices (empty or degenerate)")
    pts = np.vstack(found)
    # collapse exact duplicates first, then tolerance-merge the survivors
    pts = np.unique(np.round(pts, 12) + 0.0, axis=0)  # +0.0 clears -0.0
    V = _merge_near(pts)
    V = V[np.lexsort(V.T[::-1])]
    return UncertaintySet.vrep(V)


# ---------------------------------------------------------------------------
# instances
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Instance:
    m: int
    n: int
    c: np.ndarray
    A: np.ndarray
    B: np.ndarray
    d_bar: float
    uncertainty: UncertaintySet
    seed: int | None = None

    @property
    def d(self) -> np.ndarray:
        return self.d_bar * np.ones(self.n)

    def __post_init__(self) -> None:
        for name in ("c", "A", "B"):
            object.__setattr__(self, name,
                               np.asarray(getattr(self, name), dtype=float))
        if self.c.shape != (self.n,):
            raise InstanceError("c must have shape (n,)")
        if self.A.shape != (self.m, self.n):
            raise InstanceError("A must have shape (m, n)")
        if self.B.shape != (self.m, self.n):
            raise InstanceError("B must have shape (m, n)")
        for name, arr in (("c", self.c), ("A", self.A), ("B", self.B)):
            if not np.all(np.isfinite(arr)):
                raise InstanceError(f"{name} must be finite")
            if arr.size and arr.min() < 0:
                raise InstanceError(f"{name} must be nonnegative")
        if not (np.isfinite(self.d_bar) and self.d_bar > 0):
            raise InstanceError("d_bar must be positive")
        if self.uncertainty.dim != self.m:
            raise InstanceError("uncertainty set dimension must equal m")

    def with_uncertainty(self, uset: UncertaintySet) -> "Instance":
        return replace(self, uncertainty=uset)


@dataclass(frozen=True)
class RandomSpec:
    """Entry distribution for B: 'uniform', 'bernoulli' (with p), or
    'folded-normal'; the worst-case kinds name the structured family."""

    kind: str
    p: float | None = None

    _IID = ("uniform", "bernoulli", "folded-normal")
    _KINDS = _IID + ("worst-case-deterministic", "worst-case-randomized")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise InstanceError(f"unknown distribution kind {self.kind!r}")
        if self.kind == "bernoulli":
            if self.p is None or not 0.0 < self.p < 1.0:
                raise InstanceError("bernoulli needs p in (0, 1)")
        elif self.p is not None:
            raise InstanceError(f"{self.kind} takes no parameter p")

    @property
    def mu(self) -> float:
        """Mean entry value."""
        if self.kind == "uniform":
            return 0.5
        if self.kind == "bernoulli":
            return self.p
        if self.kind == "folded-normal":
            return math.sqrt(2.0 / math.pi)
        raise InstanceError(f"{self.kind} has no iid mean")

    @property
    def support_bound(self) -> float:
        """b with entries in [0, b] almost surely (inf when unbounded)."""
        if self.kind in ("uniform", "bernoulli"):
            return 1.0
        if self.kind == "folded-normal":
            return math.inf
        raise InstanceError(f"{self.kind} has no iid support bound")


def _draw_entry(spec: RandomSpec, stream: _rng.SplitMix64) -> float:
    if spec.kind == "uniform":
        return stream.next_float()
    if spec.kind == "bernoulli":
        return 1.0 if stream.next_float() < spec.p else 0.0
    return _rng.folded_normal(stream.next_open01())


def gen_iid(m: int, n: int, spec: RandomSpec, seed: int) -> Instance:
    """Budget-set instance with iid B: A = 0, c = 0, d = e, U = budget_set(m).

    Entry (i, j) of B draws once from rng.substream(seed, i*n + j).
    """
    if spec.kind not in RandomSpec._IID:
        raise InstanceError(f"gen_iid needs an iid kind, got {spec.kind!r}")
    if m < 1 or n < 1:
        raise InstanceError("gen_iid needs m, n >= 1")
    B = np.empty((m, n))
    for i in range(m):
        for j in range(n):
            B[i, j] = _draw_entry(spec, _rng.substream(seed, i * n + j))
    return Instance(m=m, n=n, c=np.zeros(n), A=np.zeros((m, n)), B=B,
                    d_bar=1.0, uncertainty=budget_set(m), seed=seed)


def gen_worst_case(m: int, randomized: bool = False,
                   seed: int | None = None) -> Instance:
    """The structured family with B_ii = 1 and off-diagonal 1/sqrt(m)
    (deterministic) or u_ij/sqrt(m), u_ij ~ U[0,1] (randomized);
    U = conv(0, e_1..e_m, nu_1..nu_m) with nu_i = (e - e_i)/sqrt(m)."""
    if m < 1:
        raise InstanceError("gen_worst_case needs m >= 1")
    if randomized and seed is None:
        raise InstanceError("randomized family needs a seed")
    root = 1.0 / math.sqrt(m)
    if randomized:
        B = np.empty((m, m))
        for i in range(m):
            for j in range(m):
                B[i, j] = _rng.substream(seed, i * m + j).next_float() * root
    else:
        B = np.full((m, m), root)
    np.fill_diagonal(B, 1.0)

    eye = np.eye(m)
    nus = (np.ones((m, m)) - eye) * root
    # coincident vertices collapse (m = 1: nu_1 = 0)
    verts = _merge_near(np.vstack([np.zeros((1, m)), eye, nus]))
    uset = UncertaintySet.vrep(verts)

    return Instance(m=m, n=m, c=np.zeros(m), A=np.zeros((m, m)), B=B,
                    d_bar=1.0, uncertainty=uset, seed=seed)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def instance_to_dict(inst: Instance) -> dict:
    unc: dict
    if inst.uncertainty.is_hrep:
        unc = {"type": "hrep", "R": inst.uncertainty.R.tolist(),
               "r": inst.uncertainty.r.tolist()}
    else:
        unc = {"type": "vrep", "vertices": inst.uncertainty.vertices.tolist()}
    return {"m": inst.m, "n": inst.n, "d_bar": inst.d_bar,
            "c": inst.c.tolist(), "A": inst.A.tolist(), "B": inst.B.tolist(),
            "uncertainty": unc, "seed": inst.seed}


def instance_from_dict(doc: dict) -> Instance:
    def need(key, obj=None):
        src = doc if obj is None else obj
        if not isinstance(src, dict) or key not in src:
            raise InstanceFormatError(f"missing field {key!r}")
        return src[key]

    def size(key):
        value = need(key)
        if not float(value).is_integer():
            raise InstanceFormatError(
                f"{key} must be an integer, got {value!r}")
        return int(value)

    unc_doc = need("uncertainty")
    utype = need("type", unc_doc)
    if utype not in ("hrep", "vrep"):
        raise InstanceFormatError(f"unknown uncertainty type {utype!r}")
    try:
        uset = (UncertaintySet.hrep(need("R", unc_doc), need("r", unc_doc))
                if utype == "hrep"
                else UncertaintySet.vrep(need("vertices", unc_doc)))
        return Instance(m=size("m"), n=size("n"), c=need("c"),
                        A=need("A"), B=need("B"), d_bar=float(need("d_bar")),
                        uncertainty=uset, seed=doc.get("seed"))
    except (TypeError, ValueError) as e:
        if isinstance(e, (InstanceFormatError, InstanceError)):
            raise
        raise InstanceFormatError(f"malformed numeric field: {e}") from e


def write_instance(inst: Instance, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(instance_to_dict(inst), fh, indent=2)
        fh.write("\n")


def read_instance(path) -> Instance:
    """Parse and validate an instance document; HRep sets are also
    checked for boundedness (every coordinate capped by a row of R)."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as e:
            raise InstanceFormatError(
                f"invalid JSON at line {e.lineno}: {e.msg}") from e
    inst = instance_from_dict(doc)
    inst.uncertainty.check_bounded()
    return inst
