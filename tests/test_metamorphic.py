"""Metamorphic relations at the benchmark's sizes, with no external solver.

On the paper's instances U is invariant under permuting coordinates (the
budget set and the structured family's hull are symmetric), and A = 0,
c = 0, d = d_bar e.  So permuting B's rows and columns leaves z_aff and
z_ar unchanged, and scaling B by alpha divides both by alpha.  A
permutation reorders the LPs' rows and columns, which changes the pivot
path, the ratio-test ties and the refresh points, so a defect that
depends on the path shows as a mismatch.

The values also obey z_ar <= z_aff <= static: an affine policy is
adjustable, and the static policy y(h) = q is affine.
"""

from dataclasses import replace

import numpy as np
import pytest

from adjrobust.adjustable import (adjustable_special_case,
                                  solve_adjustable_vertex_oracle)
from adjrobust.affine import solve_affine
from adjrobust.instances import (RandomSpec, budget_vertices, gen_iid,
                                 gen_worst_case)
from adjrobust.lp import LinearProgram, solve_lp

ALPHA = 1.7


def transformed(inst, seed):
    """inst with B's rows and columns permuted and B scaled by ALPHA."""
    rng = np.random.default_rng(seed)
    rows, cols = rng.permutation(inst.m), rng.permutation(inst.n)
    return replace(inst, B=ALPHA * inst.B[rows][:, cols],
                   A=inst.A[rows][:, cols], c=inst.c[cols])


def assert_scaled(value, scaled_value):
    assert abs(ALPHA * scaled_value - value) <= 1e-9 * abs(value)


@pytest.mark.parametrize("kind", ["uniform", "folded-normal"])
def test_budget_table_values_scale_and_permute(kind):
    m = 10
    verts = budget_vertices(m)
    for seed in range(10):
        inst = gen_iid(m, m, RandomSpec(kind), seed)
        other = transformed(inst, seed)
        assert_scaled(solve_affine(inst).objective,
                      solve_affine(other).objective)
        assert_scaled(
            adjustable_special_case(inst.with_uncertainty(verts)),
            adjustable_special_case(other.with_uncertainty(verts)))


def static_value(inst):
    """The static policy's value for A = 0, c = 0: min d.q s.t.
    B q >= caps(U), q >= 0, as B q >= h must hold for every h in U."""
    lp = LinearProgram.from_arrays("min", inst.d, inst.B, [">="] * inst.m,
                                   inst.uncertainty.caps)
    sol = solve_lp(lp)
    assert sol.status == "optimal"
    return sol.objective


@pytest.mark.parametrize("kind", ["uniform", "folded-normal"])
def test_budget_table_values_are_sandwiched(kind):
    # z_ar <= z_aff <= static; some seeds are tight on either side
    m = 10
    verts = budget_vertices(m)
    for seed in range(10):
        inst = gen_iid(m, m, RandomSpec(kind), seed)
        z_aff = solve_affine(inst).objective
        z_ar = adjustable_special_case(inst.with_uncertainty(verts))
        static = static_value(inst)
        assert z_ar <= z_aff + 1e-9 * (1.0 + abs(z_aff)), seed
        assert z_aff <= static + 1e-9 * (1.0 + abs(static)), seed


def test_worst_case_values_scale_and_permute():
    for seed in range(3):
        inst = gen_worst_case(16, randomized=True, seed=seed)
        other = transformed(inst, seed)
        assert_scaled(solve_affine(inst).objective,
                      solve_affine(other).objective)
        assert_scaled(solve_adjustable_vertex_oracle(inst),
                      solve_adjustable_vertex_oracle(other))
