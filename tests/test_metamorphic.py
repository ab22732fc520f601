"""Metamorphic relations at the benchmark's sizes, with no external solver.

On the paper's instances U is invariant under permuting coordinates (the
budget set and the structured family's hull are symmetric), and A = 0,
c = 0, d = d_bar e.  So permuting B's rows and columns leaves z_aff and
z_ar unchanged, and scaling B by alpha divides both by alpha.  A
permutation reorders the LPs' rows and columns, which changes the pivot
path, the ratio-test ties and the refresh points, so a defect that
depends on the path shows as a mismatch.
"""

from dataclasses import replace

import numpy as np
import pytest

from adjrobust.adjustable import (adjustable_special_case,
                                  solve_adjustable_vertex_oracle)
from adjrobust.affine import solve_affine
from adjrobust.instances import (RandomSpec, budget_vertices, gen_iid,
                                 gen_worst_case)

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


def test_worst_case_values_scale_and_permute():
    for seed in range(3):
        inst = gen_worst_case(16, randomized=True, seed=seed)
        other = transformed(inst, seed)
        assert_scaled(solve_affine(inst).objective,
                      solve_affine(other).objective)
        assert_scaled(solve_adjustable_vertex_oracle(inst),
                      solve_adjustable_vertex_oracle(other))
