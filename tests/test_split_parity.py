"""The columnar split and QP assembly against the per-subcell oracle.

``split_cells`` builds the variable space in numpy passes and
``build_legalization_qp`` reads its arrays with no per-subcell loop.
These tests hold both to ``tail_oracles.split_cells_oracle`` and
``build_legalization_qp_oracle`` (one ``Subcell`` object per variable)
bit for bit: H, B and E (data, indices and indptr), b, p, the lower
offsets and the fence groups, under the default flow, ``balance_rows``
and ``enforce_right_boundary``.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.benchgen import generate_benchmark
from repro.core.qp_builder import build_legalization_qp
from repro.core.rebalance import rebalance_rows
from repro.core.row_assign import assign_rows
from repro.core.subcells import split_cells
from repro.netlist import CellMaster, Design, RailType
from repro.rows import CoreArea
from tail_oracles import build_legalization_qp_oracle, split_cells_oracle
from test_tail_parity import PROPERTY, _outcome, designs

MODES = ("default", "balance_rows", "enforce_right_boundary")


def _qp_bits(design, split, build, mode):
    """Every QP array as (dtype, shape, bytes); sparse ones per component."""
    assignment = assign_rows(design)
    if mode == "balance_rows":
        rebalance_rows(design, assignment)
    qp = build(
        design, split(design, assignment),
        enforce_right_boundary=mode == "enforce_right_boundary",
    )
    out = {}
    for name, value in qp.items():
        if value is None:
            out[name] = None
        elif hasattr(value, "indptr"):
            out[name] = (value.shape,) + tuple(
                (a.dtype.str, a.tobytes())
                for a in (value.data, value.indices, value.indptr)
            )
        else:
            out[name] = (value.dtype.str, value.shape, value.tobytes())
    return out


def _production(design, model, enforce_right_boundary):
    lq = build_legalization_qp(
        design, model, enforce_right_boundary=enforce_right_boundary
    )
    return {
        "H": lq.qp.H, "B": lq.qp.B, "E": lq.E, "b": lq.qp.b, "p": lq.qp.p,
        "lower": lq.lower, "var_groups": lq.var_groups,
    }


def _assert_parity(design, mode):
    got = _qp_bits(design, split_cells, _production, mode)
    want = _qp_bits(design, split_cells_oracle, build_legalization_qp_oracle, mode)
    assert got.keys() == want.keys()
    for name in want:
        assert got[name] == want[name], name


#: The perfbench pools (benchgen designs, without the workload's GP nudge)
#: and the regimes that take the obstacle, fence and triple-height paths.
BENCHMARKS = {
    **{f"cold-solve-s{s}": ("des_perf_1", 0.02, s, {}) for s in (17, 1, 3, 5, 2)},
    **{f"cold-tail-s{s}": ("pci_bridge32_b", 0.25, s, {}) for s in (1, 2, 3, 4, 5)},
    **{f"eco-service-s{s}": ("fft_2", 0.1, s, {}) for s in (1, 2, 3, 4)},
    "blockages": ("fft_2", 0.2, 3, {"blockage_fraction": 0.15}),
    "fences-macros": ("fft_2", 0.02, 1, {"fences": 2, "macro_fraction": 0.1}),
    "triple-height": ("fft_2", 0.02, 5, {"triple_fraction": 0.1}),
    "single-height": ("fft_2", 0.02, 1, {"mixed": False}),
}


@functools.lru_cache(maxsize=None)
def _benchmark(name):
    profile, scale, seed, kwargs = BENCHMARKS[name]
    return generate_benchmark(profile, scale=scale, seed=seed, **kwargs)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", sorted(BENCHMARKS))
def test_benchmark_qp_matches_oracle(name, mode):
    _assert_parity(_benchmark(name), mode)


@pytest.mark.parametrize("mode", MODES)
def test_empty_design_qp_matches_oracle(mode):
    core = CoreArea(num_rows=4, row_height=9.0, num_sites=20)
    _assert_parity(Design(name="empty", core=core), mode)


@PROPERTY
@given(designs(), st.sampled_from(MODES))
def test_random_design_qp_matches_oracle(design, mode):
    got = _outcome(lambda d: _qp_bits(d, split_cells, _production, mode), design)
    want = _outcome(
        lambda d: _qp_bits(
            d, split_cells_oracle, build_legalization_qp_oracle, mode
        ),
        design,
    )
    assert got == want


def test_missing_row_names_first_unassigned_cell(small_mixed_design):
    assignment = assign_rows(small_mixed_design)
    cells = small_mixed_design.movable_cells
    cells[1].row_index = cells[2].row_index = None
    with pytest.raises(ValueError, match=repr(cells[1].name)):
        split_cells(small_mixed_design, assignment)


def test_model_arrays_are_contiguous_and_ordered():
    design = _benchmark("triple-height")
    model = split_cells(design, assign_rows(design))
    cells = design.movable_cells
    heights = np.array([c.height_rows for c in cells])
    assert np.array_equal(np.diff(model.cell_start), heights)
    assert np.array_equal(model.cell_id, [c.id for c in cells])
    assert np.array_equal(
        model.var_row,
        np.array([c.row_index for c in cells]).repeat(heights) + model.var_slice,
    )
    for row in range(design.core.num_rows):
        seq = model.row_vars[model.row_start[row]:model.row_start[row + 1]]
        assert np.all(model.var_row[seq] == row)
        key = [(model.cell_gp_x[c], model.cell_id[c]) for c in model.var_cell[seq]]
        assert key == sorted(key)


def _edge_below(total):
    """The largest x with ``x + 1e-9 == total`` in floats: a segment of
    width x, or a core edge at x, then holds exactly *total* under the
    ε test, and any other summation order of *total* tips the decision."""
    x = total - 1e-9
    while x + 1e-9 < total:
        x = np.nextafter(x, np.inf)
    while x + 1e-9 > total:
        x = np.nextafter(x, -np.inf)
    return float(x)


@pytest.mark.parametrize("mode", ["default", "enforce_right_boundary"])
def test_fit_decisions_use_left_to_right_sums(mode):
    """Ten widths of 0.1 sum to 0.9999999999999999 left to right but to
    1.0 pairwise; ten of 0.7 to 7.000000000000001 and 7.0.  Only under
    the left-to-right sums do row 0's ten 0.1s fit their obstacle gap,
    row 1's ten 0.7s overflow theirs, and row 2's ten 0.1s fit the core's
    right edge."""
    tenth, seventh = np.full(10, 0.1), np.full(10, 0.7)
    assert np.add.accumulate(tenth)[-1] < np.sum(tenth)
    assert np.add.accumulate(seventh)[-1] > np.sum(seventh)
    edge = _edge_below(np.add.accumulate(tenth)[-1])
    core = CoreArea(num_rows=3, row_height=9.0, num_sites=1, site_width=edge)
    design = Design(name="ε", core=core)
    block = CellMaster("B", width=1.0, height_rows=1)
    design.add_cell("blk0", block, edge, 0.0, fixed=True)
    design.add_cell("blk1", block, _edge_below(np.sum(seventh)), 9.0, fixed=True)
    for row, width in ((0, 0.1), (1, 0.7), (2, 0.1)):
        master = CellMaster(f"S{row}", width=width, height_rows=1)
        for i in range(10):
            design.add_cell(f"r{row}_{i}", master, 0.01 * i, 9.0 * row)
    _assert_parity(design, mode)


@pytest.mark.parametrize("mode", ["default", "enforce_right_boundary"])
def test_obstacle_edge_cases_match_oracle(mode):
    """A target exactly on an obstacle's left edge (routes rightward) and
    an obstacle wholly left of the core (the joint lower stays at 0)."""
    core = CoreArea(num_rows=4, row_height=9.0, num_sites=40)
    design = Design(name="edges", core=core)
    design.add_cell(
        "left", CellMaster("L", width=2.0, height_rows=2, bottom_rail=RailType.VSS),
        -5.0, 0.0, fixed=True,
    )
    design.add_cell("blk", CellMaster("B", width=2.0, height_rows=1), 10.0, 18.0, fixed=True)
    double = CellMaster("D", width=3.0, height_rows=2, bottom_rail=RailType.VSS)
    design.add_cell("d0", double, 1.0, 0.0)
    design.add_cell("d1", double, 10.0, 18.0)
    design.add_cell("s", CellMaster("S", width=1.0, height_rows=1), 10.0, 18.0)
    _assert_parity(design, mode)
