"""Input fingerprints and seeded inputs."""

import numpy as np

from perfbench import inputs
from repro.benchgen import generate_benchmark


def small(seed=0):
    return generate_benchmark("fft_2", scale=0.005, seed=seed)


def test_same_generation_same_fingerprint():
    assert inputs.fingerprint(small()) == inputs.fingerprint(small())


def test_each_input_property_changes_the_fingerprint():
    base = inputs.fingerprint(small())

    def changed(edit):
        design = small()
        edit(design)
        return inputs.fingerprint(design)

    cell = 7
    edits = [
        lambda d: setattr(d.cells[cell], "gp_x", np.nextafter(d.cells[cell].gp_x, np.inf)),
        lambda d: setattr(d.cells[cell], "gp_y", d.cells[cell].gp_y + 1.0),
        lambda d: setattr(d.cells[cell], "fixed", not d.cells[cell].fixed),
        lambda d: setattr(
            d.cells[cell], "master",
            type(d.cells[cell].master)("X", d.cells[cell].master.width + 1.0, 1),
        ),
        lambda d: setattr(d, "core", type(d.core)(
            num_rows=d.core.num_rows + 1, row_height=d.core.row_height,
            num_sites=d.core.num_sites, site_width=d.core.site_width,
        )),
    ]
    prints = [changed(edit) for edit in edits]
    assert base not in prints
    assert len(set(prints)) == len(prints)


def test_working_positions_do_not_change_the_fingerprint():
    design = small()
    before = inputs.fingerprint(design)
    design.cells[3].x += 5.0
    assert inputs.fingerprint(design) == before


def test_combine_is_order_sensitive():
    assert inputs.combine(["a", "b"]) != inputs.combine(["b", "a"])
    assert inputs.combine(["a", "b"]) == inputs.combine(["a", "b"])


def test_pool_depends_on_the_seed_only():
    one = [inputs.fingerprint(d) for d in inputs.make_pool("eco-service", 1)]
    again = [inputs.fingerprint(d) for d in inputs.make_pool("eco-service", 1)]
    other = [inputs.fingerprint(d) for d in inputs.make_pool("eco-service", 2)]
    assert one == again
    assert all(a != b for a, b in zip(one, other))


def test_nudge_moves_half_a_percent_by_at_most_a_site():
    design = small()
    before = np.array([c.gp_x for c in design.cells])
    inputs.nudge_gp(design, np.random.default_rng(0))
    after = np.array([c.gp_x for c in design.cells])
    moved = np.flatnonzero(after != before)
    assert len(moved) == max(1, round(inputs.NUDGE_FRACTION * len(design.movable_cells)))
    assert np.all(np.abs(after - before) <= design.core.site_width)
    assert all(design.cells[i].x == design.cells[i].gp_x for i in moved)


def test_eco_variants_are_cumulative_and_leave_the_design_alone():
    design = small()
    before = [(c.gp_x, c.x) for c in design.cells]
    variants = inputs.eco_variants(design, np.random.default_rng(0), count=3)
    assert [(c.gp_x, c.x) for c in design.cells] == before
    count = max(1, round(inputs.NUDGE_FRACTION * len(design.movable_cells)))
    previous = np.array([g for g, _ in before])
    for variant in variants:
        assert np.count_nonzero(variant != previous) == count
        previous = variant
