"""Atomic solver-state persistence: a crashed write never corrupts the
previous state file, and temp files never accumulate."""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.core import state as state_mod
from repro.core.state import SolverState, load_solver_state, save_solver_state


def make_state(fill: float) -> SolverState:
    return SolverState(
        z=np.full(16, fill),
        fingerprint="abc123",
        num_variables=10,
        num_constraints=6,
        design_name="d",
    )


def test_round_trip(tmp_path):
    path = tmp_path / "state.npz"
    save_solver_state(str(path), make_state(1.5))
    loaded = load_solver_state(str(path))
    np.testing.assert_array_equal(loaded.z, np.full(16, 1.5))
    assert loaded.fingerprint == "abc123"
    assert loaded.num_variables == 10 and loaded.num_constraints == 6
    assert loaded.design_name == "d"


def test_save_leaves_no_temp_files(tmp_path):
    path = tmp_path / "state.npz"
    for fill in (1.0, 2.0, 3.0):
        save_solver_state(str(path), make_state(fill))
    assert sorted(os.listdir(tmp_path)) == ["state.npz"]
    assert load_solver_state(str(path)).z[0] == 3.0


def test_interrupted_write_preserves_previous_state(tmp_path, monkeypatch):
    """Simulate a crash mid-serialization: some bytes reach the temp
    file, then the writer dies.  The previous state must load intact and
    the partial temp file must be gone."""
    path = tmp_path / "state.npz"
    save_solver_state(str(path), make_state(1.0))
    before = path.read_bytes()

    real_savez = np.savez

    def dying_savez(fh, **arrays):
        fh.write(b"PK\x03\x04 partial garbage")
        raise KeyboardInterrupt("power loss")

    monkeypatch.setattr(state_mod.np, "savez", dying_savez)
    with pytest.raises(KeyboardInterrupt):
        save_solver_state(str(path), make_state(2.0))
    monkeypatch.setattr(state_mod.np, "savez", real_savez)

    assert path.read_bytes() == before  # untouched, byte for byte
    assert sorted(os.listdir(tmp_path)) == ["state.npz"]
    assert load_solver_state(str(path)).z[0] == 1.0


def test_failed_replace_cleans_up_temp(tmp_path, monkeypatch):
    path = tmp_path / "state.npz"
    save_solver_state(str(path), make_state(1.0))

    def failing_replace(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(state_mod.os, "replace", failing_replace)
    with pytest.raises(OSError, match="disk full"):
        save_solver_state(str(path), make_state(2.0))
    monkeypatch.undo()

    assert sorted(os.listdir(tmp_path)) == ["state.npz"]
    assert load_solver_state(str(path)).z[0] == 1.0


def test_truncated_file_fails_loudly_not_silently(tmp_path):
    """The failure atomicity prevents: a torn write must not parse."""
    path = tmp_path / "state.npz"
    save_solver_state(str(path), make_state(1.0))
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])
    with pytest.raises(Exception):
        load_solver_state(str(path))


def test_legacy_bare_npy_still_loads(tmp_path):
    path = tmp_path / "legacy.npy"
    np.save(str(path), np.arange(4.0))
    loaded = load_solver_state(str(path))
    np.testing.assert_array_equal(loaded.z, np.arange(4.0))
    assert loaded.fingerprint is None


def test_archive_with_component_labels_still_loads(tmp_path):
    """Older versions also wrote per-variable coupling-component labels
    into the archive; such a state must still load, labels ignored."""
    path = tmp_path / "old.npz"
    meta = (
        '{"version": 1, "fingerprint": "abc123", "num_variables": 10, '
        '"num_constraints": 6, "design_name": "d"}'
    )
    with open(path, "wb") as fh:
        np.savez(
            fh,
            z=np.full(16, 2.5),
            meta=np.asarray(meta),
            component_labels=np.arange(10),
        )
    loaded = load_solver_state(str(path))
    np.testing.assert_array_equal(loaded.z, np.full(16, 2.5))
    assert loaded.fingerprint == "abc123"
    assert loaded.num_variables == 10 and loaded.num_constraints == 6
    assert not hasattr(loaded, "component_labels")
