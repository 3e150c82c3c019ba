"""The declarative scenario/config layer (repro.scenario).

Covers the spec machinery (typed ConfigVars, domains, lattice
enumeration, self-checks), the three wired
boundaries — ``LegalizerConfig``, the service protocol, the CLI — which
must reject the same invalid configs with consistent messages (shared
parametrized table), the spec-generated fuzz-oracle matrix, and the
``repro sweep`` campaign runner.
"""

import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.core.legalizer import LegalizerConfig
from repro.core.resilience import ResilienceConfig
from repro.scenario import (
    BENCHGEN_SPEC,
    LEGALIZER_SPEC,
    SERVICE_SPEC,
    SWEEP_SPEC,
    ConfigVar,
    Range,
    ScenarioSpec,
    format_violations,
)
from repro.scenario.matrix import (
    BASE_OVERRIDDEN,
    MATRIX_EXEMPT,
    matrix_self_check,
    oracle_matrix,
)
from repro.scenario.sweep import SweepOptions, load_axes, run_sweep
from repro.service.protocol import (
    LegalizeRequest,
    LegalizeResponse,
    ProtocolError,
)
from repro.service.server import ServiceConfig


# ----------------------------------------------------------------------
# Spec machinery
# ----------------------------------------------------------------------
class TestConfigVar:
    def test_bool_is_not_int(self):
        var = ConfigVar("n", (int,), 1, "doc", Range(1))
        violation = var.validate(True)
        assert violation is not None and violation.code == "type"

    def test_int_accepted_for_float(self):
        var = ConfigVar("x", (float,), 1.0, "doc", Range(0.0, lo_open=True))
        assert var.validate(3) is None

    def test_string_rejected_for_float(self):
        var = ConfigVar("x", (float,), 1.0, "doc")
        violation = var.validate("1000")
        assert violation is not None and violation.code == "type"
        assert "x" == violation.field

    def test_nullable(self):
        var = ConfigVar("x", (int,), None, "doc", Range(1), nullable=True)
        assert var.validate(None) is None
        assert var.validate(0) is not None
        strict = ConfigVar("x", (int,), 1, "doc")
        assert strict.validate(None) is not None

    def test_range_open_closed(self):
        open_unit = Range(0.0, 1.0, lo_open=True, hi_open=True)
        assert open_unit.check(0.0) is not None
        assert open_unit.check(1.0) is not None
        assert open_unit.check(0.5) is None
        closed = Range(0, 10)
        assert closed.check(0) is None
        assert closed.check(10) is None
        assert closed.check(11) is not None


class TestScenarioSpec:
    def test_unknown_field(self):
        violations = LEGALIZER_SPEC.validate({"bogus_knob": 1})
        assert len(violations) == 1
        assert violations[0].code == "unknown"
        assert "bogus_knob" in str(violations[0])

    def test_defaults_are_valid(self):
        assert LEGALIZER_SPEC.validate({}) == []
        assert LEGALIZER_SPEC.validate(LEGALIZER_SPEC.defaults()) == []

    def test_dataclass_instances_validate(self):
        assert LEGALIZER_SPEC.validate(LegalizerConfig()) == []
        assert SERVICE_SPEC.validate(ServiceConfig()) == []

    def test_self_checks_are_clean(self):
        assert LEGALIZER_SPEC.self_check(LegalizerConfig) == []
        assert SERVICE_SPEC.self_check(ServiceConfig) == []
        assert BENCHGEN_SPEC.self_check() == []
        assert SWEEP_SPEC.self_check() == []

    def test_self_check_catches_drift(self):
        # A spec missing a dataclass field (or with a wrong default)
        # must fail the self-check — this is the new-knob CI gate.
        partial = ScenarioSpec(
            "partial", [ConfigVar("lam", (float,), 999.0, "doc")]
        )
        problems = partial.self_check(LegalizerConfig)
        assert any("beta" in p for p in problems)
        assert any("default mismatch" in p and "lam" in p for p in problems)

    def test_knob_table_lists_every_knob(self):
        table = LEGALIZER_SPEC.knob_table()
        for name in LEGALIZER_SPEC.variables:
            assert f"`{name}`" in table

    @pytest.mark.parametrize(
        "spec", [LEGALIZER_SPEC, SERVICE_SPEC, BENCHGEN_SPEC],
        ids=lambda spec: spec.name,
    )
    def test_configuration_doc_carries_the_knob_table(self, spec):
        # docs/CONFIGURATION.md pastes `repro spec knobs --spec <name>`;
        # regenerate it there whenever a knob changes.
        doc = Path(__file__).resolve().parents[1] / "docs" / "CONFIGURATION.md"
        assert spec.knob_table() in doc.read_text()

    def test_enumerate_valid_prunes_invalid_combos(self):
        points = LEGALIZER_SPEC.enumerate_valid(
            {"shard": [True, False], "beta": [0.5, 1.0]}
        )
        assert {"shard": False, "beta": 1.0} not in points
        assert {"shard": False, "beta": 0.5} in points
        assert len(points) == 2

    def test_enumerate_valid_unknown_axis(self):
        with pytest.raises(ValueError, match="unknown.*axis"):
            LEGALIZER_SPEC.enumerate_valid({"bogus": [1]})

    def test_enumerate_valid_ill_typed_axis_value(self):
        with pytest.raises(ValueError, match="shard"):
            LEGALIZER_SPEC.enumerate_valid({"shard": ["yes"]})

    def test_sweep_spec_prefixes_benchgen(self):
        assert "gen.scale" in SWEEP_SPEC.variables
        assert "shard" in SWEEP_SPEC.variables
        # Domains survive the prefixing.
        assert SWEEP_SPEC.validate({"gen.scale": -1.0}) != []


# A compact value pool per knob, mixing valid and invalid values, for
# the property tests below.
_VALUE_POOL = {
    "shard": [True, False, "yes"],
    "balance_rows": [True, False],
    "lam": [1000.0, 1.0, 0.0, -5.0, "1000"],
    "beta": [0.5, 0.0, 1.0],
    "tol": [1e-6, 0.0],
    "min_shard_variables": [1, 256, 0],
    "max_iterations": [100, 0],
    "kernel_backend": ["reference", "fused", "bogus"],
}


@st.composite
def _override_dicts(draw):
    keys = draw(
        st.lists(
            st.sampled_from(sorted(_VALUE_POOL)), unique=True, max_size=5
        )
    )
    return {k: draw(st.sampled_from(_VALUE_POOL[k])) for k in keys}


class TestProperties:
    @settings(max_examples=60, deadline=None)
    @given(_override_dicts())
    def test_validate_agrees_with_constructor(self, overrides):
        """validate() and LegalizerConfig(**...) accept/reject alike."""
        violations = LEGALIZER_SPEC.validate(overrides)
        if violations:
            with pytest.raises((ValueError, TypeError)):
                LegalizerConfig(**overrides)
        else:
            LegalizerConfig(**overrides)

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.sampled_from(sorted(_VALUE_POOL)), unique=True,
            min_size=1, max_size=4,
        )
    )
    def test_enumerate_valid_never_yields_invalid(self, axis_names):
        """The property the ISSUE names: every enumerated point passes
        validate()."""
        axes = {}
        for name in axis_names:
            values = [
                v
                for v in _VALUE_POOL[name]
                if LEGALIZER_SPEC.var(name).validate(v) is None
                or LEGALIZER_SPEC.var(name).validate(v).code != "type"
            ]
            if values:
                axes[name] = values
        if not axes:
            return
        for point in LEGALIZER_SPEC.enumerate_valid(axes):
            assert LEGALIZER_SPEC.validate(point) == []
            assert set(point) == set(axes)


# ----------------------------------------------------------------------
# The shared three-boundary rejection table
# ----------------------------------------------------------------------
#: Knobs deleted from LegalizerConfig.  A row sending one names the knob
#: as its core: the constructor raises TypeError for the unexpected
#: keyword, the service answers 400 "unknown config fields", and the CLI
#: (whose flag went with the knob) exits 2 with a usage error.
REMOVED_KNOBS = frozenset(
    {
        "parallel", "max_workers", "batch_signature_buckets", "fallback",
        "warm_start", "validate_theorem2", "batch_micro_shards", "gamma",
    }
)
#: Knobs deleted from ServiceConfig: the same three outcomes, with
#: ServiceConfig and ``repro serve`` as the Python and CLI boundaries.
REMOVED_SERVICE_KNOBS = frozenset(
    {
        "merge", "retry_after_seconds", "latency_reservoir",
        "batch_window_seconds",
    }
)
ALL_REMOVED = REMOVED_KNOBS | REMOVED_SERVICE_KNOBS

# (config overrides, expected message core, CLI argv producing the same
# config — None when the combination is not expressible as flags).
INVALID_CONFIGS = [
    pytest.param(
        {"parallel": True}, "parallel",
        ["legalize", "missing.json", "--parallel"],
        id="parallel-removed",
    ),
    pytest.param(
        {"max_workers": 4}, "max_workers",
        ["legalize", "missing.json", "--workers", "4"],
        id="max-workers-removed",
    ),
    pytest.param(
        {"batch_signature_buckets": 8}, "batch_signature_buckets", None,
        id="signature-buckets-removed",
    ),
    pytest.param(
        {"fallback": False}, "fallback",
        ["legalize", "missing.json", "--no-fallback"],
        id="fallback-removed",
    ),
    pytest.param(
        {"warm_start": False}, "warm_start", None, id="warm-start-removed",
    ),
    pytest.param(
        {"validate_theorem2": True}, "validate_theorem2", None,
        id="validate-theorem2-removed",
    ),
    # ``--queue-limit=0`` is a config error, so a parser that still knew
    # ``--no-merge`` would exit before binding a port.
    pytest.param(
        {"merge": False}, "merge",
        ["serve", "--queue-limit=0", "--no-merge"],
        id="merge-removed",
    ),
    # A job starts as soon as a worker is idle, so there is no
    # accumulation window left to set.
    pytest.param(
        {"batch_window_seconds": 0.02}, "batch_window_seconds",
        ["serve", "--queue-limit=0", "--batch-window", "0.02"],
        id="batch-window-removed",
    ),
    # Neither knob ever had a ``repro serve`` flag.
    pytest.param(
        {"retry_after_seconds": 2.0}, "retry_after_seconds", None,
        id="retry-after-removed",
    ),
    pytest.param(
        {"latency_reservoir": 10}, "latency_reservoir", None,
        id="latency-reservoir-removed",
    ),
    pytest.param(
        {"batch_micro_shards": True}, "batch_micro_shards",
        ["legalize", "missing.json", "--batch"],
        id="batch-micro-shards-removed",
    ),
    pytest.param({"gamma": 2.0}, "gamma", None, id="gamma-removed"),
    pytest.param(
        {"lam": 0.0}, "lam: must be > 0",
        ["legalize", "missing.json", "--lam", "0"],
        id="lam-zero",
    ),
    pytest.param({"lam": -1.0}, "lam: must be > 0", None, id="lam-negative"),
    pytest.param(
        {"lam": "1000"}, "lam: must be float", None, id="lam-string"
    ),
    pytest.param({"beta": 0.0}, "beta: must be > 0", None, id="beta-zero"),
    pytest.param({"beta": 1.0}, "beta: must be < 1", None, id="beta-one"),
    pytest.param({"theta": 1.5}, "theta: must be < 1", None, id="theta-big"),
    pytest.param({"tol": 0.0}, "tol: must be > 0", None, id="tol-zero"),
    pytest.param(
        {"max_iterations": 0}, "max_iterations: must be >= 1", None,
        id="iterations-zero",
    ),
    pytest.param(
        {"min_shard_variables": 0}, "min_shard_variables: must be >= 1",
        None, id="msv-zero",
    ),
    pytest.param(
        {"shard": "yes"}, "shard: must be bool", None, id="shard-string"
    ),
    pytest.param(
        {"kernel_backend": "bogus"}, "kernel_backend: must be one of",
        None, id="backend-bogus",
    ),
]


class TestThreeBoundaries:
    """All entry boundaries reject the same configs, same message core."""

    @pytest.mark.parametrize("config,core,cli", INVALID_CONFIGS)
    def test_dataclass_rejects(self, config, core, cli):
        if core in ALL_REMOVED:
            target = (
                ServiceConfig if core in REMOVED_SERVICE_KNOBS
                else LegalizerConfig
            )
            with pytest.raises(TypeError, match=f"keyword argument '{core}'"):
                target(**config)
            return
        with pytest.raises(ValueError) as exc:
            LegalizerConfig(**config)
        assert core in str(exc.value)
        assert "invalid LegalizerConfig" in str(exc.value)

    @pytest.mark.parametrize("config,core,cli", INVALID_CONFIGS)
    def test_protocol_rejects_as_400(self, config, core, cli):
        # Config validation runs before the design parse, so an empty
        # design payload never gets the chance to fail first — and a
        # bad value can never TypeError in the worker thread (500).
        with pytest.raises(ProtocolError) as exc:
            LegalizeRequest.from_dict({"design": {}, "config": config})
        assert core in str(exc.value)
        kind = (
            "unknown config fields" if core in ALL_REMOVED
            else "invalid config"
        )
        assert kind in str(exc.value)

    @pytest.mark.parametrize("config,core,cli", INVALID_CONFIGS)
    def test_cli_exits_2(self, config, core, cli, capsys):
        if cli is None:
            pytest.skip("combination not expressible as CLI flags")
        if core in ALL_REMOVED:
            with pytest.raises(SystemExit) as exc:
                main(cli)
            assert exc.value.code == 2
            unrecognized = " ".join(cli[2:])
            assert f"unrecognized arguments: {unrecognized}" in (
                capsys.readouterr().err
            )
            return
        assert main(cli) == 2
        err = capsys.readouterr().err
        assert core in err
        # Validation precedes input loading: missing.json was never read.
        assert "missing.json" not in err

    def test_valid_configs_still_construct(self):
        LegalizerConfig()
        LegalizerConfig(shard=False)
        LegalizerConfig(residual_tol=None)
        # Fault injection needs no switch: the ladder always runs.
        LegalizerConfig(
            resilience=ResilienceConfig(inject={"*": ("mmsim",)})
        )

    def test_protocol_rejects_non_string_config_keys(self):
        with pytest.raises(ProtocolError, match="strings"):
            LegalizeRequest.from_dict({"design": {}, "config": {1: True}})


class TestServiceConfigBoundary:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError, match="queue_limit"):
            ServiceConfig(queue_limit=0)
        with pytest.raises(ValueError, match="workers"):
            ServiceConfig(workers=0)
        with pytest.raises(ValueError, match="port"):
            ServiceConfig(port=70000)
        with pytest.raises(ValueError, match="max_batch"):
            ServiceConfig(max_batch=0)

    def test_cli_serve_exits_2(self, capsys):
        assert main(["serve", "--queue-limit", "0"]) == 2
        assert "queue_limit: must be >= 1" in capsys.readouterr().err
        assert main(["serve", "--workers", "0"]) == 2
        assert "workers" in capsys.readouterr().err

    def test_cli_gen_exits_2(self, tmp_path, capsys):
        out = str(tmp_path / "x.json")
        assert main(["gen", "fft_2", out, "--scale", "-1"]) == 2
        assert "scale: must be > 0" in capsys.readouterr().err
        assert not (tmp_path / "x.json").exists()


class TestResponseValidation:
    def _payload(self, **overrides):
        payload = LegalizeResponse(
            ok=True, key="k", design_name="d"
        ).to_dict()
        payload.update(overrides)
        return payload

    def test_round_trip(self):
        resp = LegalizeResponse(ok=True, key="k", design_name="d")
        assert LegalizeResponse.from_dict(resp.to_dict()) == resp

    @pytest.mark.parametrize(
        "field,value",
        [
            ("ok", "yes"),
            ("iterations", "12"),
            ("iterations", True),
            ("iterations", -1),
            ("num_illegal", -3),
            ("runtime_seconds", "fast"),
            ("stage_seconds", [1, 2]),
            ("positions", {"a": 1}),
            ("key", 7),
        ],
    )
    def test_rejects_wrong_shapes(self, field, value):
        with pytest.raises(ProtocolError) as exc:
            LegalizeResponse.from_dict(self._payload(**{field: value}))
        assert field in str(exc.value)

    def test_missing_required_field(self):
        payload = self._payload()
        del payload["ok"]
        with pytest.raises(ProtocolError, match="'ok'"):
            LegalizeResponse.from_dict(payload)


# ----------------------------------------------------------------------
# The spec-generated fuzz-oracle matrix
# ----------------------------------------------------------------------
class TestOracleMatrix:
    def test_self_check_clean(self):
        assert matrix_self_check() == []

    def test_baseline_first_and_names(self):
        matrix = oracle_matrix()
        assert matrix[0].name == "baseline"
        assert matrix[0].overrides == {}
        names = [p.name for p in matrix]
        for expected in (
            "merged_shards", "monolithic", "inject_safe",
            "inject_psor", "inject_lemke", "fused_kernel", "reuse",
            "fence_slices",
        ):
            assert expected in names
        assert len(names) == len(set(names))

    def test_matches_live_oracle_list(self):
        from repro.fuzz.oracle import OracleOptions, oracle_configs

        live = oracle_configs(OracleOptions())
        matrix = oracle_matrix()
        assert [(p.name, p.group) for p in matrix] == [
            (n, g) for n, _, g in live
        ]
        assert len(live) == 9
        assert "batch" not in [n for n, _, _ in live]

    def test_every_point_is_spec_valid(self):
        for point in oracle_matrix():
            assert LEGALIZER_SPEC.validate(dict(point.overrides)) == [], (
                point.name
            )

    def test_new_knob_coverage_gate(self):
        covered = BASE_OVERRIDDEN | set(MATRIX_EXEMPT)
        for point in oracle_matrix():
            covered |= set(point.overrides)
        assert set(LEGALIZER_SPEC.variables) <= covered


# ----------------------------------------------------------------------
# repro sweep
# ----------------------------------------------------------------------
class TestSweep:
    def test_load_axes_json(self, tmp_path):
        path = tmp_path / "axes.json"
        path.write_text('{"shard": [true, false]}')
        assert load_axes(str(path)) == {"shard": [True, False]}

    def test_load_axes_yaml(self, tmp_path):
        yaml = pytest.importorskip("yaml")
        del yaml
        path = tmp_path / "axes.yaml"
        path.write_text(
            "shard: [true, false]\nbalance_rows: [false]\n"
        )
        assert load_axes(str(path)) == {
            "shard": [True, False], "balance_rows": [False]
        }

    def test_load_axes_rejects_non_mapping(self, tmp_path):
        path = tmp_path / "axes.json"
        path.write_text("[1, 2]")
        with pytest.raises(ValueError, match="mapping"):
            load_axes(str(path))

    def test_dry_run_plans_only_valid_points(self, tmp_path):
        out = tmp_path / "report.jsonl"
        summary = run_sweep(
            {"shard": [True, False], "beta": [0.5, 1.0], "tol": [1e-3]},
            SweepOptions(dry_run=True, out=str(out)),
        )
        assert summary.lattice_size == 4
        assert summary.valid_points == 2
        assert summary.planned == 2
        records = [json.loads(l) for l in out.read_text().splitlines()]
        assert records[0]["record"] == "campaign"
        assert records[0]["dry_run"] is True
        points = [r for r in records if r["record"] == "point"]
        assert len(points) == 2
        assert all(r["status"] == "planned" for r in points)
        assert all(r["overrides"]["beta"] == 0.5 for r in points)

    def test_unknown_axis_raises(self):
        with pytest.raises(ValueError, match="unknown"):
            run_sweep({"bogus": [1]}, SweepOptions(dry_run=True))

    def test_campaign_end_to_end(self, tmp_path):
        """A >= 4-point campaign writes one telemetry-backed record per
        valid point (the ISSUE's acceptance criterion)."""
        axes_path = tmp_path / "axes.json"
        axes_path.write_text(
            '{"enforce_right_boundary": [true, false], '
            '"shard": [true, false]}'
        )
        out = tmp_path / "report.jsonl"
        code = main([
            "sweep", str(axes_path), "--scale", "0.004",
            "--out", str(out), "--quiet",
        ])
        assert code == 0
        records = [json.loads(l) for l in out.read_text().splitlines()]
        header, points = records[0], records[1:]
        assert header["record"] == "campaign"
        assert header["valid_points"] == 4
        assert len(points) == 4
        for record in points:
            assert record["status"] == "ok"
            assert record["result"]["converged"] is True
            assert record["result"]["audit_clean"] is True
            assert record["telemetry"]["metrics"]
            assert record["telemetry"]["solver_iterations"]

    def test_cli_sweep_bad_axes_exits_2(self, tmp_path, capsys):
        axes_path = tmp_path / "axes.json"
        axes_path.write_text('{"bogus_axis": [1]}')
        assert main(["sweep", str(axes_path), "--dry-run"]) == 2
        assert "bogus_axis" in capsys.readouterr().err

    def test_cli_sweep_all_invalid_exits_2(self, tmp_path, capsys):
        axes_path = tmp_path / "axes.json"
        axes_path.write_text(
            '{"shard": [false], "beta": [1.0]}'
        )
        assert main(["sweep", str(axes_path), "--dry-run"]) == 2
        assert "no valid points" in capsys.readouterr().err

    def test_spec_check_command(self, capsys):
        assert main(["spec", "check"]) == 0
        out = capsys.readouterr().out
        assert "spec check: ok" in out
        assert "(12 legalizer + 9 service + 6 benchgen knobs" in out
        assert f"{len(oracle_matrix())}-point oracle matrix" in out
        assert "constraint" not in out

    def test_spec_knobs_command(self, capsys):
        assert main(["spec", "knobs", "--spec", "legalizer"]) == 0
        out = capsys.readouterr().out
        assert "`kernel_backend`" in out
        assert "`batch_micro_shards`" not in out
        assert "`gamma`" not in out
        assert "## constraints" not in out


def test_violation_message_is_field_prefixed():
    violations = LEGALIZER_SPEC.validate({"lam": 0.0})
    assert format_violations(violations).startswith("lam: ")
