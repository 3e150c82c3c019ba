"""Percentile, spread and comparison arithmetic."""

import json
import statistics

import pytest

from perfbench import compare, stats


def test_quartiles_are_statistics_quantiles():
    values = [3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.0, 6.0, 5.5, 3.5]
    assert stats.quartiles(values) == tuple(statistics.quantiles(values, n=4))


def test_spread_is_iqr_over_median():
    values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    assert stats.spread(values) == pytest.approx((q3 - q1) / q2)
    assert stats.spread([2.0] * 10) == 0.0


def test_p90_needs_a_hundred_samples():
    with pytest.raises(ValueError):
        stats.p90([1.0] * 99)
    values = list(range(1, 101))
    assert stats.p90(values) == statistics.quantiles(values, n=10)[8]


def test_worsening_follows_the_metric_direction():
    assert stats.worsening(10.0, 11.0, "lower") == pytest.approx(0.1)
    assert stats.worsening(10.0, 11.0, "higher") == pytest.approx(-0.1)
    assert stats.worsening(10.0, 9.0, "higher") == pytest.approx(0.1)
    with pytest.raises(ValueError):
        stats.worsening(0.0, 1.0, "lower")


def test_verdicts():
    base = [10.0, 10.1, 9.9, 10.0, 10.05, 9.95, 10.0, 10.02, 9.98, 10.0]
    assert stats.verdict(base, base, "lower", 0.05)["verdict"] == "ok"
    slower = [v * 1.2 for v in base]
    assert stats.verdict(base, slower, "lower", 0.05)["verdict"] == "worse"
    noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
    assert stats.verdict(base, noisy, "lower", 0.05)["verdict"] == "unresolved"
    faster = [v * 0.3 for v in noisy]
    assert stats.verdict(noisy, faster, "lower", 0.05)["verdict"] == "better"


def write_reports(directory, name, values, fingerprint="f"):
    for seed, value in enumerate(values, start=1):
        report = {
            "workload": "w", "seed": seed, "trace": 0, "correct": True,
            "fingerprint": f"{fingerprint}{seed}",
            "metrics": {name: {"value": value, "unit": "s"}},
        }
        (directory / f"w-seed{seed}.json").write_text(json.dumps(report))


@pytest.fixture
def spec(tmp_path):
    path = tmp_path / "BENCHMARK.json"
    path.write_text(json.dumps({"end_to_end": [
        {"name": "latency_p50_s", "unit": "s", "better": "lower", "bound": 0.1},
    ]}))
    return str(path)


def test_compare_accepts_an_a_a_pair(tmp_path, spec):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir(), b.mkdir()
    write_reports(a, "latency_p50_s", [1.0, 1.01, 0.99, 1.0, 1.02])
    write_reports(b, "latency_p50_s", [1.01, 1.0, 0.98, 1.0, 1.01])
    assert compare.main([str(a), str(b), "--spec", spec]) == 0


def test_compare_flags_a_regression(tmp_path, spec):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir(), b.mkdir()
    write_reports(a, "latency_p50_s", [1.0, 1.01, 0.99, 1.0, 1.02])
    write_reports(b, "latency_p50_s", [1.2, 1.21, 1.19, 1.2, 1.22])
    assert compare.main([str(a), str(b), "--spec", spec]) == 1


def test_compare_refuses_different_inputs(tmp_path, spec):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir(), b.mkdir()
    write_reports(a, "latency_p50_s", [1.0, 1.01, 0.99])
    write_reports(b, "latency_p50_s", [1.0, 1.01, 0.99], fingerprint="g")
    assert compare.main([str(a), str(b), "--spec", spec]) == 2
