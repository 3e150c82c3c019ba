"""Scaling of timings to the reference machine speed."""

import pytest

from perfbench import speed, stats


def test_kernel_takes_measurable_time():
    assert speed.kernel_seconds() > 0.0
    assert speed.idle_kernel_seconds(runs=3) > 0.0


def test_end_to_end_scales_each_timing_by_its_kernel():
    ref = speed.REFERENCE_SECONDS
    latencies = [0.1 * (1 + i % 7) for i in range(stats.MIN_TAIL_SAMPLES)]
    slow = [2.0 * ref] * len(latencies)       # machine at half speed
    setups = [(1.0, 2.0 * ref), (1.2, 2.0 * ref), (0.8, ref)]
    out = speed.end_to_end(latencies, slow, 10.0, setups, 123.0, 5, 80.0)
    metrics, raw = out["metrics"], out["raw"]
    assert metrics["latency_p50_s"][0] == pytest.approx(stats.p50(latencies) / 2)
    assert metrics["latency_p90_s"][0] == pytest.approx(stats.p90(latencies) / 2)
    assert metrics["throughput_rps"][0] == pytest.approx(len(latencies) / 10.0 * 2)
    assert metrics["setup_s"][0] == pytest.approx(0.6)   # median of 0.5, 0.6, 0.8
    assert raw["latency_p50_s"] == stats.p50(latencies)
    assert raw["setup_s"] == 1.0
    assert metrics["displacement_sites"] == (123.0, 5)
    assert metrics["peak_rss_mb"] == (80.0, 1)


def test_end_to_end_leaves_out_an_undersampled_tail():
    out = speed.end_to_end([0.1] * 10, [speed.REFERENCE_SECONDS] * 10, 1.0,
                           [(1.0, speed.REFERENCE_SECONDS)], 1.0, 1, 1.0)
    assert out["metrics"]["latency_p90_s"] is None
    assert out["metrics"]["latency_p50_s"] == (0.1, 10)
