"""Smoke test of the scaling script at its smallest size (timings are not gated)."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_scaling_script_writes_its_schema(tmp_path):
    out = tmp_path / "bench.json"
    subprocess.run(
        [sys.executable, str(ROOT / "tools" / "scaling.py"), "--sizes", "2x2", "--repeat", "1", "--out", str(out)],
        check=True,
        capture_output=True,
        timeout=120,
    )
    report = json.loads(out.read_text())
    assert report["schema"] == "symcond-scaling/1"
    assert report["commands"] == ["run", "theorems"]
    assert {"python", "numpy", "blas", "blas_threads", "nproc", "cpu"} <= set(report["fingerprint"])
    (case,) = report["sides"]["change"]["cases"]
    assert (case["dim_s"], case["dim_a"], case["n"]) == (2, 2, 4)
    for command in ("run", "theorems"):
        entry = case[command]
        assert entry["exit"] == [0]
        assert entry["peak_rss_bytes_per_n2"] == round(entry["peak_rss_mb_max"] * 2**20 / 16, 1)
        assert entry["wall_s_median"] > 0 and entry["peak_rss_mb_max"] > 0
        (sample,) = entry["samples"]
        assert len(sample["stdout_sha256"]) == 64
    selftest = report["sides"]["change"]["selftest"]
    assert report["selftest_seeds"] == [entry["seed"] for entry in selftest] == [0, 1, 2, 3, 4]
    for entry in selftest:
        assert entry["exit"] == [0] and entry["wall_s_median"] > 0 and len(entry["stdout_sha256"]) == 1
        assert entry["compute_s_median"] == entry["compute_s"][0] < entry["wall_s_median"]
    comparison = report["comparison"]
    assert comparison["selftest_wall_ratio"] == comparison["selftest_compute_ratio"] == {"change": 1.0}
    assert set(comparison["stdout_sha256"]) == {"2x2 run", "2x2 theorems"} | {f"seed {s} selftest" for s in range(5)}


def test_a_child_too_large_for_the_address_space_limit_fails_alone():
    # numpy.empty reserves without touching, so even without the limit this
    # child would commit no memory; under it the reservation itself fails.
    sys.path.insert(0, str(ROOT / "tools"))
    import scaling

    argv = [sys.executable, "-c", f"import numpy; numpy.empty({scaling.CHILD_ADDRESS_SPACE}, numpy.uint8)"]
    assert scaling.timed_run(argv, dict(os.environ))["exit"] != 0


def test_sweep_leg_records_each_format_per_side():
    # The sweep leg at its smallest grid: one entry per (points, format)
    # with the same summary fields as the JC cases, and one stdout digest
    # per (points, format) in the comparison.
    sys.path.insert(0, str(ROOT / "tools"))
    import scaling

    sides = {"change": ROOT / "src"}
    env = dict(os.environ, **{var: "1" for var in scaling.BLAS_VARS})
    sweep = scaling.sweep_leg(sides, env, repeat=1, points=(2,))
    assert [(e["points"], e["rows"], e["format"]) for e in sweep["change"]] == [(2, 4, "csv"), (2, 4, "json")]
    for entry in sweep["change"]:
        assert entry["exit"] == [0] and entry["wall_s_median"] > 0 and entry["peak_rss_mb_max"] > 0
    selftest = [{"seed": 0, "stdout_sha256": ["0" * 64], "wall_s_median": 1.0, "compute_s_median": 0.5}]
    comparison = scaling.comparison({"change": {"cases": [], "sweep": sweep["change"], "selftest": selftest}})
    assert set(comparison["stdout_sha256"]) == {"sweep 2 csv", "sweep 2 json", "seed 0 selftest"}
    assert comparison["sweep"]["2 csv"]["change"]["wall_ratio"] == 1.0
