"""Tests of the benchmark harness itself (about a minute):

    python3 -m pytest perfbench -q
"""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import run  # noqa: E402
from checks import judge  # noqa: E402
from job import _write_report, oracle_job  # noqa: E402

EXACT_COUNTS = ("spectral.index_steps", "propagator.solve_calls",
                "coefficients.kernel_matrix_calls", "kernels.semigroup_calls",
                "feynman_kac.path_steps", "streams.substreams")

TINY = {
    "default_seed": 7, "threads": 2, "probes": "0.5,0.0", "setup_samples": 1,
    "workloads": {"tiny": [
        {"name": "chaos", "cli": "chaos", "checks": 1,
         "config": {"truncation.N": 2, "truncation.J": 2}},
        {"name": "derivative", "cli": "derivative", "checks": 1,
         "config": {"truncation.N": 2, "truncation.J": 2, "quadrature.panels": 8}},
        {"name": "fk", "cli": "fk", "checks": 4,
         "config": {"mc.n_paths": 200, "mc.n_noise": 10, "mc.dt": 0.01}},
        {"name": "oracle", "library": "oracle", "checks": 1,
         "params": {"N": 2, "J": 2, "dt": 0.05, "dx": 0.1, "t": 0.5, "x": 0.0,
                    "panels": 8}},
    ]},
}


def test_exact_counts_repeat_across_traced_runs():
    first = run.run_workload("tiny", TINY, 7, 1.0, trace=True)
    second = run.run_workload("tiny", TINY, 7, 1.0, trace=True)
    for name in EXACT_COUNTS:
        assert first["per_layer"][name] > 0, name
        assert first["per_layer"][name] == second["per_layer"][name], name
    # tracing must not change a single emitted byte
    assert not [p for p in first["problems"] if "differ" in p], first["problems"]
    assert "trace.overhead_s" in first["per_layer"]


def _fake_report(out: Path, name: str, checks):
    out.mkdir(parents=True)
    art = out / "values.csv"
    art.write_text("a\n1\n")
    _write_report(out, name, {"seed": 1}, [art], checks)


def test_exit_code_mapping(tmp_path):
    spec = {"name": "j", "checks": 3}
    _fake_report(tmp_path / "pass", "j", [("a", True, ""), ("b", True, ""), ("c", True, "")])
    _fake_report(tmp_path / "fail", "j", [("a", True, ""), ("b", False, "x, y"),
                                          ("slope_u_time", False, "")])
    ok = judge(0, tmp_path / "pass", "j")
    some_failed = judge(1, tmp_path / "fail", "j")
    crashed = judge(1, tmp_path / "missing", "j")      # traceback: exit 1, no report
    config_error = judge(2, tmp_path / "pass", "j")
    assert (ok["ok"], ok["checks"], ok["failed_checks"]) == (True, 3, 0)
    # failed checks of an exit-1 job are counted, not treated as harness errors
    assert (some_failed["checks"], some_failed["failed_checks"]) == (3, 2)
    assert some_failed["problems"] == ["check b failed"]  # slope_u_time is a red target
    assert not crashed["ok"] and not config_error["ok"]
    runs = [[ok], [some_failed], [crashed], [config_error]]
    assert run.count_checks([spec], runs) == (12, 2 + 3 + 3)
    # exit 0 with a failing check, or a tampered artifact, is not correct
    assert not judge(0, tmp_path / "fail", "j")["ok"]
    (tmp_path / "pass" / "values.csv").write_text("a\n2\n")
    assert judge(0, tmp_path / "pass", "j")["problems"] == [
        "values.csv: sha256 differs from the report"]


@pytest.mark.parametrize("dt, dx, passed", [(0.005, 0.025, True), (0.1, 0.4, False)])
def test_oracle_job_counts_one_check(tmp_path, dt, dx, passed):
    params = {"N": 2, "J": 2, "dt": dt, "dx": dx, "t": 0.5, "x": 0.0, "panels": 48}
    assert oracle_job(params, tmp_path) is passed
    res = judge(0 if passed else 1, tmp_path, "oracle")
    assert (res["checks"], res["failed_checks"], res["ok"]) == (1, 0 if passed else 1, passed)
