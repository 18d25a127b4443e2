"""Demos run end to end against the sources, in a fresh interpreter."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_feynman_kac_sampling_demo_runs(tmp_path):
    # simulate_path, local_time, psi_sample, sample_noise, fk_conditional_estimate
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / "04_feynman_kac_sampling.py")],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr


def test_regularity_slopes_demo_runs(tmp_path):
    # exact_increment_curve for u and dx u, in space and in time, at chain
    # orders 1-4 (the Sobol rule at 3-4), and the local-time temporal law
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / "06_regularity_slopes.py")],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
