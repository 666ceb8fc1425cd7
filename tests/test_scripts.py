"""Smoke runs of the experiment scripts under scripts/."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env,
    )


def test_rk4_convergence_reports_fourth_order():
    proc = run_script("rk4_convergence.py", "--halvings", "2", "--t-end", "0.5")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().split("\n")
    assert len(lines) == 3  # header + one row per step width
    order = float(lines[-1].split()[-1])
    assert 3.5 <= order <= 4.5


def test_discrepancy_study_writes_every_variant_trace(tmp_path):
    proc = run_script("discrepancy_study.py", "--t-end", "0.2",
                      "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert "== skewed frame" in proc.stdout
    for variant in ("Corrected", "SimPaper", "McPaper", "StageConsistent"):
        assert (tmp_path / f"study_{variant}.csv").exists()
