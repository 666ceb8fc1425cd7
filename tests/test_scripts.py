"""Smoke runs of the experiment scripts under scripts/."""

import errno
import hashlib
import importlib.util
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

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


@pytest.mark.parametrize("args, message", [
    (("--dt0", "-1"), "halving 1, dt -1: dt must be > 0"),
    (("--dt0", "nan"), "halving 1, dt nan: dt must be > 0"),
    (("--dt0", "1e-7"), "halving 1, dt 1e-07: t-end / dt must be <= "
                        "1000000 steps, got 5e+07"),
    (("--t-end", "-1"), "halving 1, dt 0.01: t-end must be >= 0"),
    # the defaults' 12th halving is over the cap; the 11 before it are not
    (("--halvings", "12"), "halving 12, dt 4.88281e-06: t-end / dt must be "
                           "<= 1000000 steps, got 1.024e+06"),
    (("--halvings", "0"), "--halvings must be >= 1"),
    (("--halvings", "-3"), "--halvings must be >= 1"),
], ids=["dt0-negative", "dt0-nan", "dt0-over-cap", "t-end-negative",
        "halvings-over-cap", "halvings-zero", "halvings-negative"])
def test_rk4_convergence_rejects_a_bad_grid_before_any_run(args, message):
    proc = run_script("rk4_convergence.py", *args)
    assert proc.returncode == 2
    assert proc.stderr == f"rk4_convergence.py: {message}\n"
    assert "Traceback" not in proc.stderr
    # not even the header: it stops before computing anything
    assert proc.stdout == ""


@pytest.mark.parametrize("args, message", [
    (("--dt", "0"), "dt must be > 0"),
    (("--dt", "nan"), "dt must be > 0"),
    (("--t-end", "0"), "t-end must be > 0"),
    (("--t-end", "1e9"), "t-end / dt must be <= 1000000 steps, got 1e+12"),
], ids=["dt-zero", "dt-nan", "t-end-zero", "t-end-over-cap"])
def test_discrepancy_study_rejects_a_bad_grid_before_any_run(
    tmp_path, args, message
):
    out = tmp_path / "study"
    proc = run_script("discrepancy_study.py", *args, "--out", str(out))
    assert proc.returncode == 2
    assert proc.stderr == f"discrepancy_study.py: {message}\n"
    # not even the header, and no output directory
    assert proc.stdout == ""
    assert not out.exists()


# SHA-256 of the study CSVs at --t-end 0.2, as written when the script ran
# every variant's closed loop; SimPaper shares StageConsistent's torque law.
STUDY_SHA256 = {
    "Corrected": "1c2540255868d90192b8d9f52140760b578c19a1a055bebb88f680b513fb2865",
    "McPaper": "d6bd68c8fee5c25f3faa145dcbb758e0c534c6e22011f00cf0f6e8053856c105",
    "StageConsistent":
        "da466c2b5f88e034452d96a35974b9cb32bd73f58b08e6981c0d23e6c6de81c8",
}


# SHA-256 of the study's stdout at --t-end 0.2 without --out: both tables
STUDY_STDOUT_SHA256 = (
    "0d0c6364ff9ead907163aea0fb9a8ad40a1020084a7c496a92f953bd278b4133")

# the order in which the study writes its CSVs, ControllerVariant's
STUDY_CSV_ORDER = ("Corrected", "SimPaper", "McPaper", "StageConsistent")


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def test_discrepancy_study_writes_every_variant_trace(tmp_path):
    proc = run_script("discrepancy_study.py", "--t-end", "0.2",
                      "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    # the tables, as without --out, then one line per CSV
    wrote = "".join(f"wrote {tmp_path / f'study_{variant}.csv'}\n"
                    for variant in STUDY_CSV_ORDER)
    assert proc.stdout.endswith(wrote)
    assert _sha256(proc.stdout[:-len(wrote)]) == STUDY_STDOUT_SHA256
    csv = {variant: (tmp_path / f"study_{variant}.csv").read_bytes()
           for variant in STUDY_CSV_ORDER}
    assert csv["SimPaper"] == csv["StageConsistent"]
    assert {variant: hashlib.sha256(csv[variant]).hexdigest()
            for variant in STUDY_SHA256} == STUDY_SHA256


def _load_study():
    """scripts/discrepancy_study.py as a module, to run its ``main`` here."""
    spec = importlib.util.spec_from_file_location(
        "discrepancy_study", ROOT / "scripts" / "discrepancy_study.py")
    study = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(study)
    return study


@pytest.mark.parametrize("out", [False, True], ids=["no-out", "out"])
def test_discrepancy_study_runs_each_torque_law_once_per_frame(
    tmp_path, monkeypatch, capsys, out
):
    import microinject.sim as sim
    from microinject.control import ControllerVariant

    study = _load_study()
    build, lane = sim.torque_law, sim._lane
    ran = []

    class Tagged(sim.TorqueLaw):
        """A torque law that names the variant and frame it was built for."""

    def tagging_build(variant, masses, frame):
        law = Tagged(*build(variant, masses, frame))
        law.run = variant, frame
        return law

    def recording_lane(law, *args):
        ran.append(law.run)
        return lane(law, *args)

    monkeypatch.setattr(sim, "torque_law", tagging_build)
    monkeypatch.setattr(sim, "_lane", recording_lane)
    monkeypatch.setattr(sys, "argv", [
        "discrepancy_study.py", "--t-end", "0.2",
        *(["--out", str(tmp_path)] if out else [])])
    assert study.main() == 0
    # one closed loop per torque law and frame; SimPaper shares
    # StageConsistent's law, whose run writes its CSV too; on the identity frame
    # Corrected shares it too
    assert len(ran) == 5
    assert Counter(v for v, frame in ran if frame is study.SKEWED) == {
        ControllerVariant.STAGE_CONSISTENT: 1, ControllerVariant.CORRECTED: 1,
        ControllerVariant.MC_PAPER: 1}
    assert Counter(v for v, frame in ran if frame is study.IDENTITY) == {
        ControllerVariant.STAGE_CONSISTENT: 1, ControllerVariant.MC_PAPER: 1}
    # the tables, as pinned; with --out the "wrote" lines follow them
    assert _sha256(capsys.readouterr().out.split("wrote ")[0]) == (
        STUDY_STDOUT_SHA256)
    if out:
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            f"study_{variant}.csv" for variant in STUDY_CSV_ORDER)


@pytest.mark.parametrize("variant", ["StageConsistent", "Corrected",
                                     "SimPaper", "McPaper"])
def test_discrepancy_study_exits_2_on_a_csv_it_cannot_write(tmp_path, variant):
    blocked = tmp_path / f"study_{variant}.csv"
    blocked.mkdir()
    proc = run_script("discrepancy_study.py", "--t-end", "0.1",
                      "--out", str(tmp_path))
    assert proc.returncode == 2
    assert proc.stderr == (
        f"discrepancy_study.py: cannot write {blocked}: Is a directory\n")
    assert "Traceback" not in proc.stderr
    # no table and no "wrote" line: the study failed before printing
    assert proc.stdout == ""
    # no other study CSV is left, written or half written
    assert [p.name for p in tmp_path.iterdir()] == [blocked.name]


@pytest.mark.parametrize("variant", ["StageConsistent", "Corrected",
                                     "SimPaper", "McPaper"])
def test_discrepancy_study_leaves_no_partial_csv_when_a_write_fails(
    tmp_path, variant,
):
    # every write to /dev/full fails, so the walk stops at that run's first
    # block: the first run's CSV, the second's, or the one that shares the
    # first run's law.  The path that failed is named and left as it was,
    # and every other study CSV, opened before the walk, is removed
    if not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full on this system")
    blocked = tmp_path / f"study_{variant}.csv"
    blocked.symlink_to("/dev/full")
    proc = run_script("discrepancy_study.py", "--t-end", "0.1",
                      "--out", str(tmp_path))
    assert proc.returncode == 2
    assert proc.stderr == (
        f"discrepancy_study.py: cannot write {blocked}: "
        f"{os.strerror(errno.ENOSPC)}\n")
    assert proc.stdout == ""
    assert os.readlink(blocked) == "/dev/full"
    assert [p.name for p in tmp_path.iterdir()] == [blocked.name]


def test_discrepancy_study_leaves_nothing_when_a_write_to_its_file_fails(
    tmp_path, monkeypatch, capsys,
):
    # the 4th write to the disk of study_Corrected.csv, a regular file the
    # study created, fails as a full disk does, mid-run: the half-written
    # file is removed with every other study CSV
    from test_report import fail_writes_to

    study = _load_study()
    fail_writes_to(monkeypatch, "study_Corrected.csv")
    monkeypatch.setattr(sys, "argv", [
        "discrepancy_study.py", "--t-end", "0.5", "--out", str(tmp_path)])
    with pytest.raises(SystemExit) as exited:
        study.main()
    assert exited.value.code == 2
    captured = capsys.readouterr()
    assert captured.err == (
        f"discrepancy_study.py: cannot write {tmp_path / 'study_Corrected.csv'}"
        f": {os.strerror(errno.ENOSPC)}\n")
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


def test_discrepancy_study_rejects_an_out_path_that_is_a_file(tmp_path):
    taken = tmp_path / "taken"
    taken.write_text("not a directory")
    proc = run_script("discrepancy_study.py", "--t-end", "0.1",
                      "--out", str(taken))
    assert proc.returncode == 2
    assert proc.stderr.startswith(
        "discrepancy_study.py: cannot create output dir: ")
    assert "Traceback" not in proc.stderr
    # it stops before computing anything
    assert proc.stdout == ""
    assert taken.read_text() == "not a directory"
