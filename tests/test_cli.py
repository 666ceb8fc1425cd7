import contextlib
import errno
import functools
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from memprobe import child_peak_rss, traced_peak
from test_cli_fuzz import FUZZ

SRC = Path(__file__).resolve().parent.parent / "src"

TRACE_HEADER = "t,x,y,xdot,ydot,xd,yd,fex,fey,taux,tauy,taux_oracle,tauy_oracle"
FREE_HEADER = "t,x_closed,y_closed,x_rk4,y_rk4,err_x,err_y"


def run_cli(*args, env_extra=None):
    # the subprocess imports the package from this checkout's src/, as the
    # test process does
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "microinject", *args],
        capture_output=True, text=True, env=env,
    )


def write_config(path, **overrides):
    doc = {
        "frame": {"alpha": 0.0, "dx": 1.0, "dy": 1.0, "fx": 1.0, "fy": 1.0},
        "masses": {"mx": 1.0, "my": 1.0, "mp": 1.0},
        "impedance": {"m": 1.0, "b": 20.0, "k": 100.0},
        "trajectory": {
            "kind": "Quintic",
            "start": [0.0, 0.0],
            "end": [1.5, 0.0],
            "duration": 0.4,
        },
        "membrane": {"stiffness": 50.0, "damping": 2.0, "contact_x": 1.0},
        "fed": [0.5, 0.0],
        "run": {"t_end": 0.5, "dt": 0.001, "variants": ["StageConsistent"]},
        "seed": 0,
    }
    doc.update(overrides)
    path.write_text(json.dumps(doc))
    return path


class TestVerifyCommand:
    def test_frames_suite_passes(self):
        proc = run_cli("verify", "--suite", "frames", "--trials", "300",
                       "--seed", "42")
        assert proc.returncode == 0
        assert "[PASS] frames.composition" in proc.stdout
        assert "all properties passed" in proc.stdout

    def test_discrepancy_suite_reports_separations(self):
        proc = run_cli("verify", "--suite", "discrepancy", "--trials", "300")
        assert proc.returncode == 0
        assert "missing_transform_gap" in proc.stdout
        assert "force_substitution_identity" in proc.stdout
        assert "gap range" in proc.stdout

    def test_unknown_suite_is_usage_error(self):
        proc = run_cli("verify", "--suite", "bogus")
        assert proc.returncode == 2
        assert "usage" in proc.stderr

    def test_bad_trials_is_usage_error(self):
        proc = run_cli("verify", "--suite", "frames", "--trials", "0")
        assert proc.returncode == 2

    @staticmethod
    def _run_with_suites_stubbed(monkeypatch, suite, trials):
        from microinject import cli

        calls = []

        def record(name, seed, n):
            calls.append((name, seed, n))
            return []

        monkeypatch.setattr(cli, "run_suite", record)
        return cli.main(["verify", "--suite", suite, "--trials", trials]), calls

    @pytest.mark.parametrize("suite", ["frames", "all"])
    def test_trials_over_cap_exits_2_before_any_suite_runs(
        self, monkeypatch, capsys, suite,
    ):
        from microinject.verify import MAX_TRIALS

        code, calls = self._run_with_suites_stubbed(
            monkeypatch, suite, str(MAX_TRIALS + 1))
        assert code == 2
        assert calls == []
        assert f"--trials must be <= {MAX_TRIALS}" in capsys.readouterr().err

    def test_trials_at_cap_reaches_the_suite(self, monkeypatch):
        from microinject.verify import MAX_TRIALS

        code, calls = self._run_with_suites_stubbed(
            monkeypatch, "frames", str(MAX_TRIALS))
        assert code == 0
        assert calls == [("frames", 0, MAX_TRIALS)]

    def test_info_log_times_each_suite_and_keeps_stdout(self):
        args = ("verify", "--suite", "all", "--trials", "25", "--seed", "3")
        quiet = run_cli(*args)
        chatty = run_cli(*args, env_extra={"MICROINJECT_LOG": "info"})
        assert quiet.returncode == chatty.returncode == 0
        assert chatty.stdout == quiet.stdout
        assert quiet.stderr == ""
        timed = re.findall(r"^INFO suite (\w+) took \d+\.\d{3} s$",
                           chatty.stderr, re.MULTILINE)
        assert timed == ["frames", "dynamics", "implication", "discrepancy"]
        one = run_cli("verify", "--suite", "dynamics", "--trials", "25",
                      env_extra={"MICROINJECT_LOG": "info"})
        assert re.findall(r"^INFO suite (\w+) took", one.stderr,
                          re.MULTILINE) == ["dynamics"]


ALL_VARIANTS = ("Corrected", "SimPaper", "McPaper", "StageConsistent")

# SHA-256 of every artifact of the all-variants scenario below.  Code changes
# that are not meant to change output must reproduce these bytes exactly;
# update a digest only together with an intended change of output.
ALL_VARIANTS_SHA256 = {
    "metrics.json": "4293ca54c48da2ee6d1f46f614d0926aa88189d5bc4540817bcdc6e017cfe921",
    "plot_Corrected.svg": "736104e61308b70a9d79039e6ae73cae0623d4e2efd55f885eca3dc3b32cd0a4",
    "plot_McPaper.svg": "ef2ac14f975936432eea38878ff4f53b3c8620980ce42ba69c6241f98fe32123",
    "plot_SimPaper.svg": "07a19ba605f61d5f19fa27574fa98458be4d33bc1bffccf36ba4a926aed23f89",
    "plot_StageConsistent.svg": "31377c46dec42f63d3ceb6e014125b274885abf73be8c8eadcfef886c068600c",
    "trace_Corrected.csv": "cbef13e1a880f38cd666b3531730bce60d4c95350cbad689efccaf87b5a8cfbd",
    "trace_McPaper.csv": "73673c3cb846491104975bbb13e6adaae59bbef3c53ffb5e3a06cce48ad95154",
    "trace_SimPaper.csv": "cbef13e1a880f38cd666b3531730bce60d4c95350cbad689efccaf87b5a8cfbd",
    "trace_StageConsistent.csv": "cbef13e1a880f38cd666b3531730bce60d4c95350cbad689efccaf87b5a8cfbd",
}


@pytest.fixture(scope="module")
def all_variants_run(tmp_path_factory):
    """One `simulate --svg` run of every variant, shared by the tests that
    inspect its artifacts."""
    tmp = tmp_path_factory.mktemp("all_variants")
    config = write_config(
        tmp / "scenario.json",
        run={"t_end": 0.2, "dt": 0.001, "variants": list(ALL_VARIANTS)},
    )
    out = tmp / "out"
    proc = run_cli("simulate", "--config", str(config), "--out", str(out),
                   "--svg")
    return proc, out


class TestSimulateCommand:
    def test_happy_path_writes_artifacts(self, tmp_path):
        config = write_config(tmp_path / "scenario.json")
        out = tmp_path / "out"
        proc = run_cli("simulate", "--config", str(config), "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        trace = out / "trace_StageConsistent.csv"
        assert trace.exists()
        lines = trace.read_text().split("\n")
        assert lines[0] == TRACE_HEADER
        assert len(lines) == 1 + 501 + 1  # header + rows + trailing newline
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["variants"]["StageConsistent"]["samples"] == 501
        assert metrics["variants"]["StageConsistent"]["diverged"] is False
        assert str(trace) in proc.stdout

    def test_reruns_are_byte_identical(self, tmp_path):
        config = write_config(tmp_path / "scenario.json")
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert run_cli("simulate", "--config", str(config), "--out",
                       str(out_a)).returncode == 0
        assert run_cli("simulate", "--config", str(config), "--out",
                       str(out_b)).returncode == 0
        for name in ("trace_StageConsistent.csv", "metrics.json"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_all_variants_and_svg(self, all_variants_run):
        proc, out = all_variants_run
        assert proc.returncode == 0, proc.stderr
        for name in ALL_VARIANTS:
            assert (out / f"trace_{name}.csv").exists()
            svg = (out / f"plot_{name}.svg").read_text()
            assert svg.startswith("<svg")
            assert 'viewBox="0 0 800 480"' in svg

    def test_all_variants_artifacts_match_pinned_bytes(self, all_variants_run):
        proc, out = all_variants_run
        assert proc.returncode == 0, proc.stderr
        digests = {
            path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in out.iterdir()
        }
        assert digests == ALL_VARIANTS_SHA256

    def test_svg_of_run_without_finite_rows_has_only_finite_coordinates(
        self, tmp_path
    ):
        # starting past contact_x, the contact force overflows at t = 0,
        # so not even the first row is finite
        config = write_config(
            tmp_path / "scenario.json",
            trajectory={"kind": "Quintic", "start": [2.0, 0.0],
                        "end": [1.5, 0.0], "duration": 0.4},
            membrane={"stiffness": 1e308, "damping": 2.0, "contact_x": 0.0},
        )
        out = tmp_path / "out"
        proc = run_cli("simulate", "--config", str(config), "--out", str(out),
                       "--svg")
        assert proc.returncode == 1
        svg = (out / "plot_StageConsistent.svg").read_text()
        points = re.findall(r'points="([^"]*)"', svg)
        assert len(points) == 8
        for coord in " ".join(points).replace(",", " ").split():
            assert math.isfinite(float(coord)), coord

    def test_config_error_exits_2(self, tmp_path):
        config = tmp_path / "scenario.json"
        config.write_text("{")
        out = tmp_path / "out"
        proc = run_cli("simulate", "--config", str(config), "--out", str(out))
        assert proc.returncode == 2
        assert "config error" in proc.stderr

    def test_empty_variants_exits_2(self, tmp_path):
        config = write_config(
            tmp_path / "scenario.json",
            run={"t_end": 0.5, "dt": 0.001, "variants": []},
        )
        proc = run_cli("simulate", "--config", str(config), "--out",
                       str(tmp_path / "out"))
        assert proc.returncode == 2
        assert "no variants selected" in proc.stderr

    def test_missing_config_exits_2(self, tmp_path):
        proc = run_cli("simulate", "--config", str(tmp_path / "nope.json"),
                       "--out", str(tmp_path / "out"))
        assert proc.returncode == 2

    def test_diverging_scenario_exits_1_with_partial_trace(self, tmp_path):
        # stiff impedance with a coarse step overflows the state
        config = write_config(
            tmp_path / "scenario.json",
            impedance={"m": 1.0, "b": 0.1, "k": 1e7},
            run={"t_end": 50.0, "dt": 0.1, "variants": ["StageConsistent"]},
        )
        out = tmp_path / "out"
        proc = run_cli("simulate", "--config", str(config), "--out", str(out))
        assert proc.returncode == 1

        def reject(token):
            raise ValueError(f"non-standard JSON token {token}")

        metrics = json.loads((out / "metrics.json").read_text(),
                             parse_constant=reject)
        result = metrics["variants"]["StageConsistent"]
        assert result["diverged"] is True
        # the squared-error sum overflows over the finite prefix: null
        assert result["rms_tracking_error"][0] is None
        assert (out / "trace_StageConsistent.csv").exists()

    def test_info_log_times_each_variant_and_keeps_output(self, tmp_path):
        config = write_config(
            tmp_path / "scenario.json",
            run={"t_end": 0.2, "dt": 0.001, "variants": list(ALL_VARIANTS)},
        )
        out = tmp_path / "out"
        args = ("simulate", "--config", str(config), "--out", str(out), "--svg")
        quiet = run_cli(*args)
        chatty = run_cli(*args, env_extra={"MICROINJECT_LOG": "info"})
        assert quiet.returncode == chatty.returncode == 0
        assert quiet.stderr == ""
        assert chatty.stdout == quiet.stdout
        # one walk runs the torque laws, two on this identity frame, where
        # Corrected binds the stage-space operators; each variant's SVG is
        # timed
        walks = re.findall(
            r"^INFO one walk: (\d+) torque laws, closed loops \+ CSVs "
            r"\d+\.\d{3} s$", chatty.stderr, re.MULTILINE)
        assert walks == ["2"]
        timed = re.findall(r"^INFO variant (\w+): SVG \d+\.\d{3} s$",
                           chatty.stderr, re.MULTILINE)
        assert timed == list(ALL_VARIANTS)
        reused = re.findall(
            r"^INFO variant (\w+) reuses the closed loop of variant (\w+)$",
            chatty.stderr, re.MULTILINE)
        assert reused == [("SimPaper", "Corrected"),
                          ("StageConsistent", "Corrected")]
        digests = {
            path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in out.iterdir()
        }
        assert digests == ALL_VARIANTS_SHA256

    def test_variants_sharing_a_law_share_one_run(self, tmp_path):
        # SimPaper and StageConsistent have one torque law: the second
        # variant of that law reuses the first one's run and files
        shared = ["SimPaper", "StageConsistent"]
        runs = {}
        for label, variants in (("shared", shared), ("alone", ["StageConsistent"])):
            config = write_config(
                tmp_path / f"{label}.json",
                run={"t_end": 0.2, "dt": 0.001, "variants": variants},
            )
            out = tmp_path / label
            proc = run_cli("simulate", "--config", str(config), "--out",
                           str(out), "--svg",
                           env_extra={"MICROINJECT_LOG": "info"})
            assert proc.returncode == 0, proc.stderr
            runs[label] = proc, out
        proc, out = runs["shared"]
        printed = [Path(line).name for line in proc.stdout.splitlines()]
        assert printed == [
            "trace_SimPaper.csv", "plot_SimPaper.svg",
            "trace_StageConsistent.csv", "plot_StageConsistent.svg",
            "metrics.json"]
        assert re.findall(r"^INFO one walk: (\d+) torque laws, ",
                          proc.stderr, re.MULTILINE) == ["1"]
        timed = re.findall(r"^INFO variant (\w+): SVG \d+\.\d{3} s$",
                           proc.stderr, re.MULTILINE)
        assert timed == shared
        reused = re.findall(
            r"^INFO variant (\w+) reuses the closed loop of variant (\w+)$",
            proc.stderr, re.MULTILINE)
        assert reused == [("StageConsistent", "SimPaper")]
        assert ((out / "trace_SimPaper.csv").read_bytes()
                == (out / "trace_StageConsistent.csv").read_bytes())
        sim_svg = (out / "plot_SimPaper.svg").read_text()
        stage_svg = (out / "plot_StageConsistent.svg").read_text()
        assert sim_svg != stage_svg
        assert (sim_svg.replace(">variant SimPaper<", ">variant StageConsistent<")
                == stage_svg)
        metrics = json.loads((out / "metrics.json").read_text())["variants"]
        assert metrics["SimPaper"] == metrics["StageConsistent"]
        # the reusing variant's files are those of a run of its own
        _, alone = runs["alone"]
        for name in ("trace_StageConsistent.csv", "plot_StageConsistent.svg"):
            assert (out / name).read_bytes() == (alone / name).read_bytes()
        assert (json.loads((alone / "metrics.json").read_text())["variants"]
                ["StageConsistent"] == metrics["StageConsistent"])

    def test_frame_that_cannot_be_inverted_exits_2_before_writing(self, tmp_path):
        # fx, fy > 0, but T fails the inversion cutoff that Corrected and
        # McPaper go through; the stage-space variants never invert T
        frame = {"alpha": 0.0, "dx": 1.0, "dy": 1.0, "fx": 1e7, "fy": 1e-7}
        config = write_config(
            tmp_path / "scenario.json", frame=frame,
            run={"t_end": 0.05, "dt": 0.001, "variants": ["SimPaper", "Corrected"]},
        )
        out = tmp_path / "out"
        out.mkdir()
        proc = run_cli("simulate", "--config", str(config), "--out", str(out))
        assert proc.returncode == 2
        assert "config error: frame:" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""
        assert list(out.iterdir()) == []

        config = write_config(
            tmp_path / "scenario.json", frame=frame,
            run={"t_end": 0.05, "dt": 0.001, "variants": ["SimPaper"]},
        )
        proc = run_cli("simulate", "--config", str(config), "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        assert sorted(p.name for p in out.iterdir()) == [
            "metrics.json", "trace_SimPaper.csv"]

    @pytest.mark.parametrize("section, values, variants", [
        # max|T_ij|^2 overflows a float: the cutoff is inf
        ("frame", {"alpha": 0.0, "dx": 1.0, "dy": 1.0, "fx": 1e200, "fy": 1.0},
         ["Corrected"]),
        # M fails the cutoff, which every variant's run goes through
        ("masses", {"mx": 1e13, "my": 1.0, "mp": 1.0}, ["StageConsistent"]),
    ])
    def test_matrix_that_cannot_be_inverted_exits_2_before_writing(
        self, tmp_path, capsys, section, values, variants,
    ):
        from microinject import cli

        config = write_config(
            tmp_path / "scenario.json", **{section: values},
            run={"t_end": 0.05, "dt": 0.001, "variants": variants},
        )
        out = tmp_path / "out"
        assert cli.main(["simulate", "--config", str(config), "--out", str(out),
                         "--svg"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"microinject: config error: {section}: ")
        assert "cannot be inverted" in captured.err
        assert not out.exists()

    def test_log_env_var_controls_stderr(self, tmp_path):
        config = write_config(tmp_path / "scenario.json")
        out = tmp_path / "out"
        quiet = run_cli("simulate", "--config", str(config), "--out", str(out))
        chatty = run_cli("simulate", "--config", str(config), "--out", str(out),
                         env_extra={"MICROINJECT_LOG": "info"})
        assert quiet.stderr == ""
        assert "INFO one walk: 1 torque laws, " in chatty.stderr
        # nothing logs at debug, so it is not a level
        for raw in ("loud", "debug"):
            bad = run_cli("simulate", "--config", str(config), "--out", str(out),
                          env_extra={"MICROINJECT_LOG": raw})
            assert bad.returncode == 0
            assert bad.stderr == (f"microinject: ignoring MICROINJECT_LOG={raw!r} "
                                  "(expected error or info)\n")


class TestFreeResponseCommand:
    def test_happy_path(self, tmp_path):
        out = tmp_path / "free.csv"
        proc = run_cli(
            "free-response", "--mx", "1", "--my", "1", "--mp", "1",
            "--x0", "0", "--y0", "0", "--xd0", "1", "--yd0", "0",
            "--t-end", "2.0", "--dt", "0.001", "--out", str(out),
        )
        assert proc.returncode == 0, proc.stderr
        assert "max_error" in proc.stdout
        lines = out.read_text().split("\n")
        assert lines[0] == FREE_HEADER
        max_err = float(proc.stdout.split("max_error")[1].strip())
        assert max_err <= 1e-6

    def test_csv_bytes_are_pinned(self, tmp_path):
        # the closed-form reference is bound once per run; every byte of
        # the CSV must stay what the per-sample evaluation wrote
        out = tmp_path / "free.csv"
        proc = run_cli(
            "free-response", "--mx", "1", "--my", "2", "--mp", "0.5",
            "--x0", "0.3", "--y0", "-0.2", "--xd0", "1.5", "--yd0", "-0.7",
            "--t-end", "2.0", "--dt", "0.01", "--out", str(out),
        )
        assert proc.returncode == 0, proc.stderr
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "0a6033e323dc949513d3c21381887e72f85fcb1b2fbc2799830ddb8d4eccef6b")
        assert proc.stdout.endswith("max_error 1.3469225734752399e-12\n")

    def test_readme_run_streams_its_csv(self, tmp_path, capsys):
        # the CSV rows are made while the file is written, so the run holds
        # little more than the integrator's samples (about 2.2 MB here)
        from microinject import cli

        out = tmp_path / "free.csv"
        code, peak = traced_peak(lambda: cli.main([
            *"free-response --mx 1 --my 1 --mp 1 --x0 0 --y0 0 --xd0 1 --yd0 0"
            " --t-end 10 --dt 0.001 --out".split(), str(out)]))
        assert code == 0
        assert peak <= 2.5e6, peak
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "61e0942803568527fd1c195370b9a43f850a42c22f1a4a438d9c39282b21643e")
        assert capsys.readouterr().out.endswith(
            "max_error 8.8817841970012523e-15\n")

    def test_rest_initial_conditions_give_zero_error(self, tmp_path):
        out = tmp_path / "free.csv"
        proc = run_cli(
            "free-response", "--mx", "1", "--my", "2", "--mp", "3",
            "--x0", "0.4", "--y0", "-0.2", "--xd0", "0", "--yd0", "0",
            "--t-end", "1.0", "--dt", "0.01", "--out", str(out),
        )
        assert proc.returncode == 0
        max_err = float(proc.stdout.split("max_error")[1].strip())
        assert max_err == 0.0

    def test_zero_dt_exits_2(self, tmp_path):
        proc = run_cli(
            "free-response", "--mx", "1", "--my", "1", "--mp", "1",
            "--x0", "0", "--y0", "0", "--xd0", "1", "--yd0", "0",
            "--t-end", "1.0", "--dt", "0", "--out", str(tmp_path / "x.csv"),
        )
        assert proc.returncode == 2
        assert "invalid parameters" in proc.stderr

    def test_bad_mass_exits_2(self, tmp_path):
        proc = run_cli(
            "free-response", "--mx", "-1", "--my", "1", "--mp", "1",
            "--x0", "0", "--y0", "0", "--xd0", "1", "--yd0", "0",
            "--t-end", "1.0", "--dt", "0.01", "--out", str(tmp_path / "x.csv"),
        )
        assert proc.returncode == 2

    @pytest.mark.parametrize("masses, det", [
        (("1e13", "1", "1"), "2.000e+13"),
        (("1e-7", "1e-7", "1e-7"), "6.000e-14"),
        (("1e200", "1", "1"), "2.000e+200"),
    ])
    def test_mass_matrix_that_cannot_be_inverted_exits_2_before_integrating(
        self, tmp_path, monkeypatch, capsys, masses, det,
    ):
        from microinject import cli

        calls = []
        monkeypatch.setattr(cli, "integrate", lambda *args: calls.append(args))
        out = tmp_path / "x.csv"
        mx, my, mp = masses
        code = cli.main([
            "free-response", "--mx", mx, "--my", my, "--mp", mp,
            "--x0", "0", "--y0", "0", "--xd0", "1", "--yd0", "0",
            "--t-end", "1", "--dt", "0.01", "--out", str(out),
        ])
        assert code == 2
        assert calls == []
        assert not out.exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "microinject: invalid parameters: masses: the mass matrix M cannot "
            "be inverted (matrix is singular within tolerance "
            f"(|det|={det}))\n")

    def test_nan_error_fails_the_run(self, tmp_path, capsys):
        # xd0 * (mx + my + mp) overflows, so the closed form is NaN while
        # the integrated state stays finite; max() would drop every NaN
        from microinject import cli

        out = tmp_path / "free.csv"
        code = cli.main([
            "free-response", "--mx", "1e6", "--my", "1", "--mp", "1",
            "--x0", "0", "--y0", "0", "--xd0", "2e302", "--yd0", "0",
            "--t-end", "0.002", "--dt", "0.001", "--out", str(out),
        ])
        assert code == 1
        assert capsys.readouterr().out == f"{out}\nmax_error nan\n"
        rows = out.read_text().splitlines()[1:]
        assert len(rows) == 3
        assert all(row.split(",")[5] == "nan" for row in rows)

    @pytest.mark.parametrize("xd0, dt, code, max_error", [
        # one rounding of positions near 3e12; an absolute 1e-5 failed it
        ("1e12", "0.001", 0, "0.00634765625"),
        # finite but inaccurate steps, near the origin and far from it
        ("1", "1", 1, "0.00015006779724657804"),
        ("1e12", "1", 1, "150067797.24633789"),
    ])
    def test_bound_scales_with_the_positions(self, tmp_path, capsys, xd0, dt,
                                             code, max_error):
        from microinject import cli

        out = tmp_path / "free.csv"
        assert cli.main([
            "free-response", "--mx", "1", "--my", "1", "--mp", "1",
            "--x0", "0", "--y0", "0", "--xd0", xd0, "--yd0", "0",
            "--t-end", "10", "--dt", dt, "--out", str(out),
        ]) == code
        # the printed error stays absolute
        assert capsys.readouterr().out == f"{out}\nmax_error {max_error}\n"

    def test_diverging_integration_exits_1(self, tmp_path):
        # absurd step width: RK4 of the velocity decay amplifies to overflow
        proc = run_cli(
            "free-response", "--mx", "0.1", "--my", "0.1", "--mp", "0.1",
            "--x0", "0", "--y0", "0", "--xd0", "1", "--yd0", "0",
            "--t-end", "10000", "--dt", "100", "--out", str(tmp_path / "x.csv"),
        )
        assert proc.returncode == 1
        assert "diverged" in proc.stderr

    @staticmethod
    def _run_with_integrate_stubbed(monkeypatch, tmp_path, t_end, dt):
        # in-process, with the integrator replaced by a recorder, so that a
        # huge step count costs nothing if the cap lets it through
        from microinject import cli

        calls = []

        def record(*args):
            calls.append(args)
            return []

        monkeypatch.setattr(cli, "integrate", record)
        out = tmp_path / "x.csv"
        code = cli.main([
            "free-response", "--mx", "1", "--my", "1", "--mp", "1",
            "--x0", "0", "--y0", "0", "--xd0", "1", "--yd0", "0",
            "--t-end", t_end, "--dt", dt, "--out", str(out),
        ])
        return code, calls, out

    def test_step_count_over_cap_exits_2_before_integrating(
        self, tmp_path, monkeypatch, capsys,
    ):
        code, calls, out = self._run_with_integrate_stubbed(
            monkeypatch, tmp_path, "1", "1e-9")
        assert code == 2
        assert calls == []
        assert not out.exists()
        assert "invalid parameters" in capsys.readouterr().err

    def test_step_count_at_cap_reaches_integrate(self, tmp_path, monkeypatch):
        from microinject.config import MAX_STEPS

        code, calls, _ = self._run_with_integrate_stubbed(
            monkeypatch, tmp_path, str(MAX_STEPS), "1")
        assert code == 0
        assert len(calls) == 1


def test_write_csv_renders_special_values_as_fmt_does(tmp_path):
    # one line format per file must write what fmt writes value by value,
    # for a diverged trace's flagged last row and for a free-response row
    from microinject.report import (
        FREE_RESPONSE_HEADER, fmt, outputs, write_csv, write_trace_csv,
    )
    from microinject.sim import TraceRow

    special = (float("nan"), float("inf"), float("-inf"), -0.0, 5e-324,
               1.7976931348623157e308)
    trace_row = TraceRow(0.25, *special, *special)
    free_row = (1e-3, *special)

    trace_path = tmp_path / "trace.csv"
    write_trace_csv(str(trace_path), [trace_row])
    assert trace_path.read_bytes() == (
        TRACE_HEADER + "\n" + ",".join(fmt(v) for v in trace_row) + "\n"
    ).encode()

    # the sink simulate writes its CSVs with, a block of rows at a time
    streamed_path = tmp_path / "streamed.csv"
    with outputs() as out, out.trace_csv([str(streamed_path)]) as write_rows:
        write_rows([tuple(trace_row)] * 2)
        write_rows([tuple(trace_row)])
    assert streamed_path.read_bytes() == (
        TRACE_HEADER + "\n" + (",".join(fmt(v) for v in trace_row) + "\n") * 3
    ).encode()

    free_path = tmp_path / "free.csv"
    with open(free_path, "wb") as fh:
        write_csv(fh, FREE_RESPONSE_HEADER, [free_row])
    expected_line = ",".join(fmt(v) for v in free_row)
    assert expected_line == (
        "0.001,nan,inf,-inf,-0,4.9406564584124654e-324,1.7976931348623157e+308"
    )
    assert free_path.read_bytes() == (
        FREE_HEADER + "\n" + expected_line + "\n"
    ).encode()


DOUBLES = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308,
                     math.inf, -math.inf, math.nan, 1.7976931348623157e308,
                     -1.7976931348623157e308]),
    st.floats(),
)


def _rows(width):
    return st.lists(st.tuples(*[DOUBLES] * width), max_size=6)


@FUZZ
@given(_rows(len(TRACE_HEADER.split(","))), _rows(len(FREE_HEADER.split(","))),
       st.lists(st.integers(0, 8), max_size=8))
def test_csv_writers_write_each_row_as_fmt_renders_it(
    trace_rows, free_rows, cuts,
):
    # the bytes writers format a line with one bytes %, which must give
    # the bytes of fmt's str line, value by value, for any double
    from microinject.report import (
        FREE_RESPONSE_HEADER, fmt, outputs, write_csv, write_trace_csv,
    )

    def expected(header, rows):
        return (header + "\n").encode() + b"".join(
            (",".join(map(fmt, row)) + "\n").encode() for row in rows)

    with tempfile.TemporaryDirectory() as tmp:
        streamed, whole, free = (os.path.join(tmp, name) for name in
                                 ("streamed.csv", "whole.csv", "free.csv"))
        # the sink takes the rows in blocks cut at the drawn sizes
        with outputs() as out, out.trace_csv([streamed]) as write_rows:
            rest = trace_rows
            for size in cuts:
                write_rows(rest[:size])
                rest = rest[size:]
            write_rows(rest)
        write_trace_csv(whole, trace_rows)
        with open(free, "wb") as fh:
            write_csv(fh, FREE_RESPONSE_HEADER, free_rows)
        for path in (streamed, whole):
            with open(path, "rb") as fh:
                assert fh.read() == expected(TRACE_HEADER, trace_rows)
        with open(free, "rb") as fh:
            assert fh.read() == expected(FREE_HEADER, free_rows)


def test_svg_of_rows_spanning_past_float_range_has_only_finite_coordinates(
    tmp_path,
):
    # finite torques whose span hi - lo overflows to inf
    from microinject.report import write_trace_svg
    from microinject.sim import TraceRow

    rows = [
        TraceRow(float(i), 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
                 taux, 0.0, 0.0, 0.0)
        for i, taux in enumerate((-1.5e308, 1.5e308))
    ]
    path = tmp_path / "plot.svg"
    write_trace_svg(str(path), rows, "span past the float range")
    points = re.findall(r'points="([^"]*)"', path.read_text())
    assert len(points) == 8
    for coord in " ".join(points).replace(",", " ").split():
        assert math.isfinite(float(coord)), coord


@pytest.mark.parametrize("rows", [1, 2, 799, 800, 801, 1599, 1600, 1601, 4001])
@pytest.mark.parametrize("block_rows", [1, 7, 64, 5000])
def test_chart_sampler_keeps_what_slicing_the_whole_trace_keeps(
    rows, block_rows,
):
    # the sampling of a chart drawn from the whole trace: every stride-th
    # row, then the last row unless it is the last one kept
    from microinject.report import chart_sampler, chart_stride

    trace = [(float(i),) for i in range(rows)]
    stride = chart_stride(rows)
    want = trace[::stride]
    if want[-1] is not trace[-1]:
        want.append(trace[-1])
    keep, sampled = chart_sampler(stride)
    for start in range(0, rows, block_rows):
        keep(trace[start:start + block_rows])
    keep([])
    assert len(sampled) == len(want)
    assert all(a is b for a, b in zip(sampled, want))


def test_csv_floats_round_trip(tmp_path):
    config = write_config(tmp_path / "scenario.json")
    out = tmp_path / "out"
    assert run_cli("simulate", "--config", str(config), "--out",
                   str(out)).returncode == 0
    lines = (out / "trace_StageConsistent.csv").read_text().strip().split("\n")
    # 17 significant digits: parse and re-render must be lossless
    for line in lines[1:50]:
        for token in line.split(","):
            value = float(token)
            assert "%.17g" % value == token


# every free-response flag but --x0 and --out
FREE_RESPONSE_ARGS = ["free-response", "--mx", "1", "--my", "1", "--mp", "1",
                      "--y0", "0", "--xd0", "1", "--yd0", "0", "--t-end", "1.0",
                      "--dt", "0.01"]


def test_free_response_takes_a_negative_value_with_an_exponent(
    tmp_path, capsys,
):
    from microinject import cli

    out = tmp_path / "free.csv"
    assert cli.main([*FREE_RESPONSE_ARGS, "--x0", "-1e-5",
                     "--out", str(out)]) == 0
    # the integrated column starts at x0 itself
    first = out.read_text().split("\n")[1].split(",")
    assert float(first[3]) == -1e-5
    assert capsys.readouterr().err == ""


def test_free_response_that_cannot_write_its_csv_exits_2(tmp_path, capsys):
    # a directory cannot be opened; every write to /dev/full fails.  Either
    # way the path is named and left as it was
    from microinject import cli

    kinds = ["directory"] + ["/dev/full"] * os.path.exists("/dev/full")
    for kind in kinds:
        out = tmp_path / kind.strip("/").replace("/", "_") / "free.csv"
        out.parent.mkdir()
        if kind == "directory":
            out.mkdir()
        else:
            out.symlink_to("/dev/full")
        assert cli.main(
            [*FREE_RESPONSE_ARGS, "--x0", "0", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        reason = errno.EISDIR if kind == "directory" else errno.ENOSPC
        assert captured.err == (
            f"microinject: cannot write {out}: {os.strerror(reason)}\n")
        assert list(out.parent.iterdir()) == [out]
        assert out.is_dir() if kind == "directory" else (
            os.readlink(out) == "/dev/full")


README_OUTPUTS = [
    "trace_StageConsistent.csv",  # the CSV of the run SimPaper shares
    "trace_Corrected.csv",        # a run's CSV
    "trace_SimPaper.csv",         # the CSV of a variant that shares a run
    "trace_McPaper.csv",          # the last run's CSV
    "plot_StageConsistent.svg",   # the first chart
    "plot_Corrected.svg",         # a run's chart
    "plot_SimPaper.svg",          # the re-titled chart of a shared run
    "plot_McPaper.svg",           # the last chart
    "metrics.json",
]


@pytest.mark.parametrize("blocked, kind", [
    *(pytest.param(name, "directory", id=name) for name in README_OUTPUTS),
    *(pytest.param(name, "/dev/full", id=f"{name}-full")
      for name in README_OUTPUTS),
])
def test_simulate_that_cannot_write_a_file_exits_2(
    blocked, kind, tmp_path, capsys,
):
    # a directory cannot be opened; every write to /dev/full fails.  Either
    # way the path is named and left as it was, no other output of the
    # README scenario is left, and no artifact path is printed
    from microinject import cli

    if kind == "/dev/full" and not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full on this system")
    config = readme_config(tmp_path / "scenario.json", t_end=0.05)
    out = tmp_path / "out"
    out.mkdir()
    path = out / blocked
    if kind == "directory":
        path.mkdir()
    else:
        path.symlink_to("/dev/full")
    code = cli.main(["simulate", "--config", str(config), "--out", str(out),
                     "--svg"])
    assert code == 2
    captured = capsys.readouterr()
    reason = errno.EISDIR if kind == "directory" else errno.ENOSPC
    assert captured.err == (
        f"microinject: cannot write {path}: {os.strerror(reason)}\n")
    assert captured.out == ""
    assert [p.name for p in out.iterdir()] == [blocked]
    if kind == "directory":
        assert path.is_dir() and not any(path.iterdir())
    else:
        assert os.readlink(path) == "/dev/full"


# The scenario printed in README.md under "Scenario config".
README_SCENARIO = {
    "frame": {"alpha": 0.5235987755982988, "dx": 0.5, "dy": 0.5,
              "fx": 2.0, "fy": 4.0},
    "masses": {"mx": 1.0, "my": 1.0, "mp": 1.0},
    "impedance": {"m": 1.0, "b": 20.0, "k": 100.0},
    "trajectory": {"kind": "Quintic", "start": [0.0, 0.0], "end": [1.5, 0.5],
                   "duration": 3.0},
    "membrane": {"stiffness": 50.0, "damping": 2.0, "contact_x": 1.0},
    "fed": [0.5, 0.0],
    "run": {"t_end": 5.0, "dt": 0.001,
            "variants": ["StageConsistent", "Corrected", "SimPaper", "McPaper"]},
    "seed": 0,
}

# SHA-256 of every artifact of `simulate --svg` on the README scenario.
README_SHA256 = {
    "metrics.json": "42bcbc6b02710f5de48277989e73471da62c086a3f7fc3b4c86c9dfac0a348ad",
    "plot_Corrected.svg": "ad1bca24a14c2de622b13aaf46b67ed7f637a605673995c3b99af0f768f6ca81",
    "plot_McPaper.svg": "f1377f4a005018c9671abbdb763b2100ac4ee1373c3d40091ae969aac881f8f5",
    "plot_SimPaper.svg": "d7a12f4e655a38ff5fe758de8211d065a53fb476783007ef35b81f4fc50a9a04",
    "plot_StageConsistent.svg": "19935e2572da5753a06fdf7c71d227282d2d0c4f864a41ac9417e6e956be8059",
    "trace_Corrected.csv": "b5509b42f09555c275f9d4544a916253a3ba33e049df4717e3175271228f1f5e",
    "trace_McPaper.csv": "27f3799fdc5f9a5fecd033c58611e25bf9fbf8aa851c0e1fc659cd299a128ada",
    "trace_SimPaper.csv": "f17b13febcfab5133f6a25dcaafa7a0172140f0e27656f754becdc7c21f3bf05",
    "trace_StageConsistent.csv": "f17b13febcfab5133f6a25dcaafa7a0172140f0e27656f754becdc7c21f3bf05",
}

# SHA-256 of the charts of the README scenario on grids of 799 to 1,601
# rows, around the chart strides' changes at 800 and 1,600 rows (dt = 2**-10,
# so t_end / dt is exact), as render_trace_panels draws them from the whole
# trace.
STRIDE_BOUNDARY_SVG_SHA256 = {
    799: ("43a00064a63ddeb975a822bab0bce1d3df323c7c2ce6857e93db57a515eb11af",
          "fdb88d4204962cadb09de3316febe467e4ed0a27af11b82834b5a852562c4452"),
    800: ("883baa8e3426ebc8a2192f4b79545e3bb1418c3bcfff97927aea7eb7807d376e",
          "8e60baa67292aecaa7d6b5dc42422a625e90fd080b82c016bf7e3f37d75d16e8"),
    801: ("b6f6ef8126ec796a186ecf6bafbeed10670933c10500ba969c966f4fa2064d56",
          "ac02034c38921a923dad3e4e54e27d507fe5a06148b1caa703ec6df47a334ad5"),
    1599: ("09add371cccb1ac4e1af18ea9c3e9d4e7a712652185b725fb504eb43b5caf64d",
           "82f238e5fc4931f18d35613d2461ad5678a1ff7c26a5c0557b14d8ba849d70bd"),
    1600: ("f4a9c0dd4d97a5250e4299034b5094c38124f886b9d18ea077062d75e6dc3dbc",
           "f027d250b4ddf730e03b56036ee7e2faf7a7f939daf4227510bfe438bcbcc974"),
    1601: ("8aefe53131309c2922818dccf4ce915a01a45b6883848d16204aa4b1dbad4ae7",
           "d3c7f7afbd67ea4d3a43bb209f5c9496154358dddcde53f884e193c4e939797e"),
}

# SHA-256 of the artifacts of the README scenario at fx = fy = 100 with
# Corrected alone: the run diverges after 2,946 samples.
DIVERGING_SHA256 = {
    "metrics.json": "5e87fe667ed78083b6e09497a652eef061daf408344d03ae3c5ec2f290e2a45a",
    "plot_Corrected.svg": "c9e103a128bac236083bc0a93831dbf9a89fbc3227ced77f69be9b48b1cc52d3",
    "trace_Corrected.csv": "d130250e5624a2e22b0b551cb10d4a5cce273103c73a3a009a48833e5b66d323",
}


def readme_config(path, frame=(), **run):
    """The README scenario with ``frame`` and ``run`` fields replaced."""
    doc = json.loads(json.dumps(README_SCENARIO))
    doc["frame"].update(frame)
    doc["run"].update(run)
    path.write_text(json.dumps(doc))
    return path


def digests(out):
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in out.iterdir()}


def test_readme_run_streams_its_traces(tmp_path, capsys):
    # each run's CSV is written from the closed loop's sink and only the
    # rows its chart plots are kept.  The three runs are lanes of one walk,
    # so the rows of all three charts, about 0.3 MB each, are held until
    # the first chart is drawn: about 1.26 MB at the peak here.  A run
    # whose whole trace is held adds about 2 MB
    from microinject import cli

    config = readme_config(tmp_path / "scenario.json")
    out = tmp_path / "out"
    code, peak = traced_peak(lambda: cli.main([
        "simulate", "--config", str(config), "--out", str(out), "--svg"]))
    assert code == 0
    assert peak <= 1.5e6, peak
    assert digests(out) == README_SHA256


@pytest.mark.parametrize("rows", sorted(STRIDE_BOUNDARY_SVG_SHA256))
def test_charts_at_the_stride_boundaries_match_pinned_bytes(
    rows, tmp_path, capsys,
):
    from microinject import cli

    config = readme_config(tmp_path / "scenario.json", t_end=(rows - 1) / 1024,
                           dt=1 / 1024, variants=["Corrected", "McPaper"])
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", str(config), "--out", str(out),
                     "--svg"]) == 0
    metrics = json.loads((out / "metrics.json").read_text())["variants"]
    assert [m["samples"] for m in metrics.values()] == [rows, rows]
    found = digests(out)
    assert (found["plot_Corrected.svg"], found["plot_McPaper.svg"]) == (
        STRIDE_BOUNDARY_SVG_SHA256[rows])


def test_diverging_run_charts_its_finite_rows_at_their_own_stride(
    tmp_path, capsys,
):
    # 2,945 finite rows are charted at stride 3, where the 5,001-row grid
    # would be at 6: the chart is drawn from the CSV read back
    from microinject import cli, report

    config = readme_config(tmp_path / "scenario.json",
                           frame={"fx": 100.0, "fy": 100.0},
                           variants=["Corrected"])
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", str(config), "--out", str(out),
                     "--svg"]) == 1
    metrics = json.loads((out / "metrics.json").read_text())["variants"]
    assert metrics["Corrected"]["samples"] == 2946
    assert metrics["Corrected"]["diverged"] is True
    assert (report.chart_stride(2945), report.chart_stride(5001)) == (3, 6)
    assert digests(out) == DIVERGING_SHA256
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("overrides, flat_panel", [
    ({"fed": [1e17, 1e17]}, 1),
    ({"fed": [1e308, 1e308]}, 1),
    ({"trajectory": {"kind": "Quintic", "start": [1e17, 1e17],
                     "end": [1e17, 1e17], "duration": 3.0},
      "membrane": {"stiffness": 50.0, "damping": 2.0, "contact_x": 2e17}}, 0),
])
def test_chart_panel_flat_at_a_large_magnitude_is_drawn(
    overrides, flat_panel, tmp_path,
):
    # every series of one panel holds one value so large that widening its
    # range by 0.5 is lost to rounding; the panel still gets a span
    doc = json.loads(json.dumps(README_SCENARIO))
    doc.update(overrides)
    doc["run"].update(t_end=0.05, variants=["Corrected"])
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps(doc))
    out = tmp_path / "out"
    proc = run_cli("simulate", "--config", str(config), "--out", str(out),
                   "--svg")
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    assert sorted(p.name for p in out.iterdir()) == [
        "metrics.json", "plot_Corrected.svg", "trace_Corrected.csv"]
    points = re.findall(r'points="([^"]*)"',
                        (out / "plot_Corrected.svg").read_text())
    assert len(points) == 8
    for series in points[4 * flat_panel:4 * flat_panel + 4]:
        ys = {float(point.split(",")[1]) for point in series.split()}
        # one horizontal line, halfway down the panel
        assert len(ys) == 1, ys
        assert ys == {46.0 + 85.5 + flat_panel * (46.0 + 171.0)}


def test_simulate_memory_does_not_grow_with_the_run(tmp_path):
    # 10 times the rows, the same peak resident memory: nothing held per row
    from microinject import cli

    peaks = {}
    for t_end in (10.0, 100.0):
        config = readme_config(tmp_path / f"scenario_{t_end}.json",
                               t_end=t_end, variants=["Corrected"])
        out = tmp_path / f"out_{t_end}"
        code, peaks[t_end] = child_peak_rss(functools.partial(cli.main, [
            "simulate", "--config", str(config), "--out", str(out), "--svg"]))
        variants = json.loads((out / "metrics.json").read_text())["variants"]
        assert (code, variants["Corrected"]["samples"]) == (0, t_end * 1000 + 1)
    assert abs(peaks[100.0] - peaks[10.0]) <= 3 * 1024, peaks


def test_simulate_whose_trace_cannot_be_written_mid_run_exits_2(
    tmp_path, capsys, monkeypatch,
):
    # every write to /dev/full fails: the first block of rows Corrected's
    # closed loop hands its sink cannot be written.  Both runs' CSVs are
    # opened before the walk, SimPaper's with StageConsistent's, whose run
    # it shares, and the walk ends before any variant is done
    from microinject import cli, report

    opened = []

    def recording_open(*args, **kwargs):
        fh = open(*args, **kwargs)
        opened.append(fh)
        return fh

    monkeypatch.setattr(report, "open", recording_open, raising=False)
    # a skewed frame, where Corrected has a closed loop of its own
    config = write_config(tmp_path / "scenario.json", frame={
        "alpha": 0.5, "dx": 1.0, "dy": 1.0, "fx": 2.0, "fy": 4.0}, run={
        "t_end": 0.5, "dt": 0.001,
        "variants": ["StageConsistent", "Corrected", "SimPaper"]})
    out = tmp_path / "out"
    out.mkdir()
    blocked = out / "trace_Corrected.csv"
    blocked.symlink_to("/dev/full")
    code = cli.main(["simulate", "--config", str(config), "--out", str(out),
                     "--svg"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err == (
        f"microinject: cannot write {blocked}: {os.strerror(errno.ENOSPC)}\n")
    assert captured.out == ""
    assert [fh.name for fh in opened] == [
        str(out / "trace_StageConsistent.csv"),
        str(out / "trace_SimPaper.csv"), str(blocked)]
    assert all(fh.closed for fh in opened)


@pytest.mark.parametrize("blocked, kind", [
    ("trace_Corrected.csv", "directory"),
    ("trace_Corrected.csv", "/dev/full"),
    ("trace_StageConsistent.csv", "/dev/full"),
], ids=["directory", "full-second", "full-first"])
def test_simulate_leaves_no_partial_csv_when_a_trace_fails(
    tmp_path, capsys, blocked, kind,
):
    # the directory cannot be opened, so the walk does not start; every
    # write to /dev/full fails, so the walk stops at that run's first block.
    # Either way the other run's CSV, opened before the walk, is removed,
    # and the path that failed is left as it was
    from microinject import cli

    if kind == "/dev/full" and not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full on this system")
    # a skewed frame, where Corrected has a closed loop of its own
    config = write_config(tmp_path / "scenario.json", frame={
        "alpha": 0.5, "dx": 1.0, "dy": 1.0, "fx": 2.0, "fy": 4.0}, run={
        "t_end": 0.5, "dt": 0.001, "variants": ["StageConsistent", "Corrected"]})
    out = tmp_path / "out"
    out.mkdir()
    path = out / blocked
    if kind == "directory":
        path.mkdir()
    else:
        path.symlink_to("/dev/full")
    code = cli.main(["simulate", "--config", str(config), "--out", str(out)])
    assert code == 2
    captured = capsys.readouterr()
    reason = errno.EISDIR if kind == "directory" else errno.ENOSPC
    assert captured.err == (
        f"microinject: cannot write {path}: {os.strerror(reason)}\n")
    assert captured.out == ""
    assert sorted(p.name for p in out.iterdir()) == [blocked]
    if kind == "directory":
        assert path.is_dir() and not any(path.iterdir())
    else:
        assert os.readlink(path) == "/dev/full"


@pytest.mark.parametrize("command, name", [
    (["simulate", "--config", "{config}", "--out", "{out}"],
     "trace_Corrected.csv"),
    ("free-response --mx 1 --my 1 --mp 1 --x0 0 --y0 0 --xd0 1 --yd0 0"
     " --t-end 10 --dt 0.001 --out {out}/free.csv".split(), "free.csv"),
], ids=["simulate", "free-response"])
def test_a_write_that_fails_on_a_file_it_created_leaves_nothing(
    command, name, tmp_path, capsys, monkeypatch,
):
    # the 4th write to the disk of a regular file the command created fails
    # as a full disk does, mid-run: the half-written file is removed with
    # every other output
    from test_report import fail_writes_to

    from microinject import cli

    fail_writes_to(monkeypatch, name)
    config = readme_config(tmp_path / "scenario.json", t_end=0.5,
                           variants=["StageConsistent", "Corrected"])
    out = tmp_path / "out"
    out.mkdir()
    code = cli.main([arg.format(config=config, out=out) for arg in command])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err == (
        f"microinject: cannot write {out / name}: "
        f"{os.strerror(errno.ENOSPC)}\n")
    assert captured.out == ""
    assert list(out.iterdir()) == []


def test_repeated_variant_exits_2_before_writing(tmp_path):
    # a repeated variant used to run, listing its CSV and chart twice on
    # stdout and its metrics once in metrics.json
    config = readme_config(tmp_path / "scenario.json",
                           variants=["SimPaper", "SimPaper"])
    out = tmp_path / "out"
    proc = run_cli("simulate", "--config", str(config), "--out", str(out),
                   "--svg")
    assert proc.returncode == 2
    assert proc.stderr == (
        "microinject: config error: run.variants[1] repeats 'SimPaper': "
        "each variant may appear once\n")
    assert proc.stdout == ""
    assert not out.exists()


def test_repeated_key_exits_2_before_writing(tmp_path):
    # json.loads alone keeps the last value, which passes k's rule
    config = write_config(tmp_path / "scenario.json")
    text = config.read_text()
    assert text.count('"k": 100.0') == 1
    config.write_text(text.replace('"k": 100.0', '"k": -5.0, "k": 100.0'))
    out = tmp_path / "out"
    proc = run_cli("simulate", "--config", str(config), "--out", str(out),
                   "--svg")
    assert proc.returncode == 2
    assert proc.stderr == (
        "microinject: config error: repeated key 'k': each key may appear once\n")
    assert proc.stdout == ""
    assert not out.exists()


@pytest.mark.parametrize("duration", [1e-170, 5e-324])
def test_quintic_duration_whose_square_underflows_exits_2_before_writing(
    duration, tmp_path,
):
    # the quintic divides by duration * duration, which is 0.0 here
    config = write_config(tmp_path / "scenario.json", trajectory={
        "kind": "Quintic", "start": [0.0, 0.0], "end": [1.5, 0.0],
        "duration": duration})
    out = tmp_path / "out"
    proc = run_cli("simulate", "--config", str(config), "--out", str(out),
                   "--svg")
    assert proc.returncode == 2
    assert proc.stderr == (
        "microinject: config error: trajectory.duration is too small for "
        f"kind 'Quintic': its square underflows to 0, got {duration!r}\n")
    assert proc.stdout == ""
    assert not out.exists()


def test_sinusoid_whose_phase_overflows_exits_2_before_writing(tmp_path):
    # w = 2*pi*frequency is inf: math.sin(w * t) would raise at t = 0.05,
    # inside the walk, with three trace CSVs open
    config = write_config(tmp_path / "scenario.json", trajectory={
        "kind": "Sinusoid", "start": [0.0, 0.0], "duration": 4.0,
        "amplitude": [0.5, 0.2], "frequency": 1.7976931348623157e308},
        run={"t_end": 0.2, "dt": 0.05,
             "variants": ["StageConsistent", "Corrected", "McPaper"]})
    out = tmp_path / "out"
    proc = run_cli("simulate", "--config", str(config), "--out", str(out))
    assert proc.returncode == 2
    assert proc.stderr == (
        "microinject: config error: trajectory.frequency is too large for a "
        "run to t = 0.2: 2*pi*frequency*t overflows, got "
        "1.7976931348623157e+308\n")
    assert proc.stdout == ""
    assert not out.exists()


@pytest.mark.parametrize("frequency, amplitude", [
    (1e307, [0.5, 0.2]), (1e150, [1e10, 0.2])])
def test_sinusoid_whose_acceleration_overflows_exits_2_before_writing(
    tmp_path, frequency, amplitude,
):
    # the phase stays finite to t_end 2.0, but (2*pi*frequency)**2 *
    # amplitude overflows: these runs used to exit 1, diverged at row 0 or 1
    config = write_config(tmp_path / "scenario.json", trajectory={
        "kind": "Sinusoid", "start": [0.0, 0.0], "duration": 4.0,
        "amplitude": amplitude, "frequency": frequency},
        run={"t_end": 2.0, "dt": 0.05, "variants": ["StageConsistent"]})
    out = tmp_path / "out"
    proc = run_cli("simulate", "--config", str(config), "--out", str(out),
                   "--svg")
    assert proc.returncode == 2
    assert proc.stderr == (
        "microinject: config error: trajectory.frequency is too large for "
        "the amplitude: the desired acceleration (2*pi*frequency)**2 * "
        f"amplitude overflows, got {frequency!r}\n")
    assert proc.stdout == ""
    assert not out.exists()


def test_quintic_duration_whose_square_is_positive_runs(tmp_path):
    config = write_config(tmp_path / "scenario.json", trajectory={
        "kind": "Quintic", "start": [0.0, 0.0], "end": [1.5, 0.0],
        "duration": 1e-160}, run={"t_end": 0.05, "dt": 0.001,
                                  "variants": ["StageConsistent"]})
    out = tmp_path / "out"
    proc = run_cli("simulate", "--config", str(config), "--out", str(out),
                   "--svg")
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["variants"]["StageConsistent"]["samples"] == 51


def test_simulate_logs_its_walk_once_and_each_variants_svg(
    tmp_path, capsys, monkeypatch,
):
    # one walk runs every closed loop before the first variant is done, so
    # it is timed once, with its torque-law count; then each variant's SVG
    from microinject import cli

    monkeypatch.setenv("MICROINJECT_LOG", "info")
    config = readme_config(tmp_path / "scenario.json", t_end=0.2)
    assert cli.main(["simulate", "--config", str(config), "--out",
                     str(tmp_path / "out"), "--svg"]) == 0
    messages = [line[len("INFO "):]
                for line in capsys.readouterr().err.splitlines()
                if line.startswith("INFO ")]
    walks = [m for m in messages if m.startswith("one walk:")]
    assert len(walks) == 1
    assert re.fullmatch(
        r"one walk: 3 torque laws, closed loops \+ CSVs \d+\.\d{3} s", walks[0])
    assert messages.index(walks[0]) == 0
    svgs = [re.fullmatch(r"variant (\w+): SVG \d+\.\d{3} s", m)
            for m in messages[1:]]
    assert [m.group(1) for m in svgs if m] == [
        "StageConsistent", "Corrected", "SimPaper", "McPaper"]


def test_each_main_call_logs_at_its_own_level_to_its_own_stderr(
    tmp_path, monkeypatch,
):
    # MICROINJECT_LOG and sys.stderr are read again by every call, not
    # bound by the first one in the process
    from microinject import cli

    config = readme_config(tmp_path / "scenario.json", t_end=0.01,
                           variants=["StageConsistent"])
    streams = []
    for n, level in enumerate(["info", "error", "info"]):
        monkeypatch.setenv("MICROINJECT_LOG", level)
        streams.append(io.StringIO())
        with contextlib.redirect_stderr(streams[-1]), \
                contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["simulate", "--config", str(config), "--out",
                             str(tmp_path / f"out{n}")]) == 0
    first, quiet, last = (stream.getvalue() for stream in streams)
    assert re.fullmatch(r"INFO one walk: 1 torque laws, closed loops \+ CSVs "
                        r"\d+\.\d{3} s\n", first)
    assert quiet == ""
    assert last.startswith("INFO one walk: 1 torque laws, ")
    assert last.count("\n") == 1


@pytest.mark.parametrize("alpha", [0.0, -0.0], ids=["+0", "-0"])
def test_simulate_reuses_the_stage_space_run_for_corrected_at_identity(
    tmp_path, alpha,
):
    # at alpha = +-0.0 and fx = fy = 1, Corrected binds the stage-space
    # operators: its CSV is a byte copy of StageConsistent's run
    path = readme_config(tmp_path / "scenario.json",
                         frame={"alpha": alpha, "fx": 1.0, "fy": 1.0},
                         t_end=0.5, variants=["StageConsistent", "Corrected"])
    assert f'"alpha": {alpha}' in path.read_text()
    out = tmp_path / "out"
    proc = run_cli("simulate", "--config", str(path), "--out", str(out),
                   env_extra={"MICROINJECT_LOG": "info"})
    assert proc.returncode == 0, proc.stderr
    assert ("INFO variant Corrected reuses the closed loop of variant "
            "StageConsistent\n") in proc.stderr
    assert "INFO one walk: 1 torque laws, " in proc.stderr
    assert ((out / "trace_Corrected.csv").read_bytes()
            == (out / "trace_StageConsistent.csv").read_bytes())
