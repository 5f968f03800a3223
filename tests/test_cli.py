import contextlib
import dataclasses
import io
import json
import os
import stat
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import cavity_eit
from cavity_eit import ConfigError, NearDegeneracyWarning, RunConfig, cli
from cavity_eit.cli import main
from cavity_eit.sweep import (
    ENGINE_MASTER_EQUATION,
    ENGINE_SEMICLASSICAL,
    SpectrumRecord,
    find_extrema,
)

SMALL_CONFIG = """
# compact sweep for fast end-to-end runs
start = -0.7
stop = 0.7
n_points = 29
"""


@pytest.fixture
def small_config(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(SMALL_CONFIG, encoding="utf-8")
    return str(path)


def test_config_defaults_round_trip():
    config = RunConfig()
    assert RunConfig.from_text(config.to_text()) == config


def test_config_covers_every_physics_parameter():
    import dataclasses

    from cavity_eit import PhysicsParams

    param_fields = {f.name for f in dataclasses.fields(PhysicsParams)}
    assert param_fields <= set(RunConfig.keys())
    assert set(RunConfig.keys()) - param_fields == {"start", "stop", "n_points"}


def test_config_round_trip_with_overrides():
    config = RunConfig(g=2.5, n_max=3, n_points=51, delta_p=-12.5)
    assert RunConfig.from_text(config.to_text()) == config


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_NONNEGATIVE = st.floats(min_value=0.0, allow_nan=False, allow_infinity=False)


@st.composite
def _run_configs(draw):
    values = {name: draw(_FINITE)
              for name in ("delta_p", "delta_p_cav", "delta", "light_shift", "omega_d", "omega_f")}
    for name in ("g", "omega_con", "gamma", "kappa", "gamma_deph", "n_p",
                 "r_d", "r_e", "r_f", "c_d", "c_e"):
        values[name] = draw(_NONNEGATIVE)
    for upper in ("d", "e"):
        share = draw(st.floats(min_value=0.0, max_value=1.0))
        values[f"b_{upper}_g1"], values[f"b_{upper}_g2"] = share, 1.0 - share
    values["b_f_g1"], values["b_f_g2"] = 0.0, 1.0  # f -> g1 is dipole-forbidden
    values["n_max"] = draw(st.integers(min_value=1, max_value=10**6))
    values["n_atoms"] = draw(st.sampled_from((0, 1, 2)))
    values["start"], values["stop"] = draw(_FINITE), draw(_FINITE)
    assume(values["start"] < values["stop"])
    values["n_points"] = draw(st.integers(min_value=2, max_value=10**6))
    assert set(values) == set(RunConfig.keys())
    return RunConfig(**values)


@given(_run_configs())
def test_config_text_round_trip_property(config):
    back = RunConfig.from_text(config.to_text())
    assert back == config
    for name in ("n_max", "n_atoms", "n_points"):
        assert type(getattr(back, name)) is int


@pytest.mark.parametrize("n_points", [5.5, 2.0, 1], ids=["float", "integral-float", "one"])
def test_config_n_points_follows_the_sweep_rule(n_points):
    # RunConfig holds the sweep's grid size to SweepSpec's rule, so it never
    # writes a text that it cannot read back
    message = f"n_points must be an integer of at least 2, got {n_points!r}"
    with pytest.raises(ConfigError, match=f"^{message}$".replace(".", r"\.")):
        RunConfig(n_points=n_points)


def test_config_with_numpy_scalars_round_trips():
    config = RunConfig(n_points=np.int64(51), n_max=np.int64(3), g=np.float64(2.5))
    back = RunConfig.from_text(config.to_text())
    assert back == config
    assert type(back.n_points) is int and type(back.g) is float


def test_config_parses_values_and_comments():
    config = RunConfig.from_text("g = 4.2  # stronger coupling\n\nn_atoms = 2\n")
    assert config.g == 4.2
    assert config.n_atoms == 2
    assert config.kappa == 0.4


def test_config_rejects_unknown_key():
    with pytest.raises(ConfigError, match=r"cfg:2: unknown key 'coupling'"):
        RunConfig.from_text("g = 3.0\ncoupling = 1.0\n", source="cfg")


def test_config_rejects_duplicate_key():
    with pytest.raises(ConfigError, match="duplicate"):
        RunConfig.from_text("g = 3.0\ng = 4.0\n")


def test_config_rejects_bad_value():
    with pytest.raises(ConfigError, match="n_max"):
        RunConfig.from_text("n_max = 2.5\n")
    with pytest.raises(ConfigError, match="kappa"):
        RunConfig.from_text("kappa = fast\n")


def test_config_rejects_bad_physics():
    with pytest.raises(ConfigError):
        RunConfig.from_text("gamma = -1.0\n")
    with pytest.raises(ConfigError):
        RunConfig.from_text("start = 2.0\nstop = 1.0\n")


def _read_rows(path):
    with open(path, encoding="utf-8") as handle:
        lines = [ln.rstrip("\n") for ln in handle if not ln.startswith("#")]
    header = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:]]
    return header, rows


def test_eit_sweep_csv_layout(tmp_path, small_config):
    out = tmp_path / "sweep.csv"
    status = main(
        [
            "eit-sweep",
            "--config", small_config,
            "--engine", "both",
            "--three-level",
            "--out", str(out),
            "--deterministic",
        ]
    )
    assert status == 0
    header, rows = _read_rows(out)
    assert header == [
        "delta_MHz", "T_rel", "photon_number",
        "absorption_part", "dispersion_part", "engine", "residual",
    ]
    assert len(rows) == 29 * 2
    keys = [(float(r[0]), r[5]) for r in rows]
    assert keys == sorted(keys)
    for row in rows:
        if row[5] == "me":
            assert row[3] == "" and row[4] == "" and row[6] != ""
        else:
            assert row[5] == "sc"
            assert row[3] != "" and row[4] != "" and row[6] == ""
        assert 0.0 <= float(row[1]) <= 1.5


def test_eit_sweep_atoms_override(tmp_path, small_config):
    out = tmp_path / "sweep0.csv"
    status = main(
        ["eit-sweep", "--config", small_config, "--atoms", "0",
         "--out", str(out), "--deterministic"]
    )
    assert status == 0
    _, rows = _read_rows(out)
    for row in rows:
        # empty cavity: flat at 1 up to the n_max=2 truncation bias (~3%)
        assert float(row[1]) == pytest.approx(1.0, abs=4e-2)


def test_cavity_scan_empty_is_symmetric_peak(tmp_path):
    out = tmp_path / "scan.csv"
    status = main(
        ["cavity-scan", "--atoms", "0", "--points", "41",
         "--out", str(out), "--deterministic"]
    )
    assert status == 0
    header, rows = _read_rows(out)
    assert header[0] == "delta_p_cav_MHz"
    grid = np.array([float(r[0]) for r in rows])
    values = np.array([float(r[1]) for r in rows])
    peak = int(np.argmax(values))
    assert grid[peak] == pytest.approx(0.0, abs=1e-12)
    # peak 1.0 up to the n_max=2 truncation bias of the default config
    assert values[peak] == pytest.approx(1.0, abs=4e-2)
    assert np.allclose(values, values[::-1], atol=1e-9)


def test_analyze_reports_extrema(tmp_path, small_config, capsys):
    out = tmp_path / "sweep.csv"
    assert main(["eit-sweep", "--config", small_config, "--out", str(out),
                 "--deterministic"]) == 0
    assert main(["analyze", "--in", str(out)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["sweep_column"] == "delta_MHz"
    engines = report["engines"]
    assert set(engines) == {"me"}
    me = engines["me"]
    assert me["delta_max_MHz"] < me["delta_min_MHz"]
    assert 0.1 < me["separation_MHz"] < 0.5
    assert me["T_min"] < me["T_max"]


def test_analyze_reads_a_far_offset_grid(tmp_path):
    # steps of 0.07/240 MHz at 1000 MHz, written with 12 significant digits
    # (to 1e-8 MHz), still read as a uniform grid
    out = tmp_path / "far.csv"
    assert main(["cavity-scan", "--atoms", "0", "--start", "1000", "--stop", "1000.07",
                 "--points", "241", "--out", str(out), "--deterministic"]) == 0
    _, records = cli._read_spectrum_csv(str(out))
    assert find_extrema(records, allow_edge=True).delta_max == 1000.0


def test_analyze_rejects_a_repeated_sweep_value(tmp_path, small_config, capsys):
    out = tmp_path / "sweep.csv"
    assert main(["eit-sweep", "--config", small_config, "--out", str(out),
                 "--deterministic"]) == 0
    lines = out.read_text(encoding="utf-8").splitlines(keepends=True)
    out.write_text("".join(lines + lines[10:11]), encoding="utf-8")
    assert main(["analyze", "--in", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert _strict_json(captured.err) == {
        "error": "ConfigError",
        "message": f"{out}: engine 'me': extrema search needs a uniform sweep grid",
    }


def test_analyze_rejects_garbage(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("x,y\n1,2\n", encoding="utf-8")
    assert main(["analyze", "--in", str(bad)]) == 2
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "ConfigError"


def test_converge_csv(tmp_path):
    config = tmp_path / "c.cfg"
    config.write_text("n_p = 0.001\n", encoding="utf-8")
    out = tmp_path / "converge.csv"
    status = main(
        ["converge", "--config", str(config), "--nmax-list", "1,2",
         "--out", str(out), "--deterministic"]
    )
    assert status == 0
    header, rows = _read_rows(out)
    assert header == ["n_max", "delta_MHz", "T_rel", "photon_number"]
    assert len(rows) == 6
    assert [r[0] for r in rows] == ["1"] * 3 + ["2"] * 3


def test_converge_without_control_solves_each_detuning_once(tmp_path):
    # omega_con = 0 puts the absorption peak omega_con^2/(4 delta_p) at 0
    config = tmp_path / "c.cfg"
    config.write_text("omega_con = 0.0\n", encoding="utf-8")
    out = tmp_path / "converge.csv"
    assert main(["converge", "--config", str(config), "--nmax-list", "1,2",
                 "--out", str(out), "--deterministic"]) == 0
    _, rows = _read_rows(out)
    assert [(r[0], r[1]) for r in rows] == [("1", "0"), ("1", "1.5"), ("2", "0"), ("2", "1.5")]


def test_converge_rejects_bad_list(tmp_path, capsys):
    out = tmp_path / "x.csv"
    assert main(["converge", "--nmax-list", "2,two", "--out", str(out)]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"


_FINE_GRID = ("{cfg}: sweep step 4.167e-09 MHz is below 1e-10 of the window's largest |value|, "
              "finer than the 12 significant digits a grid is written with")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["cavity-scan", "--atoms", "5", "--out", "{out}"], None),
        (["cavity-scan", "--points", "abc", "--out", "{out}"], None),
        # a value that starts with "-" is still the value of --nmax-list
        (["converge", "--nmax-list", "-1,1", "--out", "{out}"],
         "n_max must be an integer of at least 1, got -1"),
        (["eit-sweep", "--deterministic"], None),
        ([], None),
        # a 4e-9 MHz step at 1000 MHz is finer than the 12 digits written
        (["cavity-scan", "--atoms", "0", "--start", "1000", "--stop", "1000.000001",
          "--points", "241", "--deterministic", "--out", "{out}"], None),
        # the same window in a config file fails as the file loads, named by
        # it, also for cavity-scan, which takes its window from its options
        (["eit-sweep", "--config", "{cfg}", "--out", "{out}"], _FINE_GRID),
        (["cavity-scan", "--config", "{cfg}", "--out", "{out}"], _FINE_GRID),
    ],
    ids=["atoms-5", "points-abc", "nmax-list-negative", "missing-out", "no-subcommand",
         "grid-finer-than-written", "config-grid-finer-than-written",
         "scan-config-grid-finer-than-written"],
)
def test_bad_arguments_exit_with_error_record(tmp_path, argv, message):
    out = tmp_path / "o.csv"
    config = tmp_path / "fine.cfg"
    config.write_text("start = 1000\nstop = 1000.000001\nn_points = 241\n", encoding="utf-8")
    status, stdout, stderr = _run_cli([arg.format(out=out, cfg=config) for arg in argv])
    assert status == 2
    assert stdout == ""
    (line,) = stderr.splitlines()
    record = _strict_json(line)
    assert set(record) == {"error", "message"}
    assert record["error"] == "ConfigError"
    if message is not None:
        assert record["message"] == message.format(cfg=config)
    assert not out.exists()


def test_a_value_that_starts_with_a_minus_is_the_option_value(tmp_path):
    # argparse alone reads "-1e-3" as an option, though "=-1e-3" as a value
    outputs = []
    for start in (["--start", "-1e-3"], ["--start=-1e-3"]):
        out = tmp_path / f"scan{len(outputs)}.csv"
        assert main(["cavity-scan", "--atoms", "0", *start, "--stop", "1", "--points", "5",
                     "--out", str(out), "--deterministic"]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    assert _read_rows(tmp_path / "scan0.csv")[1][0][0] == "-0.001"


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exited:
        main(["converge", "--help"])
    assert exited.value.code == 0
    captured = capsys.readouterr()
    assert "--nmax-list" in captured.out and captured.err == ""


def test_deterministic_runs_are_byte_identical(tmp_path, small_config):
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    for path in (first, second):
        assert main(["eit-sweep", "--config", small_config, "--engine", "both",
                     "--out", str(path), "--deterministic"]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_timestamp_header_unless_deterministic(tmp_path, small_config):
    stamped = tmp_path / "t.csv"
    plain = tmp_path / "p.csv"
    assert main(["eit-sweep", "--config", small_config, "--atoms", "0",
                 "--out", str(stamped)]) == 0
    assert main(["eit-sweep", "--config", small_config, "--atoms", "0",
                 "--out", str(plain), "--deterministic"]) == 0
    assert stamped.read_text(encoding="utf-8").startswith("# generated ")
    assert not plain.read_text(encoding="utf-8").startswith("#")


def test_bad_config_file_exits_with_error_record(tmp_path, capsys):
    config = tmp_path / "broken.cfg"
    config.write_text("coupling = 1.0\n", encoding="utf-8")
    out = tmp_path / "o.csv"
    assert main(["eit-sweep", "--config", str(config), "--out", str(out)]) == 2
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "ConfigError"
    assert "coupling" in record["message"]


@pytest.mark.parametrize(
    "config_text, command",
    [
        ("g = nan\n", ["eit-sweep"]),
        ("kappa = inf\n", ["eit-sweep"]),
        ("stop = inf\n", ["eit-sweep"]),
        ("", ["cavity-scan", "--stop", "inf"]),
    ],
    ids=["g-nan", "kappa-inf", "stop-inf", "scan-stop-inf"],
)
def test_non_finite_input_exits_with_error_record(tmp_path, capsys, config_text, command):
    config = tmp_path / "nonfinite.cfg"
    config.write_text(config_text, encoding="utf-8")
    out = tmp_path / "o.csv"
    assert main(command + ["--config", str(config), "--out", str(out)]) == 2
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "ConfigError"
    assert "finite" in record["message"]


_HEADER = "delta_MHz,T_rel,photon_number,absorption_part,dispersion_part,engine,residual\n"
_ROW = "{},0.5,0.05,,,me,1e-12\n"


@pytest.mark.parametrize(
    "text, where",
    [
        (_HEADER + "0.1,0.5\n", "bad.csv:2:"),
        (_HEADER + "0.1,high,0.05,,,me,1e-12\n", "bad.csv:2:"),
        ("# generated now\n" + _HEADER + _ROW.format(0.0) + "0.1,nan,0.05,,,me,1e-12\n",
         "bad.csv:4:"),
        (_HEADER + "".join(_ROW.format(0.1 * i) for i in range(4)), "engine 'me'"),
        ("# generated now\n" + _HEADER, "bad.csv: no spectrum rows"),
    ],
    ids=["short-row", "non-numeric", "nan", "too-few-points", "header-only"],
)
def test_analyze_rejects_malformed_rows(tmp_path, capsys, text, where):
    bad = tmp_path / "bad.csv"
    bad.write_text(text, encoding="utf-8")
    assert main(["analyze", "--in", str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    record = json.loads(captured.err)
    assert record["error"] == "ConfigError"
    assert where in record["message"]


@pytest.mark.parametrize("command", ["analyze", "eit-sweep"])
def test_undecodable_input_exits_with_error_record(tmp_path, capsys, command):
    binary = tmp_path / "binary.dat"
    binary.write_bytes(b"\xff\xfe\x00")
    argv = {
        "analyze": ["analyze", "--in", str(binary)],
        "eit-sweep": ["eit-sweep", "--config", str(binary), "--out", str(tmp_path / "o.csv")],
    }[command]
    assert main(argv) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"


@pytest.mark.parametrize(
    "command",
    [["eit-sweep", "--atoms", "0"], ["converge", "--nmax-list", "1,2"],
     ["cavity-scan", "--atoms", "0"]],
    ids=["eit-sweep", "converge", "cavity-scan"],
)
@pytest.mark.parametrize("target", ["missing-dir", "is-dir"])
def test_unwritable_output_exits_with_error_record(tmp_path, small_config, capsys, monkeypatch,
                                                   command, target):
    # the output is checked before any point is solved
    def forbidden(*args, **kwargs):
        pytest.fail("computation started before --out was opened")

    monkeypatch.setattr(cli, "run_sweep", forbidden)
    monkeypatch.setattr(cli, "convergence_study", forbidden)
    out = {"missing-dir": tmp_path / "nowhere" / "o.csv", "is-dir": tmp_path}[target]
    assert main(command + ["--config", small_config, "--out", str(out)]) == 2
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "ConfigError"
    assert str(out) in record["message"]


def test_a_failed_command_removes_only_a_regular_output_file(tmp_path, monkeypatch):
    # n_p = 1e-20 passes the config and fails the first sweep step, after
    # --out is open: a regular file that existed before keeps its contents,
    # no temporary file is left beside it, and a pipe stays
    config = tmp_path / "no_probe.cfg"
    config.write_text("n_p = 1e-20\n", encoding="utf-8")
    argv = ["eit-sweep", "--config", str(config), "--out"]
    regular = tmp_path / "o.csv"
    regular.write_text("kept from before\n", encoding="utf-8")
    assert _run_cli(argv + [str(regular)])[0] == 2
    assert regular.read_text(encoding="utf-8") == "kept from before\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["no_probe.cfg", "o.csv"]
    pipe = tmp_path / "o.fifo"
    os.mkfifo(pipe)
    reader = threading.Thread(target=pipe.read_bytes, daemon=True)
    reader.start()
    status, stdout, stderr = _run_cli(argv + [str(pipe)])
    reader.join(timeout=60)
    assert not reader.is_alive()
    assert status == 2 and stdout == ""
    (line,) = stderr.splitlines()
    assert _strict_json(line) == {
        "error": "ConfigError", "message": "probe drive is zero; relative transmission is undefined",
    }
    assert stat.S_ISFIFO(os.stat(pipe).st_mode)

    # a removal that fails leaves the command's own record
    def refused(path):
        raise PermissionError(13, "Permission denied", path)

    monkeypatch.setattr(os, "remove", refused)
    status, stdout, stderr = _run_cli(argv + [str(regular)])
    assert status == 2
    (line,) = stderr.splitlines()
    assert _strict_json(line)["message"] == "probe drive is zero; relative transmission is undefined"


def test_a_command_replaces_the_target_of_a_symlinked_output_keeping_its_mode(tmp_path):
    argv = ["cavity-scan", "--atoms", "0", "--points", "5", "--deterministic", "--out"]
    target = tmp_path / "scan.csv"
    target.write_text("kept from before\n", encoding="utf-8")
    target.chmod(0o640)
    link = tmp_path / "link.csv"
    link.symlink_to(target)
    assert _run_cli(argv + [str(link)])[0] == 0
    assert link.is_symlink() and stat.S_IMODE(os.stat(target).st_mode) == 0o640
    assert target.read_text(encoding="utf-8").startswith("delta_p_cav_MHz,")
    # a new file gets the mode open() would give it
    umask = os.umask(0o022)
    try:
        assert _run_cli(argv + [str(tmp_path / "new.csv")])[0] == 0
    finally:
        os.umask(umask)
    assert stat.S_IMODE(os.stat(tmp_path / "new.csv").st_mode) == 0o644
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.csv", "new.csv", "scan.csv"]


def test_a_failed_move_onto_the_output_exits_with_error_record(tmp_path, monkeypatch):
    def refused(source, target):
        raise PermissionError(13, "Permission denied", target)

    monkeypatch.setattr(os, "replace", refused)
    out = tmp_path / "scan.csv"
    out.write_text("kept from before\n", encoding="utf-8")
    status, stdout, stderr = _run_cli(
        ["cavity-scan", "--atoms", "0", "--points", "5", "--out", str(out)])
    assert status == 2 and stdout == ""
    (line,) = stderr.splitlines()
    record = _strict_json(line)
    assert record["error"] == "ConfigError" and str(out) in record["message"]
    assert out.read_text(encoding="utf-8") == "kept from before\n"
    assert [p.name for p in tmp_path.iterdir()] == ["scan.csv"]


def test_out_of_memory_exits_with_error_record(tmp_path, capsys, monkeypatch):
    # a grid too large to allocate: exit 2 with one record, not a traceback;
    # 1e10 points over the default 6 MHz window step 6e-10 MHz, coarse
    # enough for the written digits, so the spec accepts them
    def exhausted(spec, **kwargs):
        raise MemoryError("Unable to allocate 74.5 GiB for an array")

    monkeypatch.setattr(cli, "run_sweep", exhausted)
    out = tmp_path / "x.csv"
    assert main(["cavity-scan", "--points", "10000000000", "--out", str(out)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert record["error"] == "MemoryError"
    assert "allocate" in record["message"]
    assert not out.exists()


def test_converge_residual_miss_exits_with_error_record(tmp_path, small_config, capsys,
                                                       monkeypatch):
    # No configuration is known to miss the scaled residual tolerance, so
    # the study's solves get a zero tolerance, which every nonzero residual
    # misses.
    monkeypatch.setattr(cavity_eit.liouville, "DEFAULT_TOL", 0.0)
    out = tmp_path / "converge.csv"
    assert main(["converge", "--config", small_config, "--nmax-list", "1,2",
                 "--out", str(out)]) == 2
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "SteadyStateConvergenceError"
    assert "n_max" in record["message"] and "tolerance" in record["message"]
    assert not out.exists()


def test_sweep_point_without_solution_exits_with_error_record(tmp_path, small_config, capsys,
                                                              monkeypatch):
    def broken(self, values):
        yield from ()  # a generator, like solve_each, that raises on its first point
        raise cavity_eit.SteadyStateConvergenceError("solution violates state invariants")

    monkeypatch.setattr(cavity_eit.liouville.ParametricSteadyState, "solve_each", broken)
    out = tmp_path / "o.csv"
    assert main(["eit-sweep", "--config", small_config, "--out", str(out)]) == 2
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "SteadyStateConvergenceError"
    assert record["message"] == (
        "sweep point two_photon_delta = -0.7 MHz: solution violates state invariants"
    )
    assert not out.exists()


@pytest.mark.parametrize(
    "config_text, nmax_list, error, label",
    [
        ("g = 0\nomega_con = 0\n", "1,2", "DegenerateSteadyStateError",
         "n_max = 1, delta = 0.0 MHz: "),
        ("", "2,1000", "CapacityError", "n_max = 1000, delta = 0.0 MHz: "),
    ],
    ids=["degenerate", "capacity"],
)
def test_converge_error_names_its_point(tmp_path, capsys, config_text, nmax_list, error, label):
    # with no atom-cavity coupling and no control field the generator has
    # several steady states; n_max = 1000 is beyond the solver cap
    config = tmp_path / "run.cfg"
    config.write_text(config_text, encoding="utf-8")
    out = tmp_path / "converge.csv"
    assert main(["converge", "--config", str(config), "--nmax-list", nmax_list,
                 "--out", str(out)]) == 2
    # the degenerate point's infinite condition estimate stays out of the record
    record = _strict_json(capsys.readouterr().err)
    assert set(record) == {"error", "message"}
    assert record["error"] == error
    assert record["message"].startswith(label)
    assert not out.exists()


def test_converge_names_an_overflowing_absorption_peak(tmp_path, capsys):
    # omega_con^2/(4 delta_p) overflows at a subnormal delta_p: the record
    # names the inputs that were set, not only the detuning derived from them
    config = tmp_path / "run.cfg"
    config.write_text("delta_p = 1e-310\n", encoding="utf-8")
    out = tmp_path / "converge.csv"
    assert main(["converge", "--config", str(config), "--nmax-list", "1,2",
                 "--out", str(out)]) == 2
    assert _strict_json(capsys.readouterr().err) == {
        "error": "ConfigError",
        "message": "the absorption-peak detuning omega_con^2/(4 delta_p) = inf MHz is not "
                   "finite (omega_con = 2.8, delta_p = 1e-310)",
    }
    assert not out.exists()


def test_converge_names_a_huge_finite_absorption_peak(tmp_path, capsys):
    # delta_p = 1e-300 puts the absorption peak at a finite 1.96e300 MHz,
    # whose single solve is singular; the record names that truncation and
    # detuning, where the detuning moves only the system's diagonal
    config = tmp_path / "run.cfg"
    config.write_text("delta_p = 1e-300\n", encoding="utf-8")
    out = tmp_path / "converge.csv"
    assert main(["converge", "--config", str(config), "--nmax-list", "1,2",
                 "--out", str(out)]) == 2
    record = _strict_json(capsys.readouterr().err)
    assert record["error"] == "DegenerateSteadyStateError"
    assert record["message"].startswith("n_max = 1, delta = 1.9599999999999996e+300 MHz: ")
    assert record["message"].endswith(_UNDETERMINED)
    assert not out.exists()


def test_converge_capacity_exits_before_the_first_solve(tmp_path, capsys, monkeypatch):
    # two atoms at n_max = 2 are ~5 s a point; n_max = 1000 fails on dimensions alone
    def forbidden(*args, **kwargs):
        pytest.fail("a point was solved before every truncation's capacity was checked")

    # every solve needs its truncation's system first
    monkeypatch.setattr(cavity_eit.sweep, "_zero_system", forbidden)
    config = tmp_path / "run.cfg"
    config.write_text("n_atoms = 2\n", encoding="utf-8")
    out = tmp_path / "converge.csv"
    assert main(["converge", "--config", str(config), "--nmax-list", "2,1000",
                 "--out", str(out)]) == 2
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "CapacityError"
    assert record["message"].startswith("n_max = 1000, delta = 0.0 MHz: ")
    assert not out.exists()


@pytest.mark.parametrize("engine", ["sc", "both"])
def test_semiclassical_engine_without_gamma_exits_with_error_record(tmp_path, capsys, engine):
    # the closed form needs gamma > 0; the master equation alone does not
    config = tmp_path / "run.cfg"
    config.write_text(SMALL_CONFIG + "gamma = 0\n", encoding="utf-8")
    out = tmp_path / "o.csv"
    assert main(["eit-sweep", "--config", str(config), "--engine", engine,
                 "--out", str(out)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert record["error"] == "ConfigError"
    assert "gamma" in record["message"]
    assert not out.exists()


_OVERFLOWED = "the solve or its condition estimate overflowed"
_UNDETERMINED = (
    "the steady state is not determined: a second steady state, or rates that span too "
    "many orders of magnitude"
)


@pytest.mark.parametrize(
    "config_text, command, error, cause",
    [
        ("g = 1e160\n", ["eit-sweep"], "DegenerateSteadyStateError", _OVERFLOWED),
        ("g = 1e200\n", ["eit-sweep"], "DegenerateSteadyStateError", _OVERFLOWED),
        ("g = 1e308\n", ["eit-sweep"], "ConfigError", None),
        ("g = 1e200\n", ["eit-sweep", "--engine", "sc"], "ConfigError", None),
        ("omega_con = 1e200\n", ["converge", "--nmax-list", "1,2"], "ConfigError", None),
        ("kappa = 1e200\n", ["eit-sweep"], "DegenerateSteadyStateError", _UNDETERMINED),
        ("n_p = 1e300\n", ["converge", "--nmax-list", "1,2"], "DegenerateSteadyStateError",
         _UNDETERMINED),
    ],
    ids=["g-1e160", "g-1e200", "g-1e308", "closed-form-g-1e200", "converge-omega-1e200",
         "kappa-1e200", "converge-n_p-1e300"],
)
def test_overflowing_parameters_exit_with_one_error_line(tmp_path, config_text, command, error,
                                                         cause):
    # finite parameters that overflow the condition estimate (g = 1e160),
    # the solve (1e200), the model (1e308) or a float power: the run exits 2
    # with its record as the only line on stderr, ahead of which no
    # RuntimeWarning is printed under Python's default warning filters.
    # Rates ~200 decades apart (kappa = 1e200, n_p = 1e300) leave a finite
    # estimate above the singular bound, which cannot tell a second steady
    # state from bad scaling, so the message claims neither.
    config = tmp_path / "huge.cfg"
    config.write_text(config_text + "n_points = 5\n", encoding="utf-8")
    out = tmp_path / "o.csv"
    package_root = Path(cavity_eit.__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-m", "cavity_eit", *command, "--config", str(config),
         "--out", str(out)],
        env=dict(os.environ, PYTHONPATH=str(package_root)), capture_output=True, text=True,
        timeout=300,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    (line,) = proc.stderr.splitlines()
    record = _strict_json(line)
    assert set(record) == {"error", "message"}
    assert record["error"] == error
    if cause is None:
        assert "overflow" in record["message"]
    else:
        assert record["message"].endswith(cause)
        assert "multiple steady states" not in record["message"]
    assert not out.exists()


def _csvs_at_blas_threads(out_dir, threads, commands):
    """Run each command of ``commands`` (name: CLI arguments) with ``--out
    out_dir/<name>.csv --deterministic``, in order, in one fresh process
    with the BLAS limited to ``threads`` threads; return each CSV's bytes by
    name."""
    out_dir.mkdir(exist_ok=True)
    outs = {name: out_dir / f"{name}.csv" for name in commands}
    package_root = Path(cavity_eit.__file__).resolve().parent.parent
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=str(package_root))
    argvs = [[*args, "--out", str(outs[name]), "--deterministic"]
             for name, args in commands.items()]
    script = ("import json, sys\nfrom cavity_eit.cli import main\n"
              "for argv in json.loads(sys.argv[1]):\n"
              "    if main(argv) != 0:\n        sys.exit(f'{argv} exited nonzero')\n")
    subprocess.run([sys.executable, "-c", script, json.dumps(argvs)],
                   env=env, check=True, timeout=300)
    return {name: out.read_bytes() for name, out in outs.items()}


def _sweep_at_blas_threads(out, threads, *args, command=("eit-sweep", "--engine", "both")):
    """Run ``command --deterministic`` (``eit-sweep`` with both engines by
    default) in a fresh process with the BLAS limited to ``threads``
    threads; return the CSV's bytes."""
    return _csvs_at_blas_threads(out.parent, threads, {out.stem: (*command, *args)})[out.stem]


def test_deterministic_csv_independent_of_blas_threads(tmp_path, small_config):
    # byte identity must not hinge on how many threads the BLAS starts: the
    # default one-atom sweep (update rank 72), the two-level cavity scan at
    # n_max 4, whose rank 80 is the largest of a one-atom sweep that one base
    # LU serves, two sweeps with at least as many values as rows, which
    # probe through the dense A0^-1 on every BLAS thread: only sums over the
    # rank may reach a CSV column; and the five-level sweep at n_max 3,
    # Liouville size 400, a LU per value.  At n_max 4 (size 625) SuperLU's
    # own factors change with the thread count.  One process per thread
    # count runs all five commands.
    config = tmp_path / "two_level.cfg"
    config.write_text("n_max = 4\n", encoding="utf-8")
    size_400 = tmp_path / "size_400.cfg"
    size_400.write_text("n_max = 3\nn_points = 5\n", encoding="utf-8")
    both = ("eit-sweep", "--engine", "both")
    runs = {
        "default": (*both, "--config", small_config),
        "size-400": (*both, "--config", str(size_400)),
        "two-level": ("cavity-scan", "--config", str(config), "--atoms", "1", "--start", "-2",
                      "--stop", "2", "--points", "9"),
        "dense-two-level": ("cavity-scan", "--atoms", "1", "--points", "41"),
        "dense-default-window": ("eit-sweep",),
    }
    outputs = [_csvs_at_blas_threads(tmp_path / threads, threads, runs) for threads in ("1", "2")]
    for name in runs:
        assert outputs[0][name] == outputs[1][name], name


def test_two_atom_csv_identical_at_fixed_blas_threads(tmp_path):
    # The two-atom sparse LU runs BLAS kernels that split their sums by
    # thread, so its last bits depend on the thread count: at delta = 0 the
    # residual reads 2.45e-14 with one thread and 4.70e-14 with two.  The
    # contract is byte identity at a fixed thread count, and across thread
    # counts the same values to solver precision.
    config = tmp_path / "two_atoms.cfg"
    config.write_text("n_max = 1\nstart = 0.0\nstop = 1.5\nn_points = 2\n", encoding="utf-8")
    args = ("--config", str(config), "--atoms", "2")
    outputs = {
        name: _sweep_at_blas_threads(tmp_path / f"{name}.csv", threads, *args)
        for name, threads in (("one", "1"), ("two", "2"), ("again", "2"))
    }
    assert outputs["two"] == outputs["again"]
    header, rows_one = _read_rows(tmp_path / "one.csv")
    _, rows_two = _read_rows(tmp_path / "two.csv")
    assert len(rows_one) == len(rows_two) == 4
    residual = header.index("residual")
    for row_one, row_two in zip(rows_one, rows_two):
        for k, (a, b) in enumerate(zip(row_one, row_two)):
            if k == residual and a:
                assert float(a) <= 1e-9 and float(b) <= 1e-9
            elif a != b:
                assert float(a) == pytest.approx(float(b), rel=1e-10, abs=1e-14)


_OPTIONAL = st.none() | _FINITE


@st.composite
def _spectrum_records(draw):
    return SpectrumRecord(
        sweep_value=draw(_FINITE),
        transmission_rel=draw(_FINITE),
        photon_number=draw(_FINITE),
        absorption_part=draw(_OPTIONAL),
        dispersion_part=draw(_OPTIONAL),
        residual_norm=draw(_OPTIONAL),
        engine=draw(st.sampled_from((ENGINE_MASTER_EQUATION, ENGINE_SEMICLASSICAL))),
    )


@given(st.lists(_spectrum_records(), max_size=8))
def test_spectrum_csv_round_trip_property(tmp_path_factory, records):
    path = tmp_path_factory.mktemp("csv") / "spectrum.csv"
    with open(path, "w", encoding="utf-8", newline="") as handle:
        cli._write_spectrum_csv(handle, "delta_MHz", records)
    column, back = cli._read_spectrum_csv(str(path))
    assert column == "delta_MHz"
    assert len(back) == len(records)
    for rec, read in zip(records, back):
        for field in dataclasses.fields(SpectrumRecord):
            value, got = getattr(rec, field.name), getattr(read, field.name)
            if isinstance(value, float):
                assert got == float(format(value, ".12g"))
            else:
                assert got == value


def test_exit_status_reflects_flagged_records():
    from cavity_eit.cli import _exit_status
    from cavity_eit.sweep import SpectrumRecord

    clean = SpectrumRecord(0.0, 1.0, 0.1, None, None, 1e-12, "me")
    flagged = SpectrumRecord(0.1, 1.0, 0.1, None, None, 1e-3, "me", converged=False)
    assert _exit_status([clean, clean]) == 0
    assert _exit_status([clean, flagged]) == 1


def test_twelve_significant_digits(tmp_path, small_config):
    out = tmp_path / "digits.csv"
    assert main(["eit-sweep", "--config", small_config, "--out", str(out),
                 "--deterministic"]) == 0
    _, rows = _read_rows(out)
    value = rows[0][1]
    assert float(value) == pytest.approx(float(f"{float(value):.12g}"), rel=0, abs=0)
    # formatting uses up to 12 significant digits
    mantissa = value.replace("-", "").replace(".", "").lstrip("0").split("e")[0]
    assert len(mantissa) <= 12


def _strict_json(line):
    def reject(constant):
        raise ValueError(f"not JSON: {constant}")

    return json.loads(line, parse_constant=reject)


def _run_cli(argv):
    """``main(argv)`` with its standard output and error captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        # a near-degenerate point warns and is solved; it is not an error here
        warnings.simplefilter("ignore", NearDegeneracyWarning)
        status = main(argv)
    return status, out.getvalue(), err.getvalue()


_FUZZ_KEYS = ("g", "omega_con", "gamma", "kappa", "gamma_deph", "n_p", "delta_p",
              "delta_p_cav", "delta", "light_shift", "start", "stop")
_FUZZ_VALUES = st.sampled_from((0.0, 1e-12, 0.3, 3.0, 1e9, -1e3))


@st.composite
def _cli_calls(draw):
    """A small config file's text and one command that reads it."""
    keys = draw(st.sets(st.sampled_from(_FUZZ_KEYS), max_size=3))
    lines = [f"{key} = {draw(_FUZZ_VALUES)!r}" for key in sorted(keys)]
    lines.append(f"n_max = {draw(st.integers(min_value=1, max_value=2))}")
    lines.append(f"n_points = {draw(st.integers(min_value=2, max_value=7))}")
    command = draw(st.sampled_from(("eit-sweep", "cavity-scan", "converge")))
    if command == "eit-sweep":
        args = ["--engine", draw(st.sampled_from(("me", "sc", "both"))),
                "--atoms", str(draw(st.integers(min_value=0, max_value=1)))]
        args += ["--three-level"] * draw(st.booleans())
    elif command == "cavity-scan":
        args = ["--atoms", str(draw(st.integers(min_value=0, max_value=1))),
                "--points", str(draw(st.integers(min_value=1, max_value=7)))]
    else:
        args = ["--nmax-list", draw(st.sampled_from(("1,2", "2,1", "1", "0,1", "1,x")))]
    return "\n".join(lines) + "\n", [command, *args]


@settings(max_examples=25, deadline=None)
@given(_cli_calls())
def test_cli_exits_cleanly_property(tmp_path_factory, call):
    # every command on every small config succeeds, flags points or exits 2
    # with one JSON error record and no output file; analyze reads what the
    # command wrote under the same contract
    text, argv = call
    work = tmp_path_factory.mktemp("cli")
    config, out = work / "run.cfg", work / "out.csv"
    config.write_text(text, encoding="utf-8")
    for command in (argv + ["--config", str(config), "--out", str(out)],
                    ["analyze", "--in", str(out)]):
        status, stdout, stderr = _run_cli(command)
        assert status in (0, 1, 2)
        if status == 2:
            (line,) = stderr.splitlines()
            record = _strict_json(line)
            assert set(record) == {"error", "message"}
            assert stdout == ""
            if command[0] != "analyze":
                assert not out.exists()
                break
        elif command[0] == "analyze":
            assert _strict_json(stdout)["input"] == str(out)
        else:
            assert out.exists()
