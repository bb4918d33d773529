"""CLI subcommands: exit codes, CSV shape, determinism, error mapping."""

import numpy as np
import pytest

from bosepol import cli, fock_oracle


def read_csv(path):
    with open(path, encoding="utf-8") as fh:
        lines = [line.rstrip("\n") for line in fh]
    assert lines[0].startswith("# config:")
    header = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:] if line]
    return lines[0], header, rows


def test_flux_sweep_csv(tmp_path):
    out = tmp_path / "flux.csv"
    code = cli.main([
        "flux-sweep", "--period-list", "0.01,5", "--steps", "2000",
        "--output", str(out),
    ])
    assert code == 0
    comment, header, rows = read_csv(out)
    assert header == ["AT", "phi", "phi_adiabatic"]
    assert len(rows) == 2
    assert abs(float(rows[0][1])) < 0.01  # sudden limit
    assert float(rows[0][2]) == pytest.approx(0.5990701173677961)


def test_flux_sweep_rejects_empty_list():
    assert cli.main(["flux-sweep", "--period-list", ""]) == 2
    assert cli.main(["flux-sweep", "--period-list", "-3"]) == 2


def test_flux_sweep_deterministic(tmp_path):
    args = ["flux-sweep", "--period-list", "2,4", "--steps", "1500"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli.main(args + ["--output", str(a)]) == 0
    assert cli.main(args + ["--output", str(b)]) == 0
    # identical apart from the config echo (which records the output path)
    assert a.read_text().splitlines()[1:] == b.read_text().splitlines()[1:]


def test_scaling_bound_columns(tmp_path):
    out = tmp_path / "scaling.csv"
    code = cli.main(["scaling", "--L", "4,6,8", "--output", str(out)])
    assert code == 0
    _, header, rows = read_csv(out)
    assert header == ["L", "abs_T", "det_term_phase", "epsilon_bound", "classical_bound"]
    for row in rows:
        assert abs(float(row[2])) <= float(row[3])
        assert 0.0 < float(row[1]) < float(row[4])
    amplitudes = [float(row[1]) for row in rows]
    assert amplitudes == sorted(amplitudes, reverse=True)  # localization decays with L


def test_scaling_needs_three_sizes():
    assert cli.main(["scaling", "--L", "4,8"]) == 2


def test_winding_loop_pass(tmp_path, capsys):
    out = tmp_path / "trace.csv"
    code = cli.main([
        "winding", "--loop", "rmm-thermal", "--L", "4", "--zak",
        "--output", str(out),
    ])
    assert code == 0
    captured = capsys.readouterr().out
    assert "zero_count=0" in captured
    assert "zak_winding=1" in captured
    _, header, rows = read_csv(out)
    assert header == ["lambda", "P_unwrapped", "abs_T", "det_term_phase", "mean_term_im"]
    assert float(rows[0][0]) == 0.0 and float(rows[-1][0]) == 1.0


def test_winding_squeezed_loop():
    assert cli.main(["winding", "--loop", "random-squeezed", "--L", "3", "--n", "1",
                     "--seed", "3"]) == 0


def test_oracle_check_pass(capsys):
    assert cli.main(["oracle-check", "--cutoff", "160"]) == 0
    assert "max_relative_deviation" in capsys.readouterr().out


def test_oracle_check_cutoff_failure_is_numerical():
    assert cli.main(["oracle-check", "--cutoff", "2"]) == 3


def test_oracle_check_detects_corruption(monkeypatch):
    """A wrong closed form must trip the oracle gate, exit code 5."""
    real = fock_oracle.oracle_thermal_mode

    def corrupted(theta, nbar):
        return real(theta, nbar) * np.exp(1j * 1e-4)

    monkeypatch.setattr(fock_oracle, "oracle_thermal_mode", corrupted)
    assert cli.main(["oracle-check", "--cutoff", "160"]) == 5


def test_bench_csv(tmp_path):
    out = tmp_path / "bench.csv"
    code = cli.main(["bench", "--L", "2,4,8", "--repeats", "1", "--output", str(out)])
    assert code == 0
    _, header, rows = read_csv(out)
    assert header == ["L", "n", "dense_seconds", "reduced_seconds", "relative_det_error"]
    assert all(float(row[4]) <= 1e-10 for row in rows)


def test_bench_rows_run_serially_whatever_jobs(tmp_path, monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("bench rows must not be timed in a thread pool")

    monkeypatch.setattr(cli, "ThreadPoolExecutor", no_pool)
    out = tmp_path / "bench.csv"
    code = cli.main(["bench", "--L", "2,4", "--repeats", "1", "--jobs", "2",
                     "--output", str(out)])
    assert code == 0
    _, _, rows = read_csv(out)
    assert [int(row[0]) for row in rows] == [2, 4]


def test_chern_pass(capsys):
    code = cli.main(["chern", "--L", "4", "--samples", "16"])
    assert code == 0
    out = capsys.readouterr().out
    assert "family_chern=0" in out
    assert "band_chern=1" in out


def test_config_file_defaults_and_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("L = 4\nsamples = 8\n# comment line\n")
    out = tmp_path / "t.csv"
    code = cli.main([
        "winding", "--config", str(cfg), "--loop", "random-classical",
        "--samples", "16", "--output", str(out),
    ])
    assert code == 0
    comment, _, _ = read_csv(out)
    assert "L=4" in comment          # from file
    assert "samples=16" in comment   # flag overrides file


def test_config_file_rejects_unknown_keys(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("bogus = 1\n")
    assert cli.main(["winding", "--config", str(cfg)]) == 2


def test_config_file_rejects_bad_syntax(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("just-a-token\n")
    assert cli.main(["winding", "--config", str(cfg)]) == 2


def test_unknown_subcommand_exits_2():
    assert cli.main(["frobnicate"]) == 2


def test_jobs_flag_keeps_input_order(tmp_path):
    serial, threaded = tmp_path / "s.csv", tmp_path / "t.csv"
    base = ["flux-sweep", "--period-list", "1,2,3,4", "--steps", "1200"]
    assert cli.main(base + ["--output", str(serial)]) == 0
    assert cli.main(base + ["--jobs", "4", "--output", str(threaded)]) == 0
    assert serial.read_text() != ""
    # identical values and ordering regardless of worker count
    s_rows = serial.read_text().splitlines()[2:]
    t_rows = threaded.read_text().splitlines()[2:]
    assert s_rows == t_rows
