"""CLI subcommands: exit codes, CSV shape, determinism, error mapping."""

import argparse
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bosepol
from bosepol import (
    BlochState, GaussianState, cli, fock_oracle, loops, make_lattice, rice_mele, winding,
)
from bosepol.polarization import polarization
from bosepol.states import reassemble_covariance


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


def test_nonfinite_inputs_exit_config():
    assert cli.main(["flux-sweep", "--period-list", "inf"]) == 2
    assert cli.main(["winding", "--L", "3", "--mu", "nan"]) == 2
    assert cli.main(["scaling", "--beta", "nan"]) == 2
    assert cli.main(["chern", "--L", "4", "--samples", "16", "--mu", "nan"]) == 2


@pytest.mark.parametrize("mass", ["nan", "inf", "-inf"])
def test_nonfinite_chern_mass_names_the_contract(capsys, mass):
    assert cli.main(["chern", "--L", "4", "--samples", "16", f"--mass={mass}"]) == 2
    assert "error: Chern chain mass must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["winding", "--L", "3"], ["chern", "--L", "4", "--samples", "16"], ["scaling", "--L", "3,4,5"],
])
def test_nan_mu_names_the_contract(capsys, argv):
    assert cli.main(argv + ["--mu", "nan"]) == 2
    assert "error: chemical potential mu must be a number, got nan" in capsys.readouterr().err


@pytest.mark.parametrize("mass", ["0", "2", "-2"])
def test_chern_gap_closing_mass_is_a_numerical_failure(capsys, mass):
    assert cli.main(["chern", "--L", "4", "--samples", "16", "--mass", mass]) == 3
    assert "numerical failure: gap closure" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["scaling", "--n", "3"],
    ["winding", "--n", "3"],
    ["winding", "--loop", "rmm-coherent", "--n", "3"],
])
def test_three_sites_per_cell_names_the_contract(capsys, argv):
    assert cli.main(argv) == 2
    assert "two sites per cell" in capsys.readouterr().err


FLOAT_OPTIONS = [
    ("flux-sweep", "--period-list"), ("flux-sweep", "--amplitude"),
    ("scaling", "--offset"), ("scaling", "--amplitude"), ("scaling", "--beta"),
    ("scaling", "--mu"), ("scaling", "--cycle-fraction"),
    ("winding", "--offset"), ("winding", "--amplitude"), ("winding", "--period"),
    ("winding", "--beta"), ("winding", "--mu"),
    ("chern", "--mass"), ("chern", "--beta"), ("chern", "--mu"),
]
NEGATIVE_VALUES = ["-1e-3", "-3E+0", "-inf", "-nan", "-2.5"]


def test_float_options_cover_the_parser():
    subparsers = next(a for a in cli._build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    typed = {(name, a.option_strings[-1]) for name, sub in subparsers.choices.items()
             for a in sub._actions if a.type in (float, cli._float_list)}
    assert typed == set(FLOAT_OPTIONS)


@pytest.mark.parametrize(
    "command, option, value",
    [(*opt, value) for opt in FLOAT_OPTIONS for value in NEGATIVE_VALUES]
    + [("flux-sweep", "--period-list", "-1e-3,-inf,2")],
)
def test_negative_float_value_as_separate_token(command, option, value):
    required = []
    if command == "flux-sweep" and option != "--period-list":
        required = ["--period-list", "1"]
    parser = cli._build_parser()
    spaced = parser.parse_args([command, *required, option, value])
    joined = parser.parse_args([command, *required, f"{option}={value}"])
    assert repr(spaced) == repr(joined)


@pytest.mark.parametrize("argv, contract", [
    (["winding", "--L", "3", "--mu", "-1e-3"], "chemical potential not below the band minimum"),
    (["chern", "--L", "4", "--samples", "16", "--mass", "-inf"], "Chern chain mass must be finite"),
])
def test_negative_values_reach_their_contract(capsys, argv, contract):
    assert cli.main(argv) == 2
    spaced = capsys.readouterr().err
    assert cli.main([*argv[:-2], f"{argv[-2]}={argv[-1]}"]) == 2
    assert capsys.readouterr().err == spaced
    assert spaced.startswith(f"error: {contract}")


def test_chemical_potential_error_names_the_grid_minimum(capsys):
    # mu = -0.5 lies above the band minimum -sqrt(2) A of the reference pump;
    # at L = 3 the lowest sampled level is 0.414 below mu.
    assert cli.main(["winding", "--L", "3", "--mu", "-0.5"]) == 2
    assert capsys.readouterr().err == (
        "error: chemical potential not below the band minimum: min(eps - mu) = -0.914214\n"
    )


def test_seed_only_where_read():
    assert cli.main(["flux-sweep", "--period-list", "5", "--seed", "1"]) == 2
    parser = cli._build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    seeded = {name for name, p in sub.choices.items()
              if any("--seed" in a.option_strings for a in p._actions)}
    assert seeded == {"winding"}


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
    assert header == ["L", "abs_T", "det_term_phase", "epsilon_bound", "classical_bound",
                      "log_abs_T"]
    for row in rows:
        assert abs(float(row[2])) <= float(row[3])
        assert 0.0 < float(row[1]) < float(row[4])
        assert math.exp(float(row[5])) == pytest.approx(float(row[1]), rel=1e-14)
    amplitudes = [float(row[1]) for row in rows]
    assert amplitudes == sorted(amplitudes, reverse=True)  # localization decays with L


def test_scaling_bounds_match_the_dense_eigenvalues(tmp_path):
    """epsilon_bound and classical_bound come from polarization's eigenvalues of V."""
    out = tmp_path / "scaling.csv"
    assert cli.main(["scaling", "--L", "4,6,8", "--output", str(out)]) == 0
    params = loops.reference_protocol(1.0, 1.0).params_at(0.125)
    for row in read_csv(out)[2]:
        L = int(row[0])
        state = rice_mele.rmm_thermal_state(params, make_lattice(L, 2), 1.0, -3.0)
        eps = bosepol.decay_bound(state)
        assert abs(float(row[3]) - eps) <= 1e-12 * eps
        lam_min = np.linalg.eigvalsh(state.V)[0]
        bound = ((1.0 + lam_min) / 2.0) ** (-2 * L)
        assert abs(float(row[4]) - bound) <= 1e-12 * bound


def test_cold_scaling_keeps_its_decay_bound(tmp_path):
    """At beta = 40 every 1 + 2 nbar of the spectrum rounds to 1, where the
    Cayley norm read from its ends was 0 and the bound failed; the builder's
    exp(-beta min(eps - mu)) bounds the phase, which keeps its sign."""
    out = tmp_path / "scaling.csv"
    assert cli.main(["scaling", "--beta", "40", "--L", "4,8,16", "--output", str(out)]) == 0
    rows = read_csv(out)[2]
    assert 0.0 < float(rows[0][2]) <= float(rows[0][3])
    assert float(rows[0][3]) == pytest.approx(1.7567e-123, rel=1e-4)


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


def test_oracle_check_detects_reduction_mismatch(monkeypatch):
    """The dense-versus-Bloch column runs on the multi-cell (two-mode) cases."""
    real = cli.circulant.cell_bloch_blocks

    def perturbed(state):
        blocks = real(state)
        return BlochState(blocks.lattice, blocks.v_blocks * (1.0 + 1e-6), blocks.cell_mean)

    monkeypatch.setattr(cli.circulant, "cell_bloch_blocks", perturbed)
    assert cli.main(["oracle-check", "--cutoff", "160"]) == 5


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


def test_config_file_may_not_name_another_config_file(tmp_path, capsys):
    cfg = tmp_path / "c1.cfg"
    cfg.write_text("L = 3\nconfig = nonexistent.cfg\n")
    assert cli.main(["winding", "--config", str(cfg)]) == 2
    assert "unknown config key 'config' for subcommand 'winding'" in capsys.readouterr().err


def test_config_without_a_value_exits_config(capsys):
    assert cli.main(["winding", "--config"]) == 2
    assert "usage: bosepol" in capsys.readouterr().err


def test_config_file_rejects_bad_syntax(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("just-a-token\n")
    assert cli.main(["winding", "--config", str(cfg)]) == 2


def test_config_file_does_not_leak_into_the_next_call(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("L = 3\nsamples = 8\nmu = -2.5\nno_color = true\n")
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["winding", "--loop", "random-classical"]
    assert cli.main(["--config", str(cfg)] + args + ["--output", str(first)]) == 0
    assert cli.main(args + ["--output", str(second)]) == 0
    assert {"L=3", "samples=8", "mu=-2.5", "no_color=True"} <= set(read_csv(first)[0].split())
    assert {"L=8", "samples=16", "mu=None", "no_color=False"} <= set(read_csv(second)[0].split())
    assert cli._build_parser() is cli._build_parser()


def test_import_loads_no_scipy():
    env = dict(os.environ, PYTHONPATH=str(Path(bosepol.__file__).resolve().parents[1]))
    code = ("import sys, bosepol.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60).stdout
    assert out.strip() == "[]"


def test_unknown_subcommand_exits_2():
    assert cli.main(["frobnicate"]) == 2


def test_jobs_flag_is_gone():
    assert cli.main(["flux-sweep", "--period-list", "1", "--jobs", "2"]) == 2


@pytest.mark.parametrize("before", [True, False])
def test_no_color_before_or_after_subcommand(tmp_path, before):
    out = tmp_path / "t.csv"
    args = ["winding", "--L", "3", "--samples", "8", "--output", str(out)]
    args = ["--no-color"] + args if before else args + ["--no-color"]
    assert cli.main(args) == 0
    comment, _, _ = read_csv(out)
    assert "no_color=True" in comment.split()


@pytest.mark.parametrize("before", [True, False])
def test_config_before_or_after_subcommand(tmp_path, before):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("L = 3\nsamples = 8\n")
    out = tmp_path / "t.csv"
    args = ["winding", "--loop", "random-classical", "--output", str(out)]
    args = ["--config", str(cfg)] + args if before else args + ["--config", str(cfg)]
    assert cli.main(args) == 0
    comment, _, _ = read_csv(out)
    assert {"L=3", "samples=8", "no_color=False"} <= set(comment.split())


@pytest.mark.parametrize("before", [True, False])
@pytest.mark.parametrize("flag", [["--config", "{}"], ["--conf={}"], ["--c", "{}"], ["--={}"]])
def test_config_flag_forms_read_the_file(tmp_path, flag, before):
    """Every token argparse reads as --config, abbreviated or with '=', before
    or after the subcommand; '--=' is the empty prefix of every long option."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text("L = 3\nsamples = 8\n")
    out = tmp_path / "t.csv"
    flag = [token.format(cfg) for token in flag]
    args = ["winding", "--loop", "random-classical", "--output", str(out)]
    args = flag + args if before else args + flag
    assert cli.main(args) == 0
    comment, _, _ = read_csv(out)
    assert {"L=3", "samples=8", "loop=random-classical"} <= set(comment.split())


def test_argv_without_a_config_token_skips_the_probe(tmp_path, monkeypatch):
    def never():
        pytest.fail("the --config probe ran on an argv that cannot name --config")

    monkeypatch.setattr(cli, "_config_probe", never)
    out = tmp_path / "t.csv"
    argv = ["--no-color", "winding", "--L", "3", "--samples", "8", "--mu", "-2.5",
            "--output", str(out)]
    assert cli.main(argv) == 0
    assert {"L=3", "samples=8", "mu=-2.5"} <= set(read_csv(out)[0].split())


@pytest.mark.parametrize("flag", [["--cutoff", "50"], ["--cutoff=50"], ["--cut", "50"]])
def test_a_c_option_other_than_config_still_parses(flag):
    parser = cli._build_parser()
    argv = ["oracle-check", *flag]
    assert cli._config_file_flags(parser, argv) == argv
    assert parser.parse_args(argv).cutoff == 50


@pytest.mark.parametrize("value, text", [
    (0.1, "0.1"), (np.float64(0.1), "0.1"), (np.float32(0.1), "0.10000000149011612"),
    (1e-300, "1e-300"), (-0.0, "-0.0"), (np.float64(-0.0), "-0.0"),
    (math.nan, "nan"), (np.float64(math.nan), "nan"), (math.inf, "inf"), (-math.inf, "-inf"),
    (np.float64(-math.inf), "-inf"), (3, "3"), (np.int64(-3), "-3"), (True, "True"),
    (False, "False"), (np.True_, "True"), (None, "None"), ("rmm-thermal", "rmm-thermal"),
    ([4, 8], "[4, 8]"),
])
def test_format_value_strings(value, text):
    assert cli._format_value(value) == text


def test_config_file_named_like_a_subcommand(tmp_path, monkeypatch, capsys):
    (tmp_path / "chern").write_text("L = 4,6,8\n")
    monkeypatch.chdir(tmp_path)
    assert cli.main(["--config", "chern", "scaling"]) == 0
    assert "L=[4, 6, 8]" in capsys.readouterr().out.splitlines()[0]


def test_winding_sample_count_above_the_cap_exits_before_sampling(monkeypatch, capsys):
    def never(loop):
        pytest.fail("the loop was tracked before its sample count was checked")

    monkeypatch.setattr(winding, "track_polarization", never)
    assert cli.main(["winding", "--L", "3", "--samples", "1048577"]) == 2
    assert "initial sample count must be in [8, 1048575]" in capsys.readouterr().err


def test_second_call_builds_no_parser(tmp_path, monkeypatch):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("L = 3\nsamples = 8\n")
    out = tmp_path / "t.csv"
    # --conf is a prefix of --config and must keep working.
    args = ["--conf", str(cfg), "winding", "--loop", "random-classical", "--output", str(out)]
    assert cli.main(args) == 0
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *a, **kw):
        built.append(self)
        init(self, *a, **kw)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert cli.main(args) == 0
    assert built == []
    comment, _, _ = read_csv(out)
    assert {"L=3", "samples=8"} <= set(comment.split())


def test_chern_tracks_its_loop_once(monkeypatch):
    calls = []
    real = winding.track_polarization

    def counting(loop):
        calls.append(loop)
        return real(loop)

    monkeypatch.setattr(winding, "track_polarization", counting)
    assert cli.main(["chern", "--L", "4", "--samples", "16"]) == 0
    assert len(calls) == 1


@pytest.mark.parametrize("name", loops.LOOP_NAMES)
def test_winding_csv_matches_pointwise_polarization(tmp_path, name):
    out = tmp_path / "t.csv"
    assert cli.main(["winding", "--loop", name, "--L", "4", "--seed", "1",
                     "--output", str(out)]) == 0
    _, _, rows = read_csv(out)
    loop = loops.named_loop(name, make_lattice(4, 2), seed=1)
    V, mean = loop.sampler(np.array([0.0]))
    if V.ndim == 4:  # Bloch blocks and a cell mean: the dense state is the oracle
        V, mean = reassemble_covariance(V), np.tile(mean, 4)
    b = polarization(GaussianState(loop.lattice, V[0], mean[0]))
    expected = [0.0, b.p_unwrapped, b.abs_T, b.det_term_phase, b.mean_term.imag]
    # the loop closes with no winding, so lambda = 1 repeats lambda = 0
    for row, lam in ((rows[0], 0.0), (rows[-1], 1.0)):
        values = [float(x) for x in row]
        assert values[0] == lam
        assert np.abs(np.array(values[1:]) - expected[1:]).max() <= 1e-12


def test_chern_csv_matches_pointwise_polarization(tmp_path):
    out = tmp_path / "c.csv"
    assert cli.main(["chern", "--L", "4", "--samples", "16", "--output", str(out)]) == 0
    _, header, rows = read_csv(out)
    assert header == ["lambda", "ky", "P_unwrapped"]
    family = loops.thermal_chern_family(make_lattice(4, 2), 1.0, 1.0, -6.0)
    v, _ = family(np.array([0.0]))
    dense = GaussianState(make_lattice(4, 2), reassemble_covariance(v[0]), np.zeros(16))
    p0 = polarization(dense).p_unwrapped
    assert [float(x) for x in rows[0][:2]] == [0.0, 0.0]
    assert abs(float(rows[0][2]) - p0) <= 1e-12
    assert abs(float(rows[-1][2]) - p0) <= 1e-12
