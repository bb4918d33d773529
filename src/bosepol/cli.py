"""Experiment command line: desk-scale reproduction of every headline number.

Subcommands
-----------
flux-sweep    net pump transport Phi(AT) against the adiabatic value 0.59907
scaling       |<T>| and determinant phase versus system size with decay bound
winding       polarization winding Delta P and zero count M on a named loop
oracle-check  Gaussian closed form versus independent Fock-space oracles
chern         momentum-resolved polarization winding of a topological band family

Exit codes: 0 success, 2 configuration error, 3 numerical failure,
4 theorem-violation alarm (a nonzero winding indicates a bug), 5 oracle
mismatch.

Options can also be given in a flat ``key = value`` config file via
``--config``; command-line flags override file values, unknown keys are
rejected. ``--config`` and ``--no-color`` go before or after the subcommand.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import re
import sys

import numpy as np

from . import circulant, fock_oracle, loops, rice_mele, winding
from .errors import NumericalError
from .polarization import polarization
from .states import make_lattice

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_ALARM = 4
EXIT_ORACLE = 5

WINDING_TOL = 1e-6
ORACLE_TOL = 1e-8


def _int_list(text: str) -> list[int]:
    values = [int(x) for x in text.split(",") if x.strip()]
    if not values:
        raise argparse.ArgumentTypeError("expected a comma-separated list of integers")
    return values


def _float_list(text: str) -> list[float]:
    values = [float(x) for x in text.split(",") if x.strip()]
    if not values:
        raise argparse.ArgumentTypeError("expected a comma-separated list of numbers")
    return values


# Tokens argparse must read as values, not options: -1e-3, -inf, -nan, -1,-2.
# Its own pattern takes only plain decimals; no option name starts this way.
_NEGATIVE_VALUE = re.compile(r"-(\.?\d|inf|nan)", re.IGNORECASE)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and never changed after."""
    parser = argparse.ArgumentParser(
        prog="bosepol",
        description="Polarization experiments on Gaussian bosonic lattice states.",
    )
    parser.add_argument("--config", help="flat key=value config file; flags override")
    parser.add_argument("--no-color", action="store_true", help="disable ANSI color")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser):
        p.add_argument("--output", help="write CSV here instead of stdout")
        # Repeated after the subcommand; SUPPRESS keeps a value given before it.
        p.add_argument("--config", default=argparse.SUPPRESS,
                       help="flat key=value config file; flags override")
        p.add_argument("--no-color", action="store_true", default=argparse.SUPPRESS,
                       help="disable ANSI color")

    p = sub.add_parser("flux-sweep", help="pump transport versus cycle time")
    p.add_argument("--period-list", type=_float_list, required=True,
                   help="comma-separated AT values")
    p.add_argument("--amplitude", type=float, default=1.0)
    p.add_argument("--steps", type=int, default=rice_mele.DEFAULT_PUMP_STEPS,
                   help="integration steps per period")
    common(p)
    p.set_defaults(func=run_flux_sweep)

    p = sub.add_parser("scaling", help="size scaling of the determinant phase")
    p.add_argument("--L", type=_int_list, default=[4, 8, 16, 32],
                   help="comma-separated cell counts, at least three of them")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--offset", type=float, default=0.5)
    p.add_argument("--amplitude", type=float, default=1.0)
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--mu", type=float, default=None,
                   help="chemical potential (default -3*amplitude)")
    p.add_argument("--cycle-fraction", type=float, default=0.125,
                   help="protocol time t/T defining the sampled parameters")
    common(p)
    p.set_defaults(func=run_scaling)

    p = sub.add_parser("winding", help="polarization winding on a named loop")
    p.add_argument("--loop", choices=loops.LOOP_NAMES, default="rmm-thermal")
    p.add_argument("--L", type=int, default=8)
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--offset", type=float, default=0.5)
    p.add_argument("--amplitude", type=float, default=1.0)
    p.add_argument("--period", type=float, default=50.0)
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--mu", type=float, default=None)
    p.add_argument("--samples", type=int, default=16, help="initial loop samples")
    p.add_argument("--zak", action="store_true",
                   help="also report the Zak winding of the drive")
    p.add_argument("--seed", type=int, default=0, help="seed of the random loops")
    common(p)
    p.set_defaults(func=run_winding)

    p = sub.add_parser("oracle-check", help="closed form versus Fock oracles")
    p.add_argument("--cutoff", type=int, default=160)
    common(p)
    p.set_defaults(func=run_oracle_check)

    p = sub.add_parser("chern", help="Chern-number null test on a thermal family")
    p.add_argument("--L", type=int, default=8)
    p.add_argument("--samples", type=int, default=32, help="k_y slices")
    p.add_argument("--mass", type=float, default=1.0)
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--mu", type=float, default=-6.0)
    common(p)
    p.set_defaults(func=run_chern)
    for p in (parser, *sub.choices.values()):
        p._negative_number_matcher = _NEGATIVE_VALUE
    return parser


@functools.cache
def _config_probe() -> argparse.ArgumentParser:
    """Parser that reads only ``--config`` (prefixes included), built once."""
    probe = argparse.ArgumentParser(prog="bosepol", add_help=False)
    probe.add_argument("--config")
    return probe


def _config_file_flags(parser: argparse.ArgumentParser, argv: list[str]) -> list[str]:
    """Insert ``--config`` key=value pairs as flags right after the subcommand.

    Later flags win in argparse, so flags on the command line override the
    file. The parser itself is never changed, so it can serve every call.
    The lookup skips ``--config`` and its value: a file may share a subcommand's name.
    Argparse's prefix matching reads ``--config`` only from a token ``--c...``
    or ``--=...``, so without one the probe is skipped.
    """
    if not any(a.startswith(("--c", "--=")) for a in argv):
        return argv
    known, rest = _config_probe().parse_known_args(argv)
    if not known.config:
        return argv
    entries: dict[str, str] = {}
    with open(known.config, encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{known.config}:{line_no}: expected key = value")
            key, value = (part.strip() for part in line.split("=", 1))
            entries[key.replace("-", "_")] = value
    # Resolve against the subcommand actually being invoked.
    choices = next(
        a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    )
    command = next((a for a in rest if a in choices), None)
    if command is None:
        raise ValueError("config file given but no subcommand selected")
    known_actions = {a.dest: a for a in choices[command]._actions if a.option_strings}
    flags = []
    for key, value in entries.items():
        if key not in known_actions or key == "config":  # a file names no other file
            raise ValueError(f"unknown config key {key!r} for subcommand {command!r}")
        action = known_actions[key]
        if isinstance(action, argparse._StoreTrueAction):
            if value.lower() in ("1", "true", "yes", "on"):
                flags.append(action.option_strings[-1])
        else:
            # --key=value keeps a negative number from reading as a flag.
            flags.append(f"{action.option_strings[-1]}={value}")
    at = rest.index(command) + 1
    return rest[:at] + flags + rest[at:]


def _format_value(v) -> str:
    if type(v) is float:  # most values, so tested first
        return repr(v)
    if isinstance(v, bool):
        return str(v)
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return str(v)


def _config_comment(args: argparse.Namespace) -> str:
    skip = {"func", "config"}
    items = sorted(
        (k, v) for k, v in vars(args).items() if k not in skip and not callable(v)
    )
    return "# config: " + " ".join(f"{k}={_format_value(v)}" for k, v in items)


def _emit_csv(args, header: list[str], rows: list[list]) -> None:
    lines = [_config_comment(args), ",".join(header)]
    lines += [",".join(map(_format_value, row)) for row in rows]
    text = "\n".join(lines) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _status(args, ok: bool, message: str) -> None:
    tag = "PASS" if ok else "FAIL"
    use_color = not args.no_color and "NO_COLOR" not in os.environ and sys.stdout.isatty()
    if use_color:
        color = "\x1b[32m" if ok else "\x1b[31m"
        tag = f"{color}{tag}\x1b[0m"
    print(f"{tag} {message}")


def run_flux_sweep(args) -> int:
    protocol0 = loops.reference_protocol(args.amplitude, 1.0)
    phi_ad = rice_mele.adiabatic_flux(protocol0)

    def point(at: float) -> list:
        protocol = loops.reference_protocol(args.amplitude, at / args.amplitude)
        traj = rice_mele.evolve_pump(protocol, steps=args.steps)
        return [at, rice_mele.integrated_flux(traj, protocol), phi_ad]

    rows = [point(at) for at in args.period_list]
    _emit_csv(args, ["AT", "phi", "phi_adiabatic"], rows)
    return EXIT_OK


def run_scaling(args) -> int:
    if len(args.L) < 3:
        raise ValueError("need at least 3 system sizes")
    amplitude = args.amplitude
    mu = -3.0 * amplitude if args.mu is None else args.mu
    protocol = loops.reference_protocol(amplitude, 1.0)
    params = protocol.params_at(args.cycle_fraction * protocol.period)

    def point(L: int) -> list:
        lattice = make_lattice(L, args.n, args.offset)
        state = rice_mele.rmm_thermal_state(params, lattice, args.beta, mu)
        # The Bloch path: Im ln det(1 - W) = -2 det_term_phase comes from the
        # 2n x 2n reduced product, which resolves phases far below the
        # rounding floor of a dense factorization.
        breakdown = polarization(state)
        eps = circulant.decay_bound(state)
        lam_min = breakdown.min_covariance_eigenvalue
        classical_bound = ((1.0 + lam_min) / 2.0) ** (-args.n * L)
        return [L, breakdown.abs_T, -2.0 * breakdown.det_term_phase, eps, classical_bound,
                breakdown.log_abs_T]

    rows = [point(L) for L in args.L]
    violations = [row for row in rows if abs(row[2]) > row[3]]
    header = ["L", "abs_T", "det_term_phase", "epsilon_bound", "classical_bound", "log_abs_T"]
    _emit_csv(args, header, rows)
    if violations:
        raise NumericalError(
            f"decay bound violated at L={[int(r[0]) for r in violations]}"
        )
    return EXIT_OK


def run_winding(args) -> int:
    lattice = make_lattice(args.L, args.n, args.offset)
    protocol = loops.reference_protocol(args.amplitude, args.period)
    loop = loops.named_loop(
        args.loop,
        lattice,
        seed=args.seed,
        protocol=protocol,
        beta=args.beta,
        mu=args.mu,
        initial_samples=args.samples,
    )
    track = winding.track_polarization(loop)
    result = winding.winding_number(track)
    rows = list(zip(*(x.tolist() for x in (
        track.lambdas, track.p_unwrapped, track.abs_T,
        track.det_term_phase, track.mean_term.imag,
    ))))
    _emit_csv(
        args,
        ["lambda", "P_unwrapped", "abs_T", "det_term_phase", "mean_term_im"],
        rows,
    )
    ok = abs(result.delta_p) <= WINDING_TOL and result.zero_count == 0
    _status(
        args, ok,
        f"loop={args.loop} delta_p={result.delta_p:.3e} zero_count={result.zero_count}",
    )
    if args.zak and args.loop in ("rmm-thermal", "rmm-coherent"):
        zak = rice_mele.zak_winding(protocol)
        print(f"zak_winding={zak}")
    if not ok:
        return EXIT_ALARM
    return EXIT_OK


def run_oracle_check(args) -> int:
    cases = fock_oracle.standard_cases(cutoff=args.cutoff)
    worst = 0.0
    rows = []
    for case in cases:
        state = case.state
        truncated = fock_oracle.oracle_fock_truncated(case)
        gauss = polarization(state, case.shift).expectation
        dev_closed = abs(gauss - case.closed) / abs(case.closed)
        dev_trunc = abs(gauss - truncated) / abs(truncated)
        dev_circ = 0.0
        if state.lattice.cells > 1:  # the circulant reduction applies
            # Both under the lattice's own shift: under case.shift the Bloch
            # state would take the dense path as well.
            dense = polarization(state).expectation
            reduced = polarization(circulant.cell_bloch_blocks(state)).expectation
            dev_circ = abs(dense - reduced) / abs(dense)
        worst = max(worst, dev_closed, dev_trunc, dev_circ)
        rows.append([case.kind, case.shift.phases[0], dev_closed, dev_trunc, dev_circ])
    header = ["kind", "theta0", "dev_closed_form", "dev_truncated", "dev_circulant"]
    _emit_csv(args, header, rows)
    ok = worst <= ORACLE_TOL
    _status(args, ok, f"max_relative_deviation={worst:.3e} cases={len(cases)}")
    return EXIT_OK if ok else EXIT_ORACLE


def run_chern(args) -> int:
    lattice = make_lattice(args.L, 2)
    band_c = loops.band_chern_number(args.mass)
    family = loops.thermal_chern_family(lattice, args.mass, args.beta, args.mu)
    track = winding._chern_track(lattice, family, args.samples)
    c = winding.polarization_winding(track)
    rows = np.column_stack(
        (track.lambdas, 2.0 * math.pi * track.lambdas, track.p_unwrapped)
    ).tolist()
    _emit_csv(args, ["lambda", "ky", "P_unwrapped"], rows)
    ok = c == 0
    _status(args, ok, f"band_chern={band_c} family_chern={c}")
    return EXIT_OK if ok else EXIT_ALARM


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    try:
        try:
            args = parser.parse_args(_config_file_flags(parser, argv))
        except SystemExit as exc:
            return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
