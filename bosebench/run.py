"""bosepol benchmark: one workload, one seed, one fresh single-threaded process.

Usage, from the root of a checkout:

    python3 bosebench/run.py --workload pointwise --seed 1 --seconds 30 --trace 0

The run imports bosepol from ``src``, times ``setup_s`` in fresh child
interpreters, computes the reference values (untimed), then repeats whole
rounds of the workload's operations until ``--seconds`` have passed, checking
every output. With ``--trace 0`` it reports the end-to-end metrics, its times
divided by the host's speed over the run (``HostClock``); with
``--trace 1`` it alternates untraced and traced rounds and reports the
per-layer metrics. The last line of standard output is the JSON result.
"""

import os
import sys
import time

START = time.perf_counter()
# BLAS is pinned to one thread before numpy is imported, here and in children.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RESULTS = HERE / "results"
WORKLOADS = ("pointwise", "scaling", "pump-loops")
SETUP_PROBES = 5
SUM_CHECK_ATOL = 1e-6
# Host-speed reference (see HostClock): a chunk after each CALIBRATE_EVERY_S of operations.
CALIBRATE_EVERY_S = 0.05


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def load_package():
    """Import bosepol from this checkout's sources, and the workloads on top of it."""
    if not (SRC / "bosepol" / "__init__.py").is_file():
        sys.exit(f"error: no bosepol sources under {SRC}")
    sys.path[:0] = [str(SRC), str(HERE)]
    import bosepol
    import workloads

    if SRC.resolve() not in Path(bosepol.__file__).resolve().parents:
        sys.exit(f"error: bosepol imported from {bosepol.__file__}, not from {SRC}")
    return workloads


def setup_probe(args) -> None:
    """Child mode: import the package and build the inputs, print the seconds taken."""
    workloads = load_package()
    workloads.WORKLOADS[args.workload](args.seed)
    print(repr(time.perf_counter() - START))


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
    return env


def interquartile_mean(values) -> float:
    """Mean of the middle half: steady under the host's spikes, and unlike a
    median it moves smoothly with the share of a run spent in slow phases."""
    values = sorted(values)
    cut = len(values) // 4
    middle = values[cut:len(values) - cut]
    return sum(middle) / len(middle)


class HostClock:
    """How fast the host runs fixed work, relative to a nominal speed.

    The host's cores are shared: the same call runs up to 1.5 times slower for
    seconds at a time, in user time, and whole runs can sit in a slow phase. A
    chunk of fixed work of the benchmark's own (complex 128 x 128 slogdets, the
    kind of work bosepol spends most of its time in) is timed between
    operations; ``factor`` is the chunk's interquartile mean over its nominal
    time, and the run's times are divided by it. Raw times stay in the result
    file.
    """

    NOMINAL_S = 3.8e-3  # a chunk's typical interquartile mean on a 2-vCPU VM, OpenBLAS, 1 thread

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self._slogdet = np.linalg.slogdet
        self._matrix = rng.normal(size=(128, 128)) + 1j * rng.normal(size=(128, 128))
        self.samples: list[tuple[float, float]] = []
        self.last = time.perf_counter()

    def chunk(self) -> float:
        """Run one chunk; returns its wall time."""
        t0 = time.perf_counter()
        for _ in range(8):
            self._slogdet(self._matrix)
        self.last = time.perf_counter()
        self.samples.append((t0, self.last - t0))
        return self.last - t0

    def factor(self) -> float:
        if not self.samples:
            self.chunk()
        return interquartile_mean([t for _, t in self.samples]) / self.NOMINAL_S


def setup_seconds(args) -> float:
    """Median set-up time of fresh interpreters (import plus input generation)."""
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", args.workload, "--seed", str(args.seed), "--seconds", "1"],
            env=child_env(), capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return median(samples)


def run_round(ops, tracer=None, clock=None):
    """Run every operation once; returns (wall seconds, outputs, latencies).

    With a clock, a chunk of its reference work runs after each
    CALIBRATE_EVERY_S of operations; the round's wall time leaves it out.
    """
    outputs, latencies = {}, []
    if tracer is not None:
        tracer.install()
        root = tracer.open("bench")
    start = time.perf_counter()
    calibrating = 0.0
    for op in ops:
        t0 = time.perf_counter()
        try:
            out = op.run()
        except Exception as exc:  # a failed operation is counted, not fatal
            exc.trace = traceback.format_exc()
            out = exc
        t1 = time.perf_counter()
        latencies.append((op.label, t1 - t0, isinstance(out, Exception)))
        outputs[op.label] = out
        if clock is not None and t1 - clock.last >= CALIBRATE_EVERY_S:
            calibrating += clock.chunk()
    wall = time.perf_counter() - start - calibrating
    if tracer is not None:
        tracer.close(root)
        tracer.uninstall()
        _, begin, end, _ = tracer.spans[root]
        wall = end - begin
    return wall, outputs, latencies


def verify(ops, expected, outputs, errors) -> int:
    """Check one round's outputs; returns the number of failed operations."""
    failed = 0
    for op in ops:
        out = outputs[op.label]
        if isinstance(out, Exception):
            failed += 1
            if not (op.known_fault and type(out).__name__ == "HomotopyError"):
                errors.append(f"{op.label}: {type(out).__name__}: {out}\n{out.trace}")
            continue
        try:
            message = op.check(out, expected[op.label], outputs)
        except Exception as exc:  # a malformed output is a wrong output
            message = f"check raised {type(exc).__name__}: {exc}"
        if message:
            errors.append(f"{op.label}: {message}")
    return failed


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if args.setup_probe:
        setup_probe(args)
        return 0
    workloads = load_package()
    import tracing

    clock = setup = None
    if args.trace:
        metrics = tracing.import_times(child_env())
    else:
        metrics = {}
        setup = setup_seconds(args)
        clock = HostClock()

    ops = workloads.WORKLOADS[args.workload](args.seed)
    import references

    expected = {op.label: op.reference(references) for op in ops}

    errors: list[str] = []
    walls = {False: [], True: []}
    latencies = []
    attempted = failed = 0
    tracer = tracing.Tracer() if args.trace else None
    traced = False
    began = time.perf_counter()
    while True:
        wall, outputs, lat = run_round(ops, tracer if traced else None, clock)
        walls[traced].append(wall)
        latencies += lat
        attempted += len(ops)
        failed += verify(ops, expected, outputs, errors)
        if args.trace:
            traced = not traced
        # Stop before a round that would end past --seconds; a traced run
        # needs at least one round of each kind.
        ahead = time.perf_counter() - began + median(walls[False] + walls[True])
        if ahead > args.seconds and (not args.trace or walls[True]):
            break

    if args.trace:
        rounds = len(walls[True])
        metrics.update(tracer.summary(rounds))
        metrics["trace.wall_s"] = median(walls[True])
        metrics["trace.overhead_s"] = median(walls[True]) - median(walls[False])
        accounted = sum(tracer.self_times())
        if abs(accounted - sum(walls[True])) > SUM_CHECK_ATOL * rounds:
            errors.append(f"self times sum to {accounted!r} s, traced wall {sum(walls[True])!r} s")
    else:
        # Each operation's latency over the run, so that every one of them
        # averages over the host's fast and slow phases alike.
        per_op: dict[str, list[float]] = {}
        for label, t, fail in latencies:
            if not fail:
                per_op.setdefault(label, []).append(t)
        if not per_op:
            errors.append("no operation completed")
        # Set-up ran before the clock's chunks; the run's factor still follows
        # a host that is slower for the whole run.
        factor = clock.factor()
        op_latency = median([interquartile_mean(v) for v in per_op.values()] or [0.0])
        metrics.update({
            "wall_s": interquartile_mean(walls[False]) / factor,
            "setup_s": setup / factor,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "op_p50_ms": 1e3 * op_latency / factor,
        })

    for message in errors[:20]:
        print(f"CHECK FAILED {message}", file=sys.stderr)
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    if set(units) != set(metrics):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} not declared as measured")
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    detail = dict(result, rounds={"untraced": walls[False], "traced": walls[True]},
                  latencies=latencies, setup_raw_s=setup,
                  clock=clock.samples if clock else [], errors=errors)
    (RESULTS / f"{stem}.json").write_text(json.dumps(detail, indent=1))
    if tracer is not None:
        (RESULTS / f"{stem}-spans.json").write_text(json.dumps(tracer.dump()))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
