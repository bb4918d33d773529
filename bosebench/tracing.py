"""Spans around the calls into each bosepol layer, recorded from outside the package.

The tracer replaces each listed public function by a wrapper in every
namespace that binds it (``bosepol.polarization``, ``bosepol.winding.
tracked_det_branch``, ``bosepol.cli.polarization``, ...), so calls between
modules are seen too. Modules are reached through ``sys.modules`` because
``import bosepol.polarization`` returns the re-exported function. A listed
function that the package no longer has is skipped and reports zero calls.

A span records its name, start, end and parent. A call into a function of the
same layer as the innermost open span is folded into that span
(``expectation_T`` calling ``polarization`` is one evaluation).
"""

from __future__ import annotations

import dataclasses
import re
import subprocess
import sys
import time
from statistics import median

# (span name, module, public functions that belong to it)
LAYERS = (
    ("states.build", "bosepol.states", (
        "coherent_state", "vacuum_state", "thermal_state", "squeezed_vacuum_state",
        "two_mode_squeezed_state", "random_gaussian_state", "bose_occupations")),
    ("states.build", "bosepol.circulant", ("random_circulant_state",)),
    ("states.validate", "bosepol.states", ("validate", "require_valid")),
    ("polarization.eval", "bosepol.polarization", (
        "polarization", "expectation_T", "mean_term")),
    ("polarization.cayley", "bosepol.polarization", ("cayley_spectrum",)),
    ("polarization.branch", "bosepol.polarization", (
        "tracked_det_branch", "branch_phase_eigenvalues")),
    ("circulant.bloch", "bosepol.circulant", ("cell_bloch_blocks",)),
    ("circulant.reduced", "bosepol.circulant", ("reduced_determinant",)),
    ("circulant.bound", "bosepol.circulant", ("decay_bound", "lambda_max")),
    ("winding.track", "bosepol.winding", ("track_polarization", "winding_of_values")),
    ("loops.build", "bosepol.loops", (
        "rmm_thermal_loop", "rmm_coherent_loop", "random_classical_loop",
        "random_squeezed_loop", "named_loop", "thermal_chern_family",
        "chain_hopping_at_ky", "band_chern_number")),
    ("rice_mele.thermal_state", "bosepol.rice_mele", ("rmm_thermal_state",)),
    ("rice_mele.pump", "bosepol.rice_mele", ("evolve_pump",)),
    ("rice_mele.flux", "bosepol.rice_mele", ("integrated_flux", "adiabatic_flux")),
    ("rice_mele.zak", "bosepol.rice_mele", ("zak_winding", "zak_phase")),
    ("cli", "bosepol.cli", ("main",)),
)
SAMPLER = "loops.sampler"
SLOGDET = "polarization.slogdet"
ROOT = "bench"
SPAN_NAMES = sorted({name for name, _, _ in LAYERS} | {SAMPLER, SLOGDET})
# Per-layer metrics that are self times only; the others also report calls.
SELF_ONLY = {"cli", "rice_mele.flux", "rice_mele.zak"}

IMPORT_MODULES = ("bosepol", "bosepol.errors", "bosepol.states", "bosepol.polarization",
                  "bosepol.circulant", "bosepol.rice_mele", "bosepol.winding",
                  "bosepol.fock_oracle", "bosepol.loops", "bosepol.cli")
IMPORT_REPEATS = 3


class Tracer:
    """In-memory span recorder that patches the package while installed."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.samples = 0
        self.pump_steps = 0

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, on_result=None):
        def traced(*args, **kwargs):
            if self._stack and self.spans[self._stack[-1]][0] == name:
                return fn(*args, **kwargs)
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if on_result is not None:
                on_result(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _count_samples(self, track) -> None:
        self.samples += len(getattr(track, "lambdas", ()))

    def _count_steps(self, trajectory) -> None:
        self.pump_steps += max(0, len(getattr(trajectory, "times", ())) - 1)

    def _track_with_traced_sampler(self, fn):
        def track(loop, *args, **kwargs):
            if dataclasses.is_dataclass(loop) and hasattr(loop, "sampler"):
                loop = dataclasses.replace(loop, sampler=self.wrap(SAMPLER, loop.sampler))
            return fn(loop, *args, **kwargs)

        return track

    def _patch_everywhere(self, original, replacement) -> None:
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "bosepol" or mod_name.startswith("bosepol.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, replacement)

    def install(self) -> None:
        for name, mod_name, functions in LAYERS:
            module = sys.modules.get(mod_name)
            for fn_name in functions:
                original = getattr(module, fn_name, None) if module else None
                if original is None:
                    continue
                inner = original
                if fn_name == "track_polarization":
                    inner = self._track_with_traced_sampler(original)
                hook = {"track_polarization": self._count_samples,
                        "evolve_pump": self._count_steps}.get(fn_name)
                self._patch_everywhere(original, self.wrap(name, inner, hook))
        import numpy.linalg

        self._patches.append((numpy.linalg, "slogdet", numpy.linalg.slogdet))
        numpy.linalg.slogdet = self.wrap(SLOGDET, numpy.linalg.slogdet)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def self_times(self) -> list[float]:
        covered = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        return [end - start - c for (_, start, end, _), c in zip(self.spans, covered)]

    def summary(self, rounds: int) -> dict[str, float]:
        """Per-round calls and self seconds of each span name, plus derived ratios."""
        calls = {name: 0 for name in SPAN_NAMES + [ROOT]}
        selfs = {name: 0.0 for name in SPAN_NAMES + [ROOT]}
        total = {name: 0.0 for name in SPAN_NAMES}
        slogdets_in_eval = 0
        for (name, start, end, parent), own in zip(self.spans, self.self_times()):
            calls[name] += 1
            selfs[name] += own
            if name in total:
                total[name] += end - start
            if name == SLOGDET:
                while parent >= 0 and self.spans[parent][0] != "polarization.eval":
                    parent = self.spans[parent][3]
                slogdets_in_eval += parent >= 0
        out = {}
        for span in SPAN_NAMES:
            if span not in SELF_ONLY:
                out[f"{span}.calls"] = calls[span] / rounds
            out[f"{span}.self_s"] = selfs[span] / rounds
        evals = calls["polarization.eval"]
        tracks = calls["winding.track"]
        pump_s = total["rice_mele.pump"]
        out["polarization.slogdets_per_eval"] = slogdets_in_eval / evals if evals else 0.0
        out["winding.samples"] = self.samples / rounds
        out["winding.samples_per_loop"] = self.samples / tracks if tracks else 0.0
        out["rice_mele.pump.steps_per_s"] = self.pump_steps / pump_s if pump_s else 0.0
        out["bench.self_s"] = selfs[ROOT] / rounds
        return out

    def dump(self) -> list:
        return [[name, round(start, 7), round(end, 7), parent]
                for name, start, end, parent in self.spans]


_IMPORTTIME = re.compile(r"^import time:\s+(\d+)\s+\|\s+(\d+)\s+\|\s+(\S.*)$")


def import_times(env: dict) -> dict[str, float]:
    """Cumulative import seconds of each bosepol module, median of fresh interpreters."""
    samples: dict[str, list[float]] = {m: [] for m in IMPORT_MODULES}
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import bosepol.cli"],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        seen = {}
        for line in proc.stderr.splitlines():
            match = _IMPORTTIME.match(line)
            if match:
                seen[match.group(3).strip()] = int(match.group(2)) * 1e-6
        for module in IMPORT_MODULES:
            samples[module].append(seen.get(module, 0.0))
    return {f"import.{m.rsplit('.', 1)[-1]}_s": median(v) for m, v in samples.items()}
