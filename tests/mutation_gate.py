"""Mutation gate: every named mutant of the kernels must fail a test.

Each mutant names a file under ``src/``, an exact source snippet that must
occur there once, its replacement, and the tests that must catch it. For
each mutant the gate copies ``src/`` to a temporary directory, applies the
mutant and runs its tests there in a fresh interpreter. The gate fails when a
mutant passes its tests (survives) or when its snippet no longer occurs
exactly once (stale), so a refactor of a kernel has to update its mutants.
Before the mutants, the unmutated copy must pass every selected test.

Run from anywhere with the test extra installed (stdlib only otherwise):

    python tests/mutation_gate.py

It exits 0 when every mutant is caught, 1 otherwise.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root, under src/
    snippet: str
    replacement: str
    tests: tuple[str, ...]


CIRCULANT = "src/bosepol/circulant.py"
FOCK_ORACLE = "src/bosepol/fock_oracle.py"
POLARIZATION = "src/bosepol/polarization.py"
RICE_MELE = "src/bosepol/rice_mele.py"
STATES = "src/bosepol/states.py"
WINDING = "src/bosepol/winding.py"
POLARIZATION_TESTS = ("tests/test_polarization.py",)
WINDING_TESTS = ("tests/test_winding.py",)

MUTANTS = (
    # The dense kernel.
    Mutant("dense: k unsorted against the ascending h", POLARIZATION,
           "ks = np.sort(k)", "ks = k", POLARIZATION_TESTS),
    Mutant("dense: log|1 + i h| and log|1 + i k| summed apart", POLARIZATION,
           "np.log1p(1j * (h - ks) / (1.0 + 1j * ks))",
           "(np.log(1.0 + 1j * h) - np.log(1.0 + 1j * ks))", POLARIZATION_TESTS),
    Mutant("dense: Im s dropped", POLARIZATION,
           "yt.imag @ y.imag + 1j * (c @ y.imag))", "yt.imag @ y.imag)", POLARIZATION_TESTS),
    Mutant("dense: Re s with the wrong sign", POLARIZATION,
           "-0.5 * (yt.real @ y.real + yt.imag @ y.imag + 1j",
           "-0.5 * (-yt.real @ y.real - yt.imag @ y.imag + 1j", POLARIZATION_TESTS),
    Mutant("dense: log det V dropped", POLARIZATION,
           "-0.5 * (log_det.real + log_det_V)", "-0.5 * log_det.real", POLARIZATION_TESTS),
    Mutant("dense: cayley_norm from the smallest eigenvalue only", STATES,
           "max(abs((lo - 1.0) / (lo + 1.0)), (hi - 1.0) / (hi + 1.0))",
           "abs((lo - 1.0) / (lo + 1.0))", POLARIZATION_TESTS),
    # The symplectic form and the symplectic factor of a state.
    Mutant("omega: the swap's signs not alternating", STATES,
           "np.tile([1.0, -1.0], dim // 2)", "np.ones(dim)", ("tests/test_states.py",)),
    Mutant("factor: a sign dropped from Omega^T S Omega", STATES,
           "sign[:, None] * S[swap[:, None], swap]", "S[swap[:, None], swap]",
           POLARIZATION_TESTS),
    Mutant("factor: symplecticity unchecked", STATES,
           "            raise ValueError(f\"factor is not symplectic: ||S Omega S^T - Omega|| = \"\n"
           "                             f\"{defect:.3e} exceeds tolerance\")\n",
           "            pass\n", ("tests/test_states.py",)),
    Mutant("factor: singular values left unsquared in the spectrum", STATES,
           "compute_uv=False)[::-1] ** 2", "compute_uv=False)[::-1]",
           ("tests/test_states.py", "tests/test_polarization.py")),
    Mutant("factor: the squeezer's cosh r left short of cosh^2 - sinh^2 >= 1", STATES,
           "        c = math.nextafter(c, math.inf)\n", "        break\n", POLARIZATION_TESTS),
    # The reduced (Bloch) kernel.
    Mutant("bloch: the first sample's phase left principal", POLARIZATION,
           "    phases[0] = np.angle(1.0 - np.linalg.eigvals(P[0])).sum()\n", "",
           POLARIZATION_TESTS),
    Mutant("bloch: P = A_0 R", POLARIZATION,
           "R @ A[0]", "A[0] @ R", POLARIZATION_TESTS),
    Mutant("bloch: L dropped from the mean term", POLARIZATION,
           "(len(g) * c)", "c", POLARIZATION_TESTS),
    Mutant("bloch: R dropped from the mean term", POLARIZATION,
           "b = a[..., None] - R @ (d * a)[..., None]", "b = a[..., None] - (d * a)[..., None]",
           POLARIZATION_TESTS),
    Mutant("bloch: a Bloch stack's positive definiteness unchecked", POLARIZATION,
           "        np.linalg.cholesky(v)\n", "        pass\n", WINDING_TESTS),
    Mutant("bloch: a single state's log det((V + 1)/2) dropped", POLARIZATION,
           "np.log1p((vals - 1.0) / 2.0).sum()", "0.0", ("tests/test_circulant.py",)),
    Mutant("bloch: a loop's log det((V + 1)/2) taken as log det(V + 1)", POLARIZATION,
           "np.linalg.cholesky(w / 2.0)", "np.linalg.cholesky(w)", WINDING_TESTS),
    Mutant("occupations: exp in place of expm1 in the Bose-Einstein factor", STATES,
           "1.0 / np.expm1(x)", "1.0 / np.exp(x)", ("tests/test_states.py",)),
    Mutant("bloch: sign of Im N flipped in the thermal blocks", STATES,
           "(x_k - mirror) * -0.5j", "(x_k - mirror) * 0.5j", ("tests/test_circulant.py",)),
    # A thermal BlochState's builder.
    Mutant("thermal: the Boltzmann weight exp(-x) replaced by the occupation 1/expm1(x)",
           STATES, "np.exp(-x)", "1.0 / np.expm1(x)", ("tests/test_circulant.py",)),
    Mutant("thermal: the Boltzmann lift adds and then subtracts the identity", STATES,
           "cayley = _bloch_lift(_spectral_sum(vectors, np.exp(-x)))",
           "cayley = _bloch_lift(_spectral_sum(vectors, np.exp(-x)))"
           " + np.eye(2 * n) - np.eye(2 * n)",
           ("tests/test_circulant.py",)),
    Mutant("thermal: the spectrum lists each 1 + 2 nbar once", STATES,
           "np.sort(np.repeat(1.0 + 2.0 * occ, 2))", "np.sort(1.0 + 2.0 * occ, axis=None)",
           ("tests/test_circulant.py",)),
    Mutant("bloch: the mirror check v_(L-k) = conj(v_k) disabled", STATES,
           "    if (defect > tol).any():\n        raise ValueError(\n            f\"Bloch blocks violate",
           "    if False:\n        raise ValueError(\n            f\"Bloch blocks violate",
           WINDING_TESTS),
    Mutant("draw: imaginary parts left at the self-conjugate momenta", CIRCULANT,
           "    gaussians[:, 1, 2 * np.arange(L) % L == 0] = 0.0", "",
           ("tests/test_circulant.py",)),
    # The loop track.
    Mutant("track: unwrapped from 0 instead of phases[0]", WINDING,
           "_unwrap(phases[0], phases)", "_unwrap(0.0, phases)", WINDING_TESTS),
    Mutant("refinement: a level bisects only its first jumping segment", WINDING,
           "        a, b = lams[jumps], lams[jumps + 1]\n",
           "        jumps = jumps[:1]\n        a, b = lams[jumps], lams[jumps + 1]\n",
           WINDING_TESTS),
    Mutant("track: the mean's closure unchecked", WINDING,
           '(("V", V), ("mean", mean))', '(("V", V),)', WINDING_TESTS),
    Mutant("track: the closure of V unchecked", WINDING,
           '(("V", V), ("mean", mean))', '(("mean", mean),)', WINDING_TESTS),
    Mutant("track: a dense stack's positive definiteness unchecked", POLARIZATION,
           "    check_positive(vals[..., 0], lams)\n", "    pass\n", WINDING_TESTS),
    # The single positive-definiteness check.
    Mutant("positivity: a single state's failure passes", STATES,
           "        raise InvalidStateError(f\"invalid state: min covariance eigenvalue "
           "{lo:.6g} <= 0\")\n", "        pass\n",
           ("tests/test_polarization.py", "tests/test_circulant.py")),
    Mutant("polarization: a dense state skips require_valid", POLARIZATION,
           "    vals = require_valid(state)\n",
           "    vals = require_valid(state) if bloch else state.spectrum\n", POLARIZATION_TESTS),
    # The cached spectrum of a state.
    Mutant("spectrum: a state given by V takes its own eigvalsh", STATES,
           "            return self._eigh[0]\n",
           "            return _as_readonly(np.linalg.eigvalsh(self.V))\n", POLARIZATION_TESTS),
    Mutant("spectrum: a BlochState's block spectra left unsorted", STATES,
           "np.sort(np.linalg.eigvalsh(self.v_blocks), axis=None)",
           "np.linalg.eigvalsh(self.v_blocks).ravel()",
           ("tests/test_states.py", "tests/test_circulant.py")),
    # The closed-form oracles.
    Mutant("oracle: the two-mode squeezed vacuum's sech^2 r as 1 - tanh^2 r", FOCK_ORACLE,
           "    return complex(sech2 / ((1.0 - phase) + sech2 * phase))\n",
           "    t2 = np.tanh(r) ** 2\n    return complex((1.0 - t2) / (1.0 - t2 * phase))\n",
           ("tests/test_fock_oracle.py",)),
    # The pump.
    Mutant("pump: CF4 weights swapped between the factors", RICE_MELE,
           "np.array([[_A2, _A1], [_A1, _A2]])", "np.array([[_A1, _A2], [_A2, _A1]])",
           ("tests/test_rice_mele.py",)),
    Mutant("pump: cos r from the tangent off by one", RICE_MELE,
           "np.divide(2.0, den, out=den)", "np.divide(1.0, den, out=den)",
           ("tests/test_rice_mele.py",)),
)


def pytest_run(src: str, tests: tuple[str, ...]) -> subprocess.CompletedProcess:
    """Run ``tests`` against the package in ``src``, stopping at the first failure.

    The run starts in the parent of ``src``, so that hypothesis keeps the
    examples a mutant fails in its own database there, not in the repository's.
    """
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
            *(os.path.join(ROOT, t) for t in tests)]
    return subprocess.run(argv, cwd=os.path.dirname(src), env=env, capture_output=True, text=True)


def imported_from(src: str) -> str:
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, "-c", "import bosepol; print(bosepol.__file__)"]
    return subprocess.run(argv, env=env, capture_output=True, text=True, check=True).stdout.strip()


def main() -> int:
    failures = []
    with tempfile.TemporaryDirectory(prefix="mutation-gate-") as tmp:
        src = os.path.join(tmp, "src")
        shutil.copytree(os.path.join(ROOT, "src"), src)
        where = imported_from(src)
        if not where.startswith(src + os.sep):
            print(f"bosepol imports from {where}, not from the copy in {src}")
            return 1
        selected = tuple(dict.fromkeys(t for m in MUTANTS for t in m.tests))
        baseline = pytest_run(src, selected)
        if baseline.returncode != 0:
            print(f"the unmutated package fails {' '.join(selected)}:\n{baseline.stdout[-2000:]}")
            return 1
        for mutant in MUTANTS:
            target = os.path.join(tmp, mutant.path)
            with open(os.path.join(ROOT, mutant.path), encoding="utf-8") as f:
                original = f.read()
            count = original.count(mutant.snippet)
            if count != 1:
                print(f"STALE     {mutant.name}: snippet occurs {count} times in {mutant.path}")
                failures.append(mutant.name)
                continue
            with open(target, "w", encoding="utf-8") as f:
                f.write(original.replace(mutant.snippet, mutant.replacement))
            t0 = time.perf_counter()
            result = pytest_run(src, mutant.tests)
            seconds = time.perf_counter() - t0
            with open(target, "w", encoding="utf-8") as f:
                f.write(original)
            # pytest exits 1 when tests failed; any other code (an import or
            # collection error, an interrupt) does not show that a test caught it.
            if result.returncode == 1:
                print(f"KILLED    {mutant.name} ({seconds:.1f} s)")
            else:
                print(f"SURVIVED  {mutant.name} (pytest exit {result.returncode}, {seconds:.1f} s)")
                failures.append(mutant.name)
    print(f"{len(MUTANTS) - len(failures)} of {len(MUTANTS)} mutants caught")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
