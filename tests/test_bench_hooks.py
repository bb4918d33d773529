"""Every bosepol function that the benchmark tracer hooks by name still exists.

``bosebench/tracing.py`` wraps functions by module and name, and a name it
cannot find silently reports zero calls, so a rename or removal in the
package would blank a per-layer metric without any error.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bosebench" / "tracing.py"
# Hooked names whose functions left the package: the Cayley spectrum and the
# tracked branch gave way to M = V + iK, and the dense Chern-chain hopping to
# the Bloch blocks of the thermal k_y family.
REMOVED = {
    ("bosepol.polarization", "cayley_spectrum"),
    ("bosepol.polarization", "tracked_det_branch"),
    ("bosepol.polarization", "branch_phase_eigenvalues"),
    ("bosepol.loops", "chain_hopping_at_ky"),
}


def test_every_traced_function_resolves_in_its_module():
    spec = importlib.util.spec_from_file_location("bosebench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    hooked = {(mod, name) for _, mod, names in tracing.LAYERS for name in names}
    missing = sorted(
        (mod, name) for mod, name in hooked - REMOVED
        if not callable(getattr(importlib.import_module(mod), name, None))
    )
    assert not missing, f"tracer hooks names the package lacks: {missing}"
