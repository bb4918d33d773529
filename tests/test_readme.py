"""The README's library quickstart runs as documented."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quickstart_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.DOTALL)
    assert len(blocks) == 1
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(blocks[0], str(README), "exec"), {})
    p, (delta_p, zero_count), loop_zero_count, chern = (
        line.split() for line in out.getvalue().splitlines()
    )
    assert abs(float(p[0])) < 1e-6 and abs(float(delta_p)) < 1e-12
    assert [zero_count] == loop_zero_count == chern == ["0"]
