"""The README's library quick tour runs as written against the package."""

import contextlib
import io
import re
from pathlib import Path

import sjm

README = Path(__file__).parents[1] / "README.md"


def test_quick_tour_runs_and_every_public_name_resolves():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(blocks[0], str(README), "exec"), {})
    assert len(out.getvalue().splitlines()) == 5
    assert [name for name in sjm.__all__ if not hasattr(sjm, name)] == []
