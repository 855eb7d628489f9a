"""The README's library quick tour runs as written against the package."""

import contextlib
import io
import json
import re
import shlex
from pathlib import Path

from sjm.cli import main

README = Path(__file__).parents[1] / "README.md"


def test_quick_tour_runs_and_every_public_name_resolves():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(blocks[0], str(README), "exec"), {})
    assert len(out.getvalue().splitlines()) == 5


def test_cli_examples_run_and_say_what_their_comments_say():
    text = README.read_text(encoding="utf-8")
    block = re.search(r"Examples:\n\n```sh\n(.*?)```", text, re.S)[1]
    outputs = {}
    for line in block.splitlines():
        words = shlex.split(line, comments=True)
        assert words[0] == "sjm"
        if ">" in words:  # the output goes to stdout here instead
            words = words[:words.index(">")]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(words[1:]) == 0, line
        outputs[" ".join(words[1:])] = out.getvalue()
    assert len(outputs) == 5
    verify = json.loads(outputs["verify --theta 0.9 --phi 0.1"])
    assert len(verify["invariants"]) == 16
    assert verify["all_pass"] is True
    assert len(json.loads(outputs["multiqubit --n 8"])["reductions"]) == 2048
