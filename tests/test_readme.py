"""The README's library example runs as printed and shows what it says."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs_and_matches_its_comments():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library example", 1)[1]
    blocks = re.findall(r"```python\n(.*?)```", section.split("\n## ", 1)[0], re.S)
    assert len(blocks) == 1
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(blocks[0], str(README), "exec"), {})
    strategy_err, inter_a2a_bytes, fold_err = out.getvalue().split()
    assert float(strategy_err) < 1e-10
    assert int(inter_a2a_bytes) == 0
    assert float(fold_err) < 1e-10
