"""The README's library example runs as written."""

import contextlib
import io
import re
from pathlib import Path

from cogia.numerics import ZERO_TOL

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_cancels_interference():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), flags=re.M | re.S)
    assert len(blocks) == 1
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(compile(blocks[0], str(README), "exec"), {})
    assert float(printed.getvalue()) <= ZERO_TOL
