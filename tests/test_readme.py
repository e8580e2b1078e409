"""The README's Python examples run as written, so the documented API
cannot drift from the package."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_python_examples_run():
    """The README's two python blocks, the quick start and the
    calibration after it, run in order in one namespace, as a reader
    pastes them: the first signs with a fresh RM(10,5) key, the second
    calibrates that key's signing path on 100,000 syndromes and picks
    (w, N).  It takes 0.8 s on one BLAS thread of a 2-vCPU host."""
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)
    assert len(blocks) == 2
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    assert namespace["verify"](namespace["kp"].public, b"hello", namespace["sig"])
    assert namespace["dist"].samples == 100_000
