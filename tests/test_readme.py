"""Every Python block in README.md runs as written.

The README's examples are the callers of several public names (see
``test_public_options.py``), so a rename or a changed signature that breaks
one fails here instead of leaving the documentation stale.
"""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"
_BLOCK = re.compile(r"^```python\n(.*?)^```", re.MULTILINE | re.DOTALL)


def test_every_python_block_runs():
    text = README.read_text(encoding="utf-8")
    blocks = list(_BLOCK.finditer(text))
    assert len(blocks) >= 2
    for block in blocks:
        line = text.count("\n", 0, block.start(1))
        # padded so that a traceback names the block's line in the README
        code = compile("\n" * line + block.group(1), str(README), "exec")
        exec(code, {"__name__": "readme"})
