"""The README's python examples run as written, so a change to the API they use shows here."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_every_python_block_of_the_readme_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert blocks
    for k, block in enumerate(blocks):
        exec(compile(block, f"README.md, python block {k + 1}", "exec"), {})
