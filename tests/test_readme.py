"""The README's quick start runs as written."""
from __future__ import annotations

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_quick_start_runs():
    [block] = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.S | re.M)
    exec(compile(block, f"{README}:quick start", "exec"), {"__name__": "readme"})
