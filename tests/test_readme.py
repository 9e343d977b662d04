"""The README's library quickstart runs against the package as it is."""

from __future__ import annotations

import re
from pathlib import Path

from negtype.gap import CONTAINMENT_RTOL

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quickstart_runs_and_its_bounds_contain_the_gap():
    section = README.read_text(encoding="utf-8").split("\n## Library quickstart\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    [block] = re.findall(r"```python\n(.*?)```", section, re.S)
    scope: dict = {}
    exec(compile(block, f"{README.name}: Library quickstart", "exec"), scope)
    gamma, bounds, mean = scope["result"].gamma, scope["bounds"], scope["mean"]
    # the spectral lower bound lands one rounding above gamma = 0.5
    assert bounds.lower * (1.0 - CONTAINMENT_RTOL) <= gamma
    assert gamma <= min(bounds.upper, mean) * (1.0 + CONTAINMENT_RTOL)
