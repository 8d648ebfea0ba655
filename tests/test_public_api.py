"""The package's exported names and the README's library example."""

import re
from pathlib import Path

import aoi_access

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_exported_name_resolves():
    assert len(aoi_access.__all__) == len(set(aoi_access.__all__))
    missing = [name for name in aoi_access.__all__ if not hasattr(aoi_access, name)]
    assert not missing


def test_readme_library_example_runs_as_written():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library use", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace = {}
    exec(compile(block, "README.md", "exec"), namespace)
    assert namespace["report"].params == namespace["params"]
    assert namespace["sim"].slots == 1_000_000 and namespace["sim"].mode == "coupled"
