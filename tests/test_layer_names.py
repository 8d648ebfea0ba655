"""The traced benchmark wraps library functions by name; every name must resolve."""

import ast
import importlib
from pathlib import Path

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"
LISTS = ("SELF_TIMED", "AOI_FUNCTIONS")


def traced_names() -> dict:
    found = {}
    for node in ast.parse(LAYERS.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id in LISTS:
                    found[target.id] = ast.literal_eval(node.value)
    return found


def test_traced_layers_name_library_functions():
    found = traced_names()
    assert sorted(found) == sorted(LISTS)
    missing = []
    for qualified in found["SELF_TIMED"] + found["AOI_FUNCTIONS"]:
        module_name, fn_name = qualified.rsplit(".", 1)
        module = importlib.import_module(f"aoi_access.{module_name}")
        if not callable(getattr(module, fn_name, None)):
            missing.append(qualified)
    assert not missing
