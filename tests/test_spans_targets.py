"""The benchmark's traced run (``hostbench/run.py --trace``) wraps library
functions by name.  Its tests are not part of this suite, so a rename or a
deletion in ``nvmsim`` would break the traced run unseen without this check.
"""

import ast
import importlib
import inspect
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "hostbench" / "spans.py"


def traced_targets() -> tuple:
    """``TARGETS`` of ``hostbench/spans.py``, read from its source without running it."""
    for node in ast.parse(SPANS.read_text()).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["TARGETS"]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TARGETS in {SPANS}")


def test_every_traced_target_resolves_on_nvmsim():
    targets = traced_targets()
    assert targets
    missing = []
    for module_name, attribute, _layer in targets:
        owner = importlib.import_module(f"nvmsim.{module_name}")
        try:
            for name in attribute.split("."):
                owner = inspect.getattr_static(owner, name)
        except AttributeError:
            missing.append(f"{module_name}.{attribute}")
            continue
        assert callable(owner), f"{module_name}.{attribute}"
    assert not missing, f"hostbench/spans.py wraps names nvmsim no longer has: {missing}"
