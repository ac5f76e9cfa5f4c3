"""The benchmark's tracer patches `skattn.tensor` primitives by name; every
name it lists must exist, or the benchmark dies before its first gate."""

import ast
from pathlib import Path

from skattn import tensor as tz

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _primitives() -> tuple[str, ...]:
    """`PRIMITIVES` from bench/tracing.py, read without importing it."""
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "PRIMITIVES" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no PRIMITIVES assignment in {TRACING}")


def test_every_traced_primitive_exists_in_the_tensor_module():
    names = _primitives()
    assert names, "PRIMITIVES is empty"
    missing = [name for name in names if not callable(getattr(tz, name, None))]
    assert not missing, f"bench/tracing.py patches primitives skattn.tensor lacks: {missing}"
