"""Every public op of `krt.tensor` has a caller.

An op counts as used when `krt` outside `tensor.py` names it (as an
attribute of the imported `tensor` module, e.g. `T.gelu`, or through
`from .tensor import`), when another module-level function of `tensor.py`
calls it, or when the benchmark's tracer (`perfbench/probe.py`) wraps it
by name. An op none of these reach is dead code and should be deleted.
"""

import ast
import inspect
import sys
from pathlib import Path

from krt import tensor as T

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

import probe  # noqa: E402

TENSOR_PY = Path(T.__file__)


def public_ops() -> list:
    return sorted(
        name
        for name, value in vars(T).items()
        if inspect.isfunction(value) and value.__module__ == T.__name__ and not name.startswith("_")
    )


def named_outside_tensor_py() -> set:
    used = set()
    for path in TENSOR_PY.parent.glob("*.py"):
        if path == TENSOR_PY:
            continue
        tree = ast.parse(path.read_text())
        imports = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
        module_aliases = {
            alias.asname or alias.name
            for node in imports
            if node.level == 1 and node.module is None
            for alias in node.names
            if alias.name == "tensor"
        }
        for node in imports:
            if node.level == 1 and node.module == "tensor":
                used.update(alias.name for alias in node.names)
        used.update(
            node.attr
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in module_aliases
        )
    return used


def called_by_another_op() -> set:
    used = set()
    for fn in ast.parse(TENSOR_PY.read_text()).body:
        if isinstance(fn, ast.FunctionDef):
            used.update(
                node.func.id
                for node in ast.walk(fn)
                if isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id != fn.name
            )
    return used


def wrapped_by_the_benchmark() -> set:
    return {target.attr for target in probe.BOUNDARY + probe.LAYERS if target.owner is T}


def test_every_public_op_has_a_caller():
    used = named_outside_tensor_py() | called_by_another_op() | wrapped_by_the_benchmark()
    assert [name for name in public_ops() if name not in used] == []

