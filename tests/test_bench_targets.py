"""The traced benchmark run wraps program names listed in bench/run.py.

`bench/run.py --trace 1` swaps each listed (module, attribute) pair of the
mlwave package for a timing wrapper, so every one of them must keep
resolving.  The lists are read from the source with ast, without
importing the harness.
"""

import ast
from pathlib import Path

import mlwave
import mlwave.cli  # noqa: F401  (the harness imports it the same way)

RUN_PY = Path(__file__).resolve().parent.parent / "bench" / "run.py"


def _literal(name):
    tree = ast.parse(RUN_PY.read_text())
    for node in tree.body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and getattr(node.targets[0], "id", None) == name):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{name} not found in {RUN_PY}")


def test_solve_targets_resolve():
    targets = _literal("SOLVE_TARGETS")
    assert targets
    for module, attr, span in targets:
        assert hasattr(getattr(mlwave, module), attr), (module, attr, span)


def test_kernel_row_resolves():
    module, cls, attr, span = _literal("KERNEL_ROW")
    assert callable(getattr(getattr(getattr(mlwave, module), cls), attr)), \
        (module, cls, attr, span)
