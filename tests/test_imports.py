import ast
import sys
from pathlib import Path

import acre


def test_runtime_imports_only_numpy_and_the_standard_library():
    allowed = {"numpy", *sys.stdlib_module_names}
    outside = []
    for module in sorted(Path(acre.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(module.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [f"{module.name}: {name}" for name in names if name.split(".")[0] not in allowed]
    assert outside == []
