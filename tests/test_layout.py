"""Package layout: modules share only public names."""
import ast
from pathlib import Path

import qmemsim


def private_imports():
    """'module: name' for every underscore name a package module imports
    from another package module; dunders such as __version__ are public."""
    found = []
    for path in sorted(Path(qmemsim.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and (node.module or "").split(".")[0] != "qmemsim":
                continue
            found += [f"{path.stem}: {alias.name}" for alias in node.names
                      if alias.name.startswith("_")
                      and not (alias.name.startswith("__") and alias.name.endswith("__"))]
    return found


def test_no_module_imports_a_private_name_of_another():
    assert private_imports() == []
