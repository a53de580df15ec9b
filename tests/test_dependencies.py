"""The package keeps zero runtime dependencies: every absolute import in
``src/edgeslide`` names a standard-library module.  Third-party packages
such as networkx may appear in tests only."""
import ast
import sys
from pathlib import Path

import edgeslide

PACKAGE = Path(edgeslide.__file__).parent


def test_package_imports_only_the_standard_library():
    paths = sorted(PACKAGE.glob("*.py"))
    assert len(paths) > 1
    foreign = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            foreign += [
                f"{path.name}:{node.lineno} {name}"
                for name in names
                if name.split(".")[0] not in sys.stdlib_module_names
            ]
    assert foreign == []
