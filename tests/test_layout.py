"""Module boundaries: no qcae module imports another's private names."""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "qcae"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_no_private_name_is_imported_across_modules(path):
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("qcae")):
            private = [alias.name for alias in node.names if alias.name.startswith("_")]
            assert not private, f"{path.name}:{node.lineno} imports {private} from {node.module}"
