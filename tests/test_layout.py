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


@pytest.mark.parametrize("path", sorted(set(SRC.glob("*.py")) - {SRC / "statevector.py"}),
                         ids=lambda path: path.name)
def test_only_the_simulator_knows_its_register_cap(path):
    # the register rule (2n simulated qubits under a channel) lives in
    # statevector's compiler; other modules ask compile_circuit to refuse
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom):
            names = [alias.name for alias in node.names]
            assert "MAX_QUBITS" not in names, f"{path.name}:{node.lineno} imports MAX_QUBITS"
        if isinstance(node, ast.Attribute):
            assert node.attr != "MAX_QUBITS", f"{path.name}:{node.lineno} reads MAX_QUBITS"


@pytest.mark.parametrize("function", ["_run", "z_and_pullback"])
def test_the_simulator_loops_have_no_channel_branch(function):
    # the compiled program carries the channel as steps of its own, so the
    # forward and the pullback never ask how much depolarizing there is
    path = SRC / "statevector.py"
    tree = ast.parse(path.read_text(), str(path))
    [body] = [node for node in tree.body
              if isinstance(node, ast.FunctionDef) and node.name == function]
    for node in ast.walk(body):
        if isinstance(node, ast.Attribute):
            assert node.attr != "depolarizing_prob", f"{function}:{node.lineno} reads {node.attr}"


@pytest.mark.parametrize("path", sorted(set(SRC.glob("*.py")) - {SRC / "cli.py"}),
                         ids=lambda path: path.name)
def test_only_the_cli_names_runs(path):
    # a run id names a run's directory and its CSV rows, and the CLI writes
    # every CSV; training, scoring and the layers never see it
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        names = [getattr(node, key, None) for key in ("id", "attr", "arg", "name")]
        text = node.value if isinstance(node, ast.Constant) and isinstance(node.value, str) else ""
        assert "config_id" not in names and "config_id" not in text, (
            f"{path.name}:{node.lineno} names config_id")
