"""What importing the package costs a process: no module it does not use."""

import ast
import json
import subprocess
import sys
from pathlib import Path

# dataclasses imports inspect, and inspect ast, dis and tokenize.  The package
# builds its records as NamedTuples and needs none of them.  fractions
# imports decimal and numbers; numbers are parsed with integers alone.
UNUSED = {"dataclasses", "inspect", "ast", "dis", "tokenize", "fractions", "decimal", "numbers"}

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "canavbsim"

PROBE = """
import json, sys
sys.path.insert(0, sys.argv[1])
before = set(sys.modules)
import canavbsim, canavbsim.cli
print(json.dumps(sorted(set(sys.modules) - before)))
"""


def test_importing_the_package_loads_no_dataclasses_or_inspect():
    # A fresh interpreter, and only the modules the import adds: those that
    # site or the interpreter loaded before it do not count.
    src = PACKAGE.parent
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, str(src)], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    added = set(json.loads(proc.stdout))
    assert "canavbsim.scenario" in added
    assert not added & UNUSED, sorted(added & UNUSED)


def package_imports(module):
    """(relative module or None, absolute module or None) per import in module.py."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield None, alias.name
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                yield "." * node.level + (node.module or ""), None
            else:
                yield None, node.module


def test_config_and_wire_import_no_model_module():
    # The package root imports scenario, so a fresh interpreter cannot import
    # canavbsim.config alone; the guard reads the source instead.
    wire = list(package_imports("wire"))
    assert [rel for rel, _ in wire if rel] == []
    config = list(package_imports("config"))
    assert {rel for rel, _ in config if rel} == {".core", ".wire"}
    for _, absolute in wire + config:
        assert not (absolute or "").startswith("canavbsim"), absolute
