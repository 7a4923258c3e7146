"""What importing the package costs a process: no module it does not use."""

import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

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


CONFIG_PROBE = """
import json, sys
sys.path.insert(0, sys.argv[1])
before = set(sys.modules)
import canavbsim.config
print(json.dumps(sorted(m for m in set(sys.modules) - before if m.startswith("canavbsim"))))
"""


def test_importing_the_config_layer_loads_no_model_module():
    # The package root resolves its model entry points on first use, so the
    # config layer loads alone: a bounds checker or oracle pays for no model.
    proc = subprocess.run(
        [sys.executable, "-c", CONFIG_PROBE, str(PACKAGE.parent)],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [
        "canavbsim", "canavbsim.config", "canavbsim.core", "canavbsim.wire"
    ]


def test_package_root_resolves_the_model_entry_points_on_first_use():
    import canavbsim
    from canavbsim import scenario

    namespace = {}
    exec("from canavbsim import *", namespace)
    for name in ("build_network", "run_experiment_suite", "run_scenario"):
        assert namespace[name] is getattr(canavbsim, name) is getattr(scenario, name)
    with pytest.raises(AttributeError):
        canavbsim.no_such_name


def test_config_and_wire_import_no_model_module():
    # The runtime probe above sees only what one import path loads; this
    # guard reads the source, so an import under a branch fails it too.
    wire = list(package_imports("wire"))
    assert [rel for rel, _ in wire if rel] == []
    config = list(package_imports("config"))
    assert {rel for rel, _ in config if rel} == {".core", ".wire"}
    for _, absolute in wire + config:
        assert not (absolute or "").startswith("canavbsim"), absolute


def test_metrics_imports_only_the_core_from_the_package():
    # Percentile ranks are integer arithmetic, so metrics needs no config parser.
    assert {rel for rel, _ in package_imports("metrics") if rel} == {".core"}
