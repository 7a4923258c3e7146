"""What importing the package costs a process: no module it does not use."""

import json
import subprocess
import sys
from pathlib import Path

# dataclasses imports inspect, and inspect ast, dis and tokenize.  The package
# builds its records as NamedTuples and needs none of them.
UNUSED = {"dataclasses", "inspect", "ast", "dis", "tokenize"}

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
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, str(src)], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    added = set(json.loads(proc.stdout))
    assert "canavbsim.scenario" in added
    assert not added & UNUSED, sorted(added & UNUSED)
