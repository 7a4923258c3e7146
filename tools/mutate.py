"""Comparison-flip mutation score of the named simulator modules.

    python3 tools/mutate.py MODULE [MODULE ...]     e.g. core ethernet gateway

Flips one comparison operator at a time in ``src/canavbsim/<MODULE>.py``:
``<`` and ``<=``, ``>`` and ``>=``, ``==`` and ``!=``, ``is`` and
``is not``, ``in`` and ``not in``.  Each mutant is written with
``ast.unparse`` into one temporary copy of the tree, never into the
checkout, and that copy runs ``tests/test_<MODULE>.py``,
``tests/test_acceptance.py`` and ``tests/test_golden.py`` with ``-x`` and
a fixed hypothesis seed.  A mutant is killed when those tests fail, and
timed out when they run longer than TIMEOUT_FACTOR times the unmutated
module's run (also written by ``ast.unparse``, which must pass): a wrong
model can hang the tests instead of failing them.  Standard library only.

Prints one JSON line per module: its site and killed counts, the
survivors and the timed-out mutants as ``file:line op`` with the original
operator, and the unmutated run's wall time.  Exits 1 if a module's
unmutated run fails.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FLIPS = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
    ast.In: ast.NotIn, ast.NotIn: ast.In,
}
SYMBOLS = {
    ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==",
    ast.NotEq: "!=", ast.Is: "is", ast.IsNot: "is not", ast.In: "in", ast.NotIn: "not in",
}
TIMEOUT_FACTOR = 4
COPY_IGNORE = shutil.ignore_patterns(
    ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".benchmarks", ".bench_out", "results"
)


def run_tests(tree: Path, module: str, timeout: float | None) -> str:
    """Run the module's tests in ``tree``: "passed", "failed" or "timeout"."""
    shutil.rmtree(tree / ".hypothesis", ignore_errors=True)  # no examples carried over
    argv = [
        sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
        "--hypothesis-seed=0", f"tests/test_{module}.py", "tests/test_acceptance.py",
        "tests/test_golden.py",
    ]
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
    # Its own session, so that a timeout also ends the subprocesses a test starts.
    proc = subprocess.Popen(
        argv, cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        start_new_session=True,
    )
    try:
        return "passed" if proc.wait(timeout) == 0 else "failed"
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return "timeout"


def score(tree: Path, module: str) -> dict:
    path = tree / "src" / "canavbsim" / f"{module}.py"
    source = path.read_text(encoding="utf-8")
    module_ast = ast.parse(source)
    compares = [node for node in ast.walk(module_ast) if isinstance(node, ast.Compare)]
    sites = sorted(
        ((node.lineno, i, node) for node in compares for i in range(len(node.ops))),
        key=lambda site: site[0],
    )
    path.write_text(ast.unparse(module_ast), encoding="utf-8")
    start = time.perf_counter()
    if run_tests(tree, module, None) != "passed":
        sys.exit(f"error: the unmutated tests of {module} fail")
    unmutated_s = time.perf_counter() - start
    survivors, timed_out = [], []
    for lineno, i, node in sites:
        op = node.ops[i]
        node.ops[i] = FLIPS[type(op)]()
        path.write_text(ast.unparse(module_ast), encoding="utf-8")
        node.ops[i] = op
        outcome = run_tests(tree, module, TIMEOUT_FACTOR * unmutated_s)
        site = f"{module}.py:{lineno} {SYMBOLS[type(op)]}"
        if outcome == "passed":
            survivors.append(site)
        elif outcome == "timeout":
            timed_out.append(site)
    path.write_text(source, encoding="utf-8")  # the next module's tests import this one
    return {
        "module": module,
        "sites": len(sites),
        "killed": len(sites) - len(survivors) - len(timed_out),
        "survivors": survivors,
        "timed_out": timed_out,
        "unmutated_s": round(unmutated_s, 1),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("modules", nargs="+", metavar="MODULE")
    args = parser.parse_args()
    for module in args.modules:
        for path in (ROOT / "src" / "canavbsim" / f"{module}.py", ROOT / "tests" / f"test_{module}.py"):
            if not path.is_file():
                parser.error(f"no {path.relative_to(ROOT)}")
    with tempfile.TemporaryDirectory(prefix="mutate-") as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=COPY_IGNORE)
        for module in args.modules:
            print(json.dumps(score(tree, module)), flush=True)


if __name__ == "__main__":
    main()
