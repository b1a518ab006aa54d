"""Reachability: every function in ``src/`` is called by some run path,
or is named below with the reason it stays; and every name a ``src/``
module imports is used in that module, or is named below with its reason.

The probe runs in a fresh interpreter (``python tests/test_reach.py
WORKDIR``) with ``sys.setprofile`` installed before ``policyledger`` is
imported, so calls made at import time count. It drives every scenario
and mode, a custom run on a generated feed, the auditor's path over an
exported chain, and the four CLI commands on good and bad inputs, then
prints the functions no call reached as ``module.qualname``. Class
bodies, lambdas, comprehensions and generator expressions are not
counted, nor is code the package generates at run time.

This module imports nothing from the package at module level, so run as
a script it installs the profiler first.
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Never called by the probe, and why each stays.
UNREACHED = {
    "policy._unknown_comparator": (
        "error path: a loaded rule's comparator is checked at load; only a Condition built in code reaches it"
    ),
    "ledger.TxVerdict.__bool__": (
        "runs test a verdict's accepted field, not its truth; tests and the benchmark's tracer do"
    ),
    "ledger.TransactionRecord.__post_init__": (
        "every path builds records slot by slot, bypassing __init__; dataclasses.replace reaches it"
    ),
    "ledger._tx_matches": "query_history's filters, kept for a chain-inspection command",
    "ledger._unreadable": (
        "error path: only a verifying chain holding a body its reader cannot read reaches it; tests seal one"
    ),
    "cti.ForestModel.to_json": "public helper that tests use to write model files",
    "metrics.ComparisonReport.digest": "public helper that tests use",
    "ledger.LedgerBlock.wire_json": "public helper that tests use",
}

#: Imported by a module that never uses it, and why each stays.
UNUSED_IMPORTS = {
    "runner.verify_chain": "perfbench's binding test reads runner.verify_chain",
}

_COMPREHENSIONS = {"<lambda>", "<listcomp>", "<dictcomp>", "<setcomp>", "<genexpr>"}
_FUNCTION_FLAGS = 0x1 | 0x2  # CO_OPTIMIZED | CO_NEWLOCALS: not a module or class body


def _functions(code, module: str):
    """(code key, ``module.qualname``) of every function compiled in ``code``."""
    for const in code.co_consts:
        if not hasattr(const, "co_code"):
            continue
        if const.co_flags & _FUNCTION_FLAGS == _FUNCTION_FLAGS and const.co_name not in _COMPREHENSIONS:
            yield (const.co_filename, const.co_firstlineno, const.co_qualname), f"{module}.{const.co_qualname}"
        yield from _functions(const, module)


def _exercise(workdir: Path) -> None:
    """Every run path: scenarios x modes, a custom run, the auditor's path
    and the CLI, with the exit code of each CLI call checked."""
    import importlib.util

    from policyledger.cli import main
    from policyledger.ledger import import_chain, replay_state, verify_chain
    from policyledger.metrics import samples_from_chain
    from policyledger.runner import RunConfig, fixture_path, run_scenario

    for scenario in ("smbv1", "rdp", "ransomware"):
        for mode in ("automated", "human", "both"):
            run_scenario(RunConfig(seed=1, endpoints=6, scenario=scenario, mode=mode, infected_count=3),
                         outdir=workdir / f"{scenario}-{mode}")

    spec = importlib.util.spec_from_file_location("perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    feed = workdir / "feed.json"
    feed.write_text(json.dumps(workloads.generate_feed(1, 40)), encoding="utf-8")
    policies = [str(fixture_path("policies", f"{name}.json")) for name in ("smbv1", "rdp", "ransomware")]
    custom = workdir / "custom"
    run_scenario(RunConfig(seed=2, endpoints=8, scenario="custom", policies=policies, feeds=[str(feed)]),
                 outdir=custom)

    chain_file = custom / "chain.ndjson"
    chain = import_chain(chain_file)
    assert verify_chain(chain)
    replay_state(chain)
    samples_from_chain(chain)
    # Only a ransomware run writes a threat alert for replay to fold.
    replay_state(import_chain(workdir / "ransomware-both" / "chain.ndjson"))

    # One chain fails on a block hash, the other on a mistyped field.
    tampered = []
    for name, old, new in [("hash", '"actor":"', '"actor":"x'), ("format", '"index":1,', '"index":"1",')]:
        lines = chain_file.read_text(encoding="utf-8").splitlines()
        lines[1] = lines[1].replace(old, new, 1)
        tampered.append(workdir / f"{name}.ndjson")
        tampered[-1].write_text("\n".join(lines) + "\n", encoding="utf-8")
    bad_config = workdir / "bad-config.json"
    bad_config.write_text(json.dumps({"scenario": "smbv1", "colour": "red"}), encoding="utf-8")
    no_rules = workdir / "no-rules.json"
    no_rules.write_text(json.dumps({k: v for k, v in json.loads(Path(policies[0]).read_text()).items()
                                    if k != "rules"}), encoding="utf-8")
    items = json.loads(feed.read_text(encoding="utf-8"))
    del items[1]["text"]
    missing_text = workdir / "missing-text.json"
    missing_text.write_text(json.dumps(items), encoding="utf-8")
    missing, out = str(workdir / "none.json"), ["--out", str(workdir / "cli")]
    calls = [
        (["run", "--scenario", "ransomware", "--endpoints", "4", *out, "-v"], 0),
        (["run", "--config", str(bad_config), *out], 2),
        (["run", "--config", missing, *out], 3),
        (["verify-chain", str(chain_file)], 0),
        (["replay", str(chain_file)], 0),
        (["classify", str(missing_text), "--policies", *policies], 0),
        (["classify", str(feed), "--policies", str(no_rules)], 2),
        (["classify", missing], 3),
        (["replay", missing], 3),
        *((["verify-chain", str(path)], 1) for path in tampered),
        *((["replay", str(path)], 1) for path in tampered),
    ]
    for argv, expected in calls:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        assert code == expected, f"policyledger {' '.join(argv)}: exit {code}, expected {expected}"


def probe(workdir: Path) -> list[str]:
    """The ``module.qualname`` of every ``src/`` function that no call reached."""
    called = set()

    def record(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    sys.setprofile(record)
    try:
        import policyledger

        _exercise(workdir)
    finally:
        sys.setprofile(None)
    reached = {(code.co_filename, code.co_firstlineno, code.co_qualname) for code in called}
    never = []
    for path in sorted(Path(policyledger.__file__).parent.glob("*.py")):
        module = compile(path.read_text(encoding="utf-8"), str(path), "exec")
        never += [name for key, name in _functions(module, path.stem) if key not in reached]
    return sorted(never)


def test_every_unreached_function_is_named_with_its_reason(tmp_path):
    paths = [str(SRC), *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    proc = subprocess.run([sys.executable, __file__, str(tmp_path)], capture_output=True, text=True,
                          env=env, cwd=ROOT, timeout=60)
    assert proc.returncode == 0, proc.stderr
    never = set(json.loads(proc.stdout))
    assert never - UNREACHED.keys() == set(), "no run path calls these: delete them, or name them with a reason"
    assert UNREACHED.keys() - never == set(), "a run path calls these now: take them off the list"


def unused_imports(path: Path) -> list[str]:
    """``module.name`` of each name the module at ``path`` imports and never
    reads: no ``Name`` node loads it, and ``__all__`` does not list it."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = [alias.asname or alias.name.partition(".")[0]
                for node in ast.walk(tree)
                if isinstance(node, ast.Import) or isinstance(node, ast.ImportFrom) and node.module != "__future__"
                for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    return [f"{path.stem}.{name}" for name in imported if name not in used]


def test_every_unused_import_is_named_with_its_reason():
    unused = {name for path in sorted((SRC / "policyledger").glob("*.py")) for name in unused_imports(path)}
    assert unused - UNUSED_IMPORTS.keys() == set(), "these imports are never used: delete them"
    assert UNUSED_IMPORTS.keys() - unused == set(), "these imports are used now: take them off the list"


if __name__ == "__main__":
    print(json.dumps(probe(Path(sys.argv[1]))))
