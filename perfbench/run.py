"""policyledger benchmark: run and audit wall time per workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload audit-4k --seed 1 --seconds 60 --trace 0

One process, one thread, one caller in a closed loop. Each iteration is
one ``run_scenario(config, outdir)`` (the researcher's write path,
including the chain and report files) followed by a batch of audits, the
auditor's read path over the exported chain (import, verify, replay,
rebuild the report); each run and each audit is one operation.
Every operation is checked: output digests repeat across iterations and
match ``reference.json`` where it records the seed, the imported chain
verifies, the rebuilt report equals the live one, and the replayed
endpoint attributes agree with the live fleets.

``--trace 0`` prints the end-to-end metrics, wall times scaled to a
reference host speed measured as the run goes (``hostspeed``).
``--trace 1`` alternates plain and traced iterations and prints the
per-layer metrics, writing the spans to
``.perfbench/trace-<workload>.bin``. The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``. The exit code is 0 only when every operation
passed its checks.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import hostspeed
import layers
from tracer import Tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
WORK = Path(".perfbench")
REFERENCE = HERE / "reference.json"
MODULES = ("canonical", "cli", "contracts", "cti", "errors", "ledger", "metrics", "policy", "runner", "simnet")
OUTPUTS = {"chain": "chain.ndjson", "report_json": "report.json", "report_txt": "report.txt"}
SETUP_PROBES = 11  # fresh processes timed for setup_s
MIN_SAMPLES = 3  # timed iterations a run makes even past --seconds
CALIBRATION_SHARE = 0.25  # host-speed calibration after each timed iteration, as a share of its time

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "tx_per_s": "1/s",
    "audit_s": "s",
    "peak_rss_mb": "MB",
}


class CheckFailed(Exception):
    """An operation ran but its output is wrong."""


def import_package() -> dict:
    """Import policyledger from ./src (never from an installed copy);
    return module short name -> module, plus the package itself."""
    src = Path("src").resolve()
    if not (src / "policyledger" / "__init__.py").is_file():
        raise SystemExit("perfbench: src/policyledger not found; run from the root of a checkout")
    sys.path.insert(0, str(src))
    pkg = importlib.import_module("policyledger")
    if Path(pkg.__file__).resolve().parent != src / "policyledger":
        raise SystemExit(f"perfbench: imported policyledger from {pkg.__file__}, not from ./src")
    mods = {name: importlib.import_module(f"policyledger.{name}") for name in MODULES}
    mods["policyledger"] = pkg
    return mods


def workdir_for(workload: str, seed: int) -> Path:
    """Where a run keeps its inputs and outputs. The feed path is part of
    the config, and so of every output digest: runs and the reference
    recording must use this same relative path."""
    return WORK / "work" / f"{workload}-seed{seed}"


def prepare(pkg: dict, workload: str, seed: int, workdir: Path):
    """Set up one run: write the inputs, load the config and the fixtures
    it names. Everything a run needs before its first iteration."""
    config_path = WORKLOADS[workload].write_inputs(seed, workdir)
    config = pkg["runner"].RunConfig.from_file(config_path)
    for path in config.resolved_policy_paths():
        pkg["policy"].load_policy_file(path)
    pkg["cti"].ForestModel.from_file(config.resolved_model_path())
    return config


def time_setup(workload: str, seed: int) -> float:
    """Seconds from starting a fresh interpreter to its ``ready`` line:
    interpreter start, imports, input generation and fixture loading."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed), "--probe"]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        code = proc.wait()
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"setup probe failed (exit {code}, said {line.strip()!r})")
    return elapsed


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def reference_digests(workload: str, seed: int):
    data = json.loads(REFERENCE.read_text(encoding="utf-8"))
    return data["digests"].get(workload, {}).get(str(seed))


class Bench:
    """The closed loop: one caller, one iteration at a time."""

    def __init__(self, pkg: dict, config, outdir: Path, reference, audits: int = 1):
        self.pkg = pkg
        self.config = config
        self.outdir = outdir
        self.reference = reference
        self.audits = audits
        self.digests = None
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.facts: dict = {}
        self._last_passed = False

    def _operation(self, fn):
        self.attempted += 1
        self._last_passed = False
        try:
            result = fn()
        except Exception as exc:  # noqa: BLE001 - a failed operation is a result
            self.failed += 1
            self.errors.append(f"{type(exc).__name__}: {exc}")
            return None
        self._last_passed = True
        return result

    def fail_last_operation(self, reason: str) -> None:
        """Fail the last operation by a check made after it returned; an
        operation counts as failed at most once."""
        self.errors.append(reason)
        if self._last_passed:
            self.failed += 1
            self._last_passed = False

    def iteration(self, tracer: Tracer | None = None):
        """One run, then a batch of ``audits`` audits of its chain (one
        when traced); returns (run_s, mean audit_s of the batch) or None.
        An audit takes a fraction of a run's time, so a batch gives the
        audit path a share of the window nearer the run path's."""
        run = self._operation(self._run)
        if run is None:
            return None
        run_s, live = run
        batch = []
        for _ in range(1 if tracer else self.audits):
            audit_s = self._operation(lambda: self._audit(live, tracer))
            if audit_s is None:
                return None
            batch.append(audit_s)
        return run_s, statistics.fmean(batch)

    def _run(self):
        runner = self.pkg["runner"]
        gc.collect()
        t0 = time.perf_counter()
        result = runner.run_scenario(self.config, self.outdir)
        run_s = time.perf_counter() - t0
        digests = {key: sha256_file(self.outdir / name) for key, name in OUTPUTS.items()}
        if self.digests is None:
            self.digests = digests
            if self.reference is not None and digests != self.reference:
                raise CheckFailed(f"output digests {digests} differ from reference {self.reference}")
        elif digests != self.digests:
            raise CheckFailed("output digests changed between iterations of one run")
        decisions: dict[str, int] = {}
        for outcome in result.outcomes:
            kind = outcome.decision.kind.value
            decisions[kind] = decisions.get(kind, 0) + 1
        self.facts = {
            "tx_committed": sum(len(b.transactions) for b in result.chain),
            "blocks": len(result.chain),
            "chain_bytes": (self.outdir / OUTPUTS["chain"]).stat().st_size,
            "decisions": decisions,
        }
        live = {
            "report": result.report.to_json(),
            "fleets": {"automated": result.fleet_snapshot, "human": result.human_snapshot},
        }
        return run_s, live

    def _audit(self, live: dict, tracer: Tracer | None) -> float:
        ledger, metrics = self.pkg["ledger"], self.pkg["metrics"]
        gc.collect()
        t0 = time.perf_counter()
        with tracer.span(layers.AUDIT_ROOT) if tracer else nullcontext():
            chain = ledger.import_chain(self.outdir / OUTPUTS["chain"])
            verdict = ledger.verify_chain(chain)
            state = ledger.replay_state(chain)
            automated, human = metrics.samples_from_chain(chain)
            rebuilt = metrics.build_comparison_report(
                automated,
                human,
                chain_hash=chain[-1].block_hash,
                seed=self.config.seed,
                config_digest=chain[0].meta["config_digest"],
            ).to_json()
        audit_s = time.perf_counter() - t0
        if not verdict:
            raise CheckFailed(f"exported chain fails verification: {verdict}")
        if rebuilt != live["report"]:
            raise CheckFailed("report rebuilt from the chain differs from the live report")
        for arm, endpoints in state.endpoint_attrs.items():
            fleet = live["fleets"].get(arm) or {}
            for eid, attrs in endpoints.items():
                if any(fleet.get(eid, {}).get(k) != v for k, v in attrs.items()):
                    raise CheckFailed(f"replayed {arm} state of {eid} differs from the live fleet")
        return audit_s


def measure_plain(bench: Bench, workload: str, seed: int, seconds: float) -> dict:
    """Iterate for ``seconds``: one warm-up iteration (checked, not
    timed), then timed iterations while another fits in the window, each
    followed by host-speed calibration passes. The set-up probes run
    between iterations, spread over the window, so that ``setup_s`` meets
    the same host speed as ``run_s`` and the calibration."""
    runs, audits, setups, passes = [], [], [], []
    samples = {"run_s": runs, "audit_s": audits, "setup_s": setups, "passes": passes}
    start = time.perf_counter()
    deadline = start + seconds
    if bench.iteration() is None:
        return samples
    while True:
        while len(setups) < min(SETUP_PROBES, SETUP_PROBES * (time.perf_counter() - start) / seconds):
            setups.append(time_setup(workload, seed))
        t0 = time.perf_counter()
        sample = bench.iteration()
        if sample is None:
            break
        runs.append(sample[0])
        audits.append(sample[1])
        hostspeed.calibrate(CALIBRATION_SHARE * (time.perf_counter() - t0), passes)
        now = time.perf_counter()
        if len(runs) >= MIN_SAMPLES and now + (now - t0) > deadline:
            break
    while runs and len(setups) < SETUP_PROBES:
        setups.append(time_setup(workload, seed))
    return samples


def traced_iteration(bench: Bench, pkg: dict, tracer: Tracer):
    """One iteration with every layer wrapped: (run_s, per-layer values),
    or None when an operation failed."""
    first = tracer.begin_run(f"iteration-{len(tracer.runs)}")
    tracer.counters.clear()
    layers.install(tracer, pkg)
    try:
        sample = bench.iteration(tracer)
    finally:
        tracer.uninstall()
    if sample is None:
        return None
    facts = bench.facts
    values = layers.layer_metrics(
        tracer.aggregate(first), tracer.counters, facts["tx_committed"], facts["blocks"], facts["chain_bytes"]
    )
    return sample[0], values


def measure_traced(bench: Bench, pkg: dict, seconds: float, trace_path: Path, header: dict):
    """After a warm-up, alternate traced and plain iterations for
    ``seconds``. Per-layer values are medians over the traced iterations,
    whose deterministic counts must agree exactly (a traced iteration
    whose counts differ fails its audit operation); ``trace.overhead_s``
    is the traced minus the plain median ``run_s``."""
    tracer = Tracer()
    plain_runs, traced_runs, per_iteration = [], [], []
    deadline = time.perf_counter() + seconds
    warm = bench.iteration() is not None
    while warm:
        t0 = time.perf_counter()
        traced = traced_iteration(bench, pkg, tracer)
        if traced is None:
            break
        traced_runs.append(traced[0])
        per_iteration.append(traced[1])
        differ = [n for n in layers.DETERMINISTIC if traced[1][n] != per_iteration[0][n]]
        if differ:
            bench.fail_last_operation(f"traced counts differ from the first traced iteration: {differ}")
        plain = bench.iteration()
        if plain is None:
            break
        plain_runs.append(plain[0])
        now = time.perf_counter()
        if now + (now - t0) > deadline:
            break
    tracer.write(trace_path, header)
    if not plain_runs:
        return {}, 0
    out = {name: statistics.median(v[name] for v in per_iteration) for name in per_iteration[0]}
    out["trace.overhead_s"] = statistics.median(traced_runs) - statistics.median(plain_runs)
    return out, len(per_iteration)


def _fmt(values: list[float]) -> str:
    return (f"mean {statistics.fmean(values):.4f}, median {statistics.median(values):.4f} over {len(values)} "
            f"(min {min(values):.4f}, max {max(values):.4f})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=60.0, help="length of the measuring window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true",
                        help="only set up, print 'ready' and exit (times setup_s)")
    args = parser.parse_args(argv)

    pkg = import_package()
    workdir = workdir_for(args.workload, args.seed)
    config = prepare(pkg, args.workload, args.seed, workdir)
    if args.probe:
        print("ready", flush=True)
        return 0
    try:
        return _measure(args, pkg, config, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _measure(args, pkg: dict, config, workdir: Path) -> int:
    reference = reference_digests(args.workload, args.seed)
    bench = Bench(pkg, config, workdir / "out", reference, WORKLOADS[args.workload].audits)
    metrics: dict[str, dict] = {}
    if args.trace:
        trace_path = WORK / f"trace-{args.workload}.bin"
        header = {"workload": args.workload, "seed": args.seed}
        values, traced = measure_traced(bench, pkg, args.seconds, trace_path, header)
        for name, (unit, _) in layers.CATALOG.items():
            if name in values:
                metrics[name] = {"value": values[name], "unit": unit}
        print(f"# traced iterations: {traced}; spans in {trace_path}")
    else:
        samples = measure_plain(bench, args.workload, args.seed, args.seconds)
        if samples["run_s"]:
            # The host switches between fast and slow phases within a run,
            # which can split a run's samples into two groups; their median
            # then jumps from one group to the other, while their mean, like
            # the mean calibration pass, averages the phases.
            speed = hostspeed.scale(samples["passes"])
            run_s = statistics.fmean(samples["run_s"]) * speed
            values = {
                "setup_s": statistics.median(samples["setup_s"]) * speed,
                "run_s": run_s,
                "tx_per_s": bench.facts["tx_committed"] / run_s,
                "audit_s": statistics.fmean(samples["audit_s"]) * speed,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
            print(f"# host speed: {len(samples['passes'])} calibration passes, mean "
                  f"{statistics.fmean(samples['passes']) * 1e3:.3f} ms; wall times below are scaled by {speed:.4f}")
            for name in ("setup_s", "run_s", "audit_s"):
                print(f"# {name} wall {_fmt(samples[name])}")
    facts = bench.facts
    if facts:
        print(f"# workload {args.workload} seed {args.seed}: {facts['tx_committed']} tx in "
              f"{facts['blocks']} blocks, decisions {json.dumps(facts['decisions'], sort_keys=True)}")
    print(f"# reference digests: {'checked' if bench.reference else 'none recorded for this seed'}")
    print(f"# fail_ratio {bench.failed / max(bench.attempted, 1):.4f} "
          f"({bench.failed} of {bench.attempted} operations failed)")
    for error in bench.errors:
        print(f"# error: {error}")
    correct = bench.failed == 0 and bench.attempted > 0 and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": bench.attempted, "failed": bench.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
