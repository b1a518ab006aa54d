"""Record the benchmark's reference files from the current source tree.

    python3 perfbench/record.py digests   # perfbench/reference.json
    python3 perfbench/record.py scaling   # perfbench/scaling.json

``digests`` runs every workload once for each of seeds 0-63 and stores
the SHA-256 of ``chain.ndjson``, ``report.json`` and ``report.txt``; the
benchmark checks each run against them. Re-record only in a change that
alters output bytes on purpose, and say so in that change.

``scaling`` times ``run_scenario`` for ``smbv1``/``both`` at 1 000, 4 000
and 10 000 endpoints (median of three runs each) and stores run time and
microseconds per committed transaction. It is a one-off record of how
cost grows with fleet size, not a gated workload.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import time
from pathlib import Path

import run
from workloads import WORKLOADS

SCALING = run.HERE / "scaling.json"
SCALING_SIZES = (1_000, 4_000, 10_000)
SCALING_REPEATS = 3
SCALING_SEED = 1
DIGEST_SEEDS = range(64)


def record_digests(pkg: dict) -> None:
    """Rewrite the reference digests of every workload and seed from the
    current source."""
    digests: dict[str, dict] = {}
    for workload in sorted(WORKLOADS):
        digests[workload] = {}
        for seed in DIGEST_SEEDS:
            workdir = run.workdir_for(workload, seed)
            config = run.prepare(pkg, workload, seed, workdir)
            pkg["runner"].run_scenario(config, workdir / "out")
            digests[workload][str(seed)] = {
                key: run.sha256_file(workdir / "out" / name) for key, name in run.OUTPUTS.items()
            }
            shutil.rmtree(workdir)
            print(f"{workload} seed {seed}: {digests[workload][str(seed)]['chain'][:16]}", flush=True)
    run.REFERENCE.write_text(json.dumps({"digests": digests}, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def record_scaling(pkg: dict) -> None:
    rows = []
    for endpoints in SCALING_SIZES:
        workdir = run.WORK / "record" / f"scaling-{endpoints}"
        config_path = WORKLOADS["audit-4k"].write_inputs(SCALING_SEED, workdir, endpoints=endpoints)
        config = pkg["runner"].RunConfig.from_file(config_path)
        times = []
        for _ in range(SCALING_REPEATS):
            t0 = time.perf_counter()
            result = pkg["runner"].run_scenario(config, workdir / "out")
            times.append(time.perf_counter() - t0)
        tx = sum(len(b.transactions) for b in result.chain)
        del result
        shutil.rmtree(workdir)
        run_s = statistics.median(times)
        rows.append({"endpoints": endpoints, "tx_committed": tx, "run_s": round(run_s, 3),
                     "us_per_tx": round(run_s / tx * 1e6, 1)})
        print(rows[-1], flush=True)
    table = {
        "scenario": "smbv1",
        "mode": "both",
        "seed": SCALING_SEED,
        "statistic": f"median of {SCALING_REPEATS} run_scenario calls in one process",
        "host": f"{_cpu_model()}, {os.cpu_count()} CPUs, Python {platform.python_version()}",
        "rows": rows,
    }
    SCALING.write_text(json.dumps(table, indent=1) + "\n", encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="what", required=True)
    sub.add_parser("digests")
    sub.add_parser("scaling")
    args = parser.parse_args(argv)
    pkg = run.import_package()
    if args.what == "digests":
        record_digests(pkg)
    else:
        record_scaling(pkg)
    return 0


if __name__ == "__main__":
    sys.exit(main())
