"""Tests of the benchmark itself, on small workloads.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

import hostspeed  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
from tracer import Tracer, aggregate_spans, read_trace  # noqa: E402
from workloads import WORKLOADS, generate_feed  # noqa: E402

# Small versions of each workload: (endpoints, feed reports).
SMALL = {"audit-4k": (40, None), "cti-stream": (12, 40)}


@pytest.fixture(scope="module")
def pkg():
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(ROOT)
        yield run.import_package()


def small_bench(pkg, workload: str, seed: int, tmp_path: Path, reference=None) -> run.Bench:
    endpoints, reports = SMALL[workload]
    config_path = WORKLOADS[workload].write_inputs(seed, tmp_path / "in", endpoints=endpoints, feed_reports=reports)
    config = pkg["runner"].RunConfig.from_file(config_path)
    return run.Bench(pkg, config, tmp_path / "out", reference)


def test_feed_is_a_function_of_the_seed():
    assert generate_feed(5, 60) == generate_feed(5, 60)
    assert generate_feed(5, 60) != generate_feed(6, 60)
    assert len(generate_feed(5, 60)) == 60


@pytest.mark.parametrize("workload", sorted(SMALL))
def test_traced_counts_repeat_exactly(pkg, workload, tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    runs = []
    for attempt in range(2):
        bench = small_bench(pkg, workload, 3, tmp_path / str(attempt))
        assert bench.iteration() is not None
        traced = run.traced_iteration(bench, pkg, Tracer())
        assert traced is not None, bench.errors
        runs.append(traced[1])
        assert bench.failed == 0, bench.errors
    for name in layers.DETERMINISTIC:
        assert runs[0][name] == runs[1][name], name
    values = runs[0]
    # What the code does at this commit: every transaction is validated at
    # submit and once per validator, and each run verifies its chain four
    # times (once in the runner, three times via query_history).
    assert values["ledger.validate_per_tx"] == 4.0
    assert values["ledger.verify_calls"] == 4
    assert values["ledger.record_digest_per_tx"] == 5.0
    assert values["ledger.submit_calls"] == values["ledger.tx_committed"]
    assert values["audit.verify_calls"] == 5
    assert values["cti.reports"] == sum(values[f"cti.decisions.{k}"] for k in ("no_action", "standard", "immediate"))
    assert set(values) | {"trace.overhead_s"} == set(layers.CATALOG)


def test_smbv1_transaction_count(pkg, tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    bench = small_bench(pkg, "audit-4k", 1, tmp_path)
    assert bench.iteration() is not None
    n = SMALL["audit-4k"][0]
    # deploy + audit checks + one decision and n results per arm
    assert bench.facts["tx_committed"] == 1 + n + 2 * (1 + n)


def test_an_iteration_is_one_run_and_a_batch_of_audits(pkg, tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    bench = small_bench(pkg, "cti-stream", 4, tmp_path)
    bench.audits = 3
    assert bench.iteration() is not None
    assert (bench.attempted, bench.failed) == (4, 0)
    assert run.traced_iteration(bench, pkg, Tracer()) is not None
    assert (bench.attempted, bench.failed) == (6, 0)


def test_timings_scale_to_the_reference_host_speed():
    ref = hostspeed.REFERENCE_PASS_S
    assert hostspeed.scale([ref, ref]) == pytest.approx(1.0)
    assert hostspeed.scale([2 * ref, 2 * ref]) == pytest.approx(0.5)
    passes = []
    hostspeed.calibrate(0.0, passes)
    assert len(passes) == 1 and passes[0] > 0


def test_uninstall_restores_every_binding(pkg):
    def bindings():
        out = {}
        for name, mod in pkg.items():
            for attr, value in vars(mod).items():
                out[(name, attr)] = value
                if isinstance(value, type):
                    out.update({(name, attr, k): v for k, v in vars(value).items()})
        return out

    before = bindings()
    tracer = Tracer()
    layers.install(tracer, pkg)
    assert pkg["runner"].verify_chain is not before[("runner", "verify_chain")]
    tracer.uninstall()
    after = bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_wrong_reference_digest_fails_the_run(pkg, tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    wrong = {key: "0" * 64 for key in run.OUTPUTS}
    bench = small_bench(pkg, "audit-4k", 2, tmp_path, reference=wrong)
    assert bench.iteration() is None
    assert bench.failed == 1 and "differ from reference" in bench.errors[0]


def test_full_size_run_matches_its_recorded_digests(pkg, monkeypatch):
    monkeypatch.chdir(ROOT)
    workdir = run.workdir_for("cti-stream", 0)
    try:
        config = run.prepare(pkg, "cti-stream", 0, workdir)
        reference = run.reference_digests("cti-stream", 0)
        assert reference is not None
        bench = run.Bench(pkg, config, workdir / "out", reference)
        assert bench.iteration() is not None, bench.errors
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def test_a_late_check_fails_its_operation_once(tmp_path):
    bench = run.Bench(None, None, tmp_path, None)
    assert bench._operation(lambda: "done") == "done"
    bench.fail_last_operation("first late check")
    bench.fail_last_operation("second late check")
    assert (bench.attempted, bench.failed) == (1, 1)
    assert bench.errors == ["first late check", "second late check"]


def test_trace_file_gives_the_same_self_times(tmp_path):
    tracer = Tracer()
    tracer.begin_run("r")

    def leaf():
        return sum(range(2000))

    outer = tracer.wrap(lambda: [leaf_w() for _ in range(3)], "a.outer")
    leaf_w = tracer.wrap(leaf, "b.leaf")
    outer()
    tracer.write(tmp_path / "t.bin", {"workload": "test"})
    header, cols = read_trace(tmp_path / "t.bin")
    assert header["names"] == ["a.outer", "b.leaf"] and header["count"] == 4
    from_file = aggregate_spans(header["names"], cols, 0, header["count"])
    assert from_file == tracer.aggregate(0)
    (calls, outer_self), (leaf_calls, leaf_self) = from_file[("a.outer", "a.outer")], from_file[("a.outer", "b.leaf")]
    assert (calls, leaf_calls) == (1, 3)
    assert outer_self + leaf_self == pytest.approx(cols["end"][0] - cols["start"][0])


def test_catalog_matches_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == layers.CATALOG
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_fails_without_the_package(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    cmd = [sys.executable, "perfbench/run.py", "--workload", "cti-stream", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""

