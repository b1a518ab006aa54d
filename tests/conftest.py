import importlib.util
import sys
from pathlib import Path

import pytest
from hypothesis import strategies as st

from policyledger.contracts import ContractEngine
from policyledger.ledger import Ledger, TransactionRecord, TxKind
from policyledger.policy import load_policy_file
from policyledger.runner import RunConfig, fixture_path
from policyledger.simnet import NetworkModel, SimClock, provision_fleet


#: Small end-to-end run configs, for properties of whole runs.
run_configs = st.builds(
    RunConfig,
    seed=st.integers(0, 2**16),
    endpoints=st.integers(1, 40),
    scenario=st.sampled_from(["smbv1", "rdp", "ransomware"]),
    mode=st.sampled_from(["automated", "human", "both"]),
    validators=st.integers(1, 4),
)


@pytest.fixture
def smbv1_doc():
    return load_policy_file(fixture_path("policies", "smbv1.json"))


@pytest.fixture
def rdp_doc():
    return load_policy_file(fixture_path("policies", "rdp.json"))


@pytest.fixture
def ransomware_doc():
    return load_policy_file(fixture_path("policies", "ransomware.json"))


def make_engine(seed=42, endpoints=8, validators=3, human=False, net=None):
    clock = SimClock(0)
    fleet = provision_fleet(endpoints)
    human_fleet = provision_fleet(endpoints) if human else None
    ledger = Ledger(validators=validators, config_digest="test")
    engine = ContractEngine(
        ledger=ledger,
        fleet=fleet,
        clock=clock,
        net=net or NetworkModel(),
        master_seed=seed,
        human_fleet=human_fleet,
    )
    return engine


@pytest.fixture
def engine():
    return make_engine()


def make_tx(ledger: Ledger, kind=TxKind.ENFORCEMENT_DECISION, actor="contract-engine",
            body=None, timestamp=1, **meta):
    from policyledger.ledger import TxMetadata

    return TransactionRecord.create(
        tx_id=ledger.next_tx_id(),
        timestamp=timestamp,
        kind=kind,
        actor=actor,
        body=body if body is not None else {"planned": [], "target_endpoints": []},
        metadata=TxMetadata(**meta) if meta else None,
    )


def audit_checks(chain) -> list[dict]:
    """The bodies of the last audit's compliance-check records, which it
    commits as one block of nothing else: the audit's whole report."""
    block = [b for b in chain if any(tx.kind == TxKind.COMPLIANCE_CHECK for tx in b.transactions)][-1]
    assert all(tx.kind == TxKind.COMPLIANCE_CHECK for tx in block.transactions)
    return [tx.body() for tx in block.transactions]


def perfbench_feed(seed, reports, monkeypatch):
    """The benchmark's generated feed, from its own workload module."""
    name = "perfbench_workloads"
    spec = importlib.util.spec_from_file_location(
        name, Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    )
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, workloads)
    spec.loader.exec_module(workloads)
    return workloads.generate_feed(seed, reports)
