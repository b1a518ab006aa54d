"""Every compiled field table against the interpreted one (``field_oracle``),
and the names every generated function is compiled under.

A table's compiled check, or a chain line's reader, must give the same
verdict as the interpreter on every value: the same exception type, path
and text, or none. Documents are fixture files and chain lines with values
drawn from each field's edges (``test_input_files._edges``).
"""

import json
import tempfile
from pathlib import Path
from types import FunctionType

import pytest
from hypothesis import given, settings, strategies as st

import field_oracle as oracle
from test_input_files import _changed, _edges, _slots

from policyledger import canonical, contracts, cti, ledger, metrics, policy, runner, simnet
from policyledger.canonical import check_config, check_fields
from policyledger.cti import ForestModel, ThreatReport, ingest_feed, read_feed
from policyledger.ledger import GENESIS_META, LedgerBlock, TransactionRecord, TxMetadata, import_chain
from policyledger.policy import PolicyDocument, load_policy_file
from policyledger.runner import RunConfig, fixture_path, run_scenario


def _chain_lines() -> list:
    with tempfile.TemporaryDirectory() as tmp:
        run_scenario(RunConfig(scenario="ransomware", endpoints=3, seed=11), tmp)
        text = (Path(tmp) / "chain.ndjson").read_text(encoding="utf-8")
    return [json.loads(line) for line in text.splitlines()]


def _chain_table(cls):
    return (lambda doc: cls.from_dict(doc, {}),
            lambda doc: oracle.check_fields(cls.SPEC, doc, cls.__name__, ledger._wire_error))


_LINES = _chain_lines()
_RECORDS = [tx for block in _LINES[1:3] for tx in block["transactions"]][:4]
_POLICIES = [json.loads(fixture_path("policies", name).read_text(encoding="utf-8"))
             for name in ("smbv1.json", "rdp.json", "ransomware.json")]

#: Each table: its documents, its spec, its compiled check and its interpreted one.
_TABLES = {
    "run config": ([{}, {"network": {}, "team": {}}, {"seed": 3, "model": None, "policies": []}],
                   RunConfig.SPEC, lambda doc: check_config(RunConfig, doc),
                   lambda doc: oracle.check_config(RunConfig, doc)),
    "policy document": (_POLICIES, PolicyDocument.SPEC, lambda doc: check_fields(PolicyDocument.SPEC, doc),
                        lambda doc: oracle.check_fields(PolicyDocument.SPEC, doc)),
    "feed item": (read_feed(fixture_path("feeds", "ransomware.json"))[:3], ThreatReport.SPEC,
                  lambda doc: check_fields(ThreatReport.SPEC, doc, "item[1]"),
                  lambda doc: oracle.check_fields(ThreatReport.SPEC, doc, "item[1]")),
    "model file": ([json.loads(fixture_path("model.json").read_text(encoding="utf-8"))], ForestModel.SPEC,
                   lambda doc: check_config(ForestModel, doc), lambda doc: oracle.check_config(ForestModel, doc)),
    "chain block": (_LINES[1:3], LedgerBlock.SPEC, *_chain_table(LedgerBlock)),
    "chain record": (_RECORDS, TransactionRecord.SPEC, *_chain_table(TransactionRecord)),
    "chain metadata": ([tx["metadata"] for tx in _RECORDS], TxMetadata.SPEC, *_chain_table(TxMetadata)),
    "genesis meta": ([_LINES[0]["meta"]], GENESIS_META, lambda doc: ledger._meta_check(doc, "meta"),
                     lambda doc: oracle.check_fields(GENESIS_META, doc, "meta", ledger._wire_error)),
}


def _verdict(check, doc):
    """None, or the type, text and path of what ``check(doc)`` raised."""
    try:
        check(doc)
    except Exception as exc:  # noqa: BLE001 - any difference counts
        return type(exc), str(exc), getattr(exc, "path", None)
    return None


def _edits(doc, spec) -> list:
    """(path, value or None to delete) of every one-value change of ``doc``
    that the field edges offer, the deletion of each field among them, in
    the first two items of each list."""
    edits = []
    for path, field, holder in _slots(doc, spec):
        if any(type(key) is int and key > 1 for key in path):
            continue
        edits += [(path, value) for value in _edges(field, holder)]
        if field is not None:
            edits.append((path, None))
    return edits


def _apply(doc, edits):
    """``doc`` with each edit whose container is still there applied."""
    for path, value in edits:
        try:
            doc = _changed(doc, path, value, value is None)
        except (KeyError, IndexError, TypeError):
            pass
    return doc


@pytest.mark.parametrize("table", sorted(_TABLES))
def test_each_compiled_table_refuses_every_edge_as_the_interpreter_does(table):
    docs, spec, compiled, interpreted = _TABLES[table]
    refused = 0
    for doc in docs:
        assert _verdict(compiled, doc) is _verdict(interpreted, doc) is None
        for edit in _edits(doc, spec):
            changed = _apply(doc, [edit])
            verdict = _verdict(interpreted, changed)
            assert _verdict(compiled, changed) == verdict, edit
            refused += verdict is not None
    assert refused > 0


@st.composite
def _changed_documents(draw):
    """(table, a document of it with one to three values changed)."""
    table = draw(st.sampled_from(sorted(_TABLES)))
    docs, spec = _TABLES[table][:2]
    doc = draw(st.sampled_from(docs))
    edits = draw(st.lists(st.sampled_from(_edits(doc, spec)), min_size=1, max_size=3))
    return table, _apply(doc, edits)


@settings(max_examples=300, deadline=None)
@given(changed=_changed_documents())
def test_a_compiled_table_gives_the_interpreters_verdict_type_path_and_text(changed):
    table, doc = changed
    _, _, compiled, interpreted = _TABLES[table]
    assert _verdict(compiled, doc) == _verdict(interpreted, doc)


def test_a_read_chain_line_is_the_block_the_run_committed():
    with tempfile.TemporaryDirectory() as tmp:
        live = run_scenario(RunConfig(scenario="ransomware", endpoints=3, seed=11), tmp).chain
        assert import_chain(Path(tmp) / "chain.ndjson") == live
    block = LedgerBlock.from_dict(_LINES[2], {})
    assert type(block.transactions) is tuple and block._recomputed is None
    assert all(type(tx.metadata.technique_ids) is tuple for tx in block.transactions)


def _generated_functions() -> list:
    """Every function the package generates: each module's, each table's
    check once used, each chain reader, and the fixture policies' rule
    filters."""
    with tempfile.TemporaryDirectory() as tmp:
        run_scenario(RunConfig.from_dict({"scenario": "custom", "endpoints": 3,
                                          "policies": [str(fixture_path("policies", "smbv1.json"))],
                                          "feeds": [str(fixture_path("feeds", "smbv1_advisory.json"))]}), tmp)
    ingest_feed(read_feed(fixture_path("feeds", "ransomware.json")))
    ForestModel.from_file(fixture_path("model.json"))
    rules = [rule for name in ("smbv1.json", "rdp.json", "ransomware.json")
             for rule in load_policy_file(fixture_path("policies", name)).rules]
    functions = [fn for module in (canonical, contracts, cti, ledger, metrics, policy, runner, simnet)
                 for fn in vars(module).values() if isinstance(fn, FunctionType)]
    functions += [check for _, check in canonical._CHECKS.values()]
    functions += [ledger._reader(cls) for cls in (TxMetadata, TransactionRecord, LedgerBlock)]
    functions += [rule._check for rule in rules]
    return list({id(fn): fn for fn in functions}.values())


def test_every_generated_function_is_compiled_under_its_own_name():
    names = [fn.__code__.co_filename for fn in _generated_functions()]
    generated = [name for name in names if name.startswith("<")]
    assert "<string>" not in names
    assert all(name.startswith("<generated ") for name in generated)
    assert len(set(generated)) == len(generated) > 20
    for name in ("<generated TransactionRecord reader>", "<generated LedgerBlock check>",
                 "<generated TransactionRecord builder>", "<generated genesis meta check>"):
        assert name in generated
