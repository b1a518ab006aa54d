"""Benchmark workloads: seeded generation of the package's input files.

Each workload writes a scenario config (and, for ``cti-stream``, a threat
feed) into a work directory and nothing else; the package reads only
those files plus its own shipped fixtures. Every path written into a
config is relative to the checkout root, so the config digest, and with
it every output byte, is the same in any checkout.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

FIXTURE_POLICIES = [
    "src/policyledger/fixtures/policies/smbv1.json",
    "src/policyledger/fixtures/policies/rdp.json",
    "src/policyledger/fixtures/policies/ransomware.json",
]

# Feed vocabulary. Words that the shipped model's stumps vote on are mixed
# with neutral filler, so severity (and with it the decision) varies from
# report to report. The lists are the benchmark's own, not imported from
# the package, so a refactor of the model fixture cannot change the feed.
_THREAT_WORDS = (
    "ransomware nokoyawa encrypting smbv1 exploit exploitation privilege "
    "escalation brute bruteforce ransom lockbit wannacry extortion wiper "
    "exfiltrated rce 0day eternalblue overflow injection vulnerability cve "
    "shellcode deserialization xss sqli heap malware trojan botnet worm "
    "rootkit loader apt infostealer dropper payload spyware adware "
    "cryptominer ddos persistence packed evasion implant phishing "
    "spearphishing lure smishing bec impersonation vishing pretexting "
    "whaling typosquatting quishing recon scanning scan enumeration probe "
    "sweep harvesting"
).split()
_QUIET_WORDS = (
    "advisory informational maintenance bulletin newsletter routine notice "
    "summary"
).split()
_FILLER_WORDS = (
    "observed hosts servers network traffic campaign operators actors "
    "targeting organizations windows linux file sharing remote desktop "
    "update patch vendor customers region sector finance healthcare "
    "activity reported analysts indicators domains addresses the a of in "
    "on with and for against after during"
).split()
# Technique-id sets and their share of the feed. A tagged report matches
# fixture rules by tag alone, so these shares fix the decision mix whatever
# the seed and however the model's weights drift: T1210 and T1021.001 tag
# the smbv1 and rdp policies (standard mitigation), T1486 and T1490 the
# ransomware policy (immediate action), and the other ids tag no fixture
# rule (no action). Untagged reports take the severity path, where the
# classified severity decides.
_TECHNIQUE_MIX = [
    ((), 0.10),
    (("T1210",), 0.12),
    (("T1021.001",), 0.12),
    (("T1021.001", "T1210"), 0.06),
    (("T1486",), 0.10),
    (("T1490", "T1566"), 0.10),
    (("T1021.001", "T1210", "T1486"), 0.10),
    (("T1566",), 0.08),
    (("T1595", "T1046"), 0.08),
    (("T1068",), 0.04),
    (("T1003", "T1190"), 0.04),
    (("T1055", "T1105"), 0.06),
]
_CVES = ["CVE-2023-28252", "CVE-2017-0144", "CVE-2021-34527", "CVE-2019-0708"]
_ACTORS = [None, "unknown", "fin7", "lazarus", "ransomware-affiliate", "apt29"]


def generate_feed(seed: int, reports: int) -> list[dict]:
    """``reports`` random threat reports mixing lexicon tokens, technique
    ids, CVE ids and CVSS scores; the same seed gives the same feed."""
    rng = random.Random(f"perfbench/cti-stream/{seed}")
    shapes = [tags for tags, share in _TECHNIQUE_MIX for _ in range(round(share * reports))]
    shapes = (shapes + [()] * reports)[:reports]
    rng.shuffle(shapes)
    feed = []
    for i, techniques in enumerate(shapes):
        words = [rng.choice(_FILLER_WORDS) for _ in range(rng.randint(4, 12))]
        for _ in range(rng.randint(0, 3)):
            words.insert(rng.randrange(len(words) + 1), rng.choice(_THREAT_WORDS))
        if rng.random() < 0.3:
            words.append(rng.choice(_QUIET_WORDS))
        cves = [rng.choice(_CVES)] if rng.random() < 0.25 else []
        cvss = round(rng.uniform(0.0, 10.0), 1) if rng.random() < 0.7 else None
        feed.append(
            {
                "report_id": f"gen-{i:05d}",
                "source": "perfbench-generator",
                "actor": rng.choice(_ACTORS),
                "technique_ids": list(techniques),
                "cve_ids": cves,
                "cvss": cvss,
                "text": " ".join(words),
                "received_at": 5_000 + i,
            }
        )
    return feed


# The human arm draws each (endpoint, action) error from a stream keyed
# without the cycle, so an endpoint that errs once errs on every later
# decision. Over 2 000 cycles the count of such endpoints, which varies
# by about a third from seed to seed, would set most of the work; with
# human errors off, the report count sets it. ``audit-4k`` runs one
# decision per arm and keeps the default error rates.
_NO_HUMAN_ERRORS = {"human_error_prob": 0.0, "human_error_prob_by_kind": {}}


@dataclass(frozen=True)
class Workload:
    name: str
    scenario: str
    endpoints: int
    audits: int  # audits of each run's chain per iteration
    infected_count: int = 10
    feed_reports: int = 0  # > 0: custom scenario fed by a generated feed

    def write_inputs(self, seed: int, workdir: Path, endpoints: int | None = None,
                     feed_reports: int | None = None) -> Path:
        """Write the config (and feed) for ``seed`` under ``workdir``,
        given relative to the current directory; return the config path.
        ``endpoints``/``feed_reports`` shrink the workload for tests."""
        workdir.mkdir(parents=True, exist_ok=True)
        config = {
            "seed": seed,
            "endpoints": endpoints or self.endpoints,
            "scenario": self.scenario,
            "mode": "both",
            "infected_count": self.infected_count,
        }
        reports = feed_reports or self.feed_reports
        if reports:
            feed_path = workdir / "feed.json"
            feed_path.write_text(json.dumps(generate_feed(seed, reports), indent=1), encoding="utf-8")
            config["policies"] = FIXTURE_POLICIES
            config["feeds"] = [feed_path.as_posix()]
            config["network"] = _NO_HUMAN_ERRORS
        config_path = workdir / "config.json"
        config_path.write_text(json.dumps(config, indent=2, sort_keys=True), encoding="utf-8")
        return config_path


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "audit-4k",
            scenario="smbv1",
            endpoints=4_000,
            audits=2,
        ),
        Workload(
            "cti-stream",
            scenario="custom",
            endpoints=60,
            audits=4,
            feed_reports=1_000,
        ),
    )
}
