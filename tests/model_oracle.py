"""The shipped model fixture's provenance: the builder that wrote
``fixtures/model.json``, kept as that file's oracle.

One stump per curated token, technique id and CVE id, at the feature the
encoder maps it to, one per CVSS bin and one for an absent CVSS, each
with threshold 0 and weight 1.
"""

from policyledger.cti import (
    CVSS_ABSENT,
    CVSS_BASE,
    FEATURE_WIDTH,
    ForestModel,
    Stump,
    ThreatCategory,
    cve_feature,
    technique_feature,
    token_feature,
)
from policyledger.errors import InputError

_TOKEN_LEXICON: list[tuple[str, int, ThreatCategory]] = [
    ("ransomware", 4, ThreatCategory.RANSOMWARE),
    ("nokoyawa", 4, ThreatCategory.RANSOMWARE),
    ("encrypting", 3, ThreatCategory.RANSOMWARE),
    ("smbv1", 3, ThreatCategory.EXPLOIT),
    ("exploit", 3, ThreatCategory.EXPLOIT),
    ("exploitation", 3, ThreatCategory.EXPLOIT),
    ("privilege", 3, ThreatCategory.EXPLOIT),
    ("escalation", 3, ThreatCategory.EXPLOIT),
    ("brute", 2, ThreatCategory.RECON),
    ("bruteforce", 2, ThreatCategory.RECON),
    ("advisory", 0, ThreatCategory.OTHER),
    ("informational", 0, ThreatCategory.OTHER),
    ("maintenance", 0, ThreatCategory.OTHER),
    ("ransom", 4, ThreatCategory.RANSOMWARE),
    ("lockbit", 4, ThreatCategory.RANSOMWARE),
    ("wannacry", 4, ThreatCategory.RANSOMWARE),
    ("extortion", 3, ThreatCategory.RANSOMWARE),
    ("wiper", 4, ThreatCategory.RANSOMWARE),
    ("exfiltrated", 3, ThreatCategory.RANSOMWARE),
    ("rce", 4, ThreatCategory.EXPLOIT),
    ("0day", 4, ThreatCategory.EXPLOIT),
    ("eternalblue", 4, ThreatCategory.EXPLOIT),
    ("overflow", 3, ThreatCategory.EXPLOIT),
    ("injection", 3, ThreatCategory.EXPLOIT),
    ("vulnerability", 2, ThreatCategory.EXPLOIT),
    ("cve", 2, ThreatCategory.EXPLOIT),
    ("shellcode", 3, ThreatCategory.EXPLOIT),
    ("deserialization", 3, ThreatCategory.EXPLOIT),
    ("xss", 2, ThreatCategory.EXPLOIT),
    ("sqli", 3, ThreatCategory.EXPLOIT),
    ("heap", 3, ThreatCategory.EXPLOIT),
    ("malware", 3, ThreatCategory.MALWARE),
    ("trojan", 3, ThreatCategory.MALWARE),
    ("botnet", 3, ThreatCategory.MALWARE),
    ("worm", 3, ThreatCategory.MALWARE),
    ("rootkit", 4, ThreatCategory.MALWARE),
    ("loader", 2, ThreatCategory.MALWARE),
    ("apt", 3, ThreatCategory.MALWARE),
    ("infostealer", 3, ThreatCategory.MALWARE),
    ("dropper", 3, ThreatCategory.MALWARE),
    ("payload", 2, ThreatCategory.MALWARE),
    ("spyware", 3, ThreatCategory.MALWARE),
    ("adware", 1, ThreatCategory.MALWARE),
    ("cryptominer", 2, ThreatCategory.MALWARE),
    ("ddos", 3, ThreatCategory.MALWARE),
    ("persistence", 3, ThreatCategory.MALWARE),
    ("packed", 2, ThreatCategory.MALWARE),
    ("evasion", 2, ThreatCategory.MALWARE),
    ("implant", 3, ThreatCategory.MALWARE),
    ("phishing", 2, ThreatCategory.PHISHING),
    ("spearphishing", 3, ThreatCategory.PHISHING),
    ("lure", 1, ThreatCategory.PHISHING),
    ("smishing", 2, ThreatCategory.PHISHING),
    ("bec", 3, ThreatCategory.PHISHING),
    ("impersonation", 2, ThreatCategory.PHISHING),
    ("vishing", 2, ThreatCategory.PHISHING),
    ("pretexting", 2, ThreatCategory.PHISHING),
    ("whaling", 3, ThreatCategory.PHISHING),
    ("typosquatting", 2, ThreatCategory.PHISHING),
    ("quishing", 2, ThreatCategory.PHISHING),
    ("recon", 1, ThreatCategory.RECON),
    ("scanning", 1, ThreatCategory.RECON),
    ("scan", 1, ThreatCategory.RECON),
    ("enumeration", 1, ThreatCategory.RECON),
    ("probe", 1, ThreatCategory.RECON),
    ("sweep", 1, ThreatCategory.RECON),
    ("harvesting", 1, ThreatCategory.RECON),
    ("bulletin", 0, ThreatCategory.OTHER),
    ("newsletter", 0, ThreatCategory.OTHER),
    ("routine", 0, ThreatCategory.OTHER),
    ("notice", 0, ThreatCategory.OTHER),
    ("summary", 0, ThreatCategory.OTHER),
]

_TECHNIQUE_LEXICON: list[tuple[str, int, ThreatCategory]] = [
    ("T1486", 4, ThreatCategory.RANSOMWARE),
    ("T1490", 4, ThreatCategory.RANSOMWARE),
    ("T1021.001", 3, ThreatCategory.EXPLOIT),
    ("T1210", 3, ThreatCategory.EXPLOIT),
    ("T1566", 2, ThreatCategory.PHISHING),
    ("T1595", 1, ThreatCategory.RECON),
    ("T1046", 1, ThreatCategory.RECON),
    ("T1068", 4, ThreatCategory.EXPLOIT),
    ("T1021", 3, ThreatCategory.EXPLOIT),
    ("T1190", 4, ThreatCategory.EXPLOIT),
    ("T1203", 3, ThreatCategory.EXPLOIT),
    ("T1003", 4, ThreatCategory.EXPLOIT),
    ("T1598", 2, ThreatCategory.PHISHING),
    ("T1087", 1, ThreatCategory.RECON),
    ("T1105", 3, ThreatCategory.MALWARE),
    ("T1055", 3, ThreatCategory.MALWARE),
    ("T1078", 3, ThreatCategory.MALWARE),
    ("T1204", 2, ThreatCategory.MALWARE),
    ("T1547", 3, ThreatCategory.MALWARE),
    ("T1071", 3, ThreatCategory.MALWARE),
]

_CVE_LEXICON: list[tuple[str, int, ThreatCategory]] = [
    ("CVE-2023-28252", 4, ThreatCategory.RANSOMWARE),
    ("CVE-2017-0144", 4, ThreatCategory.EXPLOIT),
]

_CVSS_BIN_VOTES = [
    (0, 0, ThreatCategory.OTHER),
    (1, 1, ThreatCategory.OTHER),
    (2, 2, ThreatCategory.OTHER),
    (3, 3, ThreatCategory.OTHER),
    (4, 4, ThreatCategory.OTHER),
]


def build_default_model(stump_count: int = 100) -> ForestModel:
    """Construct the shipped 100-stump fixture forest.

    Stump features come from the same hash mapping the encoder uses; the
    builder asserts the curated features do not collide.
    """
    stumps: list[Stump] = []
    for token, severity, category in _TOKEN_LEXICON:
        stumps.append(Stump(token_feature(token), 0, severity, category))
    for tid, severity, category in _TECHNIQUE_LEXICON:
        stumps.append(Stump(technique_feature(tid), 0, severity, category))
    for cid, severity, category in _CVE_LEXICON:
        stumps.append(Stump(cve_feature(cid), 0, severity, category))
    for bin_idx, severity, category in _CVSS_BIN_VOTES:
        stumps.append(Stump(CVSS_BASE + bin_idx, 0, severity, category))
    stumps.append(Stump(CVSS_ABSENT, 0, 0, ThreatCategory.OTHER))

    seen: dict[int, Stump] = {}
    for stump in stumps:
        if stump.feature_index in seen:
            raise InputError(
                f"fixture feature collision at index {stump.feature_index}"
            )
        seen[stump.feature_index] = stump
    if len(stumps) != stump_count:
        raise InputError(f"fixture defines {len(stumps)} stumps, expected {stump_count}")
    return ForestModel(
        width=FEATURE_WIDTH,
        stumps=tuple(stumps),
        weights=tuple(1.0 for _ in stumps),
    )
