"""Discrete-event endpoint fleet with seeded, replayable randomness.

Time is an integer millisecond clock advanced only by the scenario
engine; nothing in the package reads the wall clock. All randomness is
derived from one master seed through per-endpoint substreams, so adding
an endpoint never perturbs another endpoint's draws and identical seeds
replay to byte-identical results.

The automated arm dispatches an enforcement plan to every target in
parallel: each endpoint draws its own apply latency and failure from its
substream, so an endpoint's enforcement time equals its own draw. The
human baseline is a five-analyst team working per-endpoint tasks from
individual queues; task durations are lognormal scaled by role speed,
errors are Bernoulli scaled by role error propensity, and completion
ticks accumulate along each analyst's queue.

Both arms settle an attempt the same way: an isolated endpoint refuses
everything but un-isolation, and a successful action applies the writes
``policy.action_writes`` defines for it, reading the endpoint's current
fields where a write depends on them. An action is an endpoint id, a kind
and its params, read from a decision record's ``planned`` item.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from .canonical import FieldSpec, check_config, slot_builder, substream
from .errors import InputError, UnknownEndpoint
from .policy import action_writes


class SimClock:
    """Monotone integer millisecond clock."""

    def __init__(self, start: int = 0):
        self._now = start

    @property
    def now(self) -> int:
        return self._now

    def advance(self, delta_ms: int) -> int:
        if delta_ms < 0:
            raise InputError("clock cannot move backwards")
        self._now += delta_ms
        return self._now

    def advance_to(self, tick: int) -> int:
        self._now = max(self._now, tick)
        return self._now


@dataclass
class Endpoint:
    """Simulated host configuration; the attribute set is closed and is
    exactly the policy condition vocabulary."""

    endpoint_id: str
    smbv1_enabled: bool = True
    rdp_port: int = 3389
    firewall_rules: list = field(default_factory=list)
    proxy_outbound_blocked: bool = False
    isolated: bool = False
    patch_level: int = 0
    infected: bool = False

    def attrs(self) -> dict:
        """A fresh attribute dict in ``policy.ENDPOINT_ATTRIBUTES`` order: one copy of
        the endpoint's field dict (``vars``) without its id, and a copy of
        each firewall rule; mutating it, or the rule lists inside it, leaves
        the endpoint unchanged."""
        out = vars(self).copy()
        del out["endpoint_id"]
        out["firewall_rules"] = list(map(list, out["firewall_rules"]))
        return out


class Fleet:
    """Ordered endpoint collection plus a log of every enforcement-driven
    attribute mutation (the audit-completeness ground truth)."""

    def __init__(self, endpoints: Iterable[Endpoint]):
        self._endpoints: dict[str, Endpoint] = {}
        for ep in endpoints:
            if ep.endpoint_id in self._endpoints:
                raise InputError(f"duplicate endpoint id {ep.endpoint_id}")
            self._endpoints[ep.endpoint_id] = ep
        # Endpoints are never added or removed after construction.
        self._ids = sorted(self._endpoints)
        self._ordered = tuple(self._endpoints[eid] for eid in self._ids)
        self._rows = tuple(map(vars, self._ordered))
        self.mutation_log: list[dict] = []

    def __len__(self) -> int:
        return len(self._endpoints)

    def __contains__(self, endpoint_id: str) -> bool:
        return endpoint_id in self._endpoints

    def ids(self) -> list[str]:
        return list(self._ids)

    def get(self, endpoint_id: str) -> Endpoint:
        try:
            return self._endpoints[endpoint_id]
        except KeyError:
            raise UnknownEndpoint(endpoint_id) from None

    def endpoints(self) -> tuple[Endpoint, ...]:
        """Every endpoint in id order; the same tuple on every call."""
        return self._ordered

    def rows(self) -> tuple[dict, ...]:
        """Every endpoint's own field dict (``vars``) in id order, the same
        tuple on every call; a direct field write updates its row in place."""
        return self._rows

    def record_mutation(self, endpoint_id: str, attribute: str, value, tick: int):
        self.mutation_log.append(
            {
                "endpoint_id": endpoint_id,
                "attribute": attribute,
                "value": value,
                "tick": tick,
            }
        )


def provision_fleet(n: int = 60) -> Fleet:
    """n identically configured endpoints: SMBv1 on, RDP on 3389, clean."""
    if n < 1:
        raise InputError(f"fleet size must be >= 1, got {n}")
    return Fleet([Endpoint(endpoint_id=f"ep-{i:03d}") for i in range(n)])


def snapshot(fleet: Fleet) -> dict:
    """Copied view: endpoint id -> attribute dict (see Endpoint.attrs)."""
    return {ep.endpoint_id: ep.attrs() for ep in fleet.endpoints()}


# --------------------------------------------------------------------------
# Network model


#: Bounds that keep every draw a run makes from a NetworkModel finite: a
#: lognormal draw around a median at most MAX_LATENCY_MS (about 116 days)
#: with a sigma at most MAX_SIGMA_LOG, times an analyst's multiplier of at
#: most MAX_MULTIPLIER, stays far below float overflow.
MAX_LATENCY_MS = 10**10
MAX_SIGMA_LOG = 5
MAX_MULTIPLIER = 1000

#: Bounds on a run's size, so that a config cannot ask for more memory than
#: a host has: 10^5 endpoints is ten times the largest fleet the scaling
#: runs measure, and every block records one vote per validator.
MAX_ENDPOINTS = 10**5
MAX_VALIDATORS = 100


@dataclass
class NetworkModel:
    """Latency/failure parameters for both arms.

    Automated latencies are base + uniform jitter per endpoint; the bases
    are calibrated so a default run's mean enforcement times land on the
    reference aggregates (about 194 s for the SMBv1 hardening and 321 s
    for the RDP move). Human task times are lognormal around a per-task
    median with sigma 0.35, about 28 min for SMBv1 work and 38 min for
    RDP work, with per-task error probabilities 0.15 / 0.20.
    """

    auto_base_ms: int = 194_000
    auto_base_by_kind: dict = field(
        default_factory=lambda: {"set_rdp_port": 321_000}
    )
    auto_jitter_ms: int = 500
    auto_failure_prob: float = 0.02
    human_median_ms: int = 1_680_000  # 28 min
    human_median_ms_by_kind: dict = field(
        default_factory=lambda: {"set_rdp_port": 2_280_000}  # 38 min
    )
    human_sigma_log: float = 0.35
    human_error_prob: float = 0.15
    human_error_prob_by_kind: dict = field(
        default_factory=lambda: {"set_rdp_port": 0.20}
    )

    # A field that a bound names comes before the fields it bounds. The jitter
    # bounds a randint draw, which takes only integers; every base exceeds it,
    # so no drawn duration reaches zero; a median is a lognormal's positive scale.
    SPEC = {
        "auto_jitter_ms": FieldSpec("int", 0, unit="ms"),
        "auto_base_ms": FieldSpec("ms", "auto_jitter_ms", MAX_LATENCY_MS, "ms"),
        "auto_base_by_kind": FieldSpec("by_kind", unit="ms", of="auto_base_ms"),
        "auto_failure_prob": FieldSpec("number", 0, 1, "probability"),
        "human_median_ms": FieldSpec("ms", 0, MAX_LATENCY_MS, "ms"),
        "human_median_ms_by_kind": FieldSpec("by_kind", unit="ms", of="human_median_ms"),
        "human_sigma_log": FieldSpec("number", 0, MAX_SIGMA_LOG, "ln ms"),
        "human_error_prob": FieldSpec("number", 0, 1, "probability"),
        "human_error_prob_by_kind": FieldSpec("by_kind", unit="probability", of="human_error_prob"),
    }

    def __post_init__(self):
        check_config(NetworkModel, vars(self))

    def auto_base_for(self, kind: str) -> int:
        return int(self.auto_base_by_kind.get(kind, self.auto_base_ms))

    def human_median_for(self, kind: str) -> int:
        return int(self.human_median_ms_by_kind.get(kind, self.human_median_ms))

    def human_error_for(self, kind: str) -> float:
        return float(self.human_error_prob_by_kind.get(kind, self.human_error_prob))


@dataclass(frozen=True, slots=True)
class ApplyResult:
    """One attempt's outcome; a run builds one per endpoint and arm, each
    through ``_apply_result`` (see ``canonical.slot_builder``)."""

    endpoint_id: str
    action_kind: str
    outcome: str  # "success" | "failure"
    failure_reason: Optional[str]
    duration_ms: int
    finished_at: int
    applied: dict = field(default_factory=dict)  # attribute -> new value

    @property
    def success(self) -> bool:
        return self.outcome == "success"


_apply_result = slot_builder(ApplyResult)


# --------------------------------------------------------------------------
# Applying actions


def _settle(fleet: Fleet, ep: Endpoint, kind: str, params: dict, error: Optional[str],
            duration: int, finished: int) -> ApplyResult:
    """The outcome of one attempt whose draws are made. An isolated endpoint
    refuses everything but un-isolation; a drawn ``error`` leaves the
    endpoint unchanged; otherwise the action's writes (``action_writes``)
    are applied, logged, and returned in ``applied`` for the ledger."""
    unisolating = kind == "isolate_endpoint" and params.get("isolated") is False
    if ep.isolated and not unisolating:
        error = "isolated"
    if error is not None:
        return _apply_result(ep.endpoint_id, kind, "failure", error, duration, finished, {})
    applied = action_writes(kind, params, vars(ep))
    for attr, value in applied.items():
        setattr(ep, attr, value)
        fleet.record_mutation(ep.endpoint_id, attr, value, finished)
    return _apply_result(ep.endpoint_id, kind, "success", None, duration, finished, applied)


def apply_action(
    fleet: Fleet,
    endpoint_id: str,
    kind: str,
    params: dict,
    net: NetworkModel,
    stream,
    issued_at: int,
) -> ApplyResult:
    """Apply one action to one endpoint using that endpoint's substream.

    Draw order is fixed (latency, then failure). On failure the endpoint
    state is left bit-identical. Isolated endpoints reject everything
    except un-isolation.
    """
    ep = fleet.get(endpoint_id)
    base = net.auto_base_for(kind)
    jitter = stream.randint(-net.auto_jitter_ms, net.auto_jitter_ms) if net.auto_jitter_ms else 0
    duration = max(1, base + jitter)
    error = "apply-error" if stream.random() < net.auto_failure_prob else None
    return _settle(fleet, ep, kind, params, error, duration, issued_at + duration)


# --------------------------------------------------------------------------
# Threat injection


#: The injected ransomware event: a privilege-escalation CVE, high
#: severity, impact techniques.
_RANSOMWARE = {
    "report_id": "injected-threat",
    "technique_ids": ["T1486", "T1490"],
    "cve_ids": ["CVE-2023-28252"],
    "cvss": 7.8,
    "actor": "ransomware-affiliate",
    "text": "ransomware intrusion encrypting hosts after privilege escalation",
}


def inject_threat(fleet: Fleet, affected_ids: Sequence[str], tick: int) -> Optional[dict]:
    """Mark the affected endpoints infected and emit one threat alert.

    Returns the alert body, or None for an empty affected set; a run records
    it, and its CTI pass reads that recorded alert as its threat report.
    """
    if not affected_ids:
        return None
    for eid in affected_ids:
        if eid not in fleet:
            raise UnknownEndpoint(eid)
    for eid in affected_ids:
        fleet.get(eid).infected = True
    # Fresh lists, so no caller's edit reaches the constant.
    return {**_RANSOMWARE, "technique_ids": list(_RANSOMWARE["technique_ids"]),
            "cve_ids": list(_RANSOMWARE["cve_ids"]), "affected": sorted(affected_ids), "occurred_at": tick}


# --------------------------------------------------------------------------
# Human baseline


@dataclass(frozen=True)
class Analyst:
    name: str
    role: str  # lead | senior | junior
    speed_multiplier: float
    error_multiplier: float


DEFAULT_ROLE_SPEED = {"lead": 0.9, "senior": 1.0, "junior": 1.3}
DEFAULT_ROLE_ERROR = {"lead": 0.8, "senior": 1.0, "junior": 1.4}


@dataclass(frozen=True)
class AnalystTeam:
    """Five-member team: one lead, two senior, two junior analysts.

    The lead assigns endpoint tasks weighted-round-robin by role speed
    (faster roles take proportionally more tasks); members then work
    their queues in parallel on the simulated clock.
    """

    members: tuple[Analyst, ...]

    # The arguments of ``default``; NaN and inf fail the multipliers' range.
    SPEC = {
        "role_speed": FieldSpec("roles", 0, MAX_MULTIPLIER, "x task time", tuple(DEFAULT_ROLE_SPEED)),
        "role_error": FieldSpec("roles", 0, MAX_MULTIPLIER, "x error probability", tuple(DEFAULT_ROLE_SPEED)),
    }

    @classmethod
    def default(
        cls,
        role_speed: Optional[dict] = None,
        role_error: Optional[dict] = None,
    ) -> "AnalystTeam":
        check_config(cls, {"role_speed": role_speed, "role_error": role_error})
        speed = {**DEFAULT_ROLE_SPEED, **(role_speed or {})}
        error = {**DEFAULT_ROLE_ERROR, **(role_error or {})}
        roster = [
            ("lead-1", "lead"),
            ("senior-1", "senior"),
            ("senior-2", "senior"),
            ("junior-1", "junior"),
            ("junior-2", "junior"),
        ]
        return cls(
            tuple(
                Analyst(name, role, speed[role], error[role]) for name, role in roster
            )
        )

    def assign(self, task_count: int) -> list[int]:
        """Task index -> member index, weighted round-robin by speed.

        Each task goes to the member whose load with it, (tasks so far + 1)
        times its speed multiplier, is least, ties to the lower index. A
        heap of (that load, index) pops the same member a scan of every
        member picks, so the order equals the scan's.
        """
        speeds = [m.speed_multiplier for m in self.members]
        taken = [1] * len(speeds)  # tasks each member holds once it takes the next
        heap = [(speed, i) for i, speed in enumerate(speeds)]
        heapq.heapify(heap)
        out = []
        for _ in range(task_count):
            pick = heap[0][1]
            out.append(pick)
            taken[pick] += 1
            heapq.heapreplace(heap, (taken[pick] * speeds[pick], pick))
        return out


def run_human_process(
    plan: list[tuple[str, str, dict]],
    team: AnalystTeam,
    net: NetworkModel,
    master_seed: int,
    fleet: Fleet,
    issued_at: int,
) -> list[ApplyResult]:
    """Execute a plan of ``(endpoint_id, kind, params)`` tasks with the analyst team.

    Each task's duration is its analyst's hands-on time (lognormal draw
    scaled by role speed); completion ticks accumulate along each
    analyst's queue, so finished_at reflects queueing delay while the
    duration itself does not. Misconfiguration errors leave the endpoint
    unchanged. Results are returned in plan order.
    """
    if not plan:
        raise InputError("human process requires a non-empty plan")
    assignment = team.assign(len(plan))
    busy_until = [issued_at] * len(team.members)
    results: list[ApplyResult] = []
    for task_idx, (endpoint_id, kind, params) in enumerate(plan):
        member = team.members[assignment[task_idx]]
        stream = substream(master_seed, "human", endpoint_id, kind)
        median = net.human_median_for(kind)
        draw = stream.lognormvariate(math.log(median), net.human_sigma_log)
        duration = max(1, int(round(draw * member.speed_multiplier)))
        err_p = min(1.0, net.human_error_for(kind) * member.error_multiplier)
        error = "misconfiguration" if stream.random() < err_p else None

        member_idx = assignment[task_idx]
        finished = busy_until[member_idx] + duration
        busy_until[member_idx] = finished
        results.append(_settle(fleet, fleet.get(endpoint_id), kind, params, error, duration, finished))
    return results
