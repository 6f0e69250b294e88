"""Deterministic fault-injection plans.

The robustness layer (batch retries, journal replay quarantine) is
only trustworthy if its failure paths are exercised, and
real failures — OOM-killed pool workers, runaway sift passes, torn
journal writes, missing shared-memory segments — are hard to stage on
demand.  This module provides the staging: a :class:`FaultPlan` is a
small, seeded rule list that fires *actions* (kill the process, stall,
raise) at named *sites* the production code declares with
:func:`inject`.

Design constraints, in order:

* **Zero hot-path cost when disarmed.**  :func:`inject` is a module
  global ``None`` check when no plan is installed; production code may
  call it freely.
* **Deterministic.**  A rule fires based only on its own per-process
  hit counter and (optionally) a seeded hash of the site/key/hit
  triple — never on wall clocks or ambient randomness.  Targeting a
  specific circuit attempt is done with ``match`` (substring of the
  injection key, e.g. ``"c432:1"`` for attempt 1 of circuit c432),
  which is scheduling-independent even across pool workers.
* **Crosses process boundaries.**  Arming is environmental: when
  ``BDSMAJ_FAULT_PLAN`` holds a JSON plan, every process that imports
  ``repro.faults`` (spawn/forkserver pool workers, ``serve``
  subprocesses) installs it at import time.  Fork-started workers inherit the
  parent's installed plan object instead.

Plan JSON::

    {"seed": 7, "faults": [
        {"site": "batch.worker", "action": "kill", "match": "c432:1"},
        {"site": "batch.stage", "action": "stall", "seconds": 2.0},
        {"site": "journal.append", "action": "error", "after": 3, "times": 1}
    ]}

Rule fields: ``site`` (required, one of :data:`KNOWN_SITES`),
``action`` (required: ``kill`` | ``stall`` | ``error``), ``match``
(substring the injection key must contain; empty matches every key),
``after`` (matching hits to let pass before the rule may fire),
``times`` (max fires, ``0`` = unlimited), ``seconds`` (stall
duration), ``probability`` (seeded per-hit coin; ``1.0`` = always).
"""

from __future__ import annotations

import hashlib
import json
import os
import signal
import time
from dataclasses import dataclass, field

#: Environment variable holding the JSON plan; set = armed everywhere.
ENV_VAR = "BDSMAJ_FAULT_PLAN"

#: Actions a rule may take when it fires.
ACTIONS = ("kill", "stall", "error")

#: Injection sites the production code declares.  The catalog is
#: advisory for humans; unknown sites are rejected at parse time so a
#: typo in a plan fails loudly instead of silently never firing.
KNOWN_SITES = (
    "batch.worker",  # start of one synthesis attempt (serial or pool)
    "batch.stage",  # start of one pipeline stage inside an attempt
    "journal.append",  # just before a journal record hits the file
    "journal.compact",  # temp file durable, rename not yet performed
)


class FaultPlanError(ValueError):
    """A fault plan failed validation (bad JSON, site, or action)."""


class FaultInjected(OSError):
    """Raised by the ``error`` action at the injection site."""


@dataclass
class FaultRule:
    """One site/action pairing with its firing discipline."""

    site: str
    action: str
    match: str = ""
    after: int = 0
    times: int = 1
    seconds: float = 0.05
    probability: float = 1.0
    #: Matching injections seen so far (this process).
    hits: int = 0
    #: Times the action actually ran (this process).
    fired: int = 0

    def validate(self) -> None:
        if self.site not in KNOWN_SITES:
            raise FaultPlanError(f"unknown fault site {self.site!r}; known: {KNOWN_SITES}")
        if self.action not in ACTIONS:
            raise FaultPlanError(f"unknown fault action {self.action!r}; known: {ACTIONS}")
        if self.after < 0 or self.times < 0:
            raise FaultPlanError("fault rule 'after'/'times' must be >= 0")
        if self.seconds < 0:
            raise FaultPlanError("fault rule 'seconds' must be >= 0")
        if not 0.0 <= self.probability <= 1.0:
            raise FaultPlanError("fault rule 'probability' must be in [0, 1]")


@dataclass
class FaultPlan:
    """A seeded list of :class:`FaultRule`, installed per process."""

    rules: list[FaultRule] = field(default_factory=list)
    seed: int = 0

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise FaultPlanError(f"fault plan is not valid JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise FaultPlanError("fault plan must be a JSON object")
        raw_rules = payload.get("faults", [])
        if not isinstance(raw_rules, list):
            raise FaultPlanError("fault plan 'faults' must be a list")
        rules: list[FaultRule] = []
        for entry in raw_rules:
            if not isinstance(entry, dict):
                raise FaultPlanError("each fault rule must be a JSON object")
            unknown = set(entry) - {
                "site",
                "action",
                "match",
                "after",
                "times",
                "seconds",
                "probability",
            }
            if unknown:
                raise FaultPlanError(f"unknown fault rule field(s): {sorted(unknown)}")
            rule = FaultRule(
                site=str(entry.get("site", "")),
                action=str(entry.get("action", "")),
                match=str(entry.get("match", "")),
                after=int(entry.get("after", 0)),
                times=int(entry.get("times", 1)),
                seconds=float(entry.get("seconds", 0.05)),
                probability=float(entry.get("probability", 1.0)),
            )
            rule.validate()
            rules.append(rule)
        return cls(rules=rules, seed=int(payload.get("seed", 0)))

    def to_json(self) -> str:
        return json.dumps(
            {
                "seed": self.seed,
                "faults": [
                    {
                        "site": rule.site,
                        "action": rule.action,
                        "match": rule.match,
                        "after": rule.after,
                        "times": rule.times,
                        "seconds": rule.seconds,
                        "probability": rule.probability,
                    }
                    for rule in self.rules
                ],
            },
            sort_keys=True,
        )

    def stats(self) -> dict[str, int]:
        """Per-process totals (``hits`` seen, actions ``fired``)."""
        return {
            "rules": len(self.rules),
            "hits": sum(rule.hits for rule in self.rules),
            "fired": sum(rule.fired for rule in self.rules),
        }

    # ------------------------------------------------------------------

    def fire(self, site: str, key: str) -> None:
        """Run every due action for one injection point."""
        for index, rule in enumerate(self.rules):
            if rule.site != site:
                continue
            if rule.match and rule.match not in key:
                continue
            hit = rule.hits
            rule.hits += 1
            if hit < rule.after:
                continue
            if rule.times and rule.fired >= rule.times:
                continue
            if rule.probability < 1.0 and not self._coin(index, site, key, hit):
                continue
            rule.fired += 1
            self._act(rule, site, key)

    def _coin(self, index: int, site: str, key: str, hit: int) -> bool:
        """Seeded deterministic Bernoulli draw for one hit."""
        token = f"{self.seed}:{index}:{site}:{key}:{hit}".encode()
        digest = hashlib.sha256(token).digest()
        draw = int.from_bytes(digest[:8], "big") / float(1 << 64)
        return draw < self.rules[index].probability

    def _act(self, rule: FaultRule, site: str, key: str) -> None:
        if rule.action == "kill":
            os.kill(os.getpid(), signal.SIGKILL)
        elif rule.action == "stall":
            time.sleep(rule.seconds)
        else:
            raise FaultInjected(f"injected fault at {site} ({key or 'no key'})")


# ----------------------------------------------------------------------
# Process-global installation

_PLAN: FaultPlan | None = None


def install_plan(plan: FaultPlan | None) -> FaultPlan | None:
    """Install ``plan`` for this process (``None`` disarms); returns the
    previously installed plan so tests can restore it."""
    global _PLAN
    previous = _PLAN
    _PLAN = plan
    return previous


def current_plan() -> FaultPlan | None:
    return _PLAN


def active() -> bool:
    """True when a plan is installed (used to gate optional hooks)."""
    return _PLAN is not None


def inject(site: str, key: str = "") -> None:
    """Declare an injection point.  No-op unless a plan is installed."""
    plan = _PLAN
    if plan is None:
        return
    plan.fire(site, key)


def arm_from_env(environ: "os._Environ[str] | dict[str, str] | None" = None) -> FaultPlan | None:
    """Install the plan named by :data:`ENV_VAR`, if any.

    Called at import time so spawn/forkserver pool workers and
    ``serve`` subprocesses arm themselves; a malformed plan raises
    :class:`FaultPlanError` loudly rather than silently disarming.
    """
    env = os.environ if environ is None else environ
    text = env.get(ENV_VAR)
    if not text:
        return None
    plan = FaultPlan.from_json(text)
    install_plan(plan)
    return plan


arm_from_env()
