"""Rule model and registry of the ``bdslint`` framework.

A :class:`Rule` encodes one project contract as an AST check.  Rules
declare the node types they want to see (:attr:`Rule.node_types`) and a
module scope (:attr:`Rule.modules`, dotted prefixes; empty = every
module), and yield :class:`Finding` objects from :meth:`Rule.check`.
The :class:`RuleRegistry` is the single catalog the runner, the CLI's
``--list-rules`` / ``--select`` and the README rule table all read.

Rule ids are grouped by contract family:

* ``DET*`` — determinism: the batch/serve reports are byte-identical
  across worker counts, pools and replay, so report-affecting
  modules must not iterate unsorted sets, use ``hash()`` or read wall
  clocks outside the ``timings`` gate;
* ``ASY*`` — async safety: ``repro.serve`` handlers run on the event
  loop, where a blocking call freezes every connection;
* ``RES*`` — resource lifecycle: shared-memory blocks, journal files
  and worker pools all have one sanctioned acquire/release idiom;
* ``ENG*`` — engine invariants of the mutable BDD node store;
* ``SUP``/``PARSE`` — meta findings of the analyzer itself.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator

if TYPE_CHECKING:  # pragma: no cover - hints only
    from .scopes import ModuleContext

#: Severity levels, most severe first (the reporters sort by this).
SEVERITIES = ("error", "warning", "info")


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    name: str
    severity: str
    path: str
    line: int
    col: int
    module: str
    message: str
    #: Justification text, filled only for suppressed findings.
    justification: str | None = None

    def sort_key(self) -> tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.rule)

    def to_payload(self) -> dict[str, object]:
        """JSON-reporter entry (stable schema; see tests/analysis)."""
        payload: dict[str, object] = {
            "rule": self.rule,
            "name": self.name,
            "severity": self.severity,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "module": self.module,
            "message": self.message,
        }
        if self.justification is not None:
            payload["justification"] = self.justification
        return payload


class Rule:
    """Base class: one machine-checked project contract.

    Subclasses set the class attributes and implement :meth:`check`;
    the runner instantiates each rule once per process and calls
    ``check`` for every AST node matching :attr:`node_types` in every
    module matching :attr:`modules` (minus :attr:`exempt_modules`).
    """

    #: Stable id, e.g. ``"DET001"`` (what suppressions name).
    id: str = ""
    #: Kebab-case slug for humans, e.g. ``"unsorted-set-iteration"``.
    name: str = ""
    severity: str = "error"
    #: One-line rationale (the README rule catalog renders these).
    rationale: str = ""
    #: Dotted module prefixes the rule applies to (empty = everywhere).
    modules: tuple[str, ...] = ()
    #: Dotted module prefixes exempt even when ``modules`` matches
    #: (e.g. the one module that owns the sanctioned idiom).
    exempt_modules: tuple[str, ...] = ()
    #: AST node classes dispatched to :meth:`check`.
    node_types: tuple[type, ...] = ()

    def applies_to(self, module: str) -> bool:
        if any(_prefix_match(module, prefix) for prefix in self.exempt_modules):
            return False
        if not self.modules:
            return True
        return any(_prefix_match(module, prefix) for prefix in self.modules)

    def check(self, node: ast.AST, ctx: "ModuleContext") -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, ctx: "ModuleContext", node: ast.AST, message: str) -> Finding:
        return Finding(
            rule=self.id,
            name=self.name,
            severity=self.severity,
            path=ctx.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            module=ctx.module,
            message=message,
        )


def _prefix_match(module: str, prefix: str) -> bool:
    """Dotted-prefix containment: ``repro.serve`` matches itself and
    ``repro.serve.wire`` but never ``repro.server``."""
    return module == prefix or module.startswith(prefix + ".")


@dataclass
class RuleRegistry:
    """The rule catalog.  One global instance (:data:`REGISTRY`) holds
    every built-in rule; tests build private registries."""

    _rules: dict[str, Rule] = field(default_factory=dict)

    def register(self, rule_class: type[Rule]) -> type[Rule]:
        """Class decorator: instantiate and catalog a rule."""
        rule = rule_class()
        if not rule.id or not rule.name:
            raise ValueError(f"rule {rule_class.__name__} needs an id and a name")
        if rule.severity not in SEVERITIES:
            raise ValueError(f"rule {rule.id}: unknown severity {rule.severity!r}")
        if rule.id in self._rules:
            raise ValueError(f"duplicate rule id {rule.id}")
        self._rules[rule.id] = rule
        return rule_class

    def get(self, rule_id: str) -> Rule | None:
        return self._rules.get(rule_id)

    def rules(self) -> list[Rule]:
        """Every registered rule, sorted by id."""
        return [self._rules[rule_id] for rule_id in sorted(self._rules)]

    def ids(self) -> frozenset[str]:
        return frozenset(self._rules)

    def select(self, patterns: "list[str] | None") -> list[Rule]:
        """Rules whose id matches any pattern (exact id or prefix, e.g.
        ``DET`` selects the whole determinism pack); ``None`` = all."""
        if patterns is None:
            return self.rules()
        chosen = [
            rule
            for rule in self.rules()
            if any(rule.id == p or rule.id.startswith(p) for p in patterns)
        ]
        unknown = [
            p
            for p in patterns
            if not any(rule.id == p or rule.id.startswith(p) for rule in self.rules())
        ]
        if unknown:
            raise ValueError(f"unknown rule selector(s): {', '.join(sorted(unknown))}")
        return chosen


#: The global registry the built-in rule packs register into.
REGISTRY = RuleRegistry()
