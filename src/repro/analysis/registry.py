"""The rule registry: every lint rule and sanitizer, addressable by id.

Rules register themselves at import time through the :func:`rule`
decorator and carry a stable id (``TR002``), a slug (``tensor-dangling-
ref``), a category (which lint pass runs them), a default severity, and a
one-line description — the machine-readable form of the rule catalogue in
``docs/linting.md``.  A registry can disable rules by id or slug, which
both the library API and ``repro verify --disable`` use for suppression.

Runtime sanitizers register with ``fn=None``: they appear in the catalogue
(and honour enable/disable) but fire from hooks, not from a lint pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Set

from repro.analysis.findings import SEVERITIES, Finding, Report

#: Rule categories, i.e. which lint pass owns the rule.  ``verify`` rules
#: are the deep whole-graph pass (``repro verify``); ``runtime`` rules are
#: sanitizers and race detectors that fire from hooks.
CATEGORIES = ("trace", "config", "spec", "plan", "verify", "runtime")

#: The complete rule catalogue, series prefix -> number of rules.  Every
#: rule module registers by import side effect; :func:`load_rules`
#: auto-discovers them, and :func:`check_catalogue` asserts the registry
#: matches this table — a forgotten module, a renumbered id, or an
#: undeclared new rule fails CI instead of silently shrinking coverage.
RULE_SERIES: Dict[str, int] = {
    "TR": 11,  # trace rules
    "CF": 11,  # config rules
    "SP": 2,   # sweep-spec rules
    "PL": 2,   # extrapolation-plan rules
    "NW": 4,   # fabric/routing rules
    "FT": 6,   # fault-spec rules
    "PF": 1,   # performance rules (fold eligibility)
    "SZ": 6,   # runtime sanitizers
    "DV": 5,   # deep graph verifier (repro verify, Tier A)
    "RC": 3,   # determinism race detectors (Tier B)
    "SV": 2,   # sweep-service resume admission (journal fingerprints,
               # deadline sanity; emitted by repro.service.journal)
}

_RULES_LOADED = False


def load_rules() -> None:
    """Import every rule module under :mod:`repro.analysis` (idempotent).

    Rules register at import time; this walks the package (including the
    ``verifier`` subpackage) so the catalogue can never miss a series
    because of a forgotten explicit import.
    """
    global _RULES_LOADED
    if _RULES_LOADED:
        return
    _RULES_LOADED = True
    import importlib
    import pkgutil

    package = importlib.import_module("repro.analysis")
    prefix = package.__name__ + "."
    for info in pkgutil.walk_packages(package.__path__, prefix=prefix):
        importlib.import_module(info.name)


def check_catalogue(registry: Optional["RuleRegistry"] = None) -> List[str]:
    """Problems keeping the registry from matching :data:`RULE_SERIES`.

    Returns human-readable discrepancies (missing series, count drift,
    numbering gaps, ids outside any declared series); empty means the
    catalogue is complete.  ``repro verify --list-rules`` and CI both fail
    on a non-empty result.
    """
    load_rules()
    registry = registry or DEFAULT_REGISTRY
    problems: List[str] = []
    by_series: Dict[str, List[str]] = {}
    for rule_obj in registry.rules(enabled_only=False):
        series = rule_obj.id.rstrip("0123456789")
        by_series.setdefault(series, []).append(rule_obj.id)
        if series not in RULE_SERIES:
            problems.append(
                f"rule {rule_obj.id} belongs to undeclared series "
                f"{series!r} (declare it in repro.analysis.RULE_SERIES)")
    for series, expected in RULE_SERIES.items():
        ids = by_series.get(series, [])
        if not ids:
            problems.append(
                f"series {series} is missing entirely ({expected} rule(s) "
                "declared): its module failed to register")
            continue
        if len(ids) != expected:
            problems.append(
                f"series {series} has {len(ids)} rule(s), catalogue "
                f"declares {expected}")
        numbers = sorted(int(i[len(series):]) for i in ids)
        want = list(range(1, len(numbers) + 1))
        if numbers != want:
            problems.append(
                f"series {series} ids are not contiguous from "
                f"{series}001: found {ids}")
    return problems


@dataclass(frozen=True)
class Rule:
    """One registered analysis rule."""

    id: str
    name: str
    category: str
    severity: str
    description: str
    fn: Optional[Callable] = None
    #: Gate rules run first within their category; if one emits any
    #: finding the remaining rules of the category are skipped (the input
    #: is too malformed to analyse further).
    gate: bool = False

    def __post_init__(self) -> None:
        if self.category not in CATEGORIES:
            raise ValueError(f"unknown rule category {self.category!r}")
        if self.severity not in SEVERITIES:
            raise ValueError(f"unknown severity {self.severity!r}")


class Emitter:
    """Bound emitter handed to rule functions: stamps rule id/severity."""

    def __init__(self, rule: Rule, report: Report):
        self._rule = rule
        self._report = report

    def __call__(self, message: str, location: str = "",
                 severity: Optional[str] = None, **detail: object) -> Finding:
        finding = Finding(
            rule=self._rule.id,
            name=self._rule.name,
            severity=severity or self._rule.severity,
            message=message,
            location=location,
            detail=detail,
        )
        self._report.add(finding)
        return finding


class RuleRegistry:
    """Rules by id with per-registry enable/disable state."""

    def __init__(self) -> None:
        self._rules: Dict[str, Rule] = {}
        self._by_name: Dict[str, str] = {}
        self._disabled: Set[str] = set()

    # -- registration --------------------------------------------------
    def register(self, rule_obj: Rule) -> Rule:
        if rule_obj.id in self._rules:
            raise ValueError(f"duplicate rule id {rule_obj.id!r}")
        if rule_obj.name in self._by_name:
            raise ValueError(f"duplicate rule name {rule_obj.name!r}")
        self._rules[rule_obj.id] = rule_obj
        self._by_name[rule_obj.name] = rule_obj.id
        return rule_obj

    def rule(self, id: str, name: str, category: str, severity: str,
             description: str, gate: bool = False) -> Callable:
        """Decorator registering *fn* as the body of a new rule."""

        def decorate(fn: Callable) -> Callable:
            self.register(Rule(id=id, name=name, category=category,
                               severity=severity, description=description,
                               fn=fn, gate=gate))
            return fn

        return decorate

    # -- lookup --------------------------------------------------------
    def _resolve(self, id_or_name: str) -> str:
        if id_or_name in self._rules:
            return id_or_name
        if id_or_name in self._by_name:
            return self._by_name[id_or_name]
        raise KeyError(f"unknown rule {id_or_name!r}")

    def get(self, id_or_name: str) -> Rule:
        return self._rules[self._resolve(id_or_name)]

    def rules(self, category: Optional[str] = None,
              enabled_only: bool = True) -> List[Rule]:
        """Rules in registration order, optionally filtered."""
        out = []
        for rule_obj in self._rules.values():
            if category is not None and rule_obj.category != category:
                continue
            if enabled_only and rule_obj.id in self._disabled:
                continue
            out.append(rule_obj)
        return out

    # -- enable / disable ---------------------------------------------
    def disable(self, *ids_or_names: str) -> None:
        for ref in ids_or_names:
            self._disabled.add(self._resolve(ref))

    def enable(self, *ids_or_names: str) -> None:
        for ref in ids_or_names:
            self._disabled.discard(self._resolve(ref))

    def is_enabled(self, id_or_name: str) -> bool:
        return self._resolve(id_or_name) not in self._disabled

    def scoped(self, disable: Sequence[str] = ()) -> "RuleRegistry":
        """A shallow copy sharing rule definitions with its own
        enable/disable state (the CLI's ``--disable`` path)."""
        clone = RuleRegistry()
        clone._rules = self._rules
        clone._by_name = self._by_name
        clone._disabled = set(self._disabled)
        for ref in disable:
            clone.disable(ref)
        return clone

    # -- execution -----------------------------------------------------
    def emit(self, report: Report, id_or_name: str, message: str,
             location: str = "") -> Report:
        """Add one hand-built finding of a rule to *report*.

        For checks made outside :meth:`run_category` — unreadable files,
        inputs that do not deserialize, graphs that cannot be built.  A
        disabled rule emits nothing, exactly as under a lint pass.
        """
        if self.is_enabled(id_or_name):
            Emitter(self.get(id_or_name), report)(message, location)
        return report

    def run_category(self, category: str, subject: object,
                     report: Report) -> Report:
        """Run every enabled rule of *category* against *subject*.

        Gate rules run first; if any emits, the rest of the category is
        skipped (structurally invalid input).  Declarative rules (no
        ``fn`` — emitted by hand, e.g. the runtime sanitizers) are not
        runnable and are skipped.
        """
        rules = [r for r in self.rules(category) if r.fn is not None]
        for rule_obj in (r for r in rules if r.gate):
            before = len(report)
            rule_obj.fn(subject, Emitter(rule_obj, report))
            if len(report) > before:
                return report
        for rule_obj in (r for r in rules if not r.gate):
            rule_obj.fn(subject, Emitter(rule_obj, report))
        return report


#: The process-wide default registry every rule module registers into.
DEFAULT_REGISTRY = RuleRegistry()

#: Module-level decorator bound to the default registry.
rule = DEFAULT_REGISTRY.rule
