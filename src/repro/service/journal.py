"""Crash-safe write-ahead journal for the sweep service.

The journal is an append-only, fsync'd JSONL file (``journal.jsonl`` in a
directory the caller owns) recording the lifecycle of one sweep: a
``begin`` record fingerprinting the work (trace digest + per-point cache
keys + the timeline flag), one ``dispatch`` record per point handed to a
worker, and one terminal record per point — ``done`` (carrying the full
serialized result, so replay needs nothing but the journal), ``fail``
(the structured error), or ``interrupted``.  ``repro sweep --journal DIR
--resume`` replays completed points from the journal and re-dispatches
only the remainder, bit-identically to an uninterrupted run (results
round-trip through JSON exactly; see ``docs/resilience.md``).

Durability model:

* **Torn-write tolerance.**  Every record is one line, written and
  fsync'd atomically from the appender's point of view — but SIGKILL can
  still land mid-``write``.  :meth:`SweepJournal.read` therefore drops
  any line that does not parse as JSON (counting it in
  ``JournalState.torn_lines``); at most the final record of a killed
  sweep is lost, and that record's point simply re-runs on resume.
* **Multi-run scoping.**  A fresh (non-resume) sweep pointed at an
  existing journal directory appends a new ``begin`` record rather than
  truncating the file.  Every recovery view
  (:attr:`JournalState.completed`, ``failed``, ``in_flight``, the
  fingerprint, the SV002 runtime scan) is scoped to the records from the
  last ``begin`` onward, so an earlier run's results are never replayed
  into a later sweep; the runner additionally refuses to replay any
  ``done`` record whose point key does not match the expected one.
* **Fingerprint pinning.**  A journal written for a different spec,
  trace, or point order must never be replayed into the wrong sweep:
  :func:`check_resume` compares fingerprints and emits lint rule
  ``SV001`` (error) on mismatch — the runner refuses to resume.  Rule
  ``SV002`` (warning) flags a configured hard deadline shorter than the
  slowest observed point runtime in the journal, i.e. a resume that is
  likely to convert pending points into ``PointTimeout`` outcomes.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Union

from repro.analysis.findings import Finding, Report
from repro.analysis.registry import DEFAULT_REGISTRY, load_rules

#: Bumped whenever the journal record format changes; part of the sweep
#: fingerprint, so a journal written by an incompatible build is rejected
#: by SV001 instead of being half-understood.
JOURNAL_SCHEMA_VERSION = 1

#: File name of the journal inside its directory.
JOURNAL_NAME = "journal.jsonl"


class JournalMismatchError(RuntimeError):
    """A resume was attempted against a journal for different work.

    Carries the :class:`~repro.analysis.findings.Report` with the
    ``SV001`` finding so callers (the CLI) can render it properly.
    """

    def __init__(self, report: Report):
        lines = [str(f) for f in report.errors] or [str(f) for f in report]
        super().__init__("journal does not match this sweep:\n"
                         + "\n".join(lines))
        self.report = report


def sweep_fingerprint(trace_key: str, point_keys: Sequence[str],
                      record_timeline: bool) -> str:
    """Content digest of an entire sweep: trace, points, order, flags."""
    canonical = json.dumps(
        {
            "journal_schema": JOURNAL_SCHEMA_VERSION,
            "trace": trace_key,
            "points": list(point_keys),
            "timeline": bool(record_timeline),
        },
        sort_keys=True,
    )
    return hashlib.sha256(canonical.encode()).hexdigest()


@dataclass
class JournalState:
    """Parsed journal contents, indexed for resume decisions."""

    records: List[dict] = field(default_factory=list)
    #: Lines dropped because they did not parse (torn final append).
    torn_lines: int = 0

    @property
    def run_records(self) -> List[dict]:
        """Records of the current run: from the last ``begin`` onward.

        A journal file accumulates runs — a fresh (non-resume) sweep
        appends a new ``begin`` record rather than truncating the file —
        so every recovery view scopes itself to the latest run.  Without
        this, ``done``/``fail`` records from an earlier (possibly
        different) sweep would leak into resume decisions and be
        silently replayed into the wrong sweep at matching indices.
        ``resume`` markers continue a run and never reset the scope.
        """
        start = 0
        for i, record in enumerate(self.records):
            if record.get("t") == "begin":
                start = i
        return self.records[start:]

    @property
    def fingerprint(self) -> Optional[str]:
        """The sweep fingerprint of the most recent begin/resume record."""
        for record in reversed(self.run_records):
            if record.get("t") in ("begin", "resume"):
                return record.get("fingerprint")
        return None

    @property
    def completed(self) -> Dict[int, dict]:
        """Latest ``done`` record per point index (current run only)."""
        done: Dict[int, dict] = {}
        for record in self.run_records:
            if record.get("t") == "done":
                done[record["i"]] = record
        return done

    @property
    def failed(self) -> Dict[int, dict]:
        """Latest ``fail`` record per point index (superseded by done)."""
        failed: Dict[int, dict] = {}
        completed = self.completed
        for record in self.run_records:
            if record.get("t") == "fail" and record["i"] not in completed:
                failed[record["i"]] = record
        return failed

    @property
    def interrupted(self) -> Set[int]:
        """Indices marked interrupted and never completed afterwards."""
        completed = self.completed
        return {r["i"] for r in self.run_records
                if r.get("t") == "interrupted" and r["i"] not in completed}

    @property
    def in_flight(self) -> Set[int]:
        """Dispatched points with no terminal record: the crash victims."""
        terminal = set(self.completed)
        terminal.update(r["i"] for r in self.run_records
                        if r.get("t") in ("fail", "interrupted"))
        return {r["i"] for r in self.run_records
                if r.get("t") == "dispatch"} - terminal


class SweepJournal:
    """Append-only fsync'd JSONL journal in a directory.

    Parameters
    ----------
    root:
        Directory holding ``journal.jsonl``; created on first append.
        Every record reaches stable storage before :meth:`append`
        returns — the point of a write-ahead journal.
    """

    def __init__(self, root: Union[str, Path]):
        self.root = Path(root)
        self._handle = None

    @property
    def path(self) -> Path:
        return self.root / JOURNAL_NAME

    def exists(self) -> bool:
        return self.path.is_file()

    # ------------------------------------------------------------------
    # Appending
    # ------------------------------------------------------------------
    def append(self, record: dict) -> None:
        """Durably append one record (one JSON line + fsync)."""
        if self._handle is None:
            self.root.mkdir(parents=True, exist_ok=True)
            self._handle = open(self.path, "a", encoding="utf-8")
        self._handle.write(json.dumps(record, sort_keys=True) + "\n")
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "SweepJournal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- record constructors -------------------------------------------
    def begin(self, fingerprint: str, trace_key: str, total: int,
              record_timeline: bool) -> None:
        self.append({"t": "begin", "v": JOURNAL_SCHEMA_VERSION,
                     "fingerprint": fingerprint, "trace": trace_key,
                     "total": total, "timeline": bool(record_timeline)})

    def resume_marker(self, fingerprint: str, replayed: int,
                      remaining: int) -> None:
        self.append({"t": "resume", "v": JOURNAL_SCHEMA_VERSION,
                     "fingerprint": fingerprint, "replayed": replayed,
                     "remaining": remaining})

    def dispatch(self, index: int, key: str, label: str = "") -> None:
        self.append({"t": "dispatch", "i": index, "key": key,
                     "label": label})

    def done(self, index: int, key: str, result: dict,
             cached: bool = False) -> None:
        self.append({"t": "done", "i": index, "key": key,
                     "wall": result.get("wall_time", 0.0),
                     "cached": bool(cached), "result": result})

    def fail(self, index: int, key: str, error: dict, kind: str) -> None:
        self.append({"t": "fail", "i": index, "key": key, "kind": kind,
                     "error": error})

    def interrupt(self, index: int) -> None:
        self.append({"t": "interrupted", "i": index})

    def end(self, detail: dict) -> None:
        self.append({"t": "end", "metrics": detail})

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    def read(self) -> JournalState:
        """Parse the journal, dropping torn (unparsable) lines.

        SIGKILL mid-append leaves at most one truncated line — by
        construction the last one; it is counted in ``torn_lines`` and
        its point simply re-runs on resume.  Any other unparsable line is
        dropped the same way: recovery is tolerant, never fatal.
        """
        state = JournalState()
        if not self.exists():
            return state
        with open(self.path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    state.torn_lines += 1
                    continue
                if isinstance(record, dict):
                    state.records.append(record)
                else:
                    state.torn_lines += 1
        return state


# ----------------------------------------------------------------------
# Resume admission (SV-series rules)
# ----------------------------------------------------------------------
def _finding(rule_id: str, message: str, location: str = "") -> Finding:
    load_rules()
    rule = DEFAULT_REGISTRY.get(rule_id)
    return Finding(rule=rule.id, name=rule.name, severity=rule.severity,
                   message=message, location=location)


def check_resume(state: JournalState, fingerprint: str,
                 deadline_hard: Optional[float] = None) -> Report:
    """Admission check for resuming *fingerprint*'s sweep from *state*.

    * ``SV001`` (error): the journal was written for a different sweep —
      different spec, trace, point set/order, or journal schema.  The
      runner refuses to resume on this finding.
    * ``SV002`` (warning): the configured hard deadline is shorter than
      the slowest observed point runtime in the journal, so resumed
      pending points of the same runtime class are likely to be cut down
      as ``PointTimeout`` instead of completing.
    """
    report = Report()
    recorded = state.fingerprint
    if recorded is None:
        report.add(_finding(
            "SV001",
            "journal has no begin record (empty or fully torn); "
            "cannot prove it belongs to this sweep",
        ))
        return report
    if recorded != fingerprint:
        report.add(_finding(
            "SV001",
            f"journal fingerprint {recorded[:12]}… does not match this "
            f"sweep's {fingerprint[:12]}… — it was written for a "
            "different spec, trace, or point order",
        ))
        return report
    if deadline_hard is not None:
        observed = [r.get("wall", 0.0) for r in state.completed.values()
                    if not r.get("cached")]
        slowest = max(observed, default=0.0)
        if slowest > deadline_hard:
            report.add(_finding(
                "SV002",
                f"hard deadline {deadline_hard:g}s is below the slowest "
                f"observed point runtime {slowest:g}s in this journal; "
                "pending points of that runtime class will likely time "
                "out instead of completing",
            ))
    return report
