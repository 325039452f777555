"""Structured verification reports with deterministic serialization."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

SCHEMA_VERSION = 1

STATUSES = ("pass", "fail", "inconclusive")


@dataclass
class CheckRecord:
    suite: str
    case: str
    status: str                 # one of STATUSES
    detail: str = ""
    assumptions: tuple = ()
    truncations: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.status not in STATUSES:
            raise ValueError(f"unknown check status {self.status!r}")

    @property
    def ok(self):
        return self.status == "pass"


class Report:
    """Ordered collection of check records, merged deterministically."""

    def __init__(self):
        self.records = []

    def extend(self, records):
        self.records.extend(records)

    def sorted_records(self):
        return sorted(self.records, key=lambda r: (r.suite, r.case))

    @property
    def counts(self):
        out = {"pass": 0, "fail": 0, "inconclusive": 0}
        for r in self.records:
            out[r.status] += 1
        return out

    @property
    def ok(self) -> bool:
        return self.counts.get("fail", 0) == 0

    def to_dict(self, config_text: str = "", timings=None) -> dict:
        body = {
            "schema": SCHEMA_VERSION,
            "config": config_text,
            "summary": self.counts,
            "checks": [
                {
                    "suite": r.suite,
                    "case": r.case,
                    "status": r.status,
                    "detail": r.detail,
                    "assumptions": list(r.assumptions),
                    "truncations": dict(r.truncations),
                }
                for r in self.sorted_records()
            ],
        }
        if timings is not None:
            body["timings_ms"] = timings
        return body

    def to_json(self, config_text: str = "", timings=None) -> str:
        return json.dumps(self.to_dict(config_text, timings),
                          indent=2, sort_keys=True) + "\n"

    def summary_lines(self):
        lines = []
        for r in self.sorted_records():
            mark = {"pass": "ok  ", "fail": "FAIL",
                    "inconclusive": "????"}[r.status]
            detail = f"  [{r.detail}]" if r.detail and r.status != "pass" else ""
            lines.append(f"{mark} {r.suite}: {r.case}{detail}")
        c = self.counts
        lines.append(f"total: {c['pass']} passed, {c['fail']} failed, "
                     f"{c['inconclusive']} inconclusive")
        return lines
