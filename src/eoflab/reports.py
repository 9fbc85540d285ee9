"""Report types and every byte the command line prints.

Deterministic checks return a CheckReport; randomized searches return a
ProbeResult.  Both serialize byte-identically for a given input (`to_json`,
`to_csv`), so runs can be archived, diffed and re-verified.  `emit` prints
reports to stdout with a one-line verdict each on stderr, and
`print_payload` prints the flat payloads of `eof compute` and `eof zoo`.
"""

from __future__ import annotations

import csv
import io
import json
import sys
from dataclasses import dataclass, field, fields
from typing import Mapping

import numpy as np

GAP_TOL = 1e-9


def require_count(name: str, value: int) -> None:
    """A check or search over no samples would pass vacuously; refuse it."""
    if value < 1:
        raise ValueError(f"{name} must be >= 1, got {value!r}")


def _plain(obj):
    """Recursively coerce report contents to JSON-serializable Python types."""
    if obj is None or isinstance(obj, (str, bool, int, float)):
        return obj
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        if np.iscomplexobj(obj):
            raise TypeError("complex arrays must be encoded as [re, im] pairs first")
        return _plain(obj.tolist())
    if isinstance(obj, Mapping):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    raise TypeError(f"cannot serialize {type(obj).__name__} in a report")


def _json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)


def _csv(header: list[str], rows) -> str:
    """A CSV table; each row's last cell is a value, kept raw if a string, else JSON."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    for *keys, value in rows:
        w.writerow([*keys, value if isinstance(value, str)
                    else json.dumps(value, sort_keys=True)])
    return buf.getvalue()


class _ReportSerialization:
    """Shared to_dict/to_json/to_csv for the report dataclasses."""

    _ITEM_FIELD = ""

    def to_dict(self) -> dict:
        return {f.name: _plain(getattr(self, f.name)) for f in fields(self)}

    def to_json(self) -> str:
        return _json(self.to_dict())

    def to_csv(self) -> str:
        d = self.to_dict()
        items = d.pop(self._ITEM_FIELD, [])
        name = d.pop("name")
        rows = [(name, "", key, d[key]) for key in sorted(d)]
        rows += [(name, i, key, entry[key])
                 for i, entry in enumerate(items) for key in sorted(entry)]
        return _csv(["name", "index", "field", "value"], rows)


@dataclass(frozen=True)
class CheckReport(_ReportSerialization):
    """Outcome of a deterministic numerical check.

    semantics says how `passed` was decided: "identity" (every residual
    within tol), "inequality" (every gap above -slack), "mixed" (both
    kinds of parts present), or "consistency" (independent estimates of
    one quantity agree within slack).  Unused aggregate fields are None.
    """

    name: str
    semantics: str
    samples: int
    seed: int | None
    tol: float | None
    slack: float | None
    min_gap: float | None
    max_abs_residual: float | None
    passed: bool
    per_sample: tuple = ()
    extra: dict = field(default_factory=dict)

    _ITEM_FIELD = "per_sample"

    def summary(self) -> str:
        detail = []
        if self.max_abs_residual is not None:
            detail.append(f"max|residual|={self.max_abs_residual:.3e}")
        if self.min_gap is not None:
            detail.append(f"min_gap={self.min_gap:.3e}")
        return f"{self.name}: {'PASS' if self.passed else 'FAIL'} ({', '.join(detail)})"


@dataclass(frozen=True)
class ProbeResult(_ReportSerialization):
    """Outcome of a randomized counterexample search for one relation.

    The most negative gap seen is `min_gap`; `argmin` holds the fully
    serialized instance that produced it, accepted by reevaluate_argmin.
    """

    name: str
    trials: int
    seed: int | None
    slack: float
    min_gap: float
    violation_found: bool
    argmin: dict
    caveat: str
    per_trial: tuple = ()
    extra: dict = field(default_factory=dict)
    semantics: str = "violation-search"

    _ITEM_FIELD = "per_trial"

    def summary(self) -> str:
        verdict = "VIOLATION" if self.violation_found else "no violation"
        return f"{self.name}: {verdict} (min_gap={self.min_gap:.3e} over {self.trials} trials)"


def emit(reports, fmt: str) -> None:
    """Print reports to stdout (JSON object/array or one merged CSV table),
    and each report's one-line verdict to stderr."""
    if fmt == "csv":
        lines: list[str] = []
        for rep in reports:
            block = rep.to_csv().splitlines()
            lines.extend(block if not lines else block[1:])
        print("\n".join(lines))
    else:
        dicts = [rep.to_dict() for rep in reports]
        print(_json(dicts[0] if len(dicts) == 1 else dicts))
    for rep in reports:
        print(rep.summary(), file=sys.stderr)


def print_payload(payload: dict, fmt: str) -> None:
    """Print a flat payload as a JSON object or a field,value CSV table."""
    if fmt == "csv":
        print(_csv(["field", "value"], [(key, payload[key]) for key in sorted(payload)]), end="")
    else:
        print(_json(payload))
