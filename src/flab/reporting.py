"""Structured experiment reports with deterministic serialization.

A Report collects metadata, named tables of scalar rows, and named
assertion outcomes.  JSON output is key-sorted and, apart from the
timestamp field, byte-identical across runs with the same seed; CSV output
writes one table per file with metadata in comment lines.  All writes go
through a temporary file in the target directory followed by an atomic
replace, so readers never observe partial reports.
"""

from __future__ import annotations

import datetime
import json
import os
import tempfile

import numpy as np

from .errors import ConfigError


def _jsonify(value):
    # exact built-ins first; np.float64 subclasses float, so it is converted below
    if value is None or type(value) in (float, int, str, bool):
        return value
    if isinstance(value, dict):
        return {str(k): _jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_jsonify(v) for v in value.tolist()]
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.bool_,)):
        return bool(value)
    if isinstance(value, complex):
        if value.imag == 0:
            return value.real
        return {"re": value.real, "im": value.imag}
    if isinstance(value, (bool, int, float, str)):
        return value
    raise ConfigError(f"value of type {type(value).__name__} cannot be serialized")


class Report:
    """Outcome of one experiment run."""

    def __init__(self, experiment: str, config: dict, seed: int | None = None):
        self.experiment = experiment
        self.config = dict(config)
        self.seed = seed
        self.metadata = {
            "experiment": experiment,
            "seed": seed,
            "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        }
        self.tables: dict[str, list[dict]] = {}
        self.assertions: dict[str, dict] = {}

    def add_table(self, name: str, rows: list[dict]):
        if name in self.tables:
            raise ValueError(f"table {name!r} already present")
        self.tables[name] = [dict(row) for row in rows]

    def add_assertion(self, name: str, passed: bool, detail: str = ""):
        if name in self.assertions:
            raise ValueError(f"assertion {name!r} already present")
        self.assertions[name] = {"passed": bool(passed), "detail": detail}

    @property
    def passed(self) -> bool:
        return all(a["passed"] for a in self.assertions.values())

    def to_dict(self) -> dict:
        return _jsonify(
            {
                "metadata": self.metadata,
                "config": self.config,
                "tables": self.tables,
                "assertions": self.assertions,
                "passed": self.passed,
            }
        )

    def summary_lines(self) -> list[str]:
        lines = [f"experiment: {self.experiment}"]
        for name, table in self.tables.items():
            lines.append(f"table {name}: {len(table)} rows")
        for name, outcome in self.assertions.items():
            mark = "PASS" if outcome["passed"] else "FAIL"
            detail = f" ({outcome['detail']})" if outcome["detail"] else ""
            lines.append(f"[{mark}] {name}{detail}")
        lines.append(f"overall: {'PASS' if self.passed else 'FAIL'}")
        return lines

    def write_json(self, path: str):
        payload = json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"
        _atomic_write(path, payload)

    def write_csv(self, path: str):
        """One CSV file per table; metadata and assertions as # comments.

        With a single table the file is written at `path`; with several, the
        table name is inserted before the extension.
        """
        stem, ext = os.path.splitext(path)
        ext = ext or ".csv"
        names = list(self.tables) or ["empty"]
        for name in names:
            target = path if len(names) == 1 else f"{stem}_{name}{ext}"
            rows = self.tables.get(name, [])
            lines = []
            for key, value in sorted(self.metadata.items()):
                lines.append(f"# {key}={value}")
            for aname, outcome in sorted(self.assertions.items()):
                state = "pass" if outcome["passed"] else "fail"
                lines.append(f"# assertion:{aname}={state}")
            if rows:
                columns = list(rows[0].keys())
                lines.append(",".join(columns))
                for row in rows:
                    lines.append(",".join(_csv_cell(row.get(c)) for c in columns))
            _atomic_write(target, "\n".join(lines) + "\n")


def _csv_cell(value) -> str:
    value = _jsonify(value)
    if isinstance(value, dict):
        return f"{value['re']}+{value['im']}j"
    if isinstance(value, float):
        return repr(value)
    if value is None:
        return ""
    text = str(value)
    if any(ch in text for ch in ',"\n'):
        text = '"' + text.replace('"', '""') + '"'
    return text


def _atomic_write(path: str, text: str):
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".report-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
