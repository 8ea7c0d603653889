"""Structured experiment reports with deterministic serialization.

A Report collects metadata, named tables of scalar rows, and named
assertion outcomes.  JSON output is key-sorted and, apart from the
timestamp field, byte-identical across runs with the same seed; CSV output
writes one table per file with metadata in comment lines.  All writes go
through a temporary file in the target directory followed by an atomic
replace, so readers never observe partial reports.
"""

from __future__ import annotations

import csv
import datetime
import io
import json
import os
import tempfile

import numpy as np

from .errors import ConfigError


def _plain(value):
    """What json cannot write itself, as what it can: a numpy array as
    nested lists, a numpy scalar as its Python value, a complex number as
    its real part when it has no imaginary part and as {"re", "im"}
    otherwise.  None and Python scalars pass unchanged."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, np.generic):
        value = value.item()
    if isinstance(value, complex):
        return value.real if value.imag == 0 else {"re": value.real, "im": value.imag}
    if value is None or isinstance(value, (bool, int, float, str)):
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
        payload = {
            "metadata": self.metadata,
            "config": self.config,
            "tables": self.tables,
            "assertions": self.assertions,
            "passed": self.passed,
        }
        _atomic_write(path, json.dumps(payload, indent=2, sort_keys=True, default=_plain) + "\n")

    def write_csv(self, path: str):
        """One CSV file per table; metadata and assertions as # comments.

        With a single table the file is written at `path`; with several, the
        table name is inserted before the extension.  Cells are quoted by the
        csv module; a complex cell with an imaginary part reads re+imj.
        """
        stem, ext = os.path.splitext(path)
        ext = ext or ".csv"
        names = list(self.tables) or ["empty"]
        for name in names:
            target = path if len(names) == 1 else f"{stem}_{name}{ext}"
            rows = self.tables.get(name, [])
            out = io.StringIO()
            for key, value in sorted(self.metadata.items()):
                out.write(f"# {key}={value}\n")
            for aname, outcome in sorted(self.assertions.items()):
                state = "pass" if outcome["passed"] else "fail"
                out.write(f"# assertion:{aname}={state}\n")
            if rows:
                columns = list(rows[0].keys())
                writer = csv.writer(out, lineterminator="\n")
                writer.writerow(columns)
                for row in rows:
                    cells = [_plain(row.get(c)) for c in columns]
                    writer.writerow([f"{v['re']}+{v['im']}j" if isinstance(v, dict) else v for v in cells])
            _atomic_write(target, out.getvalue())


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
