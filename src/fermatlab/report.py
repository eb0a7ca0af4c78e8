"""Flat report records shared by every CLI command.

One record per modulus, one JSON object per line; the CSV mirror carries the
same columns.  Fields that a command does not produce stay null so records
from different commands diff cleanly against each other.
"""

import csv
import io
import json
from typing import NamedTuple

SCHEMA_VERSION = "3"

class ReportRecord(NamedTuple):
    """One command's result on one modulus, as one JSON line or CSV row.

    ``elapsed_ms`` is the wall time of the command's work on n.  A
    cross-check record also carries ``elapsed_ms_pepin`` and
    ``elapsed_ms_scan``, each test's own wall time; its ``elapsed_ms`` is
    the pair's, their sum where the scan follows Pépin and less where the
    two run at once, from ``primality.CONCURRENT_MIN_N`` on the kernel.
    """

    command: str
    n: int
    bits: int
    verdict_pepin: str | None = None
    verdict_paper: str | None = None
    found_q: int | None = None
    window_lo: int | None = None
    window_hi: int | None = None
    squarings_pepin: int | None = None
    squarings_scan: int | None = None
    factor: int | None = None
    cofactor: int | None = None
    consistent: bool | None = None
    backend: str | None = None
    elapsed_ms: float | None = None
    elapsed_ms_pepin: float | None = None
    elapsed_ms_scan: float | None = None
    trace_hash: str | None = None
    schema_version: str = SCHEMA_VERSION

    def to_mapping(self) -> dict[str, object]:
        return {name: getattr(self, name) for name in FIELDS}

    def to_json(self) -> str:
        return json.dumps(self.to_mapping())

    @classmethod
    def from_json(cls, line: str) -> "ReportRecord":
        data = json.loads(line)
        if not isinstance(data, dict):
            raise ValueError(f"a report line must be a JSON object, got {type(data).__name__}")
        unknown = set(data) - set(FIELDS)
        if unknown:
            raise ValueError(f"unknown report fields: {sorted(unknown)}")
        missing = [name for name in cls._fields if name not in data and name not in cls._field_defaults]
        if missing:
            raise ValueError(f"missing report fields: {missing}")
        if data.get("schema_version", SCHEMA_VERSION) != SCHEMA_VERSION:
            raise ValueError(f"expected schema_version {SCHEMA_VERSION!r}, got {data['schema_version']!r}")
        for name, value in data.items():
            if value is None and cls._field_defaults.get(name, ...) is None:
                continue
            kind = _FIELD_TYPES[name]
            if isinstance(value, bool) != (kind is bool) or not isinstance(value, kind):
                raise ValueError(f"report field {name!r} has the wrong type: {value!r}")
        return cls(**data)


# The record's columns: schema_version is declared last, for its default, but leads each record.
FIELDS = ("schema_version", *ReportRecord._fields[:-1])


def _json_type(annotation: object) -> type | tuple[type, ...]:
    (kind,) = (kind for kind in getattr(annotation, "__args__", (annotation,)) if kind is not type(None))
    return (int, float) if kind is float else kind


# The JSON type of each field's non-null values, read from the class's own
# annotations (this module keeps them objects): a float field takes a whole
# number too, but no field other than a bool one takes a bool.
_FIELD_TYPES = {name: _json_type(annotation) for name, annotation in ReportRecord.__annotations__.items()}


def _csv_cell(value: object) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def render_csv(records: list[ReportRecord]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(FIELDS)
    for record in records:
        writer.writerow([_csv_cell(value) for value in record.to_mapping().values()])
    return buffer.getvalue()


def render_json_lines(records: list[ReportRecord]) -> str:
    return "".join(record.to_json() + "\n" for record in records)


def _table_cell(value: object) -> str:
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)


def records_table(records: list[ReportRecord]) -> str:
    """Fixed-width table of the schema columns a command actually filled."""
    mappings = [record.to_mapping() for record in records]
    headers = [
        name
        for name in FIELDS
        if name not in ("schema_version", "command")
        and any(mapping[name] is not None for mapping in mappings)
    ]
    rows = [[mapping[name] for name in headers] for mapping in mappings]
    cells = [[_table_cell(value) for value in row] for row in rows]
    widths = [
        max(len(header), *(len(row[i]) for row in cells)) if cells else len(header)
        for i, header in enumerate(headers)
    ]
    numeric = [
        all(isinstance(row[i], (int, float)) or row[i] is None for row in rows)
        for i in range(len(headers))
    ]

    def fit(text: str, i: int) -> str:
        return text.rjust(widths[i]) if numeric[i] else text.ljust(widths[i])

    lines = ["  ".join(fit(header, i) for i, header in enumerate(headers)).rstrip()]
    lines.append("  ".join("-" * width for width in widths))
    for row in cells:
        lines.append("  ".join(fit(cell, i) for i, cell in enumerate(row)).rstrip())
    return "\n".join(lines) + "\n"
