"""Schema-versioned JSONL artifacts: write, validate, summarize, diff.

Every ASCII table the repo prints can now leave a machine-readable twin
next to it.  An artifact is one JSON object per line:

* a leading **header** row ``{"schema": "repro.obs/v1", "kind": "header",
  "artifact": <name>, "meta": {...}}``;
* data rows, each carrying ``schema`` and a ``kind`` (``table_row``,
  ``scenario_row``, ``metric``, ``trace_event``, ...) plus the payload.

Readers reject rows whose schema tag is missing or unknown, so a consumer
can never silently misinterpret an old artifact after a schema bump.

:func:`capture_tables` hooks :func:`repro.sim.reporting.format_table`'s
table sink, so *every* experiment and benchmark — none of which know about
JSONL — can emit artifacts without per-experiment changes.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence

from repro.errors import ConfigurationError
from repro.obs.registry import SCHEMA
from repro.sim import reporting
from repro.sim.stats import summarize


@dataclass
class Artifact:
    """A parsed JSONL artifact: header metadata plus data rows."""

    path: str
    name: Optional[str] = None
    meta: Dict[str, object] = field(default_factory=dict)
    rows: List[Dict[str, object]] = field(default_factory=list)

    def rows_of_kind(self, kind: str) -> List[Dict[str, object]]:
        """The data rows whose ``kind`` matches."""
        return [r for r in self.rows if r.get("kind") == kind]

    def kinds(self) -> Dict[str, int]:
        """Histogram kind -> row count."""
        hist: Dict[str, int] = {}
        for row in self.rows:
            kind = str(row.get("kind"))
            hist[kind] = hist.get(kind, 0) + 1
        return hist


def write_jsonl(
    path,
    rows: Iterable[Dict[str, object]],
    kind: str = "row",
    name: Optional[str] = None,
    meta: Optional[Dict[str, object]] = None,
) -> int:
    """Write ``rows`` as a schema-versioned JSONL artifact; returns the
    number of data rows written.

    Rows already carrying a ``kind`` (registry/tracer exports) keep it;
    bare rows (sweep/table dictionaries) are tagged with ``kind``.
    Non-JSON values fall back to their ``str()`` form — an artifact must
    always be writable.
    """
    target = Path(path)
    if target.parent != Path(""):
        target.parent.mkdir(parents=True, exist_ok=True)
    count = 0
    with target.open("w", encoding="utf-8") as fh:
        header = {
            "schema": SCHEMA,
            "kind": "header",
            "artifact": name or target.stem,
            "meta": meta or {},
        }
        fh.write(json.dumps(header, sort_keys=True, default=str) + "\n")
        for row in rows:
            tagged: Dict[str, object] = {"schema": SCHEMA, "kind": kind}
            tagged.update(row)
            tagged["schema"] = SCHEMA
            fh.write(json.dumps(tagged, sort_keys=True, default=str) + "\n")
            count += 1
    return count


def read_artifact(path) -> Artifact:
    """Parse and validate a JSONL artifact.

    Raises :class:`~repro.errors.ConfigurationError` on an unreadable
    file, malformed JSON, a missing/unknown schema tag, or a row without a
    ``kind``.
    """
    artifact = Artifact(path=str(path))
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"cannot read artifact: {exc}") from None
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            row = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"{path}:{lineno}: not JSON: {exc}") from None
        if not isinstance(row, dict):
            raise ConfigurationError(f"{path}:{lineno}: row is not an object")
        if row.get("schema") != SCHEMA:
            raise ConfigurationError(
                f"{path}:{lineno}: schema {row.get('schema')!r} "
                f"(this reader understands {SCHEMA!r})"
            )
        if "kind" not in row:
            raise ConfigurationError(f"{path}:{lineno}: row has no 'kind'")
        if row["kind"] == "header" and artifact.name is None:
            artifact.name = row.get("artifact")
            meta = row.get("meta")
            if isinstance(meta, dict):
                artifact.meta = meta
        else:
            artifact.rows.append(row)
    return artifact


# -- summaries -----------------------------------------------------------------

_SKIP_KEYS = ("schema", "kind")


def _numeric_fields(rows: Sequence[Dict[str, object]]) -> Dict[str, List[float]]:
    fields: Dict[str, List[float]] = {}
    for row in rows:
        for key, value in row.items():
            if key in _SKIP_KEYS:
                continue
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                continue
            fields.setdefault(key, []).append(float(value))
    return fields


def _metric_table(rows: Sequence[Dict[str, object]]) -> str:
    """One line per named metric: counters/gauges show their value,
    histograms their distribution summary."""
    table = []
    for row in sorted(rows, key=lambda r: str(r.get("metric"))):
        entry: Dict[str, object] = {
            "metric": row.get("metric"),
            "type": row.get("type"),
        }
        for key in ("value", "n", "min", "p50", "p90", "p99", "max", "mean"):
            if key in row:
                entry[key] = row[key]
        table.append(entry)
    return reporting.format_table(
        table,
        columns=["metric", "type", "value", "n", "min", "p50", "p90", "p99",
                 "max", "mean"],
        title="[metric] by name",
    )


def summarize_artifact(path) -> str:
    """A human summary of one artifact: row counts per kind, a per-name
    metric table, then nearest-rank summaries of every numeric field per
    kind."""
    artifact = read_artifact(path)
    lines = [f"artifact: {artifact.name or artifact.path}  ({len(artifact.rows)} rows)"]
    if artifact.meta:
        lines.append(f"meta: {json.dumps(artifact.meta, sort_keys=True, default=str)}")
    kind_rows = []
    for kind, count in sorted(artifact.kinds().items()):
        kind_rows.append({"kind": kind, "rows": count})
    lines.append(reporting.format_table(kind_rows, columns=["kind", "rows"]))
    metric_rows = artifact.rows_of_kind("metric")
    if metric_rows:
        lines.append("")
        lines.append(_metric_table(metric_rows))
    for kind in sorted(artifact.kinds()):
        rows = artifact.rows_of_kind(kind)
        fields = _numeric_fields(rows)
        if not fields:
            continue
        table = []
        for name in sorted(fields):
            summary = summarize(fields[name])
            table.append({"field": name, **summary})
        lines.append("")
        lines.append(
            reporting.format_table(
                table,
                columns=["field", "n", "min", "p50", "p90", "p99", "max", "mean"],
                title=f"[{kind}] numeric fields",
            )
        )
    return "\n".join(lines)


# -- diffing -------------------------------------------------------------------


def _row_identity(row: Dict[str, object]) -> tuple:
    """Identity of a row for cross-artifact alignment: its kind plus every
    non-numeric field (the configuration echo / labels), in sorted order."""
    ident = [("kind", str(row.get("kind")))]
    for key, value in sorted(row.items()):
        if key in _SKIP_KEYS:
            continue
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            ident.append((key, str(value)))
    return tuple(ident)


def diff_artifacts(path_a, path_b, tolerance: float = 1e-9) -> str:
    """Compare two artifacts row by row.

    Rows are aligned by kind + non-numeric fields; numeric fields of
    aligned rows are compared and differences beyond ``tolerance``
    reported with deltas and ratios.  Rows present on only one side are
    listed as added/removed.
    """
    a, b = read_artifact(path_a), read_artifact(path_b)

    def index(artifact: Artifact) -> Dict[tuple, Dict[str, object]]:
        out: Dict[tuple, Dict[str, object]] = {}
        for i, row in enumerate(artifact.rows):
            key = _row_identity(row)
            while key in out:  # duplicate identities keep file order
                key = key + (("#", str(i)),)
            out[key] = row
        return out

    rows_a, rows_b = index(a), index(b)
    only_a = [k for k in rows_a if k not in rows_b]
    only_b = [k for k in rows_b if k not in rows_a]
    diffs: List[Dict[str, object]] = []
    compared = 0
    for key, row_a in rows_a.items():
        row_b = rows_b.get(key)
        if row_b is None:
            continue
        compared += 1
        label = " ".join(
            f"{k}={v}" for k, v in key if k not in ("kind", "#")
        ) or str(dict(key).get("kind"))
        for field_name in sorted(set(row_a) | set(row_b)):
            if field_name in _SKIP_KEYS:
                continue
            va, vb = row_a.get(field_name), row_b.get(field_name)
            if isinstance(va, bool) or isinstance(vb, bool):
                continue
            if not isinstance(va, (int, float)) or not isinstance(vb, (int, float)):
                continue
            if abs(vb - va) <= tolerance:
                continue
            diffs.append(
                {
                    "row": label,
                    "field": field_name,
                    "a": va,
                    "b": vb,
                    "delta": vb - va,
                    "ratio": (vb / va) if va else None,
                }
            )
    lines = [
        f"diff: {a.name or path_a} vs {b.name or path_b} — "
        f"{compared} rows aligned, {len(only_a)} only in A, "
        f"{len(only_b)} only in B, {len(diffs)} numeric differences"
    ]
    if diffs:
        lines.append(
            reporting.format_table(
                diffs, columns=["row", "field", "a", "b", "delta", "ratio"]
            )
        )
    for side, keys in (("A", only_a), ("B", only_b)):
        for key in keys[:20]:
            lines.append(f"only in {side}: {dict(key)}")
        if len(keys) > 20:
            lines.append(f"only in {side}: ... {len(keys) - 20} more")
    return "\n".join(lines)


# -- table capture -------------------------------------------------------------


@contextmanager
def capture_tables() -> Iterator[List[Dict[str, object]]]:
    """Capture every table rendered by
    :func:`repro.sim.reporting.format_table` inside the block.

    Yields a list that fills with ``{"title", "columns", "rows"}`` entries
    — the machine-readable twin of each printed table.  The previous sink
    (if any) keeps seeing the tables too, so captures nest.
    """
    captured: List[Dict[str, object]] = []
    previous = None

    def sink(title, columns, rows) -> None:
        captured.append(
            {
                "title": title,
                "columns": list(columns),
                "rows": [dict(r) for r in rows],
            }
        )
        if previous is not None:
            previous(title, columns, rows)

    previous = reporting.set_table_sink(sink)
    try:
        yield captured
    finally:
        reporting.set_table_sink(previous)


def tables_to_rows(
    captured: Sequence[Dict[str, object]]
) -> List[Dict[str, object]]:
    """Flatten captured tables into JSONL-ready ``table_row`` rows (each
    stamped with its table's title)."""
    out: List[Dict[str, object]] = []
    for table in captured:
        title = table.get("title")
        for row in table["rows"]:
            tagged: Dict[str, object] = {"kind": "table_row"}
            if title:
                tagged["table"] = title
            tagged.update(row)
            out.append(tagged)
    return out
