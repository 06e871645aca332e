"""Check records as dicts with the seven keys, the independent reference of the report's record lines.

A record's line in the report is ``line(record_dict(...))``: these builders
make the dict from the same values that ``report._record``, ``report._skip``
and ``report._csv_record`` take, and ``json.dumps`` makes its text.
"""

import json
import re


def record_dict(name, params, residual, tolerance, **data) -> dict:
    """An executed check: it passes if ``residual < tolerance``."""
    return {
        "name": name,
        "params": params,
        "residual": float(residual),
        "tolerance": float(tolerance),
        "status": "pass" if residual < tolerance else "fail",
        "reason": None,
        "data": data,
    }


def skip_dict(name, params, tolerance, exc, reason=None) -> dict:
    """A check not executed because of ``exc``: its reason token (``reason``, else ``exc``'s class in snake case)."""
    return {
        "name": name,
        "params": params,
        "residual": None,
        "tolerance": None if tolerance is None else float(tolerance),
        "status": "skip",
        "reason": reason or re.sub(r"(?<!^)(?=[A-Z])", "_", type(exc).__name__).lower(),
        "data": {"detail": str(exc)},
    }


def csv_dict(name, file, rows) -> dict:
    """A CSV written: a pass with empty params, no residual or tolerance, and the file's name and rows."""
    return {
        "name": name,
        "params": {},
        "residual": None,
        "tolerance": None,
        "status": "pass",
        "reason": None,
        "data": {"file": file, "rows": rows},
    }


def line(record: dict) -> str:
    """The record's line in the report."""
    return json.dumps(record, sort_keys=True)


def lines(records) -> list:
    """The lines of records as the report module builds them, ``(name, status, residual, tolerance, line)``."""
    return [r[4] for r in records]
