"""Check records and the report's text: ``json.dumps(report, indent=2, sort_keys=True)`` with one record per line.

This module alone knows a check record's shape.  ``_record`` (an executed
check), ``_skip`` (a point that could not be evaluated) and ``_csv_record``
(a CSV that figure wrote) build every record as a dict with the seven keys
name, params, residual, tolerance, status, reason and data.  ``_summary``
counts them.  Each record's line is the text
``json.dumps(record, sort_keys=True)`` gives it: ``_record_lines`` joins it
from the texts of the record's members, and encodes a member that
consecutive records share, such as one point's params, once.  The records
live apart from ``cli`` because a run without bytecode compiles each module
from source, and the memory peak of that compile grows with the module.
"""

from __future__ import annotations

import json
import re
import time


#: The ``data`` of every record without data: one dict that nothing mutates, not one per record.
_NO_DATA: dict = {}


def _reason_token(exc: BaseException) -> str:
    return re.sub(r"(?<!^)(?=[A-Z])", "_", type(exc).__name__).lower()


def _record(name: str, params: dict, residual: float, tolerance: float, **data) -> dict:
    """One executed check: it passes if ``residual < tolerance``."""
    return {
        "name": name,
        "params": params,
        "residual": float(residual),
        "tolerance": float(tolerance),
        "status": "pass" if residual < tolerance else "fail",
        "reason": None,
        "data": data or _NO_DATA,
    }


def _skip(name: str, params: dict, tolerance: float | None, exc: BaseException, reason: str | None = None) -> dict:
    """A check not executed because of ``exc``: its reason token (``reason``, else ``exc``'s class) and detail."""
    return {
        "name": name,
        "params": params,
        "residual": None,
        "tolerance": None if tolerance is None else float(tolerance),
        "status": "skip",
        "reason": reason or _reason_token(exc),
        "data": {"detail": str(exc)},
    }


def _csv_record(name: str, file: str, rows: int) -> dict:
    """A CSV written: a pass with no residual, and the file's name and data rows."""
    return {
        "name": name,
        "params": {},
        "residual": None,
        "tolerance": None,
        "status": "pass",
        "reason": None,
        "data": {"file": file, "rows": rows},
    }


def _summary(records: list) -> tuple[dict, float, str | None]:
    """The report's ``summary``, and the closing line's largest residual/tolerance with its record's name.

    One pass over the records.  A record with a residual is graded.
    ``worst_residual`` and the ratio are each the ``max`` of their graded
    values in record order: a later value replaces the kept one only if it
    is larger, so a NaN on the first graded record is kept and a later NaN
    never is.  Without graded records they are None and (0, None).
    """
    passed = failed = skipped = 0
    worst, ratio, closest = None, 0, None
    for r in records:
        status, residual = r["status"], r["residual"]
        if status == "pass":
            passed += 1
        elif status == "fail":
            failed += 1
        elif status == "skip":
            skipped += 1
        if residual is not None:
            quotient = residual / r["tolerance"]
            if worst is None:
                worst, ratio, closest = residual, quotient, r["name"]
            else:
                if residual > worst:
                    worst = residual
                if quotient > ratio:
                    ratio, closest = quotient, r["name"]
    summary = {
        "checks": len(records),
        "passed": passed,
        "failed": failed,
        "skipped": skipped,
        "worst_residual": worst,
        "overall_pass": failed == 0,
    }
    return summary, ratio, closest


#: The encoder with sorted keys and no indent: the text of one check record.
_RECORD_LINE = json.JSONEncoder(sort_keys=True)


def _part_encoder():
    """A function that gives ``_RECORD_LINE.encode(value)`` from one C encoder, built here.

    ``JSONEncoder.encode`` builds a new C encoder on every call, and that
    build costs about as much as encoding a record's ``params``; a report
    write builds one.  Without json's C accelerator (``c_make_encoder`` is
    None) this is ``_RECORD_LINE.encode`` itself.
    """
    make = json.encoder.c_make_encoder
    if make is None:
        return _RECORD_LINE.encode
    enc = _RECORD_LINE
    c_encode = make(
        {}, enc.default, json.encoder.encode_basestring_ascii, enc.indent,
        enc.key_separator, enc.item_separator, enc.sort_keys, enc.skipkeys, enc.allow_nan,
    )
    return lambda value: "".join(c_encode(value, 0))


#: json's spelling of each float whose ``repr`` is not JSON.
_FLOAT_WORDS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _record_lines(checks):
    """The text of each record of ``checks``, ``_RECORD_LINE.encode(record)``, one at a time.

    Each record is one that ``_record``, ``_skip`` or ``_csv_record`` built,
    and its line is joined from the texts of its members in sorted-key order:

    * ``params`` is encoded once while consecutive records hold the same
      object: the records of one point share one dict;
    * an empty ``data`` (``_NO_DATA``) is ``{}``, other data is encoded;
    * name, reason, status and tolerance come from tables of texts keyed by value;
    * a float is its ``repr``, or json's ``NaN``, ``Infinity`` or ``-Infinity``.

    Each call builds its own encoder (``_part_encoder``): a failed encode
    leaves the containers it was in marked as open, and those marks must not
    outlive the write.
    """
    encode, frepr, float_words = _part_encoder(), float.__repr__, _FLOAT_WORDS
    words, tolerances = {None: "null"}, {None: "null"}
    last_params, params_text = object(), ""
    for rec in checks:
        name, reason, status = rec["name"], rec["reason"], rec["status"]
        try:
            name, reason, status = words[name], words[reason], words[status]
        except KeyError:  # a value not in the table yet
            for word in (name, reason, status):
                if word not in words:
                    words[word] = encode(word)
            name, reason, status = words[name], words[reason], words[status]
        residual = rec["residual"]
        residual = "null" if residual is None else frepr(residual)
        residual = float_words.get(residual, residual)
        tolerance = rec["tolerance"]
        text = tolerances.get(tolerance)
        if text is None:
            text = frepr(tolerance)
            text = float_words.get(text, text)
            if tolerance:  # 0.0 and -0.0 are one key with two texts
                tolerances[tolerance] = text
        params = rec["params"]
        if params is not last_params:
            last_params, params_text = params, encode(params)
        data = rec["data"]
        data = "{}" if not data else encode(data)
        yield (
            f'{{"data": {data}, "name": {name}, "params": {params_text}, "reason": {reason}, '
            f'"residual": {residual}, "status": {status}, "tolerance": {text}}}'
        )


def _dumps(value) -> str:
    """``json.dumps(value, indent=2, sort_keys=True)`` as laid out for a top-level member."""
    return json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n  ")


def _write_report(fh, report: dict, timings: dict) -> None:
    """Write ``report`` in the layout of ``json.dumps(report, indent=2, sort_keys=True) + "\\n"``,
    except that each element of ``checks`` is one line, ``_RECORD_LINE.encode(record)``
    as ``_record_lines`` builds it.  The seconds and characters written before ``meta``
    go to ``timings["report_write"]`` first, so a ``meta`` that holds ``timings``
    reports them.
    """
    start, size = time.perf_counter(), 0
    for i, key in enumerate(sorted(report)):
        if key == "meta":
            timings["report_write"] = {"seconds": time.perf_counter() - start, "bytes": size}
        value = report[key]
        size += fh.write(("{\n  " if i == 0 else ",\n  ") + json.dumps(key) + ": ")
        if key == "checks" and value:
            for n, line in enumerate(_record_lines(value)):
                size += fh.write(("[\n    " if n == 0 else ",\n    ") + line)
            size += fh.write("\n  ]")
        else:
            size += fh.write(_dumps(value))
    fh.write("\n}\n" if report else "{}\n")
