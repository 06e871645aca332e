"""Check records and the report's text: ``json.dumps(report, indent=2, sort_keys=True)`` with one record per line.

This module alone knows a check record's shape.  ``_record`` (an executed
check), ``_skip`` (a point that could not be evaluated) and ``_csv_record``
(a CSV that figure wrote) build every record as a dict with the seven keys
name, params, residual, tolerance, status, reason and data.  ``_Tally``
counts them for the ``summary``.  Each record's line is the text
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
from itertools import chain


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


class _Tally:
    """The running count behind a report's ``summary``: ``add`` the records in order, in runs.

    ``worst_residual`` and the closing line's ratio are each the ``max`` of
    their graded values in record order: a record with a residual is graded,
    and a later value replaces the kept one only if it is larger, so a NaN on
    the first graded record is kept and a later NaN never is.  Without graded
    records they are None and (0, None).  ``pull`` adds the rows of a stream
    as they are read, and times their production in ``seconds``.
    """

    def __init__(self):
        self.checks = self.passed = self.failed = self.skipped = 0
        self.worst, self.ratio, self.closest = None, 0, None
        self.seconds = 0.0

    def add(self, records: list) -> None:
        passed = failed = skipped = 0
        worst, ratio, closest = self.worst, self.ratio, self.closest
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
        self.checks += len(records)
        self.passed += passed
        self.failed += failed
        self.skipped += skipped
        self.worst, self.ratio, self.closest = worst, ratio, closest

    def pull(self, rows):
        """The rows of ``rows``, lists of records, each added as it is pulled.

        A row is pulled once the one before it is used up; ``seconds`` gets
        the time spent pulling, which is the time spent producing the rows.
        """
        rows, clock = iter(rows), time.perf_counter
        while True:
            start = clock()
            row = next(rows, None)
            self.seconds += clock() - start
            if row is None:
                return
            self.add(row)
            yield row

    def summary(self) -> tuple[dict, float, str | None]:
        """The report's ``summary``, and the closing line's largest residual/tolerance with its record's name."""
        summary = {
            "checks": self.checks,
            "passed": self.passed,
            "failed": self.failed,
            "skipped": self.skipped,
            "worst_residual": self.worst,
            "overall_pass": self.failed == 0,
        }
        return summary, self.ratio, self.closest


def _summary(records: list) -> tuple[dict, float, str | None]:
    """``_Tally.summary`` of the records, counted in one pass."""
    tally = _Tally()
    tally.add(records)
    return tally.summary()


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


#: The warning of a report without checks.
NO_CHECKS = "no checks were executed (empty grids?)"


def _write_report(fh, report: dict, timings: dict) -> tuple[dict, float, str | None]:
    """Write ``report`` in the layout of ``json.dumps(report, indent=2, sort_keys=True) + "\\n"``,
    except that ``checks`` holds rows, lists of records, and each record is one line,
    ``_RECORD_LINE.encode(record)`` as ``_record_lines`` builds it; return the count of
    the records (``_Tally.summary``).

    The rows are pulled one at a time and written as they arrive (``_Tally.pull``), so no
    more than one row need be held at once.  ``checks`` sorts before the other members,
    so those that depend on the records are written after the last one: a ``summary``
    member becomes the count, and a ``warnings`` list gains ``NO_CHECKS`` where there
    were no records.  Before ``meta``, ``timings["evaluate"]`` gets the seconds spent
    producing the rows and the records, and ``timings["report_write"]`` the seconds
    spent writing, without those, and the characters written; so a ``meta`` that holds
    ``timings`` reports them.
    """
    start, size, tally = time.perf_counter(), 0, _Tally()
    for i, key in enumerate(sorted(report)):
        if key == "meta":
            elapsed = time.perf_counter() - start
            timings["evaluate"] = {"seconds": tally.seconds, "records": tally.checks}
            timings["report_write"] = {"seconds": elapsed - tally.seconds, "bytes": size}
        elif key == "summary":
            report[key] = tally.summary()[0]
        elif key == "warnings" and not tally.checks:
            report[key] = [*report[key], NO_CHECKS]
        value = report[key]
        size += fh.write(("{\n  " if i == 0 else ",\n  ") + json.dumps(key) + ": ")
        if key == "checks":
            separator = "[\n    "
            for line in _record_lines(chain.from_iterable(tally.pull(value))):
                size += fh.write(separator + line)
                separator = ",\n    "
            size += fh.write("[]" if tally.checks == 0 else "\n  ]")
        else:
            size += fh.write(_dumps(value))
    fh.write("\n}\n" if report else "{}\n")
    return tally.summary()
