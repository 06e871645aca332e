"""Check records and the report's text: ``json.dumps(report, indent=2, sort_keys=True)`` with one record per line.

This module alone knows a check record's shape and builds its text.  A
record is the tuple ``(name, status, residual, tolerance, line)``: ``line``
is the record's line in the report, ``json.dumps(record, sort_keys=True)`` of
the dict with the seven keys name, params, residual, tolerance, status,
reason and data, and the other four are what ``_Tally`` counts.

``_line`` is the one line builder.  It makes a template: the texts of the
members known in advance, split at a hole for each member that varies per
record.  A check's name, tolerance and ``"reason": null`` are encoded once
per line and chunk or row (``_graded``), into a general template and a pass
template, which has the status filled in; each record then fills in its
params and residual and, where it varies, its data (``_checks``, ``_fill``).
``_record`` (a one-off executed check), ``_levels_records`` (a row of levels
checks), ``_skip`` (a point that could not be evaluated) and ``_csv_record``
(a CSV that figure wrote) build theirs the same way.  What a point's records
share is encoded once: the caller passes the point's params as text, made by
one ``%`` per point from a template per chunk or row (``_row_params``, or
``_grid_params`` for a grid row, which encodes each grid value once), and a
levels row makes each predicted triple's text once.

``timed`` is the one clock of a report's ``meta.timings``: the commands time
their stages with it, and ``_write_report`` times ``evaluate``, the taking of
the rows, within which every command's stages run, and ``report_write``.

The records live apart from ``cli`` because a run without bytecode compiles
each module from source, and the memory peak of that compile grows with the
module.
"""

from __future__ import annotations

import itertools
import json
import operator
import re
import time


class timed:
    """Context manager that adds the seconds spent in its block to ``timings[stage]``: the one clock
    of a report's ``meta.timings``.

    ``with timed(timings, stage) as entry`` gives the block the stage's
    entry, so that it can add its counts to it.  One ``timed`` may time any
    number of blocks, one after another.
    """

    def __init__(self, timings: dict, stage: str):
        self.entry = timings.setdefault(stage, {"seconds": 0.0})

    def __enter__(self) -> dict:
        self.start = time.perf_counter()
        return self.entry

    def __exit__(self, *exc_info) -> None:
        self.entry["seconds"] += time.perf_counter() - self.start


def _encoder():
    """``json.dumps(value, sort_keys=True)`` as one function that keeps one C encoder.

    ``json.dumps`` builds a new C encoder on every call, and that build costs
    about as much as encoding a point's params.  The kept encoder marks no
    containers as open, so a failed encode leaves nothing behind, and data
    that contains itself, which no record holds, ends in ``RecursionError``
    instead of ``ValueError``.  Without json's C accelerator
    (``c_make_encoder`` is None) this is the pure-Python ``encode``.
    """
    enc = json.JSONEncoder(sort_keys=True)
    make = json.encoder.c_make_encoder
    if make is None:
        return enc.encode
    c_encode = make(
        None, enc.default, json.encoder.encode_basestring_ascii, enc.indent,
        enc.key_separator, enc.item_separator, enc.sort_keys, enc.skipkeys, enc.allow_nan,
    )
    return lambda value: "".join(c_encode(value, 0))


#: The text of a record member, ``json.dumps(value, sort_keys=True)``: a point's params, or a record's data.
_text = _encoder()

#: The text of a string, as ``_text`` gives it.
_string = json.encoder.encode_basestring_ascii

#: json's spelling of each float whose ``repr`` is not JSON.
_FLOAT_WORDS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _number(x: float) -> str:
    """The text of a float, as ``_text`` gives it: its ``repr``, or ``NaN``, ``Infinity`` or ``-Infinity``."""
    text = repr(x)
    return _FLOAT_WORDS[text] if "n" in text else text  # only those three reprs hold an "n"


#: The pass test of ``_checks`` also asks for a finite residual: ``repr`` spells -inf as ``-inf``.
_INF = float("inf")

#: A hole of a line template, where ``_line`` splits it.  No JSON text holds a NUL character.
_HOLE = "\0"


def _line(*, data=_HOLE, name=_HOLE, params=_HOLE, reason=_HOLE, residual=_HOLE, status=_HOLE, tolerance=_HOLE) -> tuple:
    """The template of a record's line, as the texts between its holes: each member given is that
    text, and each other member is a hole, filled per record in sorted-key order (``_joined``)."""
    return tuple(
        f'{{"data": {data}, "name": {name}, "params": {params}, "reason": {reason}, '
        f'"residual": {residual}, "status": {status}, "tolerance": {tolerance}}}'.split(_HOLE)
    )


def _joined(pieces: tuple, holes: tuple) -> str:
    """The line of a ``_line`` template with the texts ``holes`` in its holes."""
    return "".join([text for pair in zip(pieces, (*holes, "")) for text in pair])


def _reason_token(exc: BaseException) -> str:
    return re.sub(r"(?<!^)(?=[A-Z])", "_", type(exc).__name__).lower()


def _graded(name: str, tolerance: float, **texts: str) -> tuple:
    """The line templates of check ``name`` graded at ``tolerance``: ``(name, tolerance, passing, general)``.

    ``general`` (``_line``) has holes for params, the residual and the status,
    after data where ``texts`` does not give it; ``passing`` is ``general``
    with the status ``pass`` filled in.
    """
    fixed = dict(texts, name=_string(name), reason="null", tolerance=_number(tolerance))
    return name, tolerance, _line(status='"pass"', **fixed), _line(**fixed)


def _fill(name: str, tolerance: float, general: tuple, residual: float, *texts: str) -> tuple:
    """The record of a check with its ``general`` template (``_graded``) and ``residual``, a float: it
    passes if ``residual < tolerance``, and its line fills the holes with ``texts``, the residual's
    text and the status."""
    status = "pass" if residual < tolerance else "fail"
    return name, status, residual, tolerance, _joined(general, (*texts, _number(residual), f'"{status}"'))


def _checks(lines: list, params: str, residuals) -> list[tuple]:
    """The records of one point's checks, with the params text ``params``: ``lines`` holds each check's
    ``_graded`` templates, with data given, and ``residuals`` its residual, a float.

    A finite residual below its tolerance goes straight into the pass template:
    its ``repr`` is its JSON text.
    """
    return [
        (name, "pass", r, t, f"{head}{params}{middle}{r!r}{tail}") if -_INF < r < t else _fill(name, t, general, r, params)
        for (name, t, (head, middle, tail), general), r in zip(lines, residuals)
    ]


def _record(name: str, params: str, residual: float, tolerance: float, data: str = "{}") -> tuple:
    """One executed check, given the texts of its ``params`` and ``data``: it passes if ``residual < tolerance``."""
    _, tolerance, _, general = _graded(name, float(tolerance))
    return _fill(name, tolerance, general, float(residual), data, params)


def _skip(name: str, params: str, tolerance: float | None, exc: BaseException, reason: str | None = None) -> tuple:
    """A check not executed because of ``exc``: its reason token (``reason``, else ``exc``'s class) and detail."""
    tolerance = None if tolerance is None else float(tolerance)
    template = _line(
        name=_string(name), reason=_string(reason or _reason_token(exc)), residual="null", status='"skip"', tolerance=_text(tolerance)
    )
    return name, "skip", None, tolerance, _joined(template, (_text({"detail": str(exc)}), params))


def _csv_record(name: str, file: str, rows: int) -> tuple:
    """A CSV written: a pass with no residual, and the file's name and data rows."""
    template = _line(name=_string(name), params="{}", reason="null", residual="null", status='"pass"', tolerance="null")
    return name, "pass", None, None, _joined(template, (_text({"file": file, "rows": rows}),))


def _template(members: dict) -> str:
    """A ``%`` template of a JSON object's text: ``members`` maps each key to the template of its
    value's text, and the members follow in sorted-key order, each key's text with ``%`` doubled."""
    return "{" + ", ".join(_string(key).replace("%", "%%") + ": " + members[key] for key in sorted(members)) + "}"


def _grid_params(axes: dict) -> list[str]:
    """The params text of every point of the grid the ``axes`` span, as ``_text`` of the point's dict gives it.

    ``axes`` maps each params key to its values; the points run over their
    product in the order of ``axes``, the first axis slowest, and each
    value's text is made once.
    """
    template = _template(dict.fromkeys(axes, "%s"))
    pick = operator.itemgetter(*sorted(range(len(axes)), key=list(axes).__getitem__))
    values = [[_text(v) for v in axis] for axis in axes.values()]
    return [template % pick(point) for point in itertools.product(*values)]


def _row_params(keys: tuple, rows, ints: tuple = ()) -> list[str]:
    """The params text of each of ``rows``, one finite number per key of ``keys``, as ``_text`` of
    ``dict(zip(keys, row))`` gives it with the numbers of the ``ints`` keys made int: one ``%`` per row."""
    template = _template({key: "%d" if key in ints else "%r" for key in keys})
    pick = operator.itemgetter(*sorted(range(len(keys)), key=keys.__getitem__))
    return [template % pick(row) for row in rows]


def _levels_records(name: str, params: list, tolerance: float, residuals: list, observed: list, predicted: list, errors: dict):
    """The records of one row of levels checks, point i with the params text ``params[i]``: a skip
    with ``errors[i]`` if there is one, else ``residuals[i]`` with the three ``observed[i]`` levels.

    ``predicted`` holds the distinct predicted triples in order, each serving
    ``len(params) // len(predicted)`` consecutive points, and each triple's
    text is made once; a record's data is ``{"observed": ..., "predicted": ...}``.
    """
    if not params:
        return []
    shared, per = [_text(levels) for levels in predicted], len(params) // len(predicted)
    _, _, (head, before_params, before_residual, tail), general = _graded(name, tolerance)
    out = []
    for i, (p, r, (a, b, c)) in enumerate(zip(params, residuals, observed)):
        if i in errors:
            out.append(_skip(name, p, tolerance, errors[i]))
            continue
        text = "[%r, %r, %r]" % (a, b, c)
        if "n" in text:  # NaN, Infinity or -Infinity
            text = _text([a, b, c])
        data = f'{{"observed": {text}, "predicted": {shared[i // per]}}}'
        if -_INF < r < tolerance:
            out.append((name, "pass", r, tolerance, f"{head}{data}{before_params}{p}{before_residual}{r!r}{tail}"))
        else:
            out.append(_fill(name, tolerance, general, r, data, p))
    return out


class _Tally:
    """The running count behind a report's ``summary``: ``add`` the records in order, in runs.

    ``worst_residual`` and the closing line's ratio are each the ``max`` of
    their graded values in record order: a record with a residual is graded,
    and a later value replaces the kept one only if it is larger, so a NaN on
    the first graded record is kept and a later NaN never is.  Without graded
    records they are None and (0, None).
    """

    def __init__(self):
        self.checks = self.passed = self.failed = self.skipped = 0
        self.worst, self.ratio, self.closest = None, 0, None

    def add(self, records: list) -> None:
        passed = failed = skipped = 0
        worst, ratio, closest = self.worst, self.ratio, self.closest
        for name, status, residual, tolerance, _ in records:
            if status == "pass":
                passed += 1
            elif status == "fail":
                failed += 1
            elif status == "skip":
                skipped += 1
            if residual is not None:
                quotient = residual / tolerance
                if worst is None:
                    worst, ratio, closest = residual, quotient, name
                else:
                    if residual > worst:
                        worst = residual
                    if quotient > ratio:
                        ratio, closest = quotient, name
        self.checks += len(records)
        self.passed += passed
        self.failed += failed
        self.skipped += skipped
        self.worst, self.ratio, self.closest = worst, ratio, closest

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


def _dumps(value) -> str:
    """``json.dumps(value, indent=2, sort_keys=True)`` as laid out for a top-level member."""
    return json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n  ")


#: The warning of a report without checks.
NO_CHECKS = "no checks were executed (empty grids?)"


def _write_report(fh, report: dict, timings: dict) -> tuple[dict, float, str | None]:
    """Write ``report`` in the layout of ``json.dumps(report, indent=2, sort_keys=True) + "\\n"``,
    except that ``checks`` holds rows, lists of records, and each record is its line; return
    the count of the records (``_Tally.summary``).

    The rows are taken one at a time and their lines written as they arrive, so no more
    than one row need be held at once.  ``checks`` sorts before the other members, so
    those that depend on the records are written after the last one: a ``summary``
    member becomes the count, and a ``warnings`` list gains ``NO_CHECKS`` where there
    were no records.  Before ``meta``, ``timings["evaluate"]`` gets the seconds spent
    producing the rows, their records' lines included, and the number of ``records``,
    and ``timings["report_write"]`` the seconds spent writing the members before
    ``meta``, without those, and the characters written; so a ``meta`` that holds
    ``timings`` reports them.
    """
    tally, evaluating, keys = _Tally(), timed(timings, "evaluate"), sorted(report)

    def write(i: int, key: str) -> int:
        """Write member ``key``, the i-th, and return the characters written."""
        if key == "summary":
            report[key] = tally.summary()[0]
        elif key == "warnings" and not tally.checks:
            report[key] = [*report[key], NO_CHECKS]
        size = fh.write(("{\n  " if i == 0 else ",\n  ") + json.dumps(key) + ": ")
        if key != "checks":
            return size + fh.write(_dumps(report[key]))
        separator, rows = "[\n    ", iter(report[key])
        while True:
            with evaluating:
                row = next(rows, None)
            if row is None:
                return size + fh.write("[]" if tally.checks == 0 else "\n  ]")
            if row:
                tally.add(row)
                # Two writes: the separator and a row's lines are not copied into one more string.
                size += fh.write(separator) + fh.write(",\n    ".join([record[4] for record in row]))
                separator = ",\n    "

    before = sum(key < "meta" for key in keys)
    with timed(timings, "report_write") as writing:
        writing["bytes"] = sum(write(i, key) for i, key in enumerate(keys[:before]))
    writing["seconds"] -= evaluating.entry["seconds"]
    evaluating.entry["records"] = tally.checks
    for i, key in enumerate(keys[before:], before):
        write(i, key)
    fh.write("\n}\n" if report else "{}\n")
    return tally.summary()
