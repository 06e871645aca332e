"""The report's text: ``json.dumps(report, indent=2, sort_keys=True)`` with one check record per line.

Each record's line is the text ``json.dumps(record, sort_keys=True)`` gives
it.  ``_record_lines`` joins a check record's line from the texts of its
members, and encodes a member that consecutive records share, such as one
point's params, once.  The writer lives apart from ``cli`` because a run
without bytecode compiles each module from source, and the memory peak of
that compile grows with the module.
"""

from __future__ import annotations

import json
import time


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


#: The keys of a check record.
_RECORD_KEYS = frozenset(("data", "name", "params", "reason", "residual", "status", "tolerance"))

#: The types of a residual or tolerance that ``_record_lines`` writes itself.
_FLOAT_OR_NONE = (float, type(None))

#: json's spelling of each float whose ``repr`` is not JSON.
_FLOAT_WORDS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}

#: Most texts each table of ``_record_lines`` keeps during one report write.
_WORDS_MAX = 1024


def _word_texts(encode, words: dict, values: tuple) -> tuple | None:
    """The texts of ``values`` if each is a str or None, else None; entered in ``words`` while it is small."""
    if not all(v is None or type(v) is str for v in values):
        return None
    texts = tuple(words.get(v) or encode(v) for v in values)
    if len(words) < _WORDS_MAX:
        words.update(zip(values, texts))
    return texts


def _record_lines(checks):
    """The text of each record of ``checks``, ``_RECORD_LINE.encode(record)``, one at a time.

    A dict with exactly the ``_RECORD_KEYS``, whose name, reason and status
    are str or None and whose residual and tolerance are float or None, is
    joined from the texts of its members in sorted-key order:

    * ``params`` is encoded once while consecutive records hold the same
      object: the records of one point share one dict;
    * an empty dict as ``data`` (``cli._NO_DATA``) is ``{}``, other data is encoded;
    * name, reason, status and tolerance come from tables of texts keyed by value;
    * a float is its ``repr``, or json's ``NaN``, ``Infinity`` or ``-Infinity``.

    Every other record is encoded whole.  Each call builds its own encoder
    (``_part_encoder``): a failed encode leaves the containers it was in
    marked as open, and those marks must not outlive the write.
    """
    encode, frepr, float_words = _part_encoder(), float.__repr__, _FLOAT_WORDS
    words, tolerances = {None: "null"}, {None: "null"}
    last_params, params_text = object(), ""
    for rec in checks:
        if (
            type(rec) is not dict
            or rec.keys() != _RECORD_KEYS
            or type(rec["residual"]) not in _FLOAT_OR_NONE
            or type(rec["tolerance"]) not in _FLOAT_OR_NONE
        ):
            yield encode(rec)
            continue
        name, reason, status = rec["name"], rec["reason"], rec["status"]
        try:
            name, reason, status = words[name], words[reason], words[status]
        except (KeyError, TypeError):  # a value not in the table yet, or not hashable
            texts = _word_texts(encode, words, (name, reason, status))
            if texts is None:
                yield encode(rec)
                continue
            name, reason, status = texts
        residual = rec["residual"]
        residual = "null" if residual is None else frepr(residual)
        residual = float_words.get(residual, residual)
        tolerance = rec["tolerance"]
        text = tolerances.get(tolerance)
        if text is None:
            text = frepr(tolerance)
            text = float_words.get(text, text)
            if tolerance and len(tolerances) < _WORDS_MAX:  # 0.0 and -0.0 are one key with two texts
                tolerances[tolerance] = text
        params = rec["params"]
        if params is not last_params:
            last_params, params_text = params, encode(params)
        data = rec["data"]
        data = "{}" if type(data) is dict and not data else encode(data)
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
