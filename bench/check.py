"""Output check for one benchmark sample.

The check runs in the benchmark's own code against the prediction from
``workloads.expect``; it never trusts the program's verdicts alone:

* exit code 0 and ``summary.failed == 0``;
* every predicted point is present, evaluated or skipped exactly as the
  generated grid predicts, and the skip counts by reason match;
* ``berry.match_*`` records carry ``closed`` equal to the benchmark's own
  pi (1 - 2 sin(theta) sqrt(d^2 - 1) / d^2) to 1e-12 (``spectrum``
  records likewise carry the predicted levels 0, +/- omega cos(alpha));
* figure CSVs have the predicted row counts, and a seeded sample of rows
  lies on the predicted (d, theta) grid and matches the cos form to 1e-12.

SHA-256 digests of the report without ``meta`` and of each CSV are
recorded for information only.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

from workloads import SECTION_D_VALUES, Expectation

#: Agreement demanded between program output and the benchmark's closed forms.
CLOSED_TOL = 1e-12

#: CSV rows sampled per file by the figure check.
CSV_SAMPLE = 200

#: Skip reasons reported as per-layer counters (every reason a workload predicts).
SKIP_REASONS = ("closed_form_only", "degenerate_spectrum", "invalid_param")


@dataclass
class Outcome:
    """Result of checking one sample's outputs."""

    attempted: int
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    skipped: dict[str, int] = field(default_factory=dict)
    hashes: dict[str, str] = field(default_factory=dict)
    bytes_written: int = 0


def _closed_gamma_plus(theta: float, d: float) -> float:
    return math.pi * (1.0 - 2.0 * math.sin(theta) * math.sqrt(d * d - 1.0) / (d * d))


def _point_key(command: str, rec: dict):
    p = rec["params"]
    if command == "berry":
        return ("berry", float(p["theta"]), float(p["d"]))
    if command == "spectrum":
        if rec["name"] == "spectrum.casimir":
            return ("casimir", float(p["theta"]), float(p["d"]))
        return ("h", float(p["theta"]), float(p["d"]), float(p["omega_drive"]), float(p["phi"]))
    return (rec["name"].split(".", 1)[0],) + tuple(sorted(p.items()))


def _value_errors(command: str, rec: dict) -> list[str]:
    if rec["status"] == "skip":
        return []
    p, data = rec["params"], rec.get("data", {})
    if command == "berry" and rec["name"] in ("berry.match_plus", "berry.match_minus"):
        want = _closed_gamma_plus(p["theta"], p["d"])
        if rec["name"] == "berry.match_minus":
            want = -want
        if not abs(data.get("closed", math.nan) - want) <= CLOSED_TOL:
            return [f"{rec['name']} at {p}: closed {data.get('closed')} != {want}"]
    if command == "spectrum":
        if rec["name"] == "spectrum.casimir":
            want = [0.0, 0.75, 0.75]
        else:
            level = p["omega_drive"] * 2.0 * math.sin(p["theta"]) * math.sqrt(p["d"] ** 2 - 1.0) / p["d"] ** 2
            want = sorted([0.0, level, -level])
        got = data.get("predicted", [])
        if len(got) != 3 or not all(abs(a - b) <= CLOSED_TOL for a, b in zip(got, want)):
            return [f"{rec['name']} at {p}: predicted {got} != {want}"]
    return []


def _check_points(exp: Expectation, report: dict, out: Outcome) -> None:
    points: dict = {}
    for rec in report["checks"]:
        points.setdefault(_point_key(exp.command, rec), []).append(rec)
    if exp.command == "verify":
        # Points are keyed by family and order of appearance: the program
        # draws the phases itself, so only the counts are predictable.
        numbered, seen = {}, {}
        for key, recs in points.items():
            i = seen.get(key[0], 0)
            seen[key[0]] = i + 1
            numbered[(key[0], i)] = recs
        points = numbered
    for key, recs in points.items():
        if key not in exp.points:
            out.errors.append(f"unexpected point {key}")
            continue
        reasons = [r["reason"] for r in recs if r["status"] == "skip"]
        for reason in reasons:
            out.skipped[reason] = out.skipped.get(reason, 0) + 1
        predicted = exp.points[key]
        bad = any(r["status"] == "fail" for r in recs) or reasons != ([predicted] if predicted else [])
        value_errors = [e for r in recs for e in _value_errors(exp.command, r)]
        out.errors.extend(value_errors)
        out.failed += bool(bad or value_errors)
    missing = len(set(exp.points) - set(points))
    if missing:
        out.errors.append(f"{missing} predicted points missing from the report")
        out.failed += missing
    if out.skipped != exp.skip_counts():
        out.errors.append(f"skip counts {out.skipped} != predicted {exp.skip_counts()}")


def _check_csv(name: str, data: bytes, n_theta: int, d_values: list[float], sample_seed: int) -> list[str]:
    lines = data.split(b"\n")
    if lines[0] != b"theta,d,gamma_plus" or lines[-1] != b"":
        return [f"{name}: bad header or missing final newline"]
    rows = lines[1:-1]
    if len(rows) != n_theta * len(d_values):
        return [f"{name}: {len(rows)} rows, predicted {n_theta * len(d_values)}"]
    rng = random.Random(f"{name}/{sample_seed}")
    errors = []
    for i in sorted(rng.sample(range(len(rows)), min(CSV_SAMPLE, len(rows)))):
        try:
            theta, d, gamma = (float(x) for x in rows[i].split(b","))
        except ValueError:
            errors.append(f"{name} row {i + 1}: not three numbers: {rows[i][:80]!r}")
            continue
        want_theta = 2.0 * math.pi * (i % n_theta) / (n_theta - 1)
        want_d = d_values[i // n_theta]
        want_gamma = math.pi * (1.0 - 2.0 * math.cos(theta) * math.sqrt(d * d - 1.0) / (d * d))
        if not (
            abs(theta - want_theta) <= CLOSED_TOL
            and abs(d - want_d) <= CLOSED_TOL
            and abs(gamma - want_gamma) <= CLOSED_TOL
        ):
            errors.append(f"{name} row {i + 1}: ({theta}, {d}, {gamma}) off the predicted surface")
    return errors


def _check_figure(exp: Expectation, config: dict, out_dir: Path, report: dict, sample_seed: int, out: Outcome) -> None:
    rows_reported = {r.get("data", {}).get("file"): r.get("data", {}).get("rows") for r in report["checks"]}
    n_theta = config["figure_theta_points"]
    lo, hi, count = config["figure_d_mesh"]
    grids = {
        "figure_sections.csv": list(SECTION_D_VALUES),
        "figure_surface.csv": [lo + (hi - lo) * j / (count - 1) for j in range(int(count))],
    }
    for name, predicted in exp.csv_rows.items():
        if rows_reported.get(name) != predicted:
            out.errors.append(f"report says {name} has {rows_reported.get(name)} rows, predicted {predicted}")
        try:
            data = (out_dir / name).read_bytes()
        except OSError as exc:
            out.errors.append(f"cannot read {name}: {exc}")
            continue
        out.hashes[name] = hashlib.sha256(data).hexdigest()
        out.errors.extend(_check_csv(name, data, n_theta, grids[name], sample_seed))


def _without_meta(raw: bytes) -> bytes:
    """The report's bytes minus its top-level ``meta`` member.

    The program writes reports with ``indent=2`` and sorted keys, so the
    member starts at ``\\n  "meta": {`` and ends at the first line that is
    a two-space-indented ``}``.  Other layouts are hashed whole.
    """
    start = raw.find(b'\n  "meta": {')
    end = raw.find(b"\n  }", start)
    if start < 0 or end < 0:
        return raw
    end += len(b"\n  }")
    if raw[end : end + 1] == b",":
        end += 1
    return raw[:start] + raw[end:]


def check_outputs(exp: Expectation, config: dict, out_dir: Path, exit_code: int, sample_seed: int) -> Outcome:
    """Check one sample; any run-level error marks every point failed."""
    out = Outcome(attempted=exp.n_points)
    if exit_code != 0:
        out.errors.append(f"exit code {exit_code}")
    report_path = out_dir / f"{exp.command}_report.json"
    try:
        raw = report_path.read_bytes()
        report = json.loads(raw)
    except (OSError, ValueError) as exc:
        out.errors.append(f"cannot read {report_path.name}: {exc}")
        report = None
    if report is not None:
        if report.get("summary", {}).get("failed") != 0:
            out.errors.append(f"summary.failed = {report.get('summary', {}).get('failed')}")
        if exp.command == "figure":
            _check_figure(exp, config, out_dir, report, sample_seed, out)
        else:
            _check_points(exp, report, out)
        out.hashes[report_path.name] = hashlib.sha256(_without_meta(raw)).hexdigest()
    out.bytes_written = sum(p.stat().st_size for p in out_dir.iterdir() if p.is_file())
    if out.errors:
        out.failed = out.attempted
    return out
