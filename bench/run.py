"""bwmberry benchmark runner (stdlib only).

Run from the root of a checkout:

    python3 bench/run.py --workload berry_dense --seed 1 --seconds 20 --trace 0

The runner generates the workload's config from the seed, then for
``--seconds`` runs samples one after another (closed loop, one client):
each sample is a fresh ``python3 bench/child.py`` process that imports
``bwmberry.cli`` from ``src`` and calls ``main(argv)`` with only
``--config FILE --out DIR``.  After each sample the runner checks the
outputs itself (``check.py``).  With ``--trace 0`` it reports the
end-to-end metrics of untraced samples; with ``--trace 1`` it alternates
untraced and traced samples and reports the per-layer metrics of the
traced ones plus the tracing overhead.  Before and after each sample
the runner times the host-speed reference loop (``hostspeed.py``).  The
end-to-end timings are scaled to the reference host speed: ``wall_s``
and ``points_per_s`` from trimmed means over the run's untraced samples,
``setup_s`` from their median; ``peak_rss_mb`` and the per-layer metrics
are medians.  The last stdout line is one JSON object with keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from check import SKIP_REASONS, Outcome, check_outputs
from hostspeed import REFERENCE_S, reference, trimmed_mean
from spans import Span, aggregate
from workloads import WORKLOADS, expect, make_workload

BENCH_DIR = Path(__file__).resolve().parent
CHILD = BENCH_DIR / "child.py"
LAUNCHER = BENCH_DIR / "launcher.py"

#: Work directory under the checkout root; removed when the run ends.
WORK_DIR = ".bench_run"

#: Thread settings for the child, so BLAS adds no threads of its own.
CHILD_THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

#: Untraced samples per run at least; traced runs add as many traced ones.
MIN_SAMPLES = 3
MIN_TRACED_SAMPLES = 2

#: No sample starts later than this after the runner started.
HARD_LIMIT_S = 150.0

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "points_per_s": "1/s",
    "peak_rss_mb": "MB",
}

_TRACED_LAYERS = (
    "spin.hamiltonian_stack",
    "spin.hamiltonian",
    "spin.ladder_ops",
    "linalg.eigh",
    "berry.berry_wilson_loop",
    "berry.loop_eigenframes",
    "berry.pancharatnam_phase",
    "berry.berry_closed",
    "berry.figure_data",
    "algebra.check_bwm_suite",
    "algebra.check_tla",
    "yangbaxter.ybe_residual",
    "yangbaxter.make_r_u",
    "matrices.hermitian_eigs",
    "matrices.inverse",
    "matrices.rel_residual",
)

PER_LAYER = {}
for _layer in _TRACED_LAYERS:
    PER_LAYER[f"{_layer}.calls"] = "count"
    PER_LAYER[f"{_layer}.self_s"] = "s"
PER_LAYER.update(
    {
        "spin.hamiltonian_stack.phases": "count",
        "spin.hamiltonian_stack.bytes_out": "B",
        "linalg.eigh.matrices": "count",
        "berry.berry_wilson_loop.raised": "count",
        "berry.loop_steps": "count",
        "berry.loop_steps_per_point": "steps/point",
        "berry.figure_data.rows": "count",
        "cli.build_config.self_s": "s",
        "cli.cmd.self_s": "s",
        "cli.report_write_s": "s",
        "cli.bytes_written": "B",
        "cli.points": "count",
        **{f"cli.skipped.{r}": "count" for r in SKIP_REASONS},
        "cli.skip_ratio": "ratio",
        "trace.overhead_s": "s",
    }
)

#: Bytes of one 3x3 complex128 matrix, the unit hamiltonian_stack emits per phase.
_MATRIX_BYTES = 9 * 16

#: (span, required count) whose mean inclusive time per call is printed next
#: to the traced metrics, to compare with single-call timings of the kernels.
KERNELS = (
    ("spin.hamiltonian_stack", 4096),
    ("linalg.eigh", 4096),
    ("berry.pancharatnam_phase", None),
    ("algebra.check_bwm_suite", None),
    ("yangbaxter.ybe_residual", None),
)


def _clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def layer_metrics(spans: list[Span], outcome: Outcome) -> dict[str, float]:
    """Per-layer metrics of one traced sample (``trace.overhead_s`` excluded)."""
    stats = aggregate(spans)

    def get(name: str, attr: str) -> float:
        st = stats.get(name)
        return getattr(st, attr) if st is not None else 0

    m: dict[str, float] = {}
    for layer in _TRACED_LAYERS:
        m[f"{layer}.calls"] = get(layer, "calls")
        m[f"{layer}.self_s"] = get(layer, "self_s")
    m["spin.hamiltonian_stack.phases"] = get("spin.hamiltonian_stack", "count")
    m["spin.hamiltonian_stack.bytes_out"] = get("spin.hamiltonian_stack", "count") * _MATRIX_BYTES
    m["linalg.eigh.matrices"] = get("linalg.eigh", "count")
    m["berry.berry_wilson_loop.raised"] = get("berry.berry_wilson_loop", "raised")
    steps = get("berry.loop_eigenframes", "count")
    loop_points = {s.point for s in spans if s.name == "berry.loop_eigenframes" and s.point is not None}
    m["berry.loop_steps"] = steps
    m["berry.loop_steps_per_point"] = steps / len(loop_points) if loop_points else 0
    m["berry.figure_data.rows"] = get("berry.figure_data", "count")
    m["cli.build_config.self_s"] = get("cli.build_config", "self_s")
    # Point functions are cli glue too: their self time joins the command's.
    m["cli.cmd.self_s"] = get("cli.cmd", "self_s") + get("cli.point", "self_s")
    m["cli.report_write_s"] = get("cli.main", "incl_s") - get("cli.build_config", "incl_s") - get("cli.cmd", "incl_s")
    m["cli.bytes_written"] = outcome.bytes_written
    m["cli.points"] = outcome.attempted
    for reason in SKIP_REASONS:
        m[f"cli.skipped.{reason}"] = outcome.skipped.get(reason, 0)
    m["cli.skip_ratio"] = sum(outcome.skipped.values()) / outcome.attempted
    return m


def kernel_ms(spans: list[Span]) -> dict[str, float]:
    out = {}
    for name, count in KERNELS:
        times = [s.end - s.start for s in spans if s.name == name and (count is None or s.count == count)]
        if times:
            label = name if count is None else f"{name}@{count}"
            out[label] = 1e3 * sum(times) / len(times)
    return out


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


class Runner:
    """Runs and checks samples of one workload inside a private work directory."""

    def __init__(self, root: Path, workload: str, seed: int):
        self.root = root
        self.workload = make_workload(workload, seed)
        self.expectation = expect(self.workload.command, self.workload.config)
        self.seed = seed
        self.work = root / WORK_DIR / f"{workload}-{os.getpid()}"
        self.env = dict(os.environ)
        src = str(root / "src")
        self.env["PYTHONPATH"] = src + (os.pathsep + self.env["PYTHONPATH"] if self.env.get("PYTHONPATH") else "")
        self.env.update(CHILD_THREAD_ENV)
        self.n = 0

    def __enter__(self) -> "Runner":
        self.work.mkdir(parents=True, exist_ok=False)
        self.config_path = self.work / "config.json"
        self.config_path.write_text(json.dumps(self.workload.config, indent=1), encoding="utf-8")
        self.launcher = subprocess.Popen(
            [sys.executable, str(LAUNCHER)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=self.env,
            cwd=self.root,
            text=True,
        )
        return self

    def __exit__(self, *exc) -> None:
        self.launcher.stdin.close()
        try:
            self.launcher.wait(timeout=10.0)
        except subprocess.TimeoutExpired:
            self.launcher.kill()
            self.launcher.wait()
        self.launcher.stdout.close()
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            (self.root / WORK_DIR).rmdir()
        except OSError:
            pass

    def _spawn(self, argv, traced: bool, timeout: float) -> tuple[dict, dict]:
        self.n += 1
        tag = f"s{self.n}"
        result_path = self.work / f"{tag}.result.json"
        spec_path = self.work / f"{tag}.spec.json"
        log_path = self.work / f"{tag}.log"
        spec_path.write_text(json.dumps({"argv": argv, "result": str(result_path), "trace": traced}), encoding="utf-8")
        request = {"argv": [sys.executable, str(CHILD), str(spec_path)], "log": str(log_path), "timeout": timeout}
        self.launcher.stdin.write(json.dumps(request) + "\n")
        self.launcher.stdin.flush()
        reply = self.launcher.stdout.readline()
        if not reply:
            raise RuntimeError("the sample launcher exited")
        spawned = json.loads(reply)
        try:
            result = json.loads(result_path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            result = {}
        if spawned["rc"] != 0 or not result:
            tail = log_path.read_text(encoding="utf-8", errors="replace")[-2000:]
            print(f"sample {tag} exited with {spawned['rc']}:\n{tail}", file=sys.stderr)
        return spawned, result

    def environment(self, timeout: float) -> dict:
        """Import the program once (warming its bytecode) and record the environment."""
        spawned, result = self._spawn(None, traced=False, timeout=timeout)
        if spawned["rc"] != 0 or "env" not in result:
            raise RuntimeError("the program could not be imported; is src/bwmberry present?")
        expected = str(self.root / "src" / "bwmberry")
        if os.path.realpath(result["bwmberry"]) != os.path.realpath(expected):
            raise RuntimeError(f"imported bwmberry from {result['bwmberry']}, not {expected}")
        return {
            "workload": self.workload.name,
            "seed": self.seed,
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "cpu": _cpu_model(),
            "platform": platform.platform(),
            "loadavg": os.getloadavg(),
            **result["env"],
            "child_thread_env": CHILD_THREAD_ENV,
        }

    def sample(self, traced: bool, timeout: float) -> dict:
        out_dir = self.work / f"out{self.n + 1}"
        argv = [self.workload.command, "--config", str(self.config_path), "--out", str(out_dir)]
        spawned, result = self._spawn(argv, traced, timeout)
        outcome = check_outputs(self.expectation, self.workload.config, out_dir, spawned["rc"], self.seed)
        shutil.rmtree(out_dir, ignore_errors=True)
        s = {
            "traced": traced,
            "outcome": outcome,
            "wall_s": spawned["end"] - spawned["start"],
            "peak_rss_mb": spawned["maxrss_kb"] / 1024.0,
        }
        if "main_start" in result:
            s["setup_s"] = result["main_start"] - spawned["start"]
            s["main_s"] = result["main_end"] - result["main_start"]
            s["points_per_s"] = outcome.attempted / s["main_s"]
        if traced and "spans" in result:
            spans = [Span(*row) for row in result["spans"]]
            s["layers"] = layer_metrics(spans, outcome)
            s["kernel_ms"] = kernel_ms(spans)
            s["absent"] = result.get("absent", [])
        return s


def scaled_end_to_end(plain: list[dict]) -> dict[str, float]:
    """End-to-end metrics of the untraced samples (see ``hostspeed.py``).

    Timings are scaled by ``REFERENCE_S`` over the trimmed mean reference
    time.  ``wall_s`` and the ``main()`` time are trimmed means;
    ``points_per_s`` is the points of one sample over the scaled ``main()``
    time.  ``setup_s`` is the median of the run's set-ups.  Peak RSS is not
    a timing: its median.
    """
    scale = REFERENCE_S / trimmed_mean([s["reference_s"] for s in plain])
    out = {
        "wall_s": scale * trimmed_mean([s["wall_s"] for s in plain]),
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in plain),
    }
    timed = [s for s in plain if "main_s" in s]
    if timed:
        out["setup_s"] = scale * statistics.median(s["setup_s"] for s in timed)
        points = statistics.median(s["outcome"].attempted for s in timed)
        out["points_per_s"] = points / (scale * trimmed_mean([s["main_s"] for s in timed]))
    return out


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def _table(title: str, rows: dict[str, tuple[str, list[float]]]) -> list[str]:
    lines = [title, f"  {'metric':44s} {'unit':12s} {'median':>14s} {'q1':>14s} {'q3':>14s} {'n':>3s}"]
    for name, (unit, values) in rows.items():
        q1, med, q3 = _quartiles(values)
        lines.append(f"  {name:44s} {unit:12s} {med:14.6g} {q1:14.6g} {q3:14.6g} {len(values):3d}")
    return lines


def run(args: argparse.Namespace) -> int:
    started = _clock()
    root = Path.cwd()
    if not (root / "src" / "bwmberry" / "cli.py").is_file():
        print("error: src/bwmberry/cli.py not found; run from the root of a bwmberry checkout", file=sys.stderr)
        return 2
    with Runner(root, args.workload, args.seed) as runner:
        try:
            env = runner.environment(timeout=60.0)
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        samples: list[dict] = []
        durations: dict[bool, list[float]] = {False: [], True: []}
        deadline = _clock() + args.seconds
        while True:
            traced = bool(args.trace) and len(durations[True]) < len(durations[False])
            before = reference()
            t = _clock()
            samples.append(runner.sample(traced, timeout=max(10.0, HARD_LIMIT_S + 20.0 - (t - started))))
            durations[traced].append(_clock() - t)
            samples[-1]["reference_s"] = (before + reference()) / 2.0
            n_plain, n_traced = len(durations[False]), len(durations[True])
            enough = n_plain >= MIN_SAMPLES and (not args.trace or n_traced >= MIN_TRACED_SAMPLES)
            upcoming = bool(args.trace) and n_traced < n_plain
            expected = statistics.median(durations[upcoming] or durations[traced])
            now = _clock()
            if (enough and now + expected > deadline) or now - started > HARD_LIMIT_S:
                break

    attempted = sum(s["outcome"].attempted for s in samples)
    failed = sum(s["outcome"].failed for s in samples)
    for s in samples:
        for err in s["outcome"].errors[:5]:
            print(f"check: {err}", file=sys.stderr)
    plain = [s for s in samples if not s["traced"]]
    traced_samples = [s for s in samples if s["traced"]]
    hashes = {}
    for s in samples:
        for name, digest in s["outcome"].hashes.items():
            hashes.setdefault(name, set()).add(digest)

    e2e = {name: (unit, [s[name] for s in plain if name in s]) for name, unit in END_TO_END.items()}
    e2e = {k: v for k, v in e2e.items() if v[1]}
    e2e["reference_s"] = ("s", [s["reference_s"] for s in plain])
    print(json.dumps({"env": env}))
    print(f"{len(plain)} untraced and {len(traced_samples)} traced samples; closed loop, one client")
    for line in _table("end-to-end, raw (untraced samples)", e2e):
        print(line)
    scaled = scaled_end_to_end(plain)
    print(f"end-to-end, scaled to the host speed at which reference_s = {REFERENCE_S} s")
    for name, value in scaled.items():
        print(f"  {name:44s} {END_TO_END[name]:12s} {value:14.6g}")
    print(f"  {'fail_ratio':44s} {'ratio':12s} {failed / attempted:14.6g}   ({failed} of {attempted} points)")
    print(json.dumps({"sha256": {k: sorted(v) for k, v in hashes.items()}}))

    metrics: dict[str, dict] = {}
    if args.trace:
        layers = {
            name: (unit, [s["layers"][name] for s in traced_samples if "layers" in s]) for name, unit in PER_LAYER.items()
            if name != "trace.overhead_s"
        }
        layers = {k: v for k, v in layers.items() if v[1]}
        overhead = statistics.median([s["wall_s"] for s in traced_samples]) - statistics.median(
            [s["wall_s"] for s in plain]
        )
        layers["trace.overhead_s"] = ("s", [overhead])
        for line in _table("per layer (traced samples)", layers):
            print(line)
        kernels = {}
        for s in traced_samples:
            for k, v in s.get("kernel_ms", {}).items():
                kernels.setdefault(k, []).append(v)
        print(json.dumps({"kernel_ms_per_call": {k: statistics.median(v) for k, v in kernels.items()}}))
        absent = sorted({a for s in traced_samples for a in s.get("absent", [])})
        print(json.dumps({"absent_trace_targets": absent}))
        for name, (unit, values) in layers.items():
            metrics[name] = {"value": statistics.median(values), "unit": unit}
    else:
        for name, value in scaled.items():
            metrics[name] = {"value": value, "unit": END_TO_END[name]}

    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description="Benchmark the bwmberry CLI workloads.")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="how long one run keeps starting samples")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer metrics from traced samples")
    return p.parse_args(argv)


if __name__ == "__main__":
    sys.exit(run(parse_args()))
