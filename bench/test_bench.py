"""Self-tests of the benchmark: span arithmetic, wrappers, output check, seeding.

Run from the repository root:

    python3 -m unittest discover -s bench -v

The output-check tests run small configs of the real program in process,
so they need numpy and ``src/`` (added to ``sys.path`` below).
"""

from __future__ import annotations

import copy
import importlib
import io
import json
import sys
import tempfile
import types
import unittest
from concurrent.futures import ThreadPoolExecutor
from contextlib import redirect_stdout
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import check  # noqa: E402
import hostspeed  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from spans import Span, Target  # noqa: E402


def _span(sid, name, start, end, parent=None, point=None, count=0):
    return Span(sid, name, start, end, parent, point, False, count)


class SelfTimeTest(unittest.TestCase):
    def test_synthetic_tree(self):
        # root [0, 10] has children a [1, 4] and b [3, 6] (overlapping, as
        # from two worker threads) and c [8, 9]; a has child d [2, 3];
        # e [9.5, 12] sticks out of root and only its inner part counts.
        tree = [
            _span(1, "root", 0.0, 10.0),
            _span(2, "x", 1.0, 4.0, parent=1),
            _span(3, "x", 3.0, 6.0, parent=1),
            _span(4, "c", 8.0, 9.0, parent=1),
            _span(5, "d", 2.0, 3.0, parent=2),
            _span(6, "e", 9.5, 12.0, parent=1),
        ]
        selfs = spans.self_times(tree)
        self.assertAlmostEqual(selfs[1], 10.0 - 5.0 - 1.0 - 0.5)
        self.assertAlmostEqual(selfs[2], 2.0)
        self.assertAlmostEqual(selfs[3], 3.0)
        self.assertAlmostEqual(selfs[5], 1.0)
        stats = spans.aggregate(tree)
        self.assertEqual(stats["x"].calls, 2)
        self.assertAlmostEqual(stats["x"].self_s, 5.0)
        self.assertAlmostEqual(stats["x"].incl_s, 6.0)
        self.assertAlmostEqual(stats["root"].incl_s, 10.0)

    def test_worker_threads_nest_under_main_span(self):
        tracer = spans.Tracer()
        leaf = tracer.wrap("leaf", lambda x: x * 2, count=lambda a, k, r: r)
        point = tracer.wrap("point", lambda x: leaf(x), new_point=True)

        def command(xs):
            with ThreadPoolExecutor(max_workers=2) as pool:
                return list(pool.map(point, xs))

        traced_command = tracer.wrap("cmd", command)
        self.assertEqual(traced_command([1, 2, 3, 4]), [2, 4, 6, 8])
        by_name = {}
        for s in tracer.spans:
            by_name.setdefault(s.name, []).append(s)
        (cmd,) = by_name["cmd"]
        self.assertTrue(all(p.parent == cmd.id for p in by_name["point"]))
        self.assertEqual(len({p.point for p in by_name["point"]}), 4)
        points = {p.id: p.point for p in by_name["point"]}
        self.assertTrue(all(leaf_span.point == points[leaf_span.parent] for leaf_span in by_name["leaf"]))
        self.assertEqual(sum(s.count for s in by_name["leaf"]), 20)

    def test_raised_calls_are_recorded(self):
        tracer = spans.Tracer()

        def boom():
            raise ValueError("no")

        with self.assertRaises(ValueError):
            tracer.wrap("boom", boom)()
        self.assertTrue(tracer.spans[0].raised)


class InstallTest(unittest.TestCase):
    def setUp(self):
        def kernel(x):
            return x + 1

        defining = types.ModuleType("bwmberry.fake_kernels")
        defining.kernel = kernel
        user = types.ModuleType("bwmberry.fake_user")
        user.kernel = kernel  # as bound by ``from .fake_kernels import kernel``
        user.TABLE = {"k": kernel}
        self.modules = {"bwmberry.fake_kernels": defining, "bwmberry.fake_user": user}
        sys.modules.update(self.modules)
        self.kernel = kernel

    def tearDown(self):
        for name in self.modules:
            sys.modules.pop(name, None)

    def test_wrappers_reach_every_binding_and_missing_targets_are_absent(self):
        tracer = spans.Tracer()
        absent = spans.install(
            tracer,
            [
                Target("bwmberry.fake_kernels", "kernel", "fake.kernel"),
                Target("bwmberry.fake_kernels", "renamed_away", "fake.gone"),
                Target("bwmberry.no_such_module", "kernel", "fake.gone2"),
            ],
        )
        self.assertEqual(absent, ["bwmberry.fake_kernels.renamed_away", "bwmberry.no_such_module.kernel"])
        user = self.modules["bwmberry.fake_user"]
        self.assertIsNot(user.kernel, self.kernel)
        self.assertIs(user.TABLE["k"], self.modules["bwmberry.fake_kernels"].kernel)
        self.assertEqual(user.kernel(1) + user.TABLE["k"](2), 5)
        self.assertEqual([s.name for s in tracer.spans], ["fake.kernel", "fake.kernel"])

    def test_every_real_target_exists(self):
        missing = [
            f"{t.module}.{t.attr}"
            for t in spans.targets()
            if not callable(getattr(importlib.import_module(t.module), t.attr, None))
        ]
        self.assertEqual(missing, [])


def _run_program(command: str, config: dict, out_dir: Path) -> int:
    from bwmberry import cli

    cfg_path = out_dir / "config.json"
    cfg_path.write_text(json.dumps(config), encoding="utf-8")
    with redirect_stdout(io.StringIO()):
        return cli.main([command, "--config", str(cfg_path), "--out", str(out_dir)])


class OutputCheckTest(unittest.TestCase):
    BERRY = {"jobs": 1, "grids": {"berry_theta": [0.0, 0.6, 1.1], "berry_d": [1.3, 2.0, 3.5]}}
    FIGURE = {"jobs": 1, "figure_theta_points": 11, "figure_d_mesh": [1.0, 6.0, 5]}

    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.dir = Path(self.tmp.name)

    def tearDown(self):
        self.tmp.cleanup()

    def _check(self, command, config, rc=0):
        return check.check_outputs(workloads.expect(command, config), config, self.dir, rc, sample_seed=7)

    def _edit_report(self, name, edit):
        path = self.dir / name
        report = json.loads(path.read_text(encoding="utf-8"))
        edit(report)
        path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8")

    def test_berry_passes_then_rejects_tampering(self):
        self.assertEqual(_run_program("berry", self.BERRY, self.dir), 0)
        clean = self._check("berry", self.BERRY)
        self.assertEqual(clean.errors, [])
        self.assertEqual((clean.attempted, clean.failed), (9, 0))
        self.assertEqual(clean.skipped, {"closed_form_only": 3, "degenerate_spectrum": 2})
        self.assertEqual(self._check("berry", self.BERRY, rc=1).failed, 9)

        saved = (self.dir / "berry_report.json").read_text(encoding="utf-8")

        def fail_one(report):
            rec = next(r for r in report["checks"] if r["status"] == "pass")
            rec["status"] = "fail"
            report["summary"]["failed"] = 1

        def wrong_reason(report):
            rec = next(r for r in report["checks"] if r["reason"] == "degenerate_spectrum")
            rec["reason"] = "invalid_param"

        def wrong_closed(report):
            rec = next(r for r in report["checks"] if r["name"] == "berry.match_minus")
            rec["data"]["closed"] += 1e-9

        for edit in (fail_one, wrong_reason, wrong_closed):
            with self.subTest(edit=edit.__name__):
                (self.dir / "berry_report.json").write_text(saved, encoding="utf-8")
                self._edit_report("berry_report.json", edit)
                out = self._check("berry", self.BERRY)
                self.assertTrue(out.errors)
                self.assertEqual(out.failed, out.attempted)

    def test_figure_passes_then_rejects_corrupt_csv(self):
        self.assertEqual(_run_program("figure", self.FIGURE, self.dir), 0)
        clean = self._check("figure", self.FIGURE)
        self.assertEqual(clean.errors, [])
        self.assertEqual(clean.attempted, 11 * 5 + 11 * 5)
        self.assertEqual(set(clean.hashes), {"figure_report.json", "figure_sections.csv", "figure_surface.csv"})

        path = self.dir / "figure_surface.csv"
        lines = path.read_text(encoding="utf-8").split("\n")
        theta, d, gamma = lines[17].split(",")
        lines[17] = ",".join([theta, d, repr(float(gamma) + 1e-9)])
        path.write_text("\n".join(lines), encoding="utf-8")
        out = self._check("figure", self.FIGURE)
        self.assertTrue(any("row 17" in e for e in out.errors), out.errors)
        self.assertEqual(out.failed, out.attempted)

        path.write_text("\n".join(lines[:-2] + [""]), encoding="utf-8")
        self.assertTrue(any("rows, predicted" in e for e in self._check("figure", self.FIGURE).errors))

    def test_spectrum_and_verify_pass(self):
        spectrum = workloads.make_workload("spectrum_sweep", 3).config
        spectrum["grids"] = {k: v[:3] for k, v in spectrum["grids"].items()}
        spectrum["grids"]["d"].append(1.2)
        verify = workloads.make_workload("verify_sweep", 3).config
        verify.update(phase_pairs=2, ybe_samples=4)
        for command, config in (("spectrum", spectrum), ("verify", verify)):
            with self.subTest(command=command):
                self.assertEqual(_run_program(command, config, self.dir), 0)
                out = self._check(command, config)
                self.assertEqual(out.errors, [])
                self.assertEqual(out.attempted, workloads.expect(command, config).n_points)

    def test_report_hash_ignores_meta_only(self):
        report = {"checks": [1], "meta": {"timestamp": "t", "nested": {"a": 1}}, "schema": 1}
        text = json.dumps(report, indent=2, sort_keys=True).encode()
        other = copy.deepcopy(report)
        other["meta"]["timestamp"] = "u"
        bare = json.dumps({k: v for k, v in report.items() if k != "meta"}, indent=2, sort_keys=True).encode()
        self.assertEqual(check._without_meta(text), bare)
        self.assertEqual(check._without_meta(json.dumps(other, indent=2, sort_keys=True).encode()), bare)


class SeedTest(unittest.TestCase):
    def test_same_seed_same_config_other_seed_other_grid_same_counts(self):
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                a, b, c = (workloads.make_workload(name, s) for s in (5, 5, 6))
                self.assertEqual(json.dumps(a.config), json.dumps(b.config))
                ea, ec = workloads.expect(a.command, a.config), workloads.expect(c.command, c.config)
                self.assertEqual(ea.n_points, ec.n_points)
                self.assertEqual(ea.skip_counts(), ec.skip_counts())
                if name != "figure_surface":  # the figure surface has no random input
                    self.assertNotEqual(a.config["grids"], c.config["grids"])


class HostSpeedTest(unittest.TestCase):
    def test_trimmed_mean_cuts_a_tenth_from_each_end(self):
        self.assertEqual(hostspeed.trimmed_mean([1.0, 2.0, 3.0]), 2.0)
        self.assertEqual(hostspeed.trimmed_mean([100.0] + [1.0] * 8 + [-100.0]), 1.0)

    def test_a_host_twice_as_slow_reports_the_same_scaled_timings(self):
        def samples(slowdown: float) -> list[dict]:
            out = []
            for i in range(10):
                jitter = 1.0 + 0.01 * i
                out.append(
                    {
                        "reference_s": hostspeed.REFERENCE_S * slowdown * jitter,
                        "setup_s": 0.2 * slowdown * jitter,
                        "wall_s": 1.2 * slowdown * jitter,
                        "main_s": 0.8 * slowdown * jitter,
                        "peak_rss_mb": 40.0,
                        "outcome": check.Outcome(attempted=1000),
                    }
                )
            return out

        fast, slow = run.scaled_end_to_end(samples(1.0)), run.scaled_end_to_end(samples(2.0))
        self.assertEqual(set(fast), set(run.END_TO_END))
        for name in run.END_TO_END:
            self.assertAlmostEqual(fast[name], slow[name], delta=1e-9 * fast[name])
        self.assertAlmostEqual(fast["wall_s"], 1.2)
        self.assertAlmostEqual(fast["points_per_s"], 1000 / 0.8)

    def test_reference_takes_time(self):
        self.assertGreater(hostspeed.reference(), 0.0)


class ContractTest(unittest.TestCase):
    def test_benchmark_json_matches_the_runner(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        self.assertEqual(sorted(w["name"] for w in spec["workloads"]), sorted(workloads.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.PER_LAYER)

    def test_layer_metrics_cover_every_per_layer_name(self):
        outcome = check.Outcome(attempted=4, skipped={"invalid_param": 1})
        trace = [
            _span(1, "cli.main", 0.0, 10.0),
            _span(2, "cli.build_config", 0.0, 1.0, parent=1),
            _span(3, "cli.cmd", 1.0, 8.0, parent=1),
            _span(4, "cli.point", 1.0, 4.0, parent=3, point=1),
            _span(5, "berry.loop_eigenframes", 1.0, 2.0, parent=4, point=1, count=64),
            _span(6, "berry.loop_eigenframes", 2.0, 3.0, parent=4, point=1, count=32),
        ]
        m = run.layer_metrics(trace, outcome)
        self.assertEqual(set(m) | {"trace.overhead_s"}, set(run.PER_LAYER))
        self.assertEqual(m["berry.loop_steps_per_point"], 96)
        self.assertAlmostEqual(m["cli.report_write_s"], 2.0)
        self.assertAlmostEqual(m["cli.cmd.self_s"], 4.0 + 1.0)
        self.assertEqual(m["cli.skip_ratio"], 0.25)


if __name__ == "__main__":
    unittest.main()
