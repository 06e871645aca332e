"""Seeded workload inputs and what the benchmark expects the program to do with them.

A workload is a ``bwmberry`` subcommand plus a JSON config generated from
the workload seed.  ``expect(command, config)`` derives, from the config
alone, the points the run must evaluate and the skip reason (if any) the
program must give each of them; the output check compares the program's
report against that prediction.  Stdlib only: the runner must not import
numpy or the program.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

GOLDEN_RATIO = (1.0 + math.sqrt(5.0)) / 2.0

#: Loop values tabulated by ``figure`` as sections (the program's default).
SECTION_D_VALUES = (1.0, math.sqrt(2.0), 2.0, 3.0, 5.0)


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    config: dict


@dataclass(frozen=True)
class Expectation:
    """What a correct run of one config produces.

    ``points`` maps a point key to the skip reason predicted for it (None
    when the point must be evaluated).  For ``figure`` the points are CSV
    rows and are described by ``csv_rows`` instead (file name -> rows).
    """

    command: str
    points: dict
    csv_rows: dict

    @property
    def n_points(self) -> int:
        return len(self.points) + sum(self.csv_rows.values())

    def skip_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for reason in self.points.values():
            if reason is not None:
                counts[reason] = counts.get(reason, 0) + 1
        return counts


def _uniform(rng: random.Random, lo: float, hi: float, n: int) -> list[float]:
    return [rng.uniform(lo, hi) for _ in range(n)]


def berry_dense(seed: int) -> Workload:
    rng = random.Random(f"berry_dense/{seed}")
    # theta = 0 puts cos(alpha) at 0 (degenerate_spectrum); the two d values
    # below the golden ratio exist only in closed form (closed_form_only).
    thetas = [0.0] + _uniform(rng, 0.1, 3.0, 12)
    ds = _uniform(rng, 1.05, 1.55, 2) + _uniform(rng, 1.65, 5.0, 4)
    config = {"jobs": 2, "steps": 4096, "grids": {"berry_theta": thetas, "berry_d": ds}}
    return Workload("berry_dense", "berry", config)


def verify_sweep(seed: int) -> Workload:
    rng = random.Random(f"verify_sweep/{seed}")
    # q near 1 makes the skein weight vanish; keep the sampled q away from it.
    qs = _uniform(rng, 0.3, 0.8, 2) + _uniform(rng, 1.25, 3.0, 2)
    tla_ds = [GOLDEN_RATIO] + _uniform(rng, 1.65, 5.0, 4)
    config = {
        "jobs": 1,
        "seed": rng.randrange(2**31),
        "phase_pairs": 60,
        "ybe_samples": 2500,
        "grids": {"q": qs, "tla_d": tla_ds},
    }
    return Workload("verify_sweep", "verify", config)


def spectrum_sweep(seed: int) -> Workload:
    rng = random.Random(f"spectrum_sweep/{seed}")
    # Two d values below the golden ratio skip as invalid_param; they stay
    # under 1.35 so the ladder normalisation pole at d = sqrt(2) is never near.
    ds = _uniform(rng, 1.05, 1.35, 2) + _uniform(rng, 1.65, 6.0, 23)
    config = {
        "jobs": 1,
        "grids": {
            "theta": _uniform(rng, 0.0, 2.0 * math.pi, 40),
            "d": ds,
            "omega": _uniform(rng, 0.5, 2.0, 2),
            "phi": _uniform(rng, 0.0, 2.0 * math.pi, 3),
        },
    }
    return Workload("spectrum_sweep", "spectrum", config)


def figure_surface(seed: int) -> Workload:
    # No random input: the closed-form surface is fixed, the seed only picks
    # which CSV rows the output check samples.
    config = {"jobs": 1, "figure_theta_points": 601, "figure_d_mesh": [1.0, 6.0, 201]}
    return Workload("figure_surface", "figure", config)


WORKLOADS = {f.__name__: f for f in (berry_dense, verify_sweep, spectrum_sweep, figure_surface)}


def make_workload(name: str, seed: int) -> Workload:
    return WORKLOADS[name](seed)


def _key(*values: float) -> tuple:
    return tuple(float(v) for v in values)


def expect(command: str, config: dict) -> Expectation:
    grids = config.get("grids", {})
    points: dict = {}
    csv_rows: dict = {}
    if command == "berry":
        for d in grids["berry_d"]:
            for t in grids["berry_theta"]:
                if d < GOLDEN_RATIO - 1e-12:
                    reason = "closed_form_only"
                elif abs(2.0 * math.sin(t) * math.sqrt(d * d - 1.0) / (d * d)) <= 1e-6:
                    reason = "degenerate_spectrum"
                else:
                    reason = None
                points[("berry",) + _key(t, d)] = reason
    elif command == "spectrum":
        for d in grids["d"]:
            reason = "invalid_param" if d < GOLDEN_RATIO else None
            for t in grids["theta"]:
                points[("casimir",) + _key(t, d)] = reason
                for w in grids["omega"]:
                    for f in grids["phi"]:
                        points[("h",) + _key(t, d, w, f)] = reason
    elif command == "verify":
        # The phases are drawn inside the program from its seed, so only the
        # number of points per family can be predicted, not their keys.
        pairs = config["phase_pairs"]
        for family, grid in (("bwm", grids["q"]), ("tla", grids["tla_d"])):
            for i in range(len(grid) * pairs):
                points[(family, i)] = None
        # The program adds three fixed corner samples to the seeded ones.
        for i in range(3 + config["ybe_samples"]):
            points[("ybe", i)] = None
    elif command == "figure":
        n_theta = config["figure_theta_points"]
        csv_rows = {
            "figure_sections.csv": n_theta * len(SECTION_D_VALUES),
            "figure_surface.csv": n_theta * int(config["figure_d_mesh"][2]),
        }
    else:
        raise ValueError(f"unknown command {command!r}")
    return Expectation(command=command, points=points, csv_rows=csv_rows)
