"""The command line's knob table: grids, knobs, their validators and the argument parser.

A run's parameters resolve as defaults < config file < flags into one
``RunConfig``.  Every knob is a ``RunConfig`` field declared with ``_knob``,
which gives its default, validator, flag, help text and echo in one place;
``build_parser`` offers each knob as a flag and ``build_config`` reads it from
the flags and the config file alike.  A grid is set by ``--grid-spec`` or the
file's ``grids``.  Any value outside its knob's or grid's rule raises
``ConfigError``.

The table lives apart from ``cli`` because a run without bytecode compiles
each module from source, and the memory peak of that compile grows with the
module.
"""

from __future__ import annotations

import argparse
import json
import math
import os
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .algebra import GOLDEN_RATIO
from .berry import MIN_STEPS, SECTION_D_VALUES
from .errors import ConfigError

#: Grids accepted by --grid-spec and the config file, with their defaults.
DEFAULT_GRIDS: dict[str, tuple[float, ...]] = {
    "q": (0.5, 0.9, 1.3, 2.0),
    "tla_d": (GOLDEN_RATIO, 1.8, 2.0, 3.0, 5.0),
    "theta": (0.0, 0.4, math.pi / 6.0, 1.0, 2.2),
    "d": (1.7, 2.0, 3.0, 5.0),
    "omega": (0.5, 1.0),
    "phi": (0.0, 1.3),
    "ybe_beta": (0.3, 1.0),
    "ybe_d": (1.7, 1.9),
    "berry_theta": (0.3, 0.7, 1.2, 2.0),
    "berry_d": (1.0, math.sqrt(2.0), 1.7, 2.0, 3.0, 5.0),
    "figure_d": SECTION_D_VALUES,
}

GRID_NAMES = tuple(DEFAULT_GRIDS)

#: (rule, test) of the grids narrower than the finite numbers: closed forms need d >= 1, and
#: an exchange sample's real angles 0 < d < 2 (``SpectralParams``), so no value fails mid-run.
_GRID_RULES = {
    "figure_d": ("finite numbers >= 1", lambda x: x >= 1.0),
    "ybe_d": ("finite numbers in (0, 2)", lambda x: 0.0 < x < 2.0),
}

#: Largest accepted counts; ``MAX_AXIS_POINTS`` bounds ``--theta-points``, the
#: ``--d-mesh`` count and a grid range's count.  Each keeps one run's memory
#: bounded: a Berry loop holds about 1 kB per step, and figure holds one d row
#: of its table at a time, so its memory grows with the theta count alone.
MAX_STEPS = 2**17
MAX_PHASE_PAIRS = 10_000
MAX_YBE_SAMPLES = 100_000
MAX_AXIS_POINTS = 10_000
MAX_JOBS = 64


# --------------------------------------------------------------------------
# knob validators: each takes (name, value) and returns the normalised value
# --------------------------------------------------------------------------

def _real(value) -> bool:
    """A finite number; JSON booleans are not numbers here."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def _count(minimum: int, maximum: float = math.inf):
    def check(name: str, value) -> int:
        if isinstance(value, bool) or not isinstance(value, int) or not minimum <= value <= maximum:
            raise ConfigError(f"{name} must be an integer from {minimum} to {maximum}, got {value!r}")
        return value

    return check


def _d_mesh(name: str, value) -> tuple[float, float, int]:
    if not (isinstance(value, (list, tuple)) and len(value) == 3 and _real(value[0]) and _real(value[1])):
        raise ConfigError(f"{name} must be [min, max, count] with finite min and max, got {value!r}")
    if not 1 <= value[0] <= value[1]:
        raise ConfigError(f"{name} needs 1 <= min <= max, got {value!r}")
    return (float(value[0]), float(value[1]), _count(2, MAX_AXIS_POINTS)(f"{name} count", value[2]))


def _parse_range(text: str) -> tuple[float, float, int]:
    """Parse 'start:stop:count', the syntax of --grid-spec ranges and --d-mesh."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"a range needs start:stop:count, got {text!r}")
    return float(parts[0]), float(parts[1]), int(parts[2])


def _knob(default, check, flag, help, *, parse=None, metavar=None, echo=True, figure=False):
    """A RunConfig field that is both a config-file key and a flag.

    ``check`` validates flag and file values alike; ``parse`` turns flag text
    into a value (default: the type of ``default``); ``echo`` puts the value
    in the report's ``config``; ``figure`` offers the flag on ``figure`` only.
    """
    metavar = metavar or flag[2:].replace("-", "_").upper()
    metadata = dict(
        check=check, flag=flag, help=help, parse=parse or type(default), metavar=metavar, echo=echo, figure=figure
    )
    return field(default=default, metadata=metadata)


@dataclass
class RunConfig:
    """Fully resolved run parameters (defaults < config file < flags).

    Every field declared with ``_knob`` is a configuration knob: its
    default, validator, flag, help text and echo are declared here only.
    """

    command: str
    out_dir: Path
    steps: int = _knob(4096, _count(MIN_STEPS, MAX_STEPS), "--steps", "loop discretisation points")
    seed: int = _knob(20260815, _count(0), "--seed", "seed for sampled phases and velocities")
    jobs: int = _knob(1, _count(1, MAX_JOBS), "--jobs", "worker processes for grid evaluation", echo=False)
    phase_pairs: int = _knob(5, _count(0, MAX_PHASE_PAIRS), "--phase-pairs", "number of sampled (phi1, phi2) pairs")
    ybe_samples: int = _knob(200, _count(0, MAX_YBE_SAMPLES), "--ybe-samples", "number of sampled exchange tuples")
    figure_theta_points: int = _knob(
        401, _count(2, MAX_AXIS_POINTS), "--theta-points", "theta samples over [0, 2pi]", figure=True
    )
    figure_d_mesh: tuple[float, float, int] = _knob(
        (1.0, 6.0, 51), _d_mesh, "--d-mesh", "surface d mesh", parse=_parse_range, metavar="MIN:MAX:COUNT", figure=True
    )
    grids: dict[str, tuple[float, ...]] = field(default_factory=dict)
    #: Stage timings of the run (see ``report.timed``), written to the report's ``meta``.
    timings: dict[str, dict] = field(default_factory=dict)
    #: What the run left out of its input, for the report's ``warnings``.
    warnings: list[str] = field(default_factory=list)

    def grid(self, name: str) -> tuple[float, ...]:
        return self.grids.get(name, DEFAULT_GRIDS[name])

    def echo(self) -> dict:
        """Deterministic echo of the mathematically relevant configuration."""
        out = {f.name: getattr(self, f.name) for f in KNOBS if f.metadata["echo"]}
        out["grids"] = {name: self.grid(name) for name in GRID_NAMES}
        return out


#: The configuration knobs, in declaration order.
KNOBS = tuple(f for f in fields(RunConfig) if "check" in f.metadata)

_CONFIG_KEYS = {f.name for f in KNOBS} | {"out", "grids"}


# --------------------------------------------------------------------------
# resolving a run's configuration
# --------------------------------------------------------------------------

def _grid_values(name: str, values) -> tuple[float, ...]:
    """Validate one grid given as a number list, a comma list or a 'start:stop:count' range."""
    if name not in DEFAULT_GRIDS:
        raise ConfigError(f"unknown grid {name!r}; allowed: {list(GRID_NAMES)}")
    if isinstance(values, str):
        text = values.strip()
        try:
            if ":" in text:
                start, stop, count = _parse_range(text)
                if not 1 <= count <= MAX_AXIS_POINTS:
                    raise ValueError(f"range count must be from 1 to {MAX_AXIS_POINTS}, got {count}")
                with np.errstate(over="ignore", invalid="ignore"):  # the finiteness rule below refuses inf and nan
                    values = [float(x) for x in np.linspace(start, stop, count)]
            else:
                values = [float(tok) for tok in text.split(",")] if text else []
        except ValueError as exc:
            raise ConfigError(f"could not parse grid {name!r} from {text!r}: {exc}") from exc
    rule, admits = _GRID_RULES.get(name, ("finite numbers", lambda x: True))
    if not isinstance(values, list) or not all(_real(x) and admits(x) for x in values):
        raise ConfigError(f"grid {name!r} must be a list of {rule}, got {values!r}")
    return tuple(float(x) for x in values)


def _load_config_file(path: Path) -> dict:
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {path} is not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config file must hold a JSON object")
    unknown = set(raw) - _CONFIG_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}; allowed: {sorted(_CONFIG_KEYS)}")
    return raw


def build_config(args: argparse.Namespace) -> RunConfig:
    file_cfg = _load_config_file(args.config) if args.config else {}

    knobs = {}
    for f in KNOBS:
        check, text = f.metadata["check"], getattr(args, f.name, None)
        if f.name in file_cfg:
            knobs[f.name] = check(f.name, file_cfg[f.name])
        if text is not None:
            try:
                value = f.metadata["parse"](text)
            except ValueError as exc:
                raise ConfigError(f"cannot parse {f.metadata['flag']} {text!r}: {exc}") from exc
            knobs[f.name] = check(f.name, value)

    file_grids = file_cfg.get("grids", {})
    if not isinstance(file_grids, dict):
        raise ConfigError("'grids' must be an object mapping grid names to value lists")
    grids = {name: _grid_values(name, values) for name, values in file_grids.items()}
    for spec in args.grid_spec:
        name, sep, values = spec.partition("=")
        if not sep:
            raise ConfigError(f"--grid-spec needs NAME=VALUES, got {spec!r}")
        grids[name.strip()] = _grid_values(name.strip(), values)

    out = file_cfg.get("out")
    if out is not None and not isinstance(out, str):
        raise ConfigError(f"out must be a path string, got {out!r}")
    if args.out is not None:
        out = args.out
    elif out is None:
        out = os.environ.get("BWMBERRY_OUT", ".")
    return RunConfig(command=args.command, out_dir=Path(out), grids=grids, **knobs)


def _show(default) -> str:
    if isinstance(default, tuple):
        return ":".join(_show(x) for x in default)
    return f"{default:g}" if isinstance(default, float) else str(default)


def _add_knob_flags(parser: argparse.ArgumentParser, figure: bool) -> None:
    for f in KNOBS:
        m = f.metadata
        if m["figure"] == figure:
            parser.add_argument(
                m["flag"], dest=f.name, metavar=m["metavar"], help=f"{m['help']} (default {_show(f.default)})"
            )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bwmberry",
        description="Verification suites and loop-phase computations for the rank-3 braid representation.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", type=Path, help="JSON config file; flags take precedence over it")
    _add_knob_flags(common, figure=False)
    common.add_argument("--out", type=Path, help="output directory (default $BWMBERRY_OUT or '.')")
    common.add_argument(
        "--grid-spec",
        action="append",
        default=[],
        metavar="NAME=VALUES",
        help="override a grid: comma list '0.5,0.9' or range 'start:stop:count'; "
        f"names: {', '.join(GRID_NAMES)}",
    )

    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("verify", parents=[common], help="algebra relation suites and exchange sweeps")
    sub.add_parser("spectrum", parents=[common], help="driven-Hamiltonian and Casimir spectra")
    sub.add_parser("berry", parents=[common], help="Wilson-loop phases against closed forms")
    fig = sub.add_parser("figure", parents=[common], help="CSV tables of the closed-form phase")
    _add_knob_flags(fig, figure=True)
    return parser
