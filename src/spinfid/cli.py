"""Batch command-line front end.

Six subcommands drive the library: `fidelity` (one configuration), `sweep`
(exact vs predicted fidelity over a size range), `scaling` (tabulate a
scaling function), `crossover` (slope curves and crossover fits), `quench`
(excitation density), and `verify` (closed-form residuals).  Every run writes
one CSV or JSON artifact carrying a manifest (resolved configuration, tool
version, wall time) so the run is reproducible from its own output; the data
section is byte-identical across repeated runs and across parallelism
settings.  Exit codes: 0 success, 2 invalid configuration, 3 numerical
failure, 4 I/O failure.

Numbers are read in two places: `_numbers` reads the `:` grids and the `,`
list, and argparse types made by `_arg` read the scalar flags.  Real numbers
must be finite; counts and steps are whole; `--N` is even and >= 2,
`--per-decade` >= 1 and `--parallelism` >= 0.  Anything else exits 2, as
do a chain length the momentum grid refuses (above 2^40) and a grid of more
than MAX_GRID_POINTS = 10^5 points, counted before it is built.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import asdict, fields
from datetime import datetime, timezone
from multiprocessing import Pool, cpu_count
from typing import Any, Callable, Optional

import numpy as np

from . import __version__
from .crossover import (
    DEFAULT_TARGETS,
    SCAN_PATHS,
    even_size,
    find_slope_crossing,
    log_grid,
    powerlaw_fit,
    sweep_lnF,
)
from .errors import ConfigError, DomainError, NumericsError, SpinfidError
from .fidelity import fidelity_product
from .models import ExtIsingPath, PathA, PathB, PathC, PathD, PathSpec, resolve_path
from .quench import excitation_density
from .scaling import (
    predict_lnF,
    scaling_A,
    scaling_A_mcp,
    scaling_A_mps,
    scaling_B,
    scaling_dB_dc_near1,
)
from .verify import residual

_SCALING_FUNCS: dict[str, Callable[[float], float]] = {
    "A": scaling_A,
    "A_mcp": scaling_A_mcp,
    "A_mps": scaling_A_mps,
    "B": scaling_B,
    "dB_dc_near1": scaling_dB_dc_near1,
}


def _fmt(v: Any) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return "%.17g" % v
    return str(v)


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ConfigError(msg)


def _numbers(text: str, name: str, form: str, types: tuple, counts: tuple = ()) -> list:
    """The numbers of `text`, the value of flag `name`, which must read as `form`.

    With `counts` the text is `:`-separated into one of `counts` parts, part i read by
    types[i]; without, it is a `,`-list of one or more parts read by types[0], blank
    parts skipped.  A wrong part count, a part its type does not read or a number that is
    not finite is a ConfigError.
    """
    if counts:
        parts = text.split(":")
        shaped = len(parts) in counts
    else:
        parts = [p for p in text.split(",") if p.strip()]
        types, shaped = types * len(parts), bool(parts)
    _require(shaped, f"{name} must be {form}, got {text!r}")
    try:
        values = [convert(p) for convert, p in zip(types, parts)]
        if not all(map(math.isfinite, values)):  # an int past float range overflows here
            raise ValueError("numbers must be finite")
    except (ValueError, OverflowError) as exc:
        raise ConfigError(f"bad {name} {text!r}: {exc}") from None
    return values


def _arg(convert: Callable[[str], Any], ok: Callable[[Any], bool],
         wording: str) -> Callable[[str], Any]:
    """argparse type of a scalar flag: `convert` its text, and exit 2 unless the value
    satisfies `ok`, saying it must be `wording`."""
    def read(text: str) -> Any:
        try:
            value = convert(text)
            if ok(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"must be {wording}, got {text!r}")
    return read


_NUMBER = _arg(float, math.isfinite, "a finite number")
_EVEN_SIZE = _arg(int, lambda n: n >= 2 and n % 2 == 0, "an even integer >= 2")


#: the most points a grid flag may ask for, checked before the grid is built
MAX_GRID_POINTS = 10 ** 5


def _bounded(points: float, name: str) -> None:
    _require(points <= MAX_GRID_POINTS,
             f"{name} asks for {points:g} points; a grid holds at most {MAX_GRID_POINTS}")


def _c_grid(text: str) -> list[float]:
    """The --c-range grid start:stop:count, count >= 2 points."""
    lo, hi, n = _numbers(text, "--c-range", "start:stop:count", (float, float, int), (3,))
    _require(n >= 2, "--c-range needs count >= 2")
    _bounded(n, "--c-range")
    return np.linspace(lo, hi, n).tolist()


def _log_range(cfg: dict) -> list[float]:
    """The --range log grid: lo:hi at --per-decade points (default 20), or lo:hi:count."""
    lo, hi, *count = _numbers(cfg["range"], "--range", "lo:hi or lo:hi:count",
                              (float, float, int), (2, 3))
    _require(0.0 < lo < hi, "--range needs 0 < lo < hi")
    if not count:
        per_decade = cfg["per_decade"] or 20
        _bounded(math.log10(hi / lo) * per_decade + 1, "--range")  # log_grid's count
        return log_grid(lo, hi, per_decade).tolist()
    _require(cfg["per_decade"] is None, "--per-decade is not read when --range gives a count")
    _require(count[0] >= 3, "--range needs count >= 3")
    _bounded(count[0], "--range")
    return np.logspace(math.log10(lo), math.log10(hi), count[0]).tolist()


_PATHS: dict[str, type] = {"A": PathA, "B": PathB, "C": PathC, "D": PathD, "ext": ExtIsingPath}
_PATH_FLAGS = tuple(dict.fromkeys(f.name for cls in _PATHS.values() for f in fields(cls)))
_C_RANGE = ("c",)  # the path quantity a --c-range grid supplies


def _path_flags(cfg: dict, mode: str, path: type, grid: tuple = (), extra: tuple = ()) -> dict:
    """The flag values a command needs, by name: the fields of the path it builds plus
    `extra`, less the quantities its `grid` supplies.  A needed flag left unset, or a path
    flag or one of `extra` set though not needed, is a ConfigError naming `mode`."""
    needed = [n for n in (*extra, *(f.name for f in fields(path))) if n not in grid]
    missing = ", ".join(f"--{n}" for n in needed if cfg[n] is None)
    _require(not missing, f"{mode} needs {missing}")
    unread = ", ".join(f"--{n}" for n in (*extra, *_PATH_FLAGS)
                       if n not in needed and cfg.get(n) is not None)
    _require(not unread, f"{mode} does not read {unread}")
    return {n: cfg[n] for n in needed}


def _add_path_flags(p: argparse.ArgumentParser, modes: list[tuple[type, tuple]]) -> None:
    """Declare --<field> for each path field a command's modes read, required when every
    mode reads it.  A mode is a (path class, quantities its grid supplies) pair."""
    reads = [[f.name for f in fields(path) if f.name not in grid] for path, grid in modes]
    for name in dict.fromkeys(n for r in reads for n in r):
        p.add_argument(f"--{name}", type=_NUMBER, required=all(name in r for r in reads))


def build_path_spec(cfg: dict) -> PathSpec:
    """Construct the --path spec from the flags its dataclass fields name."""
    path = _PATHS[cfg["path"]]
    return path(**_path_flags(cfg, f"path {cfg['path']}", path))


# ---------------------------------------------------------------------------
# row workers (module level so a fork-based pool can pickle them)

def _fidelity_row(args: tuple[PathSpec, int]) -> dict:
    spec, N = args
    p1, p2 = resolve_path(spec)
    res = fidelity_product(p1, p2, N)
    pred = predict_lnF(spec, N)
    return {
        "N": N,
        "lnF": res.lnF,
        "F": res.F,
        "exact_zero": res.exact_zero,
        "pred_lnF_per_site": pred.lnF_per_site,
        "pred_F": math.exp(N * pred.lnF_per_site) if math.isfinite(pred.lnF_per_site) else 0.0,
        "prefactor": pred.prefactor,
        "oscillatory": pred.oscillatory,
        "formula": pred.formula_id,
        "validity": json.dumps(pred.validity, sort_keys=True),
    }


def _scaling_row(args: tuple[str, float]) -> dict:
    fname, c = args
    return {"c": c, "value": _SCALING_FUNCS[fname](c)}


def _quench_row(args: tuple[PathA, int, bool]) -> dict:
    spec, N, with_integral = args
    res = excitation_density(spec.gamma, spec.delta, spec.c, N, with_integral=with_integral)
    row = {
        "c": spec.c,
        "n_ex": res.n_ex,
        "n_ex_integral": res.n_ex_integral if res.n_ex_integral is not None else float("nan"),
        "nex_over_delta": res.n_ex / abs(spec.delta),
        "B_c": scaling_B(spec.c),
        "survival": res.survival,
    }
    return row


def _verify_row(args: tuple[type, dict, float]) -> dict:
    path, flags, c = args
    s = residual(path(**flags, c=c))
    return {n: getattr(s, n) for n in (*flags, "c", "E", "normalized", "order")}


def _crossover_point(args: tuple[dict, str, float]) -> dict:
    """One crossing at value v of the listed quantity `key`: N (rounded to even) or delta."""
    cfg, key, v = args
    v = even_size(v) if key == "N" else v
    sw = sweep_lnF(cfg["scan"], cfg["_grid"], **cfg["_flags"], **{key: v})
    try:
        cr = sw.crossing(cfg["target"])
    except DomainError:  # the slope never reaches the target: a result, not a bad config
        return {"sweep_value": float(v), "crossing": None, "multiple": None}
    return {"sweep_value": float(v), "crossing": cr.x, "multiple": cr.multiple}


def _map_ordered(fn: Callable, tasks: list, parallelism: int) -> list:
    if parallelism == 0:
        parallelism = cpu_count()
    if parallelism <= 1 or len(tasks) <= 1:
        return [fn(t) for t in tasks]
    with Pool(processes=min(parallelism, len(tasks))) as pool:
        return pool.map(fn, tasks)


# ---------------------------------------------------------------------------
# commands

def _cmd_fidelity(cfg: dict) -> tuple[list[dict], dict]:
    return [_fidelity_row((build_path_spec(cfg), cfg["N"]))], {}


def _cmd_sweep(cfg: dict) -> tuple[list[dict], dict]:
    lo, hi, step = _numbers(cfg["N_range"], "--N-range", "start:stop:step", (int, int, int), (3,))
    _require(0 < lo <= hi and step > 0, "--N-range needs 0 < start <= stop and step > 0")
    _bounded((hi - lo) // step + 1, "--N-range")  # len(range(...)), which overflows past 2^63
    Ns = [n for n in range(lo, hi + 1, step) if n % 2 == 0]
    _require(len(Ns) >= 1, "--N-range contains no even sizes")
    spec = build_path_spec(cfg)
    rows = _map_ordered(_fidelity_row, [(spec, n) for n in Ns], cfg["parallelism"])
    return rows, {}


def _cmd_scaling(cfg: dict) -> tuple[list[dict], dict]:
    rows = _map_ordered(_scaling_row, [(cfg["function"], c) for c in _c_grid(cfg["c_range"])],
                        cfg["parallelism"])
    return rows, {}


def _cmd_quench(cfg: dict) -> tuple[list[dict], dict]:
    grid = _C_RANGE if cfg["c_range"] is not None else ()
    flags = _path_flags(cfg, "quench", PathA, grid)
    cs = _c_grid(cfg["c_range"]) if grid else [flags["c"]]
    tasks = [(PathA(**dict(flags, c=c)), cfg["N"], not cfg["no_integral"]) for c in cs]
    return _map_ordered(_quench_row, tasks, cfg["parallelism"]), {}


def _cmd_verify(cfg: dict) -> tuple[list[dict], dict]:
    path = _PATHS[cfg["which"].removeprefix("path")]
    flags = _path_flags(cfg, f"verify {cfg['which']}", path, _C_RANGE)
    rows = _map_ordered(_verify_row, [(path, flags, c) for c in _c_grid(cfg["c_range"])],
                        cfg["parallelism"])
    return rows, {}


def _cmd_crossover(cfg: dict) -> tuple[list[dict], dict]:
    scan = cfg["scan"]
    listing = cfg["sweep_list"] is not None  # an empty list is read, and rejected
    # --range gives the scanned quantity; --sweep-list gives N, or delta on N scans
    listed = "delta" if scan == "N" else "N"
    mode = f"--scan {scan} with --sweep-list" if listing else f"--scan {scan}"
    flags = _path_flags(cfg, mode, SCAN_PATHS[scan], (scan, listed) if listing else (scan,),
                        extra=("N",))
    target = DEFAULT_TARGETS[scan] if cfg["target"] is None else cfg["target"]
    cfg = dict(cfg, target=target, _grid=_log_range(cfg), _flags=flags)
    extras: dict = {"target": target}

    if listing:
        vals = _numbers(cfg["sweep_list"], "--sweep-list", "a comma list of numbers", (float,))
        rows = _map_ordered(_crossover_point, [(cfg, listed, v) for v in vals],
                            cfg["parallelism"])
        points = [(r["sweep_value"], r["crossing"]) for r in rows if r["crossing"] is not None]
        if len(points) >= 3:
            extras["fit"] = asdict(powerlaw_fit(points))
        return rows, extras

    # single sweep: emit the slope curve itself
    sw = sweep_lnF(scan, cfg["_grid"], **flags)
    rows = [{scan: v.item(), "minus_lnF": float(y), "slope": float(s)}
            for v, y, s in zip(sw.values, sw.minus_lnF, sw.slopes)]
    try:
        cr = find_slope_crossing(sw.curve, target)
        extras["crossing_ln"] = cr.x
        extras["crossing"] = sw.value_at(cr.x)
        extras["crossing_multiple"] = cr.multiple
    except SpinfidError:
        extras["crossing"] = None
    return rows, extras


_COMMANDS = {
    "fidelity": _cmd_fidelity,
    "sweep": _cmd_sweep,
    "scaling": _cmd_scaling,
    "crossover": _cmd_crossover,
    "quench": _cmd_quench,
    "verify": _cmd_verify,
}


# ---------------------------------------------------------------------------
# output

def _emit_csv(rows: list[dict], config: dict, manifest: dict) -> str:
    lines = [f"# manifest: {json.dumps(manifest, sort_keys=True)}",
             f"# config: {json.dumps(config, sort_keys=True)}"]
    if rows:
        cols = list(rows[0].keys())
        lines.append(",".join(cols))
        for r in rows:
            lines.append(",".join(_fmt(r.get(cn)) for cn in cols))
    return "\n".join(lines) + "\n"


def _emit_json(rows: list[dict], config: dict, manifest: dict) -> str:
    return json.dumps({"config": config, "manifest": manifest, "rows": rows},
                      sort_keys=False, indent=1) + "\n"


def _public_config(cfg: dict) -> dict:
    return {k: v for k, v in sorted(cfg.items())
            if not k.startswith("_") and v is not None and k != "output"}


def run(cfg: dict) -> str:
    """Execute one parsed configuration; returns the artifact text."""
    t0 = time.perf_counter()
    rows, extras = _COMMANDS[cfg["command"]](cfg)
    wall = time.perf_counter() - t0
    manifest = {
        "tool": "spinfid",
        "version": __version__,
        "created_utc": datetime.now(timezone.utc).isoformat(),
        "wall_time_s": wall,
    }
    if extras:
        manifest["result"] = extras
    config = _public_config(cfg)
    return (_emit_json if cfg["format"] == "json" else _emit_csv)(rows, config, manifest)


def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The full parser and, by name, the subcommand parsers."""
    ap = argparse.ArgumentParser(prog="spinfid",
                                 description="Ground-state fidelity of free-fermion spin chains")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--output", help="output file (default stdout)")
        p.add_argument("--format", choices=["csv", "json"], default="csv")
        p.add_argument("--config", help="JSON object of flag values keyed by flag dest "
                                        "(c_range for --c-range), typed and checked like "
                                        "flags; explicit flags win")
        p.add_argument("--parallelism", type=_arg(int, lambda n: n >= 0, "an integer >= 0"),
                       default=1,
                       help="worker processes for grid points (0 = auto, default 1)")

    def path_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--path", choices=list(_PATHS), required=True)
        _add_path_flags(p, [(path, ()) for path in _PATHS.values()])

    p = sub.add_parser("fidelity", help="exact fidelity and prediction at one size")
    common(p); path_flags(p)
    p.add_argument("--N", type=_EVEN_SIZE, required=True)

    p = sub.add_parser("sweep", help="exact vs predicted fidelity over a size range")
    common(p); path_flags(p)
    p.add_argument("--N-range", required=True, help="start:stop:step (even sizes kept)")

    p = sub.add_parser("scaling", help="tabulate a scaling function")
    common(p)
    p.add_argument("--function", choices=sorted(_SCALING_FUNCS), required=True)
    p.add_argument("--c-range", required=True, help="start:stop:count")

    p = sub.add_parser("crossover", help="slope curves and crossover scales")
    common(p)
    p.add_argument("--scan", choices=list(SCAN_PATHS), required=True)
    p.add_argument("--range", required=True,
                   help="lo:hi[:count] log grid for the scanned variable")
    p.add_argument("--per-decade", type=_arg(int, lambda n: n >= 1, "an integer >= 1"))
    p.add_argument("--target", type=_NUMBER)
    p.add_argument("--sweep-list",
                   help="comma list of fixed values (N for gamma/delta scans, delta for N scans); "
                        "emits crossing per value plus a power-law fit")
    p.add_argument("--N", type=_EVEN_SIZE)
    _add_path_flags(p, [(path, (scan,)) for scan, path in SCAN_PATHS.items()])

    p = sub.add_parser("quench", help="excitation density after a sudden shift")
    common(p)
    _add_path_flags(p, [(PathA, ()), (PathA, _C_RANGE)])
    p.add_argument("--c-range")
    p.add_argument("--N", type=_EVEN_SIZE, required=True)
    p.add_argument("--no-integral", action="store_true", default=None)

    p = sub.add_parser("verify", help="residuals of the closed-form rates")
    common(p)
    p.add_argument("--which", choices=[f"path{name}" for name in _PATHS], required=True)
    _add_path_flags(p, [(path, _C_RANGE) for path in _PATHS.values()])
    p.add_argument("--c-range", required=True)

    return ap, sub.choices


def _with_config(parser: argparse.ArgumentParser, argv: list[str]) -> list[str]:
    """`argv` with its --config JSON object expanded into flags ahead of the explicit ones.

    A key is a flag's dest; true gives the bare flag, false and null drop the
    key, and a `command` key must name the subcommand `argv[0]`.
    """
    # without abbreviations, so that --c is not read as --config
    pre = argparse.ArgumentParser(prog=parser.prog, add_help=False, allow_abbrev=False)
    pre.add_argument("--config")
    known, rest = pre.parse_known_args(argv[1:])
    if known.config is None:
        return argv
    try:
        with open(known.config, "r", encoding="utf-8") as fh:
            loaded = json.load(fh)
    except OSError as exc:
        parser.error(f"cannot read config file: {exc}")
    except json.JSONDecodeError as exc:
        parser.error(f"config file is not valid JSON: {exc}")
    if not isinstance(loaded, dict):
        parser.error("config file must hold a JSON object")
    if loaded.pop("command", argv[0]) != argv[0]:
        parser.error(f"config file is for another command, not {argv[0]!r}")
    flags = {a.dest: a.option_strings[0] for a in parser._actions
             if a.option_strings and a.dest not in ("help", "config")}
    expanded = []
    for key, value in loaded.items():
        if key not in flags:
            parser.error(f"config file: unknown key {key!r}")
        if isinstance(value, (list, dict)):
            parser.error(f"config file: {key!r} must be a string, number or boolean")
        if value is True:
            expanded.append(flags[key])
        elif value is not False and value is not None:
            expanded.append(f"{flags[key]}={value}")
    return argv[:1] + expanded + rest


def _preprocess_argv(parser: argparse.ArgumentParser, argv: list[str]) -> list[str]:
    """Join each of `parser`'s value-taking flags to a following value that starts with '-'
    (ranges like -3:3:601)."""
    takes_value = {s for a in parser._actions if a.nargs != 0 for s in a.option_strings}
    out: list[str] = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in takes_value and i + 1 < len(argv) and argv[i + 1].startswith("-"):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv: Optional[list[str]] = None) -> int:
    ap, parsers = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        if argv and argv[0] in parsers:
            argv = _with_config(parsers[argv[0]], _preprocess_argv(parsers[argv[0]], argv))
        cfg = vars(ap.parse_args(argv))
        if cfg["config"] is not None:  # an abbreviation the pre-scan did not see
            parsers[cfg["command"]].error("write --config in full")
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        text = run(cfg)
    except NumericsError as exc:
        print(f"spinfid: numerical failure: {exc}", file=sys.stderr)
        return 3
    except SpinfidError as exc:
        print(f"spinfid: invalid configuration: {exc}", file=sys.stderr)
        return 2
    out = cfg["output"]
    try:
        if out:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except OSError as exc:
        print(f"spinfid: cannot write output: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
