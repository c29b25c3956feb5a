"""spinfid benchmark driver.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``./src`` and nowhere else.  The workload's batches repeat, each on fresh
seeded inputs, until the next one would overrun ``--seconds``.  With
``--trace 0`` the last stdout line is a JSON object with the end-to-end
metrics; with ``--trace 1`` untraced and traced batches alternate and it
holds the per-layer metrics instead, plus the tracing overhead.  Lines before
it describe the run environment and each metric in words.  ``--workload all``
runs the four workloads one after another, each in its own process.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from typing import NoReturn

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")

NAMES = ("sweep", "quadrature", "oracle", "cli")

END_TO_END = {
    "wall_s": "s",
    "point_ms_p50": "ms",
    "point_ms_tail": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "models.kernel_ns_per_mode": "ns",
    "models.modes": "count",
    "models.kernel_calls": "count",
    "fidelity.product_calls": "count",
    "fidelity.product_ns_per_mode": "ns",
    "fidelity.product_overhead_ms": "ms",
    "fidelity.integral_calls": "count",
    "fidelity.integral_ms_p50": "ms",
    "fidelity.integrand_evals": "count",
    "fidelity.integrand_us_per_eval": "us",
    "scaling.closed_form_us": "us",
    "scaling.quadrature_ms": "ms",
    "scaling.share_pct": "%",
    "specfun.elliptic_us": "us",
    "quench.excitation_density_ms": "ms",
    "quench.excitation_density_ms.no_integral": "ms",
    "verify.residual_ms_p50": "ms",
    "crossover.crossing_ms": "ms",
    "crossover.products_per_crossing": "count",
    "oracle.ground_state_ms.N10": "ms",
    "oracle.ground_state_ms.N12": "ms",
    "oracle.block_dim_sum": "count",
    "oracle.block_dim_max": "count",
    "oracle.accept_ratio": "ratio",
    "cli.import_s": "s",
    "cli.process_ms_p50": "ms",
    "cli.workers_used": "count",
    "cli.run_overhead_ms": "ms",
    "trace.overhead_s": "s",
    "trace.overhead_pct": "%",
}

SETUP_SAMPLES = {"full": 5, "tiny": 1}
MIN_BATCHES = {"full": 3, "tiny": 1}
MIN_TRACED_BATCHES = {"full": 2, "tiny": 1}


def fail(msg: str) -> NoReturn:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def import_package():
    """Import spinfid from ./src of the checkout, refusing any other copy."""
    if not os.path.isfile(os.path.join(SRC, "spinfid", "__init__.py")):
        fail(f"no spinfid sources under {SRC}; run from the root of a checkout")
    sys.path.insert(0, SRC)
    import spinfid
    if os.path.dirname(os.path.dirname(os.path.abspath(spinfid.__file__))) != SRC:
        fail(f"imported spinfid from {spinfid.__file__}, not from {SRC}")
    return spinfid


# ---------------------------------------------------------------------------
# run environment

def _blas_threads() -> dict:
    """Threads each bundled OpenBLAS would use, queried from the library itself."""
    import numpy
    import scipy
    out = {}
    for pkg, syms in ((numpy, ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                               "openblas_get_num_threads")),
                      (scipy, ("scipy_openblas_get_num_threads", "openblas_get_num_threads"))):
        libdir = os.path.join(os.path.dirname(os.path.dirname(pkg.__file__)), pkg.__name__ + ".libs")
        for path in sorted(glob.glob(os.path.join(libdir, "*openblas*"))):
            lib = ctypes.CDLL(path)
            for sym in syms:
                fn = getattr(lib, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    out[pkg.__name__] = fn()
                    break
    return out


def _blas_info(pkg) -> dict:
    try:
        blas = pkg.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError, ValueError):
        return {}
    return {k: blas.get(k) for k in ("name", "version")}


def _cache_sizes() -> dict:
    # glibc sysconf names: _SC_LEVEL1_DCACHE_SIZE, _SC_LEVEL2_CACHE_SIZE, _SC_LEVEL3_CACHE_SIZE
    out = {}
    for label, key in (("L1d", 188), ("L2", 191), ("L3", 194)):
        try:
            v = os.sysconf(key)
        except (ValueError, OSError):
            continue
        if v > 0:
            out[label] = v
    return out


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "spinfid", "*.py"))):
        h.update(os.path.basename(path).encode())
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()[:16]


def _commit() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def environment(seed: int, workload: str, trace: int, seconds: float, size: str) -> dict:
    import numpy
    import scipy
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace, "size": size,
        "commit": _commit(), "source_sha256": _source_digest(),
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "cache_bytes": _cache_sizes(), "machine": platform.machine(),
        "python": platform.python_version(), "numpy": numpy.__version__, "scipy": scipy.__version__,
        "blas": {"numpy": _blas_info(numpy), "scipy": _blas_info(scipy)},
        "blas_threads": _blas_threads(),
    }


# ---------------------------------------------------------------------------
# measurement

def setup_seconds(workload: str, samples: int) -> float:
    """Median over fresh interpreters of import spinfid plus first calls."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    vals = []
    for _ in range(samples):
        out = subprocess.run([sys.executable, os.path.join(HERE, "setup_probe.py"), workload],
                             cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
        if out.returncode != 0:
            fail(f"set-up probe failed:\n{out.stderr.strip()[-2000:]}")
        vals.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(vals)


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Latency at the highest percentile with at least ten samples beyond it."""
    xs = sorted(latencies)
    n = len(xs)
    i = n - 11 if n > 10 else n - 1  # fewer than eleven samples: the maximum
    return xs[i], 100.0 * (i + 1) / n, n


def run_batches(wl, seed: int, seconds: float, min_batches: int, tracer=None, package=None):
    """Run batches until the next would overrun `seconds`.

    With a tracer, odd-numbered batches run with it installed on `package`.
    Returns (untraced batches, traced batches, traced root span indices).
    """
    plain, traced, roots = [], [], []
    t0 = time.perf_counter()
    b = 0
    while True:
        if tracer is not None and b % 2 == 1:
            wl.ctx.tracer = tracer
            tracer.install(package)
            try:
                with tracer.span("batch") as sp:
                    traced.append(wl.batch(seed, b))
            finally:
                tracer.uninstall()
                wl.ctx.tracer = None
            roots.append(sp.index)
        else:
            plain.append(wl.batch(seed, b))
        b += 1
        walls = [x.wall_s for x in plain + traced]
        done = len(traced if tracer is not None else plain) >= min_batches
        if done and time.perf_counter() - t0 + statistics.median(walls) > seconds:
            return plain, traced, roots


def end_to_end(batches, setup_s: float, peak_kb: int) -> tuple[dict, list[str]]:
    lat = [t for b in batches for t, _ in b.points]
    tail_ms, pct, n = tail(lat)
    metrics = {
        "wall_s": statistics.median(b.wall_s for b in batches),
        "point_ms_p50": statistics.median(lat) * 1e3,
        "point_ms_tail": tail_ms * 1e3,
        "setup_s": setup_s,
        "peak_rss_mb": peak_kb / 1024.0,
    }
    notes = [f"point_ms_tail is p{pct:.1f} of {n} points", f"batches {len(batches)}"]
    return metrics, notes


def probe(tracer, package, ctx, seed: int) -> tuple[int, float]:
    """Exercise every layer once at a small fixed size, under the tracer.

    Fills the per-layer metrics of layers the workload itself never calls, so
    every traced run reports every layer.  Returns the probe's root span and
    the share of its oracle pairs that passed the rejection rule.
    """
    import numpy as np

    from workloads import Cli
    sf = package
    rng = np.random.default_rng([seed, 1 << 20])
    c = float(rng.uniform(0.2, 0.8))
    sf.ed_ground_state(sf.XYParams(0.5, 0.5), 4)  # first-call set-up stays out of the probe
    tracer.install(package)
    ctx.tracer = tracer
    try:
        with tracer.span("probe") as sp:
            sf.fidelity_product(*sf.resolve_path(sf.PathA(1.0, 1e-3, c)), 20_000)
            sf.residual_pathA(1.0, 1e-3, c)
            sf.scaling_A_quadrature(c)
            sf.excitation_density(1.0, 1e-3, c, 4_000, with_integral=True)
            sf.shift_crossing(1_000, 1.0, np.logspace(-10.0, -3.0, 141))
            pa, pb = sf.XYParams(1.2 + 0.1 * c, 0.8), sf.XYParams(1.3 + 0.1 * c, 0.6)
            accepted = 0
            for N in (10, 12):
                sa, sb = sf.ed_ground_state(pa, N), sf.ed_ground_state(pb, N)
                if min(sa.gap, sb.gap) > 1e-8 and sa.parity == sb.parity == 1:
                    accepted += 1
                    sf.ed_overlap(sa, sb)
                    sf.fidelity_product(pa, pb, N)
            Cli(ctx).run(["sweep", "--path", "A", "--gamma", "1", "--delta", "1e-3", "--c", repr(c),
                          "--N-range", "1000:1600:200", "--parallelism", "2"])
    finally:
        ctx.tracer = None
        tracer.uninstall()
    return sp.index, accepted / 2


def per_layer(tracer, wl, seed: int, plain, traced, roots, package):
    from tracing import SpanView, cli_metrics, layer_metrics, self_ms
    ctx = wl.ctx
    wall_ns = sum(tracer.spans[i][2] - tracer.spans[i][1] for i in roots)
    view = SpanView(tracer.spans, roots)
    selfs = self_ms(view)
    m = layer_metrics(view, len(roots), wall_ns)
    m.update(cli_metrics(view, len(roots), ctx.cli_import_s, ctx.cli_process_ms))
    sampled = sum(b.stats.get("sampled", 0) for b in traced)
    m["oracle.accept_ratio"] = (sum(b.stats.get("accepted", 0) for b in traced) / sampled
                                if sampled else None)
    missing = sorted(k for k, v in m.items() if v is None)
    if missing:
        ctx.cli_import_s.clear()
        ctx.cli_process_ms.clear()
        root, accept_ratio = probe(tracer, package, ctx, seed)
        pview = SpanView(tracer.spans, [root])
        pwall = tracer.spans[root][2] - tracer.spans[root][1]
        pm = layer_metrics(pview, 1, pwall)
        pm.update(cli_metrics(pview, 1, ctx.cli_import_s, ctx.cli_process_ms))
        pm["oracle.accept_ratio"] = accept_ratio
        for k in missing:
            m[k] = pm.get(k)
    p = statistics.median(b.wall_s for b in plain)
    t = statistics.median(b.wall_s for b in traced)
    m["trace.overhead_s"] = t - p
    m["trace.overhead_pct"] = 100.0 * (t - p) / p
    unfilled = sorted(k for k, v in m.items() if v is None)
    for k in unfilled:
        m[k] = 0.0
    notes = [f"batches untraced {len(plain)}, traced {len(traced)}",
             f"layers filled from the probe: {', '.join(missing) or 'none'}",
             f"layers absent from this version: {', '.join(unfilled) or 'none'}"]
    notes += [f"self {name} {ms / len(roots):.3f} ms per traced batch"
              for name, ms in sorted(selfs.items(), key=lambda kv: -kv[1])]
    return m, notes


def run_one(args) -> int:
    package = import_package()
    from workloads import WORKLOADS, Context
    env = environment(args.seed, args.workload, args.trace, args.seconds, args.size)
    print("env " + json.dumps(env, sort_keys=True))
    ctx = Context(root=ROOT, size=args.size)
    wl = WORKLOADS[args.workload](ctx)
    if args.trace:
        from tracing import Tracer
        wl.prepare()
        tracer = Tracer()
        plain, traced, roots = run_batches(wl, args.seed, args.seconds, MIN_TRACED_BATCHES[args.size],
                                           tracer, package)
        metrics, notes = per_layer(tracer, wl, args.seed, plain, traced, roots, package)
        batches = plain + traced
        units = PER_LAYER
        os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
        spans_path = os.path.join(ROOT, ".perfbench", f"spans-{args.workload}-{args.seed}.json.gz")
        tracer.write(spans_path)
        notes.append(f"spans written to {os.path.relpath(spans_path, ROOT)}")
    else:
        setup_s = setup_seconds(args.workload, SETUP_SAMPLES[args.size])
        wl.prepare()
        batches, _, _ = run_batches(wl, args.seed, args.seconds, MIN_BATCHES[args.size])
        peak = ctx.child_rss_kb if args.workload == "cli" else resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss
        metrics, notes = end_to_end(batches, setup_s, peak)
        units = END_TO_END
    attempted = sum(len(b.points) for b in batches)
    failures = [r for b in batches for _, r in b.points if r]
    notes.append(f"fail_frac {len(failures) / attempted:.6g} ({len(failures)} of {attempted} points)")
    for r in failures[:5]:
        notes.append(f"failed: {r}")
    for k in units:
        print(f"{args.workload} {k} = {metrics[k]:.6g} {units[k]}")
    for line in notes:
        print(f"{args.workload} {line}")
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures),
              "metrics": {k: {"value": float(metrics[k]), "unit": units[k]} for k in units}}
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Run every workload in its own process and print one table."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace), "--size", args.size]
        out = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stdout.write("".join(line + "\n" for line in out.stdout.splitlines()[:-1]))
        if out.returncode != 0:
            sys.stderr.write(out.stderr)
            return out.returncode
        res = json.loads(out.stdout.splitlines()[-1])
        summary["correct"] &= res["correct"]
        summary["attempted"] += res["attempted"]
        summary["failed"] += res["failed"]
        for k, v in res["metrics"].items():
            summary["metrics"][f"{name}.{k}"] = v
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny shrinks every batch, for the smoke tests")
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
