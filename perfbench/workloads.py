"""The four seeded benchmark workloads and their correctness gates.

Each workload draws the inputs of batch ``b`` from ``numpy.random.default_rng
([seed, b])`` and returns the batch's wall time, one latency per point, and
for every point either ``None`` or the reason it failed.  A point is one
product in a large-N sweep (``sweep``), one residual grid point with its
cross-route checks (``quadrature``), one sampled parameter pair
(``oracle``), or one cold CLI process (``cli``).  The library is always
reached through the package namespace ``spinfid`` so a traced run can wrap
the names the benchmark calls.

Tolerances are the ones the repository's acceptance tests use; see
README.md in this directory for the criterion each gate mirrors.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

import spinfid as sf

HERE = os.path.dirname(os.path.abspath(__file__))


@dataclass
class Batch:
    wall_s: float
    points: list[tuple[float, Optional[str]]]
    stats: dict = field(default_factory=dict)


@dataclass
class Context:
    """Where the checkout is, how big a batch is, and what children used."""
    root: str
    size: str = "full"
    tracer: Optional[object] = None
    child_rss_kb: int = 0
    cli_import_s: list[float] = field(default_factory=list)
    cli_process_ms: list[float] = field(default_factory=list)

    @property
    def tiny(self) -> bool:
        return self.size == "tiny"

    def child_env(self) -> dict:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(self.root, "src")
        return env


def even(n: float) -> int:
    return max(2, int(round(n / 2.0)) * 2)


def timed(fn: Callable[[], Optional[str]]) -> tuple[float, Optional[str]]:
    """Run one point; an exception is a failed point, not a crashed run."""
    t0 = time.perf_counter()
    try:
        reason = fn()
    except Exception as exc:  # a failing library call is a measured outcome
        reason = f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - t0, reason


def fail_all(points: list[tuple[float, Optional[str]]], reason: str) -> list[tuple[float, Optional[str]]]:
    return [(t, r or reason) for t, r in points]


# ---------------------------------------------------------------------------
# sweep: PathA anisotropy sweeps at fixed large N (criteria 4 and 5)

SWEEP_DELTA = 3e-7
SWEEP_C = -1.0


class Sweep:
    name = "sweep"

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        self.ladder = (100_000, 120_000, 140_000) if ctx.tiny else (100_000, 160_000, 250_000)
        self.n_gamma = 41 if ctx.tiny else 81
        self.shift_ladder = (1_000, 2_000, 4_000) if ctx.tiny else (1_000, 3_200, 10_000)
        self.a1 = 0.0

    @staticmethod
    def warmup() -> None:
        sf.fidelity_product(*sf.resolve_path(sf.PathA(1.0, SWEEP_DELTA, SWEEP_C)), 1000)
        gammas = np.logspace(-4.0, 0.0, 9)
        sf.gamma_crossing(20_000, 3e-5, SWEEP_C, gammas)
        sf.shift_crossing(1_000, 1.0, np.logspace(-10.0, -3.0, 29))
        sf.powerlaw_fit([(1.0, 1.0), (2.0, 2.0), (4.0, 4.1)])

    def prepare(self) -> None:
        self.warmup()
        self.a1 = sf.scaling_A(1.0)

    def sweep_checks(self, gammas: np.ndarray, y: np.ndarray, N: int, delta: float,
                     slopes: np.ndarray) -> Optional[str]:
        """Plateaus 2 +- 0.05 and 1 +- 0.05, thermodynamic branch within 3 %."""
        if abs(slopes[-1] - 2.0) > 0.05:
            return f"small-system slope {slopes[-1]:.4f} not in 2 +- 0.05"
        i_th = int(np.argmin(np.abs(np.log(gammas) - math.log(1e-3))))
        if abs(slopes[i_th] - 1.0) > 0.05:
            return f"thermodynamic slope {slopes[i_th]:.4f} not in 1 +- 0.05"
        sel = (gammas >= 1e-3) & (gammas <= 4e-3)
        rate = N * delta * self.a1 / gammas[sel]
        dev = float(np.max(np.abs(y[sel] - rate) / rate))
        if dev > 0.03:
            return f"branch deviation {dev:.4f} > 3%"
        return None

    def batch(self, seed: int, b: int) -> Batch:
        rng = np.random.default_rng([seed, b])
        delta = SWEEP_DELTA * rng.uniform(0.9, 1.1)
        Ns = [even(n0 * rng.uniform(0.98, 1.02)) for n0 in self.ladder]
        gammas = np.logspace(-4.0 + rng.uniform(-0.05, 0.05), rng.uniform(-0.02, 0.02), self.n_gamma)
        y = np.empty((len(Ns), gammas.size))
        t0 = time.perf_counter()
        # a point is one gamma of the grid, evaluated at every size of the ladder
        points: list[tuple[float, Optional[str]]] = []
        for j, g in enumerate(gammas):
            def one(j=j, g=float(g)):
                p1, p2 = sf.resolve_path(sf.PathA(g, delta, SWEEP_C))
                for i, N in enumerate(Ns):
                    lnF = sf.fidelity_product(p1, p2, N).lnF
                    y[i, j] = -lnF
                    if not (math.isfinite(lnF) and lnF < 0.0):
                        return f"lnF = {lnF!r} at N={N}, gamma={g!r}"
                return None
            points.append(timed(one))
        batch_bad = next((r for _, r in points if r), None)
        crossings = []
        if batch_bad is None:
            for N, yN in zip(Ns, y):
                curve = sf.local_slopes(1.0 / gammas[::-1], yN[::-1])
                batch_bad = batch_bad or self.sweep_checks(gammas, yN, N, delta, curve.s[::-1])
                crossings.append((float(N), math.exp(-sf.find_slope_crossing(curve, 1.5).x)))
        if crossings:
            # the library's own sweep-and-reduce must land on the same crossing
            N, mine_x = crossings[0]
            lib_x = sf.gamma_crossing(int(N), delta, SWEEP_C, gammas).x
            if lib_x != mine_x:
                batch_bad = batch_bad or f"gamma_crossing {lib_x!r} != benchmark reduction {mine_x!r}"
            slope = sf.powerlaw_fit(crossings).slope
            if not 0.98 <= slope <= 1.04:
                batch_bad = batch_bad or f"gamma_3/2 ~ N^{slope:.4f}, not in [0.98, 1.04]"
        shift_pts = []
        lo = -10.0 + rng.uniform(-0.05, 0.05)
        for n0 in self.shift_ladder:
            N = even(n0 * rng.uniform(0.98, 1.02))
            deltas = np.logspace(lo, lo + 7.0, 141)
            shift_pts.append((float(N), sf.shift_crossing(N, 1.0, deltas).x))
        slope = sf.powerlaw_fit(shift_pts).slope
        if not -2.05 <= slope <= -1.95:
            batch_bad = batch_bad or f"delta_7/4 ~ N^{slope:.4f}, not in [-2.05, -1.95]"
        wall = time.perf_counter() - t0
        return Batch(wall, fail_all(points, batch_bad) if batch_bad else points)


# ---------------------------------------------------------------------------
# quadrature: residual grid (criterion 12), closed forms vs quadrature
# (criterion 2), and the quench k-integral (criterion 11 tolerance)

PATH_A_FAMILIES = ((1.0, 1e-3, 1e-5), (0.5, 1e-4, 1e-6), (0.1, 1e-5, 1e-7))
PATH_B_DELTAS = (1e-3, 1e-4, 1e-5)
PATH_B_FIELDS = (0.0, 0.9, 0.999)
# a residual costs more below |c| = 1 than above; one draw from each side
# per family keeps the cost of a batch independent of the seed
C_STRATA = ((0.0, 1.0), (1.0, 3.0))


def _away_from_one(c: float) -> float:
    return c if abs(abs(c) - 1.0) > 1e-6 else c + 1e-5


class Quadrature:
    name = "quadrature"

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        self.c_strata = C_STRATA[:1] if ctx.tiny else C_STRATA
        self.families = PATH_A_FAMILIES[:1] if ctx.tiny else PATH_A_FAMILIES
        self.b_points = 1 if ctx.tiny else 3

    @staticmethod
    def warmup() -> None:
        sf.residual_pathA(1.0, 1e-3, 0.5)
        sf.residual_pathB(0.5, 1e-3, 0.5)
        sf.scaling_A_quadrature(0.5)
        sf.scaling_B_quadrature(0.5)
        sf.scaling_B(0.5)
        sf.excitation_density(1.0, 1e-3, 0.5, 1000, with_integral=True)

    def prepare(self) -> None:
        self.warmup()

    @staticmethod
    def quench_check(rng: np.random.Generator) -> Optional[str]:
        cq = float(rng.uniform(-3.0, 3.0))
        dq = 1e-3 * float(rng.uniform(0.9, 1.1))
        Nq = even(rng.uniform(8_000, 10_000))
        r = sf.excitation_density(1.0, dq, cq, Nq, with_integral=True)
        # the k-integral is the thermodynamic limit, held to B(c) at the 2 %
        # the tests use; the finite-N sum at N <= 1e4 only to its bounds
        B = sf.scaling_B(cq)
        dev = abs(r.n_ex_integral / dq - B) / B
        if not dev <= 0.02:
            return f"n_ex_integral/|delta| off B({cq:.4f}) by {dev:.4f} > 2%"
        if not (0.0 <= r.n_ex <= 1.0 and 0.0 <= r.survival <= 1.0):
            return f"n_ex = {r.n_ex!r}, survival = {r.survival!r} outside [0, 1]"
        return None

    def batch(self, seed: int, b: int) -> Batch:
        rng = np.random.default_rng([seed, b])
        t0 = time.perf_counter()
        points = []
        for gamma, d1, d2 in self.families:
            for lo, hi in self.c_strata:
                c = _away_from_one(float(rng.uniform(lo, hi)))
                qrng = np.random.default_rng(rng.integers(1 << 62))

                def one(gamma=gamma, d1=d1, d2=d2, c=c, qrng=qrng):
                    s1 = sf.residual_pathA(gamma, d1, c)
                    s2 = sf.residual_pathA(gamma, d2, c)
                    for s in (s1, s2):
                        if not abs(s.normalized) < 0.25:
                            return f"path-A |E| g^3/d^2 = {abs(s.normalized):.4f} >= 0.25"
                    if not abs(s1.normalized - s2.normalized) <= 0.1 * abs(s2.normalized):
                        return f"delta collapse {s1.normalized:.5f} vs {s2.normalized:.5f}"
                    gap = abs(sf.scaling_A(c) - sf.scaling_A_quadrature(c))
                    if not gap <= 1e-8:
                        return f"|A - A_quad| = {gap:.2e} at c = {c!r}"
                    return self.quench_check(qrng)
                points.append(timed(one))
        fields = rng.permutation(PATH_B_FIELDS)
        for delta, g in list(zip(PATH_B_DELTAS, fields))[:self.b_points]:
            c = float(rng.uniform(0.4, 0.6))
            cb = _away_from_one(float(rng.uniform(0.02, 3.0)))
            qrng = np.random.default_rng(rng.integers(1 << 62))

            def one(delta=delta, g=float(g), c=c, cb=cb, qrng=qrng):
                s = sf.residual_pathB(g, delta, c)
                if not abs(s.normalized - 0.25) <= 0.05:
                    return f"path-B E/d^2 = {s.normalized:.5f} not in 0.25 +- 0.05"
                gap = abs(sf.scaling_B(cb) - sf.scaling_B_quadrature(cb))
                if not gap <= 1e-8:
                    return f"|B - B_quad| = {gap:.2e} at c = {cb!r}"
                return self.quench_check(qrng)
            points.append(timed(one))
        return Batch(time.perf_counter() - t0, points)


# ---------------------------------------------------------------------------
# oracle: dense diagonalization against the product (criterion 1)

class Oracle:
    name = "oracle"

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        # few small pairs per batch: the tail point is then the third-slowest
        # N = 10 pair of the run, not a rare scheduling stall among many
        self.sizes = (10, 10, 8, 8) if ctx.tiny else (12, 10, 10, 8, 8)

    @staticmethod
    def warmup() -> None:
        for p in (sf.XYParams(0.5, 0.5), sf.ExtIsingParams(0.3)):
            q = type(p)(*[v * 1.1 for v in vars(p).values()])
            sa, sb = sf.ed_ground_state(p, 4), sf.ed_ground_state(q, 4)
            sf.ed_overlap(sa, sb)
            sf.fidelity_product(p, q, 4)

    def prepare(self) -> None:
        self.warmup()

    def batch(self, seed: int, b: int) -> Batch:
        rng = np.random.default_rng([seed, b])
        t0 = time.perf_counter()
        points = []
        accepted = 0
        for N in self.sizes:
            if rng.uniform() < 0.5:
                pa = sf.XYParams(rng.uniform(-2, 2), rng.uniform(-1.5, 1.5))
                pb = sf.XYParams(rng.uniform(-2, 2), rng.uniform(-1.5, 1.5))
            else:
                pa = sf.ExtIsingParams(rng.uniform(-1.5, 1.5))
                pb = sf.ExtIsingParams(rng.uniform(-1.5, 1.5))
            seen = []

            def one(pa=pa, pb=pb, N=N, seen=seen):
                sa = sf.ed_ground_state(pa, N)
                sb = sf.ed_ground_state(pb, N)
                # the product is the even-sector overlap: same rejection rule
                # as the acceptance test
                if min(sa.gap, sb.gap) <= 1e-8 or sa.parity != 1 or sb.parity != 1:
                    return None
                seen.append(True)
                diff = abs(sf.fidelity_product(pa, pb, N).F - sf.ed_overlap(sa, sb))
                if not diff <= 1e-10:
                    return f"|F_prod - F_ed| = {diff:.2e} at N={N}, {pa}, {pb}"
                return None
            points.append(timed(one))
            accepted += len(seen)
        return Batch(time.perf_counter() - t0, points,
                     {"accepted": accepted, "sampled": len(self.sizes)})


# ---------------------------------------------------------------------------
# cli: cold `python -m spinfid.cli` processes, one after another

def run_child(ctx: Context, argv: list[str], timeout: float = 120.0) -> tuple[int, str, str, float]:
    """Run one child to completion; returns (exit code, stdout, stderr, wall s).

    The child is reaped with wait4 so its peak resident memory is recorded.
    """
    scratch = os.path.join(ctx.root, ".perfbench")
    os.makedirs(scratch, exist_ok=True)
    with tempfile.TemporaryFile(dir=scratch) as out, tempfile.TemporaryFile(dir=scratch) as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ctx.root, env=ctx.child_env())
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        ctx.child_rss_kb = max(ctx.child_rss_kb, usage.ru_maxrss)
        out.seek(0)
        err.seek(0)
        return proc.returncode, out.read().decode(), err.read().decode(), wall


def data_section(text: str) -> str:
    return "".join(line for line in text.splitlines(keepends=True) if not line.startswith("#"))


def csv_rows(text: str) -> list[dict[str, str]]:
    lines = data_section(text).splitlines()
    head = lines[0].split(",")
    return [dict(zip(head, line.split(","))) for line in lines[1:]]


def fmt(v: float) -> str:
    return "%.17g" % v


SPANS_MARK = "PERFBENCH-SPANS "
CLI_CHILD = os.path.join(HERE, "cli_child.py")


class Cli:
    name = "cli"

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        self.n_sizes = 12 if ctx.tiny else 96
        self.n_scaling = 21 if ctx.tiny else 151

    @staticmethod
    def warmup() -> None:
        import contextlib
        import io
        import spinfid.cli as cli
        with contextlib.redirect_stdout(io.StringIO()):
            for argv in (["sweep", "--path", "B", "--g", "0.99", "--delta", "0.002", "--c", "0.5",
                          "--N-range", "1000:1400:200"],
                         ["scaling", "--function", "A", "--c-range", "-3:3:3"],
                         ["fidelity", "--path", "A", "--gamma", "1", "--delta", "1e-3",
                          "--c", "1", "--N", "1000"],
                         ["quench", "--gamma", "1", "--delta", "1e-3", "--c", "0.5",
                          "--N", "1000"]):
                if cli.main(argv) != 0:
                    raise RuntimeError(f"cli warm-up failed: {argv}")

    def prepare(self) -> None:
        self.warmup()

    def invocations(self, rng: np.random.Generator) -> list[tuple[str, list[str], Callable[[str], Optional[str]]]]:
        """The batch: (label, cli arguments, check of the artifact text)."""
        g, dl, c = rng.uniform(0.95, 0.99), rng.uniform(1e-3, 3e-3), rng.uniform(0.3, 0.7)
        start = even(rng.uniform(1_000, 2_000))
        step = 2 * int(rng.integers(40, 61))
        n_range = f"{start}:{start + step * (self.n_sizes - 1)}:{step}"
        sweep = ["sweep", "--path", "B", "--g", repr(g), "--delta", repr(dl), "--c", repr(c),
                 "--N-range", n_range]

        def check_sweep(text: str) -> Optional[str]:
            p1, p2 = sf.resolve_path(sf.PathB(g, dl, c))
            rows = csv_rows(text)
            if len(rows) != self.n_sizes:
                return f"sweep emitted {len(rows)} rows, expected {self.n_sizes}"
            for r in rows:
                lib = fmt(sf.fidelity_product(p1, p2, int(r["N"])).lnF)
                if r["lnF"] != lib:
                    return f"sweep lnF {r['lnF']} != library {lib} at N={r['N']}"
            return None

        lo, hi = rng.uniform(-3.0, -2.0), rng.uniform(2.0, 3.0)
        scaling = ["scaling", "--function", "A", "--c-range", f"{lo!r}:{hi!r}:{self.n_scaling}"]

        def check_scaling(text: str) -> Optional[str]:
            rows = csv_rows(text)
            cs = np.linspace(lo, hi, self.n_scaling)
            if len(rows) != cs.size:
                return f"scaling emitted {len(rows)} rows, expected {cs.size}"
            for r, cv in zip(rows, cs):
                lib = fmt(sf.scaling_A(float(cv)))
                if r["value"] != lib:
                    return f"scaling A({r['c']}) = {r['value']} != library {lib}"
            return None

        fg, fd, fc = rng.uniform(0.5, 1.5), 10.0 ** rng.uniform(-4.0, -2.0), rng.uniform(-2.0, 2.0)
        fN = even(rng.uniform(1e3, 1e5))
        fid = ["fidelity", "--path", "A", "--gamma", repr(fg), "--delta", repr(fd),
               "--c", repr(fc), "--N", str(fN)]

        def check_fid(text: str) -> Optional[str]:
            (r,) = csv_rows(text)
            lib = fmt(sf.fidelity_product(*sf.resolve_path(sf.PathA(fg, fd, fc)), fN).lnF)
            return None if r["lnF"] == lib else f"fidelity lnF {r['lnF']} != library {lib}"

        qd, qc, qN = 1e-3 * rng.uniform(0.9, 1.1), rng.uniform(-3.0, 3.0), even(rng.uniform(2e3, 1e4))
        quench = ["quench", "--gamma", "1", "--delta", repr(qd), "--c", repr(qc), "--N", str(qN)]

        def check_quench(text: str) -> Optional[str]:
            (r,) = csv_rows(text)
            lib = sf.excitation_density(1.0, qd, qc, qN, with_integral=True)
            for key, v in (("n_ex", lib.n_ex), ("n_ex_integral", lib.n_ex_integral)):
                if r[key] != fmt(v):
                    return f"quench {key} {r[key]} != library {fmt(v)}"
            return None

        return [("sweep_p1", sweep + ["--parallelism", "1"], check_sweep),
                ("sweep_p2", sweep + ["--parallelism", "2"], check_sweep),
                ("scaling", scaling, check_scaling),
                ("fidelity", fid, check_fid),
                ("quench", quench, check_quench)]

    def run(self, args: list[str]) -> tuple[int, str, str, float]:
        """One cold CLI process; traced, it runs through cli_child.py and its spans are kept."""
        tracer = self.ctx.tracer
        if tracer is None:
            return run_child(self.ctx, [sys.executable, "-m", "spinfid.cli"] + args)
        with tracer.span("cli.process") as sp:
            code, out, err, wall = run_child(self.ctx, [sys.executable, CLI_CHILD] + args)
        lines = err.splitlines()
        if lines and lines[-1].startswith(SPANS_MARK):
            rec = json.loads(lines[-1][len(SPANS_MARK):])
            tracer.adopt(rec["spans"], sp.index)
            self.ctx.cli_import_s.append(rec["import_s"])
            err = "\n".join(lines[:-1])
        self.ctx.cli_process_ms.append(wall * 1e3)
        return code, out, err, wall

    def batch(self, seed: int, b: int) -> Batch:
        rng = np.random.default_rng([seed, b])
        jobs = self.invocations(rng)
        t0 = time.perf_counter()
        results = [self.run(args) for _, args, _ in jobs]
        wall = time.perf_counter() - t0
        points = []
        for (label, args, check), (code, out, err, t) in zip(jobs, results):
            if code != 0:
                points.append((t, f"{label}: exit code {code}: {err.strip()[-300:]}"))
                continue
            try:
                reason = check(out)
            except Exception as exc:  # a malformed artifact fails the point
                reason = f"{label}: unreadable artifact: {type(exc).__name__}: {exc}"
            points.append((t, reason))
        outs = {label: res[1] for (label, _, _), res in zip(jobs, results)}
        if data_section(outs["sweep_p1"]) != data_section(outs["sweep_p2"]):
            points[:2] = fail_all(points[:2], "sweep data differs between --parallelism 1 and 2")
        return Batch(wall, points)


WORKLOADS = {w.name: w for w in (Sweep, Quadrature, Oracle, Cli)}
