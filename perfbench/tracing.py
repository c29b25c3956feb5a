"""In-memory span tracer for the benchmark's traced runs.

A span is one call into a layer's public function: ``[name, start_ns, end_ns,
parent, size]``, where ``parent`` is the index of the enclosing span (-1 at
the root) and ``size`` is a per-call work count (modes for a kernel call, N/2
for a product, the matrix dimension for ``eigh``).  Wrappers are installed on
the names as each calling module sees them, so a call from ``crossover`` into
``fidelity_product`` is caught where ``crossover`` looks the name up.  Spans
stay in memory; the run writes them once at the end.
"""

from __future__ import annotations

import functools
import gzip
import json
import statistics
import time
from typing import Callable, Iterable, Optional

import numpy as np

_NAME, _T0, _T1, _PARENT, _SIZE = range(5)


def _first_size(*args, **kwargs) -> int:
    return int(np.size(args[0] if args else next(iter(kwargs.values()))))


def _half_n(*args, **kwargs) -> int:
    n = args[2] if len(args) > 2 else kwargs["N"]
    return int(n) // 2


def _size_n(*args, **kwargs) -> int:
    return int(args[1] if len(args) > 1 else kwargs["N"])


def _matrix_dim(*args, **kwargs) -> int:
    return int(np.shape(args[0])[0])


def _processes(*args, **kwargs) -> int:
    return int(kwargs.get("processes", args[0] if args else 0) or 0)


# layer name -> ([(module, attribute), ...], size function).  Modules are
# given relative to the package; "" is the package itself, where the
# benchmark's own calls look the names up.
LAYERS: dict[str, tuple[list[tuple[str, str]], Optional[Callable]]] = {
    "models.kernel": ([("fidelity", "log_abs_fk_xy"), ("fidelity", "log_abs_fk_extising"),
                       ("quench", "log_abs_fk_xy")], _first_size),
    "fidelity.product": ([("", "fidelity_product"), ("crossover", "fidelity_product"),
                          ("quench", "fidelity_product"), ("cli", "fidelity_product")], _half_n),
    "fidelity.integral": ([("", "fidelity_integral"), ("verify", "fidelity_integral")], None),
    "scipy.quad": ([("fidelity", "quad"), ("quench", "quad"), ("scaling", "quad")], None),
    "scaling.closed_form": ([("", "scaling_A"), ("", "scaling_B"), ("verify", "scaling_A"),
                             ("scaling", "scaling_A"), ("cli", "scaling_A"),
                             ("cli", "scaling_B")], None),
    "scaling.quadrature": ([("", "scaling_A_quadrature"), ("", "scaling_B_quadrature"),
                            ("scaling", "scaling_A_quadrature"),
                            ("scaling", "scaling_B_quadrature")], None),
    "scaling.predict": ([("cli", "predict_lnF")], None),
    "specfun.elliptic": ([("scaling", "elliptic_K"), ("scaling", "elliptic_E")], None),
    "quench.excitation_density": ([("", "excitation_density"),
                                   ("cli", "excitation_density")], None),
    "verify.residual": ([("", "residual_pathA"), ("", "residual_pathB"),
                         ("cli", "residual_pathA"), ("cli", "residual_pathB")], None),
    "crossover.crossing": ([("", "gamma_crossing"), ("", "shift_crossing"), ("", "size_crossing"),
                            ("cli", "gamma_crossing"), ("cli", "shift_crossing"),
                            ("cli", "size_crossing")], None),
    "crossover.reduce": ([("", "local_slopes"), ("", "find_slope_crossing"),
                          ("", "powerlaw_fit")], None),
    "oracle.ground_state": ([("", "ed_ground_state")], _size_n),
    "oracle.eigh": ([("oracle", "eigh")], _matrix_dim),
    "oracle.overlap": ([("", "ed_overlap")], None),
    "cli.run": ([("cli", "run")], None),
    "cli.pool": ([("cli", "Pool")], _processes),
}

# layers whose spans count as library time inside cli.run
LIBRARY_LAYERS = frozenset(n for n in LAYERS if n.split(".")[0] not in ("cli", "scipy"))


class Tracer:
    """Collects spans in memory; `install` patches the layer boundaries."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn: Callable, size: Optional[Callable] = None) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0, 0, stack[-1] if stack else -1,
                          size(*args, **kwargs) if size else 0])
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx][_T0] = t0
                spans[idx][_T1] = t1
        return traced

    def span(self, name: str, size: int = 0) -> "_Span":
        return _Span(self, name, size)

    def install(self, package) -> None:
        """Wrap every layer boundary of `package` that exists in this version."""
        import importlib
        for layer, (sites, size) in LAYERS.items():
            for modname, attr in sites:
                try:
                    mod = importlib.import_module(f"{package.__name__}.{modname}") if modname else package
                except ImportError:
                    continue
                fn = getattr(mod, attr, None)
                if fn is None:
                    continue
                self._saved.append((mod, attr, fn))
                setattr(mod, attr, self.wrap(layer, fn, size))
        # the cli dispatches scaling tables through a name -> function dict
        cli = getattr(package, "cli", None)
        table = getattr(cli, "_SCALING_FUNCS", None)
        if isinstance(table, dict):
            for key, fn in list(table.items()):
                self._saved.append((table, key, fn))
                table[key] = self.wrap("scaling.closed_form", fn)

    def uninstall(self) -> None:
        for target, key, fn in reversed(self._saved):
            if isinstance(target, dict):
                target[key] = fn
            else:
                setattr(target, key, fn)
        self._saved.clear()

    def adopt(self, spans: Iterable[list], parent: int) -> None:
        """Append spans recorded in another process under local span `parent`."""
        base = len(self.spans)
        for s in spans:
            self.spans.append([s[_NAME], s[_T0], s[_T1],
                               parent if s[_PARENT] < 0 else s[_PARENT] + base, s[_SIZE]])

    def write(self, path: str) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "size"],
                       "spans": self.spans}, fh, separators=(",", ":"))


class _Span:
    """Context manager recording one span opened by the benchmark itself."""

    def __init__(self, tracer: Tracer, name: str, size: int) -> None:
        self.tracer, self.name, self.size = tracer, name, size
        self.index = -1

    def __enter__(self) -> "_Span":
        t = self.tracer
        self.index = len(t.spans)
        t.spans.append([self.name, 0, 0, t._stack[-1] if t._stack else -1, self.size])
        t._stack.append(self.index)
        t.spans[self.index][_T0] = time.perf_counter_ns()
        return self

    def __exit__(self, *exc) -> None:
        t = self.tracer
        t.spans[self.index][_T1] = time.perf_counter_ns()
        t._stack.pop()


# ---------------------------------------------------------------------------
# per-layer metrics

class SpanView:
    """Spans under a chosen set of roots, indexed for the layer metrics."""

    def __init__(self, spans: list[list], roots: Iterable[int]) -> None:
        roots = set(roots)
        inside = [False] * len(spans)
        for i, s in enumerate(spans):
            p = s[_PARENT]
            inside[i] = i in roots or (p >= 0 and inside[p])
        self.spans = spans
        self.idx = [i for i in range(len(spans)) if inside[i] and i not in roots]
        self.roots = sorted(roots)
        self.children: dict[int, list[int]] = {}
        for i in self.idx:
            self.children.setdefault(spans[i][_PARENT], []).append(i)

    def of(self, layer: str) -> list[int]:
        return [i for i in self.idx if self.spans[i][_NAME] == layer]

    def dur(self, i: int) -> int:
        return self.spans[i][_T1] - self.spans[i][_T0]

    def size(self, i: int) -> int:
        return self.spans[i][_SIZE]

    def within(self, i: int, layer: str) -> list[int]:
        """Descendants of span i in `layer` (not descending through them)."""
        out, todo = [], list(self.children.get(i, []))
        while todo:
            j = todo.pop()
            if self.spans[j][_NAME] == layer:
                out.append(j)
            else:
                todo.extend(self.children.get(j, []))
        return out

    def has_ancestor(self, i: int, layer: str) -> bool:
        p = self.spans[i][_PARENT]
        while p >= 0:
            if self.spans[p][_NAME] == layer:
                return True
            p = self.spans[p][_PARENT]
        return False

    def outermost(self, prefix: str) -> list[int]:
        """Spans whose layer starts with `prefix` and that no such span encloses."""
        out = []
        for i in self.idx:
            if not self.spans[i][_NAME].startswith(prefix):
                continue
            p = self.spans[i][_PARENT]
            while p >= 0 and not self.spans[p][_NAME].startswith(prefix):
                p = self.spans[p][_PARENT]
            if p < 0:
                out.append(i)
        return out


def self_ms(view: SpanView) -> dict[str, float]:
    """Self time per layer in ms: span time minus the time of its child spans."""
    out: dict[str, float] = {}
    for i in view.idx:
        child = sum(view.dur(j) for j in view.children.get(i, []))
        name = view.spans[i][_NAME]
        out[name] = out.get(name, 0.0) + (view.dur(i) - child) / 1e6
    return out


def _median(xs: list[float]) -> Optional[float]:
    return statistics.median(xs) if xs else None


def layer_metrics(view: SpanView, n_batches: int, wall_ns: int) -> dict[str, Optional[float]]:
    """Per-layer metrics over one view; None where the view has no such call.

    Counts are per batch (n_batches), times are medians unless stated.
    """
    m: dict[str, Optional[float]] = {}
    nb = max(n_batches, 1)

    kern = view.of("models.kernel")
    modes = sum(view.size(i) for i in kern)
    m["models.kernel_calls"] = len(kern) / nb if kern else None
    m["models.modes"] = modes / nb if kern else None
    m["models.kernel_ns_per_mode"] = sum(view.dur(i) for i in kern) / modes if modes else None

    prod = view.of("fidelity.product")
    pmodes = sum(view.size(i) for i in prod)
    ptime = sum(view.dur(i) for i in prod)
    pkern = sum(view.dur(j) for i in prod for j in view.within(i, "models.kernel"))
    m["fidelity.product_calls"] = len(prod) / nb if prod else None
    m["fidelity.product_ns_per_mode"] = ptime / pmodes if pmodes else None
    m["fidelity.product_overhead_ms"] = (ptime - pkern) / len(prod) / 1e6 if prod else None

    integ = view.of("fidelity.integral")
    evals = sum(len(view.within(i, "models.kernel")) for i in integ)
    m["fidelity.integral_calls"] = len(integ) / nb if integ else None
    m["fidelity.integral_ms_p50"] = _ms(_median([view.dur(i) for i in integ]))
    m["fidelity.integrand_evals"] = evals / len(integ) if integ else None
    m["fidelity.integrand_us_per_eval"] = (sum(view.dur(i) for i in integ) / evals / 1e3
                                           if evals else None)

    m["scaling.closed_form_us"] = _us(_median([view.dur(i) for i in view.of("scaling.closed_form")]))
    m["scaling.quadrature_ms"] = _ms(_median([view.dur(i) for i in view.of("scaling.quadrature")]))
    m["specfun.elliptic_us"] = _us(_median([view.dur(i) for i in view.of("specfun.elliptic")]))
    top = view.outermost("scaling.closed_form") + view.outermost("scaling.quadrature")
    share = [i for i in top if not any(view.has_ancestor(i, n) for n in
                                       ("scaling.closed_form", "scaling.quadrature"))]
    m["scaling.share_pct"] = (100.0 * sum(view.dur(i) for i in share) / wall_ns
                              if share and wall_ns > 0 else None)

    ex = view.of("quench.excitation_density")
    m["quench.excitation_density_ms"] = _ms(_median([view.dur(i) for i in ex]))
    m["quench.excitation_density_ms.no_integral"] = _ms(_median(
        [view.dur(i) - sum(view.dur(j) for j in view.within(i, "scipy.quad")) for i in ex]))

    m["verify.residual_ms_p50"] = _ms(_median([view.dur(i) for i in view.of("verify.residual")]))

    cross = view.of("crossover.crossing")
    m["crossover.crossing_ms"] = _ms(_median([view.dur(i) for i in cross]))
    m["crossover.products_per_crossing"] = (
        sum(len(view.within(i, "fidelity.product")) for i in cross) / len(cross) if cross else None)

    gs = view.of("oracle.ground_state")
    for n in (10, 12):
        m[f"oracle.ground_state_ms.N{n}"] = _ms(_median([view.dur(i) for i in gs if view.size(i) == n]))
    dims = [view.size(j) for i in gs for j in view.within(i, "oracle.eigh")]
    m["oracle.block_dim_sum"] = sum(dims) / nb if dims else None
    m["oracle.block_dim_max"] = float(max(dims)) if dims else None
    return m


def cli_metrics(view: SpanView, n_batches: int, import_s: list[float],
                process_ms: list[float]) -> dict[str, Optional[float]]:
    runs = view.of("cli.run")
    overhead = []
    for i in runs:
        lib = sum(view.dur(j) for j in view.children.get(i, [])
                  if view.spans[j][_NAME] in LIBRARY_LAYERS)
        overhead.append((view.dur(i) - lib) / 1e6)
    pools = view.of("cli.pool")
    return {
        "cli.import_s": _median(import_s),
        "cli.process_ms_p50": _median(process_ms),
        "cli.workers_used": (sum(view.size(i) for i in pools) / max(n_batches, 1)
                             if runs else None),
        "cli.run_overhead_ms": _median(overhead),
    }


def _ms(ns: Optional[float]) -> Optional[float]:
    return None if ns is None else ns / 1e6


def _us(ns: Optional[float]) -> Optional[float]:
    return None if ns is None else ns / 1e3
