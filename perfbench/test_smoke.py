"""Smoke tests of the benchmark itself (not part of the library's suite).

    python -m pytest perfbench -q

Every workload runs at its tiny size and must pass its gates; the printed
metric names must be the ones BENCHMARK.json declares; a perturbed library
result must trip each workload's gate; and a directory without the sources
must make the benchmark fail.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import spinfid as sf  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from workloads import Context  # noqa: E402


def bench(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, os.path.join(HERE, "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def declared() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_metric_names_and_units_match_benchmark_json():
    spec = declared()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.NAMES)


@pytest.mark.parametrize("name", run.NAMES)
def test_tiny_workload_passes_its_gate(name):
    out = bench("--workload", name, "--seed", "3", "--seconds", "1", "--trace", "0", "--size", "tiny")
    assert out.returncode == 0, out.stderr
    res = json.loads(out.stdout.splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1, out.stdout
    assert set(res["metrics"]) == set(run.END_TO_END)
    assert all(v["value"] > 0.0 for v in res["metrics"].values())
    assert f"{name} fail_frac 0 " in out.stdout


def test_traced_run_prints_every_layer_and_its_overhead():
    out = bench("--workload", "oracle", "--seed", "4", "--seconds", "1", "--trace", "1", "--size", "tiny")
    assert out.returncode == 0, out.stderr
    res = json.loads(out.stdout.splitlines()[-1])
    assert res["correct"]
    assert set(res["metrics"]) == set(run.PER_LAYER)
    assert "oracle layers absent from this version: none" in out.stdout


def test_missing_sources_fail_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1",
                          "--seconds", "1", "--trace", "0"], cwd=tmp_path,
                         capture_output=True, text=True, timeout=170)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


# ---------------------------------------------------------------------------
# perturbed outputs trip the gates


def failures(batch) -> list[str]:
    return [r for _, r in batch.points if r]


def tiny(cls):
    wl = cls(Context(root=ROOT, size="tiny"))
    wl.prepare()
    return wl


def test_gate_sweep_catches_a_shifted_crossing(monkeypatch):
    wl = tiny(workloads.Sweep)
    real = sf.gamma_crossing
    monkeypatch.setattr(sf, "gamma_crossing",
                        lambda *a, **k: sf.Crossing(x=real(*a, **k).x * (1 + 1e-12), multiple=False))
    assert failures(wl.batch(5, 0))


def test_gate_quadrature_catches_a_perturbed_closed_form(monkeypatch):
    wl = tiny(workloads.Quadrature)
    real = sf.scaling_A_quadrature
    monkeypatch.setattr(sf, "scaling_A_quadrature", lambda c: real(c) + 2e-8)
    assert any("A_quad" in r for r in failures(wl.batch(5, 0)))


def test_gate_oracle_catches_a_perturbed_overlap(monkeypatch):
    wl = tiny(workloads.Oracle)
    real = sf.ed_overlap
    monkeypatch.setattr(sf, "ed_overlap", lambda a, b: real(a, b) + 2e-10)
    batch = wl.batch(5, 0)
    assert batch.stats["accepted"] >= 1
    assert len(failures(batch)) == batch.stats["accepted"]


def test_gate_cli_catches_a_changed_digit():
    import numpy as np
    wl = workloads.Cli(Context(root=ROOT, size="tiny"))
    jobs = {label: (args, check) for label, args, check in wl.invocations(np.random.default_rng(5))}
    args, check = jobs["fidelity"]
    opt = dict(zip(args[1::2], args[2::2]))
    res = sf.fidelity_product(*sf.resolve_path(sf.PathA(float(opt["--gamma"]), float(opt["--delta"]),
                                                        float(opt["--c"]))), int(opt["--N"]))
    good = f"# manifest: {{}}\nN,lnF\n{opt['--N']},{workloads.fmt(res.lnF)}\n"
    assert check(good) is None
    bad = good.replace(workloads.fmt(res.lnF), workloads.fmt(np.nextafter(res.lnF, 0.0)))
    assert check(bad) is not None
