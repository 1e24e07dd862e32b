"""The benchmark's own tests.

    python3 -m pytest -q perfbench/selftest.py

Tiny runs of every workload, the correctness gate tripping on perturbed
references, and the output names matching BENCHMARK.json.  The file name
keeps these out of the library's default test collection.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import gate  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload, trace):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", "3", "--seconds", "0.5", "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_run_prints_every_end_to_end_metric(workload):
    result, text = _run(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected
    for name, m in result["metrics"].items():
        assert math.isfinite(m["value"]) and m["value"] > 0, name
        assert any(line.strip().startswith(f"{name} = ") and line.endswith(m["unit"])
                   for line in text), name
    assert any(line.strip().startswith("ops_attempted = ") for line in text)
    assert any(line.strip().startswith("ops_failed = ") for line in text)


def test_traced_run_reports_per_layer_metrics():
    result, _ = _run("closed_forms", 1)
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected
    metrics = result["metrics"]
    assert metrics["quadrature.build_rule.calls"]["value"] == 0
    assert metrics["quadrature.moment.calls"]["value"] == 0
    assert metrics["polynomials.gegenbauer_norm.calls"]["value"] > 0
    assert metrics["known_limit.failed"]["value"] > 0   # the seed's overflow region
    assert (ROOT / ".bench_build" / "perfbench" / "spans-closed_forms-seed3.jsonl").stat().st_size > 0


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert SPEC["command"][1:] == ["perfbench/run.py"]


def _first(gen, kind, **fields):
    for op in gen:
        if op.kind == kind and all(getattr(op, k) == v for k, v in fields.items()):
            return op
    raise AssertionError("unreachable")


def test_gate_trips_on_perturbed_closed_form_reference(monkeypatch):
    op = _first(workloads.closed_ops(5), "closed_norm", family="gegenbauer")
    op = workloads.Op(op.kind, op.b, op.alpha, family=op.family, n=min(op.n, 30))
    out = workloads.run_closed(op)
    assert not gate.closed_outcome(op, out).failed
    true_ref = oracles.gegenbauer_norm_ref
    monkeypatch.setattr(oracles, "gegenbauer_norm_ref",
                        lambda *a: true_ref(*a) * (1.0 + 1e-8))
    bad = gate.closed_outcome(op, out)
    assert bad.failed and bad.reason == "tolerance"


def test_gate_trips_on_perturbed_gram_reference(monkeypatch):
    op = _first(workloads.gram_ops(5), "gram_matrix")
    op = workloads.Op(op.kind, op.b, op.alpha, family=op.family, n=8)
    out = workloads.run_gram(op)
    assert not gate.gram_outcome(op, out).failed
    true_ref = oracles.closed_norm_ref
    monkeypatch.setattr(oracles, "closed_norm_ref", lambda *a: true_ref(*a) * (1.0 + 1e-6))
    assert gate.gram_outcome(op, out).failed


def test_every_failure_fails_the_gate():
    inside = workloads.Op("recurrence_coeffs", 0.9, 3.0, n=1000)
    assert oracles.known_limit(inside)
    with np.errstate(all="ignore"):
        out = workloads.run_closed(inside)
    assert not oracles.finite(out)
    bad = gate.closed_outcome(inside, out)
    assert bad.failed and bad.reason == "nonfinite"
    in_range = workloads.Op("recurrence_coeffs", 0.9, 3.0, n=10)
    assert not oracles.known_limit(in_range)
    for out in (ValueError("math domain error"), (float("nan"), 1.0)):
        assert gate.closed_outcome(in_range, out).failed


def test_an_in_range_op_that_raises_makes_the_run_incorrect(monkeypatch):
    import ellipoly

    def broken(*args, **kwargs):
        raise RuntimeError("broken")
    for name in ("gram_matrix", "hessenberg"):
        monkeypatch.setattr(ellipoly, name, broken)
    monkeypatch.setattr(run, "setup_seconds", lambda *args: 1.0)
    args = run.parse_args(["--workload", "gram_sweep", "--seed", "3", "--seconds", "0.1"])
    _, attempted, failed, correct = run.run(args)
    assert attempted >= 1 and failed == attempted and not correct


@pytest.mark.parametrize("workload", ["closed_forms", "cli_cold"])
def test_op_streams_drop_the_known_limit_region(workload):
    draws = {"closed_forms": workloads.closed_ops, "cli_cold": workloads.cli_ops}[workload]
    raw = [op for op, _ in zip(draws(5), range(300))]
    assert any(oracles.known_limit(op) for op in raw)
    kept = [op for op, _ in zip(run.op_stream(workload, 5), range(300))]
    assert not any(oracles.known_limit(op) for op in kept)


def test_limit_probes_are_fixed_and_inside_the_region():
    probes = run.limit_probes()
    assert len(probes) == run.LIMIT_PROBES and probes == run.limit_probes()
    assert all(oracles.known_limit(op) for op in probes)


def test_host_speed_scale():
    import hostspeed
    speed = hostspeed.HostSpeed()
    speed.samples = [hostspeed.REF_MS / 2e3] * 3
    assert speed.scale() == pytest.approx(2.0)
    records = [(None, 0.0, 0.010), (None, 0.0, 0.020), (None, 0.0, 0.030)]
    outcomes = [gate.Outcome(False, margin=0.5)] * 3
    metrics = run.end_to_end(records, outcomes, 50.0, 0.25, speed.scale())
    assert metrics["op_ms_p50"][0] == pytest.approx(40.0)
    assert metrics["ops_per_s"][0] == pytest.approx(3 / 0.12)


def test_host_speed_is_sampled_during_a_long_op():
    import signal
    import time
    import hostspeed
    speed = hostspeed.HostSpeed()
    before = signal.getsignal(signal.SIGALRM)
    with speed.sampling():
        start = time.perf_counter()
        while time.perf_counter() - start < 4 * hostspeed.EVERY_S:
            pass
    assert len(speed.samples) >= 3 * hostspeed.BATCH and speed.spent > 0
    assert signal.getsignal(signal.SIGALRM) is before


def test_gate_rejects_nonstrict_cli_json():
    op = _first(workloads.cli_ops(5), "norms")
    bad = gate.cli_outcome(op, (0, '{"data": {"norm": [NaN]}}', ""))
    assert bad.failed and bad.reason == "nonstrict json"


def test_gate_flags_an_unexpected_verify_verdict():
    from ellipoly.verification import CheckResult
    flipped = [CheckResult("multiplication_matrix", True, "",
                           {"below_band_max": {str(n): 1.0 for n in range(4, 9)},
                            "plain_bandwidth": 2, "closed_vs_quadrature": 0.0,
                            "decay_b_sweep": [3.0, 2.0, 1.0]})]
    bad = gate.battery_outcome(None, flipped)
    assert bad.failed and bad.reason == "verdict"
