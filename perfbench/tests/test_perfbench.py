"""Tests for the benchmark's own code.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import numpy as np  # noqa: E402
import pytest  # noqa: E402
import scipy  # noqa: E402

import eoflab  # noqa: E402
from perfbench import bench, tracing, workloads  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402


def _key(x):
    if isinstance(x, eoflab.DensityMatrix):
        return x.mat.tobytes()
    return tuple(_key(y) for y in x) if isinstance(x, (list, tuple)) else x


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_determines_inputs(name):
    w = WORKLOADS[name]
    first = _key(w.inputs(5))
    assert first == _key(w.inputs(5))
    assert first != _key(w.inputs(6))
    assert len(first) % w.round_ops == 0


@pytest.mark.parametrize("name", ["pair-additivity", "relation-chain"])
def test_catalogue_workloads_rotate_one_set(name):
    w = WORKLOADS[name]
    assert sorted(_key(w.inputs(5))) == sorted(_key(w.inputs(6)))


def test_frame_keeps_spectrum_and_eof():
    rho = eoflab.random_density(4, 3, 9)
    rho = eoflab.DensityMatrix((2, 2), rho.mat)
    moved = workloads.framed(rho, [1, 2])
    assert not np.allclose(moved.mat, rho.mat)
    assert np.allclose(np.linalg.eigvalsh(moved.mat), np.linalg.eigvalsh(rho.mat), atol=1e-12)
    # the reference takes square roots of eigenvalues near zero, so it is
    # good to about sqrt(machine epsilon) on rank-deficient states
    ref = workloads.wootters_eof(rho.mat)
    assert abs(workloads.wootters_eof(moved.mat) - ref) < 1e-7
    assert abs(eoflab.eof_wootters_2q(rho) - ref) < 1e-7


@pytest.mark.parametrize("n, rank", [
    (1, 1), (5, 5), (10, 9), (18, 17), (20, 18), (70, 63),
    (100, 90), (101, 91), (200, 190), (1000, 990),
])
def test_tail_rank(n, rank):
    assert bench.tail_rank(n) == rank
    if n >= 100:
        assert n - rank == 10


def test_latency_summary():
    lat = [float(x) for x in range(1, 201)]
    s = bench.latency_summary(lat[::-1])
    assert s["p50"] == 100.5
    assert s["tail"] == 190.0
    assert s["tail_pct"] == 95.0
    assert s["tail_beyond"] == 10


def _probe(argv):
    out = workloads._probe_op(argv, 0)
    return out, workloads.check_probe(argv, out)


def test_random_question_violation_is_a_finding_not_a_failure():
    argv = ["probe", "question1", "--trials", "10", "--seed", "0"]
    (code, _), (failure, finding) = _probe(argv)
    assert code == 1
    assert failure is None and finding


def test_probe_failures():
    argv = ["probe", "superadditivity", "--trials", "5", "--seed", "3", "--source", "case1"]
    (code, text), (failure, finding) = _probe(argv)
    assert code == 0 and failure is None and not finding
    assert workloads.check_probe(argv, (2, text))[0] == "exit code 2"
    assert "not JSON" in workloads.check_probe(argv, (0, "{"))[0]
    payload = json.loads(text)
    payload["argmin"]["gap"] += 1e-6
    assert "re-evaluates" in workloads.check_probe(argv, (0, json.dumps(payload)))[0]
    payload = json.loads(text)
    payload["violation_found"] = True
    assert workloads.check_probe(argv, (1, json.dumps(payload)))[0] == "violation on source case1"
    assert "exit code 1" in workloads.check_probe(argv, (1, text))[0]


def test_raising_ops_count_as_failed_within_whole_rounds():
    def op(x, k):
        if k % 2:
            raise ValueError("odd")
        return x

    w = workloads.Workload("t", "", None, op, lambda x, out: (None, False),
                           lambda out: out, round_ops=4, trace_ops=1)
    ops = bench.timed_loop(w, [1, 2, 3], 0.0)       # stops after one whole round
    failed = sum(o.failure is not None for o in ops)
    assert len(ops) == 4
    assert failed == 2
    assert "ValueError" in ops[1].failure


def _span(name, start, end, parent):
    return tracing.Span(name, start, end, parent, 0)


def test_self_time_subtracts_covered_child_time():
    spans = [
        _span("p", 0.0, 10.0, -1),
        _span("c", 1.0, 3.0, 0),
        _span("c", 2.0, 5.0, 0),      # overlaps its sibling: covered once
        _span("g", 2.5, 4.0, 2),      # grandchild: not subtracted from p
        _span("c", 9.0, 12.0, 0),     # runs past p: clipped to p's end
    ]
    selfs = tracing.self_times(spans)
    assert selfs[0] == pytest.approx(5.0)
    assert selfs[2] == pytest.approx(1.5)
    assert tracing.covered([(0, 1), (3, 4)], 0.5, 3.5) == pytest.approx(1.0)


def test_busy_counts_outermost_span_of_a_name():
    spans = [_span("a", 0.0, 4.0, -1), _span("a", 1.0, 2.0, 0), _span("b", 5.0, 6.0, -1)]
    rows = tracing.by_name(spans)
    assert rows["a"]["calls"] == 2
    assert rows["a"]["busy_s"] == pytest.approx(4.0)
    assert rows["a"]["self_s"] == pytest.approx(4.0)
    assert rows["b"]["busy_s"] == pytest.approx(1.0)


def test_tracer_reproduces_values_and_restores_names():
    rho = workloads.framed(eoflab.statezoo.random_density_dims((2, 2), 2, 3), [0, 0])
    opts = eoflab.EofOptions(restarts=2, ensemble_size=4, seed=1)
    plain = eoflab.eof_minimize(rho, (0,), opts)
    original = eoflab.probes.minimize_over_decompositions
    before = tracing.snapshot()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert eoflab.probes.minimize_over_decompositions is not original
        tracer.op = 0
        traced = eoflab.eof_minimize(rho, (0,), opts)
        tracer.op = None
        eoflab.eof_minimize(rho, (0,), opts)    # outside an op: not recorded
    finally:
        tracer.restore()
    assert tracing.unrestored(before) == []
    assert eoflab.probes.minimize_over_decompositions is original
    assert eoflab.eof.scipy is scipy
    assert workloads._estimate_fingerprint(traced) == workloads._estimate_fingerprint(plain)
    assert tracing.nfev_mismatches(tracer.spans) == 0
    m = tracing.layer_metrics(tracer.spans, 0.0)
    assert set(m) == {name for name, _, _ in tracing.PER_LAYER}
    assert m["eof.minimize.calls"] == 1
    assert m["eof.restart.count"] == 2
    assert m["eof.restart.nfev"] == m["eof.objective.calls"] > 0
    assert m["eof.setup.self_s"] > 0


def test_benchmark_json_matches_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [w.why for w in WORKLOADS.values()]
    assert [tuple(m.values()) for m in spec["end_to_end"]] == bench.END_TO_END
    assert [tuple(m.values()) for m in spec["per_layer"]] == tracing.PER_LAYER
