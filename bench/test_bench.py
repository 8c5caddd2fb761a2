"""Tests of the benchmark's own code.

    python3 -m pytest bench/test_bench.py -q
"""

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import check  # noqa: E402
import gen  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402


def span(parent, name, start, end, measure=0, job=0):
    return (parent, job, name, start, end, measure)


def test_self_time_subtracts_direct_children():
    spans = [
        span(-1, "cli.run", 0.0, 10.0),
        span(0, "balance.decompose", 1.0, 4.0),
        span(1, "symcore.Poly.__mul__", 2.0, 3.0),
        span(0, "balance.divergence_split", 5.0, 6.0),
    ]
    assert tracing.self_times(spans) == [6.0, 2.0, 1.0, 1.0]


def test_self_time_counts_overlapping_children_once():
    spans = [span(-1, "cli.run", 0.0, 10.0), span(0, "cli.run", 1.0, 4.0),
             span(0, "cli.run", 3.0, 6.0), span(0, "cli.run", 9.0, 12.0)]
    assert tracing.self_times(spans)[0] == 10.0 - 5.0 - 1.0


def test_layer_metrics_on_a_synthetic_tree():
    spans = [
        span(-1, "cli.parse_system", 0.0, 0.004, measure=7),
        span(0, "symcore.Poly.__pow__", 0.001, 0.003, measure=10),
        span(1, "symcore.Poly.__mul__", 0.001, 0.002, measure=30),
        span(-1, "symcore.Poly.div_exact", 0.004, 0.006, measure=4, job=1),
        span(3, "symcore.Poly.__add__", 0.004, 0.005, measure=12, job=1),
        span(-1, "symcore.Poly.__mul__", 0.006, 0.007, measure=5, job=1),
    ]
    m = tracing.layer_metrics(spans, jobs=2)
    assert m["symcore.Poly.__mul__.calls"] == 1.0
    assert m["symcore.Poly.__mul__.term_pairs"] == 17.5
    assert m["symcore.Poly.__pow__.pairs_per_result_term"] == 3.0
    assert m["symcore.Poly.div_exact.terms_copied_per_quotient_term"] == 3.0
    assert m["cli.parse_system.terms"] == 3.5
    assert abs(m["cli.parse.self_ms"] - 1.0) < 1e-9
    assert abs(m["symcore.self_ms"] - 2.5) < 1e-9


def _small_workload():
    work = gen.ladder_workload(7)
    keep = [j for j in work["jobs"] if j["system"].startswith(("rung1.0", "rung2.0"))]
    power = gen.power_system("u + u_x + x + 1", 6, "1 + x^2")
    work["systems"]["power"] = power
    keep += gen._lib_jobs("power")
    for index, job in enumerate(keep):
        job["index"] = index
    work["jobs"] = keep
    return work


def test_traced_pass_gives_the_untraced_bytes_and_repeatable_counters(tmp_path):
    from jetbalance.symcore import Poly

    original_mul = Poly.__mul__
    work = _small_workload()
    runner = worker.make_runner(work, ROOT)
    counters = []
    for name in ("a.tsv", "b.tsv"):
        result = worker.traced_runs(work["jobs"], runner, tmp_path / name)
        for plain, traced in zip(result["jobs"], result["traced_jobs"]):
            assert plain["digests"] == traced["digests"]
            assert plain["status"] == traced["status"] == [[0, None]]
        metrics = tracing.layer_metrics(tracing.read_spans(tmp_path / name), len(work["jobs"]))
        counters.append({k: v for k, v in metrics.items() if not k.endswith("_ms")})
    assert counters[0] == counters[1]
    assert counters[0]["cli.run.calls"] == 1.0
    assert counters[0]["symcore.Poly.__pow__.calls"] > 0
    assert Poly.__mul__ is original_mul and Poly.__rmul__ is original_mul


def test_generator_is_seeded():
    assert gen.ladder_workload(3) == gen.ladder_workload(3)
    assert gen.powers_workload(3) == gen.powers_workload(3)
    assert gen.ladder_workload(3)["systems"] != gen.ladder_workload(4)["systems"]


def test_checks_pass_on_the_program_and_catch_a_wrong_residual():
    text = gen.ladder_workload(5)["systems"]["rung2.0"]
    assert check.check_system(text) == []
    work = {"systems": {"s": text}, "sections": {}}
    job = {"system": "s", "command": "equations", "format": "structured"}
    _, _, payload = worker.LibRunner(work)(job)
    report = json.loads(payload)
    assert check.check_report(job, payload.decode(), text, None) == []
    residuals = report["analyses"]["equations"]["residuals"]
    residuals["u"] = residuals["u"] + " + x"
    assert check.check_report(job, json.dumps(report), text, None)


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layer = set(tracing.layer_metrics([], jobs=1))
    layer |= {"startup.interpreter_ms", "startup.import_ms", "trace_overhead_pct"}
    layer |= {f"startup.import.{m}_ms" for m in tracing.LAYERS}
    assert {m["name"] for m in spec["per_layer"]} == layer
    assert {w["name"] for w in spec["workloads"]} <= set(gen.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == {
        "job_ms_p50", "job_ms_p90", "jobs_per_s", "setup_s", "peak_rss_mb"}


def test_throughput_counts_full_passes_over_their_wall_time():
    import run

    jobs = [{"command": "check", "format": "text", "index": i} for i in range(3)]
    result = worker.closed_loop(jobs, lambda job: (0, None, b"report"), seconds=0.05)
    passes = result["full_passes"]
    assert passes >= 1 and all(len(r["scaled"]) == len(r["times"]) >= passes for r in result["jobs"])
    busy = sum(sum(r["scaled"][:passes]) for r in result["jobs"])
    metrics = run.end_to_end({**result, "peak_rss_kb": 1024}, setup_s=0.1)
    assert metrics["jobs_per_s"] == (3 * passes / busy, "1/s")


def test_speed_scale_uses_the_probes_near_an_interval():
    log = speed.SpeedLog()
    log.at = [0.0, 0.5, 1.0, 5.0, 5.5]
    log.probes = [0.001, 0.002, 0.003, 0.004, 0.008]
    ref = speed.REFERENCE_S
    assert log.scale(0.2, 0.3) == ref / 0.002  # probes at 0, 0.5 and 1
    assert log.scale(5.2, 5.3) == ref / 0.006  # probes at 5 and 5.5
    assert log.scale(3.0, 3.1) == ref / 0.004  # none within a second: the next one
    assert log.scaled(0.2, 2.0) == 2.0 * (ref / 0.002)  # probes at 0, 0.5 and 1
