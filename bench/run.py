"""jetbalance benchmark: one command per workload, run from the repository root.

    python3 bench/run.py --workload catalog_cli|ladder_lib|powers_lib \
        --seed N --seconds S --trace 0|1

With `--trace 0` it times the workload's jobs in a closed loop (one client,
one job at a time) for S seconds and prints the end-to-end metrics; with
`--trace 1` it runs every job once untraced and once traced and prints the
per-layer metrics.  Outputs are checked after the timed passes
(see check.py).  The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics.

Children get PYTHONPATH=src and a bytecode cache under a temporary directory
of the benchmark's own (PYTHONPYCACHEPREFIX), warmed during set-up, so that
no `__pycache__` is written under src/.
"""

import sys

sys.dont_write_bytecode = True  # this process and its imports write no bytecode

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import re  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_BLOCKS = 3  # blocks of starts before and again after the timed passes
SETUP_STARTS = 5  # starts per block
STARTUP_REPEATS = 5
IMPORT = "import jetbalance.cli"
MODULES = ("symcore", "jetforms", "variational", "balance", "cli")
CHILD_TIMEOUT_S = 170


def child_env(pycache: Path) -> dict:
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(pycache)
    env["PYTHONPATH"] = str(SRC)
    return env


def wall(argv: list, env: dict) -> float:
    start = time.perf_counter()
    subprocess.run(argv, env=env, cwd=ROOT, check=True, capture_output=True)
    return time.perf_counter() - start


def setup_times(env: dict) -> list:
    """Per block of starts, the fastest time for a fresh interpreter to import
    the command line module, scaled to the reference speed (speed.py); the
    bytecode cache is filled by an earlier import.  A block's fastest start
    drops the short slow-downs that other tenants of a shared machine cause;
    a slower import still shows in every start."""
    from speed import SpeedLog

    speed = SpeedLog()
    blocks = []
    for _ in range(SETUP_BLOCKS):
        starts = []
        for _ in range(SETUP_STARTS):
            speed.probe()
            starts.append((time.perf_counter(), wall([sys.executable, "-c", IMPORT], env)))
        speed.probe()
        blocks.append(min(speed.scaled(start, seconds) for start, seconds in starts))
    return blocks


def startup_metrics(env: dict) -> dict:
    """Bare interpreter start and `-X importtime` figures for the package."""
    interpreter = [wall([sys.executable, "-c", "pass"], env) for _ in range(STARTUP_REPEATS)]
    runs = []
    for _ in range(STARTUP_REPEATS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", IMPORT], env=env,
                              cwd=ROOT, check=True, capture_output=True, text=True)
        rows = {}
        for line in proc.stderr.splitlines():
            found = re.match(r"import time:\s+(\d+) \|\s+(\d+) \|\s*(\S+)", line)
            if found:
                rows[found.group(3)] = (int(found.group(1)), int(found.group(2)))
        runs.append(rows)
    out = {"startup.interpreter_ms": 1000 * statistics.median(interpreter),
           "startup.import_ms": statistics.median(
               (r["jetbalance"][1] + r["jetbalance.cli"][1]) / 1000 for r in runs)}
    for module in MODULES:
        out[f"startup.import.{module}_ms"] = statistics.median(
            r[f"jetbalance.{module}"][0] / 1000 for r in runs)
    return out


def run_worker(workload: dict, tmp: Path, env: dict, seconds: int, spans: Path | None) -> dict:
    jobs_file, result_file = tmp / "jobs.json", tmp / "result.json"
    jobs_file.write_text(json.dumps(workload), encoding="utf-8")
    argv = [sys.executable, str(BENCH / "worker.py"), str(jobs_file), str(result_file),
            "--seconds", str(seconds)]
    if spans is not None:
        argv += ["--spans", str(spans)]
    subprocess.run(argv, env=env, cwd=ROOT, check=True, timeout=CHILD_TIMEOUT_S)
    return json.loads(result_file.read_text(encoding="utf-8"))


def failed_jobs(workload: dict, passes: list) -> dict:
    """Job index -> problems, over every pass of the run."""
    import check
    from worker import LibRunner

    problems: dict = {}
    jobs = workload["jobs"]
    system_problems = {}
    for key, text in workload["systems"].items():
        try:
            system_problems[key] = check.check_system(text)
        except Exception as exc:  # a system the checker cannot read fails its jobs
            system_problems[key] = [f"checker error: {exc!r}"]
    in_process = LibRunner(workload) if workload["kind"] == "cli" else None
    for index, job in enumerate(jobs):
        found = list(system_problems[job["system"]])
        results = [p[index] for p in passes]
        statuses = {tuple(s) for r in results for s in r["status"]}
        digests = {d for r in results for d in r["digests"]}
        expected = tuple(job.get("expect", (0, None)))
        if statuses != {expected}:
            found.append(f"exit status {sorted(statuses)}, expected {expected}")
        if len(digests) != 1:
            found.append("report bytes differ between repetitions")
        if in_process is not None:
            exit_code, code, payload = in_process(job)
            if (exit_code, code) != expected or hashlib.sha256(payload).hexdigest() not in digests:
                found.append("command-line output differs from the in-process job")
        output = results[0]["output"]
        if output is not None and expected[0] == 0:
            found += check.check_report(job, output, workload["systems"][job["system"]],
                                        workload["sections"].get(job.get("section")))
        if found:
            problems[index] = found
    return problems


def percentile(values: list, q: int) -> float:
    """The Harrell-Davis estimate of the q-th percentile: a mean of all the
    values, sorted and weighted by a beta density centred on the percentile.
    Unlike a single order statistic it does not jump when the percentile
    falls into a gap between two groups of job sizes."""
    from scipy.stats.mstats import hdquantiles

    return float(hdquantiles(values, prob=[q / 100])[0])


def end_to_end(result: dict, setup_s: float) -> dict:
    """Every time is scaled to the reference speed (speed.py).  Percentiles
    are over the jobs of each job's median repetition in the run: taking one
    time per job keeps a pass cut short by the deadline from changing the job
    mix, and the median of scaled times is steadier than their fastest, which
    picks up the probes' errors.  Throughput is the executions of the full
    passes over the time they took, every repetition counted."""
    best = [statistics.median(r["scaled"]) for r in result["jobs"]]
    passes = result["full_passes"]
    busy = sum(sum(r["scaled"][:passes]) for r in result["jobs"])
    return {
        "job_ms_p50": (1000 * percentile(best, 50), "ms"),
        "job_ms_p90": (1000 * percentile(best, 90), "ms"),
        "jobs_per_s": (len(best) * passes / busy, "1/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (result["peak_rss_kb"] / 1024, "MB"),
    }


def per_layer(result: dict, spans: Path, env: dict, jobs: int) -> dict:
    import tracing

    metrics = {name: (value, _layer_unit(name))
               for name, value in tracing.layer_metrics(tracing.read_spans(spans), jobs).items()}
    for name, value in startup_metrics(env).items():
        metrics[name] = (value, "ms")
    overhead = 100 * (result["traced_s"] - result["untraced_s"]) / result["untraced_s"]
    metrics["trace_overhead_pct"] = (overhead, "%")
    return metrics


def _layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_per_result_term") or name.endswith("_per_quotient_term"):
        return "ratio"
    return {"cli.render.bytes": "bytes", "max_coeff_bits": "bits"}.get(name, "count")


def main() -> int:
    parser = argparse.ArgumentParser(description="jetbalance benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # On SIGTERM, unwind: subprocess.run kills its child and the finally
    # below removes the temporary directory.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    import gen

    if args.workload not in gen.WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {', '.join(gen.WORKLOADS)}", file=sys.stderr)
        return 2
    if not (SRC / "jetbalance" / "cli.py").is_file() or not list((ROOT / "systems").glob("*.bal")):
        print(f"no jetbalance sources under {ROOT}: run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=scratch))
    try:
        env = child_env(tmp / "pycache")
        wall([sys.executable, "-c", IMPORT], env)  # fills the bytecode cache
        setup = setup_times(env)
        workload = gen.WORKLOADS[args.workload](args.seed, ROOT)
        workload["root"] = str(ROOT)
        spans = None
        if args.trace:
            out_dir = ROOT / ".bench_out"
            out_dir.mkdir(exist_ok=True)
            spans = out_dir / f"spans-{args.workload}.tsv"
        result = run_worker(workload, tmp, env, args.seconds, spans)
        passes = [result["jobs"]] + ([result["traced_jobs"]] if args.trace else [])
        problems = failed_jobs(workload, passes)
        setup_s = statistics.median(setup + setup_times(env))
        executions = [sum(len(p[i]["times"]) for p in passes) for i in range(len(workload["jobs"]))]
        if args.trace:
            metrics = per_layer(result, spans, env, len(workload["jobs"]))
        else:
            metrics = end_to_end(result, setup_s)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    attempted = sum(executions)
    failed = sum(executions[i] for i in problems)
    for index, found in sorted(problems.items()):
        job = workload["jobs"][index]
        print(f"FAILED {job['command']} {job['system']} --format {job['format']}: {'; '.join(found)}")
    samples = f"{len(executions)} jobs, {attempted} executions"
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit} ({samples})")
    print(f"{args.workload} failed_frac = {failed / attempted:.6g} ({failed} of {attempted} executions)")
    if not args.trace:
        from speed import REFERENCE_S

        print(f"{args.workload} speed probe median = {result['probe_ms']:.4g} ms: times above are "
              f"scaled to the reference probe of {1000 * REFERENCE_S:g} ms")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
