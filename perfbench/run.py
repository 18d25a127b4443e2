"""Benchmark of the wickshe engines: end-to-end and traced per-layer metrics.

    python3 perfbench/run.py --workload chaos-engines --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all           # table of every workload
    python3 perfbench/run.py --compare OLD.json NEW.json

Run from the repository root.  Each job of a workload runs in a fresh
``python3`` process (perfbench/job.py) against ``src/``, with a config file
generated from the seed under ``.bench_work/``; jobs and sizes are in
perfbench/workloads.json.  A run repeats whole passes over the workload's
jobs while another pass fits in ``--seconds`` (at least one pass), then
starts jobs set-up-only until the run holds ``setup_samples`` set-up timings.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json; ``--trace 1``
runs one untraced and one traced pass and reports the per-layer metrics.
Every run writes its metrics (median, quartiles, sample count), the artifact
digests and the environment to ``.bench_results/`` (or ``--results``); the
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--compare`` lists the artifacts
whose sha256 differs between two such result files.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checks import judge
from tracing import PATH_SPANS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
JOB_PY = BENCH_DIR / "job.py"
RUN_LIMIT_S = 170.0  # a run must end within 180 s
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


# ---------------------------------------------------------------------------
# jobs


def job_specs(jobs: list[dict], defaults: dict, seed: int, work: Path) -> list[dict]:
    """Write each job's inputs under ``work/<job>/`` and return the specs."""
    specs = []
    for job in jobs:
        cwd = work / job["name"]
        cwd.mkdir(parents=True)
        child = {"stamps": str(cwd / "stamps.json")}
        if "cli" in job:
            lines = [f"seed = {seed}", f"probes = {defaults['probes']}", "output_dir = out"]
            lines += [f"{k} = {v}" for k, v in job["config"].items()]
            (cwd / "job.cfg").write_text("\n".join(lines) + "\n", encoding="utf-8")
            report = job["cli"]
            child.update(kind="cli", argv=[job["cli"], "--config", "job.cfg",
                                           "--threads", str(defaults["threads"])])
        else:
            report = job["library"]
            child.update(kind="library", library=job["library"], out="out",
                         params=dict(job["params"], seed=seed, threads=defaults["threads"]))
        spec = {"name": job["name"], "checks": job["checks"], "cwd": cwd,
                "report": report, "child": child}
        specs.append(spec)
    return specs


def count_checks(specs: list[dict], passes: list[list[dict]]) -> tuple[int, int]:
    """(checks attempted, checks failed) over all job executions.

    Exit 1 with a report means some checks failed: they count as reported.
    Any other failure to report counts every check of the job as failed.
    """
    attempted = failed = 0
    for runs in passes:
        for spec, res in zip(specs, runs):
            attempted += spec["checks"] if res["checks"] is None else res["checks"]
            failed += spec["checks"] if res["failed_checks"] is None else res["failed_checks"]
    return attempted, failed


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("WICKSHE_THREADS", None)  # it would override --threads
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _wait(proc: subprocess.Popen, deadline: float) -> tuple[int, float]:
    """Reap the child (killing it at the deadline); exit code and peak RSS in MB."""
    try:
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                raise TimeoutError
            time.sleep(0.01)
    except BaseException as exc:  # never leave a job running
        proc.kill()
        _, status, usage = os.wait4(proc.pid, 0)
        if not isinstance(exc, TimeoutError):
            raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0


def execute(spec: dict, deadline: float, trace: bool = False, setup_only: bool = False) -> dict:
    """Run one job process; its timings, exit code, peak RSS and judged outputs."""
    cwd = Path(spec["cwd"])
    out = cwd / "out"
    shutil.rmtree(out, ignore_errors=True)
    stamps_path = Path(spec["child"]["stamps"])
    stamps_path.unlink(missing_ok=True)
    (cwd / "spec.json").write_text(json.dumps(dict(spec["child"], trace=trace,
                                                   setup_only=setup_only)))
    with (cwd / "job.log").open("w") as log:
        spawned = time.monotonic()
        proc = subprocess.Popen([sys.executable, str(JOB_PY), str(cwd / "spec.json")],
                                cwd=cwd, env=_child_env(), stdout=log,
                                stderr=subprocess.STDOUT)
        code, rss_mb = _wait(proc, deadline)
    stamps = json.loads(stamps_path.read_text()) if stamps_path.exists() else {}
    res = {"exit": code, "rss_mb": rss_mb,
           "setup_s": stamps["call"] - spawned if "call" in stamps else None,
           "wall_s": stamps["done"] - stamps["call"] if "done" in stamps else None,
           "import_s": stamps.get("import_s"), "trace": stamps.get("trace")}
    if not setup_only:
        res.update(judge(code, out, spec["report"]))
    return res


# ---------------------------------------------------------------------------
# statistics and metrics


def describe(samples: list[float]) -> dict:
    """Median, quartiles (statistics.quantiles, n=4) and sample count."""
    xs = sorted(samples)
    q1, q3 = (statistics.quantiles(xs, n=4)[::2] if len(xs) > 1 else (xs[0], xs[0]))
    return {"median": statistics.median(xs), "q1": q1, "q3": q3, "n": len(xs),
            "samples": xs}


def _pass_wall(runs: list[dict]) -> float:
    return sum(r["wall_s"] for r in runs if r["wall_s"] is not None)


def end_to_end(passes: list[list[dict]], setups: list[list[float]], rss: list[float],
               checks: tuple[int, int]) -> dict:
    wall = describe([_pass_wall(p) for p in passes])
    # every job pays the same interpreter start, package import and config
    # parse, so the sum over jobs is the job count times the median set-up
    setup = describe([x for job in setups for x in job])
    setup.update({k: len(setups) * setup[k] for k in ("median", "q1", "q3")})
    attempted, failed = checks
    return {
        "wall_s": {"unit": "s", **wall},
        "setup_s": {"unit": "s", **setup},
        "peak_rss_mb": {"unit": "MB", **describe([max(rss)])},
        "check_pass_share": {"unit": "share",
                             **describe([(attempted - failed) / attempted])},
        "check_fail_share": {"unit": "share", **describe([failed / attempted])},
    }


def per_layer(traced: list[dict], untraced_wall: float) -> dict:
    spans: dict = {}
    counters: dict = {}
    imports = {"cli.import_s": 0.0, "chain_moments.import_s": 0.0}
    for run in traced:
        tr = run["trace"] or {"spans": {}, "counters": {}, "imports": {}}
        for name, rec in tr["spans"].items():
            acc = spans.setdefault(name, {"inclusive_s": 0.0, "self_s": 0.0, "calls": 0})
            for k in acc:
                acc[k] += rec[k]
        for name, n in tr["counters"].items():
            counters[name] = counters.get(name, 0) + n
        imports["cli.import_s"] += run["import_s"] or 0.0
        for name, s in tr["imports"].items():
            imports[name] += s

    def incl(name):
        return spans.get(name, {}).get("inclusive_s", 0.0)

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    m = {name + "_s": rec["inclusive_s"] for name, rec in spans.items()}
    m.update({name + "_self_s": rec["self_s"] for name, rec in spans.items()})
    m.update(counters)
    m.update(imports)
    m["coefficients.kernel_matrix_calls"] = calls("coefficients.kernel_matrix")
    m["kernels.semigroup_calls"] = calls("kernels.semigroup")
    m["wiener_kernels.evals"] = calls("wiener_kernels.eval")
    m["feynman_kac.fk_estimate_calls"] = calls("feynman_kac.fk_estimate")
    idx_steps = counters.get("spectral.index_steps", 0)
    m["spectral.ns_per_index_step"] = incl("spectral.run") / idx_steps * 1e9 if idx_steps else 0.0
    path_steps = counters.get("feynman_kac.path_steps", 0)
    m["feynman_kac.ns_per_path_step"] = (sum(incl(n) for n in PATH_SPANS) / path_steps * 1e9
                                         if path_steps else 0.0)
    m["trace.overhead_s"] = _pass_wall(traced) - untraced_wall
    return m


# ---------------------------------------------------------------------------
# runs


def environment(threads: int) -> dict:
    def version(pkg):
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return None

    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            sha = None
    return {"git_sha": sha, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": version("numpy"), "scipy": version("scipy"),
            "blas_env": {v: os.environ.get(v) for v in BLAS_VARS}, "threads": threads}


def run_workload(name: str, config: dict, seed: int, seconds: float, trace: bool) -> dict:
    """Run the jobs of ``config["workloads"][name]`` (see workloads.json)."""
    jobs = config["workloads"][name]
    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    work = ROOT / ".bench_work" / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        specs = job_specs(jobs, config, seed, work)
        passes: list[list[dict]] = []
        while True:
            t0 = time.monotonic()
            passes.append([execute(s, deadline) for s in specs])
            if trace or time.monotonic() - started + (time.monotonic() - t0) > seconds:
                break
        traced = [execute(s, deadline, trace=True) for s in specs] if trace else []
        setups = [[p[i]["setup_s"] for p in passes if p[i]["setup_s"] is not None]
                  for i in range(len(specs))]
        probes = []
        while (not trace and sum(map(len, setups)) < config["setup_samples"]
               and time.monotonic() < deadline):
            i = len(probes) % len(specs)
            probes.append(execute(specs[i], deadline, setup_only=True))
            if probes[-1]["setup_s"] is None:
                break
            setups[i].append(probes[-1]["setup_s"])
    finally:
        shutil.rmtree(work, ignore_errors=True)

    first = passes[0]
    for p in passes[1:] + ([traced] if traced else []):
        for a, b in zip(first, p):
            if a["ok"] and b["ok"] and a["digests"] != b["digests"]:
                b["ok"] = False
                b["problems"].append("artifacts differ from the first pass of this seed")
    executions = [r for p in passes for r in p] + traced
    problems = [f"{s['name']}: {msg}" for p in passes + ([traced] if traced else [])
                for s, r in zip(specs, p) for msg in r["problems"]]
    failed = sum(not r["ok"] for r in executions)
    result = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "environment": environment(config["threads"]),
        "correct": not problems, "attempted": len(executions), "failed": failed,
        "problems": problems,
        "jobs": {s["name"]: {"digests": first[i]["digests"], "exit": first[i]["exit"],
                             "wall_s": [p[i]["wall_s"] for p in passes],
                             "setup_s": setups[i]}
                 for i, s in enumerate(specs)},
        "end_to_end": None, "per_layer": None,
    }
    if all(setups):
        result["end_to_end"] = end_to_end(
            passes, setups, [r["rss_mb"] for r in executions + probes],
            count_checks(specs, passes))
    if trace:
        result["per_layer"] = per_layer(traced, _pass_wall(passes[0]))
    return result


def contract_line(result: dict, bench: dict) -> dict:
    """The last output line: every end_to_end (or per_layer) metric of BENCHMARK.json."""
    out = {"correct": result["correct"], "attempted": result["attempted"],
           "failed": result["failed"], "metrics": {}}
    if result["trace"]:
        for m in bench["per_layer"]:
            out["metrics"][m["name"]] = {"value": result["per_layer"].get(m["name"], 0),
                                         "unit": m["unit"]}
    elif result["end_to_end"] is not None:
        for m in bench["end_to_end"]:
            out["metrics"][m["name"]] = {"value": result["end_to_end"][m["name"]]["median"],
                                         "unit": m["unit"]}
    return out


def print_summary(result: dict):
    print(f"workload {result['workload']} seed {result['seed']} "
          f"trace {int(result['trace'])}: correct={result['correct']}")
    for msg in result["problems"]:
        print(f"  problem: {msg}")
    if result["trace"]:
        for k in sorted(result["per_layer"]):
            print(f"  {k:40s} {result['per_layer'][k]:.6g}")
        return
    for k, d in (result["end_to_end"] or {}).items():
        q1, q3 = d.get("q1", d["median"]), d.get("q3", d["median"])
        print(f"  {k:18s} {d['median']:12.6g} {d['unit']:6s} q1 {q1:.6g} q3 {q3:.6g} n {d['n']}")


def compare(old_path: str, new_path: str) -> int:
    """List artifacts whose sha256 differs between two result files."""
    old, new = (json.loads(Path(p).read_text()) for p in (old_path, new_path))
    differ = 0
    for job in sorted(set(old["jobs"]) | set(new["jobs"])):
        a = old["jobs"].get(job, {}).get("digests", {})
        b = new["jobs"].get(job, {}).get("digests", {})
        for art in sorted(set(a) | set(b)):
            if a.get(art) != b.get(art):
                differ += 1
                print(f"{job}/{art}: {a.get(art, 'absent')} -> {b.get(art, 'absent')}")
    print(f"{differ} artifact(s) differ")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results", help="result file (default .bench_results/...)")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)

    if not (ROOT / "src" / "wickshe" / "cli.py").is_file():
        print(f"error: no wickshe sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    config = json.loads((BENCH_DIR / "workloads.json").read_text())
    seed = config["default_seed"] if args.seed is None else args.seed
    seconds = bench["run_seconds"] if args.seconds is None else args.seconds
    names = list(config["workloads"]) if args.workload == "all" else [args.workload]
    if None in names or any(n not in config["workloads"] for n in names):
        parser.error(f"--workload must be one of {', '.join(config['workloads'])} or all")

    results = {}
    for name in names:
        result = results[name] = run_workload(name, config, seed, seconds, bool(args.trace))
        path = Path(args.results) if args.results and len(names) == 1 else \
            ROOT / ".bench_results" / f"{name}-seed{seed}-trace{args.trace}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(result, indent=1))
        print_summary(result)
    if len(names) > 1:
        keys = ("wall_s", "setup_s", "peak_rss_mb", "check_fail_share")
        print(f"{'workload':16s}" + "".join(f"{k:>18s}" for k in keys))
        for name, result in results.items():
            e2e = result["end_to_end"] or {}
            print(f"{name:16s}" + "".join(f"{e2e[k]['median'] if k in e2e else float('nan'):18.4f}"
                                          for k in keys))
        print(json.dumps({name: contract_line(r, bench) for name, r in results.items()}))
    else:
        print(json.dumps(contract_line(results[names[0]], bench)))
    return 0  # correctness is reported in the result line


if __name__ == "__main__":
    sys.exit(main())
