"""curvlab CLI benchmark.

    python3 perfbench/run.py --workload {ode,tables,oracle} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; the program under test is the
checkout's `src/curvlab`, run as `python -m curvlab.cli` subprocesses, so
every figure includes interpreter start and imports.  The loop is closed
with one client: one job at a time from this single-threaded process, with
CURVLAB_THREADS unset.  The workload's job list (workloads.py, drawn from
the seed) is run in whole passes for about S seconds: a pass starts only
while more than half a pass's time is left, and every figure is taken over
complete passes, so each job counts as often as every other.  Every output
is checked (checks.py) and hashed; the repeats of a job must give identical
bytes.

--trace 0 prints the end-to-end metrics; `--help` set-up samples are spread
over the run, one before every sixth job, and their median is reported.
--trace 1 runs at least two passes through the traced launcher (launch.py),
the first with each job also run untraced just before its traced run, and
prints the per-layer metrics; their counters must repeat exactly from pass
to pass.  Metric names and units come from BENCHMARK.json.  The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  A fuller
record, with the environment, per-job figures and artifact hashes, is
written to perfbench/results/.  See NOTES.md for the metrics and the known
defects.
"""

from __future__ import annotations

import argparse
import hashlib
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

from checks import KNOWN_DEFECTS, check_output
from workloads import WORKLOADS, make_jobs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
SETUP_EVERY = 6            # one `--help` sample before every sixth job
IMPORT_REPEATS = 3
IMPORTS = {
    "import.curvlab_s": None,            # everything `import curvlab.cli` costs
    "import.scipy_integrate_s": "scipy.integrate",
    "import.scipy_linalg_s": "scipy.linalg",
}


# ---------------------------------------------------------------------------
# child processes


def child_env():
    env = dict(os.environ)
    env.pop("CURVLAB_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def spawn(cmd, env, stderr_path):
    """Run cmd to completion; (exit code, wall seconds, rusage of the child)."""
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage


def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


class Runner:
    """Runs jobs one at a time and keeps the first output of each job."""

    def __init__(self, workdir, setup_every=0):
        self.workdir = workdir
        self.keep = workdir / "keep"
        self.keep.mkdir(parents=True)
        self.env = child_env()
        self.kept = {}          # job id -> path of its first good output
        self.digests = {}       # job id -> sha256 of that output
        self.errors = {}        # job id -> first error text
        self.setup_every = setup_every
        self.setup = []         # wall times of `curvlab --help`

    def help_seconds(self):
        """Wall time of `python -m curvlab.cli --help`: interpreter start,
        imports and parser."""
        err = self.workdir / "stderr.txt"
        rc, wall, _ = spawn([sys.executable, "-m", "curvlab.cli", "--help"],
                            self.env, err)
        if rc != 0:
            raise SystemExit("curvlab --help failed: " + err.read_text()[-500:])
        return wall

    def run(self, job, traced):
        out = self.workdir / f"out{job.ext}"
        trace = self.workdir / "trace.json"
        err = self.workdir / "stderr.txt"
        for stale in (out, trace):
            stale.unlink(missing_ok=True)
        args = [*job.args, "--out", str(out)]
        if traced:
            cmd = [sys.executable, str(HERE / "launch.py"), str(trace), *args]
        else:
            cmd = [sys.executable, "-m", "curvlab.cli", *args]
        rc, wall, usage = spawn(cmd, self.env, err)
        sample = {"wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
                  "rss_mb": usage.ru_maxrss / 1024.0, "rc": rc, "ok": False}
        if rc != 0 or not out.exists():
            self.errors.setdefault(job.id, err.read_text(errors="replace")[-500:])
            return sample
        digest = _sha256(out)
        if job.id not in self.kept:
            kept = self.keep / f"{job.id}{job.ext}"
            out.replace(kept)
            meta = Path(str(out) + ".meta.json")
            if meta.exists():
                meta.replace(str(kept) + ".meta.json")
            self.kept[job.id], self.digests[job.id] = str(kept), digest
        elif digest != self.digests[job.id]:
            self.errors.setdefault(job.id, "output bytes differ between repeats")
            return sample
        sample["ok"] = True
        if traced:
            sample["trace"] = json.loads(trace.read_text())
        return sample

    def passes(self, jobs, samples, deadline, traced):
        """Run whole passes of the job list, at least one, and another only
        while more than half a pass's time is left before `deadline`.
        With setup_every, take a `--help` sample before every setup_every-th
        job.  Return the passes."""
        complete = []
        start = time.perf_counter()
        count = 0
        while True:
            current = []
            for job in jobs:
                if self.setup_every and count % self.setup_every == 0:
                    self.setup.append(self.help_seconds())
                s = self.run(job, traced)
                samples[job.id].append(s)
                current.append(s)
                count += 1
            complete.append(current)
            now = time.perf_counter()
            per_pass = (now - start) / len(complete)
            if now + per_pass / 2 >= deadline:
                return complete


# ---------------------------------------------------------------------------
# metrics


def import_seconds(env):
    """Medians of `python -X importtime -c "import curvlab.cli"` figures."""
    runs = {name: [] for name in IMPORTS}
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import curvlab.cli"],
                              cwd=ROOT, env=env, capture_output=True, text=True, check=True)
        found = dict.fromkeys(IMPORTS, 0.0)
        for line in proc.stderr.splitlines():
            parts = line.removeprefix("import time:").split("|")
            if len(parts) != 3 or not parts[1].strip().isdigit():
                continue
            cumulative = int(parts[1]) / 1e6
            name = parts[2].strip()
            top_level = parts[2].startswith(" ") and not parts[2].startswith("  ")
            if top_level and name.split(".")[0] == "curvlab":
                found["import.curvlab_s"] += cumulative
            for metric, module in IMPORTS.items():
                if module == name:
                    found[metric] = cumulative
        for name, value in found.items():
            runs[name].append(value)
    return {name: statistics.median(v) for name, v in runs.items()}


def end_to_end(samples, setup):
    """Figures over every execution of the run's complete passes: a closed
    loop's throughput is executions over the time spent in them.  The tail
    is the 90th percentile latency (13 to 30 executions a run leave 1 to 3
    beyond it).  Set-up is the median `--help` run; the samples span the
    whole run."""
    runs = [s for per_job in samples.values() for s in per_job]
    walls = sorted(s["wall_s"] for s in runs)
    tail = statistics.quantiles(walls, n=10)[-1]
    metrics = {
        "setup_s": statistics.median(setup),
        "jobs_per_s": len(walls) / sum(walls),
        "job_p50_s": statistics.median(walls),
        "job_tail_s": tail,
        "cpu_s_per_job": statistics.fmean(s["cpu_s"] for s in runs),
        "peak_rss_mb": max(s["rss_mb"] for s in runs),
    }
    return metrics, {"percentile": 90, "samples": len(walls),
                     "beyond": sum(w > tail for w in walls)}


def pass_totals(one_pass):
    counts, times = {}, {}
    for s in one_pass:
        trace = s.get("trace", {"counts": {}, "times": {}})
        for k, v in trace["counts"].items():
            counts[k] = counts.get(k, 0) + v
        for k, v in trace["times"].items():
            times[k] = times.get(k, 0.0) + v
    return counts, times


def per_layer(untraced, traced_passes, imports):
    """Every launcher counter per pass, every span total per pass (median
    over the traced passes) as "<layer>_s", the import times and the
    tracing overhead; and whether the counters repeat in every pass."""
    totals = [pass_totals(p) for p in traced_passes]
    counters = [c for c, _ in totals]
    repeat = all(c == counters[0] for c in counters)
    metrics = dict(counters[0])
    for layer in totals[0][1]:
        metrics[f"{layer}_s"] = statistics.median(t[layer] for _, t in totals)
    points = metrics["oracle.points"]
    metrics["oracle.metric_evals_per_point"] = (
        metrics["oracle.metric_evals"] / points if points else 0.0)
    metrics.update(imports)
    metrics["trace.overhead_frac"] = (
        sum(s["wall_s"] for s in traced_passes[0])
        / sum(s[0]["wall_s"] for s in untraced.values()) - 1.0)
    return metrics, repeat, counters


# ---------------------------------------------------------------------------
# outcome of every execution


def select(values, specs):
    """The metrics named in BENCHMARK.json, with their units, in its order."""
    missing = [m["name"] for m in specs if m["name"] not in values]
    if missing:
        raise SystemExit(f"no figure for metric(s) {missing} of BENCHMARK.json")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in specs}


def judge(jobs, runner, sample_sets):
    """Check each job's kept output once and classify every execution:
    ok, failed (non-zero exit, changed bytes or a failed check), or a miss
    explained by a known defect."""
    verdicts = {}
    for job in jobs:
        if job.id in runner.kept:
            verdicts[job.id] = check_output(job.check, runner.kept[job.id])
        else:
            verdicts[job.id] = ("fail", runner.errors.get(job.id, "no output"))
    attempted = failed = 0
    defects = {}
    for samples in sample_sets:
        for job in jobs:
            status, _ = verdicts[job.id]
            for s in samples[job.id]:
                attempted += 1
                if not s["ok"] or status == "fail":
                    failed += 1
                elif status in KNOWN_DEFECTS:
                    defects[status] = defects.get(status, 0) + 1
    return verdicts, attempted, failed, defects


def environment(seed):
    import numpy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    src = hashlib.sha256()
    for path in sorted((SRC / "curvlab").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or commit
    blas = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
    return {"seed": seed, "commit": commit, "src_sha256": src.hexdigest(),
            "nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": importlib.metadata.version("scipy"),
            "blas_threads_env": {k: os.environ.get(k, "unset") for k in blas}}


# ---------------------------------------------------------------------------


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "curvlab" / "cli.py").is_file():
        print(f"no curvlab sources at {SRC}: run from a curvlab checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))    # the torus check uses the FD oracle
    spec = json.loads(SPEC.read_text())

    jobs = make_jobs(args.workload, args.seed)
    workdir = HERE / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    runner = Runner(workdir, setup_every=0 if args.trace else SETUP_EVERY)
    try:
        untraced = {j.id: [] for j in jobs}
        if args.trace:
            imports = import_seconds(runner.env)
            start = time.perf_counter()
            traced = {j.id: [] for j in jobs}
            # first pass: every job untraced, then traced, back to back, so
            # the overhead compares executions made under the same load
            first = []
            for job in jobs:
                untraced[job.id].append(runner.run(job, False))
                first.append(runner.run(job, True))
                traced[job.id].append(first[-1])
            traced_passes = [first] + runner.passes(jobs, traced, start + args.seconds,
                                                    True)
            verdicts, attempted, failed, defects = judge(jobs, runner, [untraced, traced])
            values, repeat, counters = per_layer(untraced, traced_passes, imports)
            metrics = select(values, spec["per_layer"])
            extra = {"counters_repeat": repeat, "counters_per_pass": counters}
        else:
            runner.help_seconds()       # compiles the package's bytecode
            start = time.perf_counter()
            runner.passes(jobs, untraced, start + args.seconds, False)
            verdicts, attempted, failed, defects = judge(jobs, runner, [untraced])
            values, tail = end_to_end(untraced, runner.setup)
            metrics = select(values, spec["end_to_end"])
            extra = {"job_tail": tail, "setup_samples_s": runner.setup,
                     "passes": len(untraced[jobs[0].id])}
        hashes = dict(runner.digests)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = environment(args.seed)
    misses = sum(defects.values())
    failed_frac = (failed + misses) / attempted
    print(f"# curvlab benchmark: workload {args.workload}, seed {args.seed}, "
          f"trace {args.trace}, {len(jobs)} jobs per pass")
    print(f"# python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, "
          f"nproc {env['nproc']}, cpu {env['cpu_model']}, src {env['src_sha256'][:12]}")
    for name, m in metrics.items():
        print(f"{name:32s} {m['value']:.6g} {m['unit']}")
    print(f"{'failed_frac':32s} {failed_frac:.6g} ratio "
          f"({failed} failed, {misses} known-defect misses, {attempted} attempted)")
    if args.trace:
        print(f"# counters repeat exactly across {len(extra['counters_per_pass'])} "
              f"traced passes: {extra['counters_repeat']}")
    else:
        t = extra["job_tail"]
        print(f"# job_tail_s is the p{t['percentile']} latency of {t['samples']} "
              f"executions, {t['beyond']} beyond it; "
              f"setup_s is the median of {len(runner.setup)} --help runs")
    for defect, count in sorted(defects.items()):
        print(f"# known defect {defect} ({count} executions): {KNOWN_DEFECTS[defect]}")
    for job in jobs:
        status, message = verdicts[job.id]
        if status != "ok":
            print(f"# {status}: {job.id}: {message}")

    record = {"workload": args.workload, "trace": args.trace, "environment": env,
              "metrics": metrics,
              "failed_frac": failed_frac, "attempted": attempted, "failed": failed,
              "known_defects": defects, **extra,
              "jobs": [{"id": j.id, "args": j.args, "check": verdicts[j.id],
                        "sha256": hashes.get(j.id),
                        "wall_s": [s["wall_s"] for s in untraced[j.id]]} for j in jobs]}
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    correct = failed == 0 and extra.get("counters_repeat", True)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
