"""Seeded benchmark of the luxnorm batch jobs.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: synth-corpus, normalize-noisy, eval-long, run-suite, or `all`.
Inputs are generated from the seed (bench/gen.py) and the program is run
from `src/` of the checkout this file sits in.

With --trace 0 the workload's set-up and job are repeated for --seconds
(at least three times) in a fresh process, and the end-to-end metrics are
medians over the repetitions. With --trace 1 every workload runs once
under the tracer (--seconds is not used), the named workloads also run
once untraced for `trace.overhead_frac`, the traffic check runs, and the
per-layer metrics are printed instead. The last
line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. Results, machine information and
spans are also written under `.bench_out/`.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

import gen

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
MIN_REPS = 3
SETUP_ONLY_REPS = 7
CHILD_TIMEOUT_S = 170
# Pool workers reach their peak for well under a second, so RSS is read
# often; the process list is scanned for new workers less often.
RSS_SAMPLE_S = 0.01
TREE_SCAN_S = 0.25
PAGE_MB = os.sysconf("SC_PAGE_SIZE") / 2**20


def src_lines() -> int:
    return sum(len(path.read_bytes().splitlines()) for path in sorted((SRC / "luxnorm").rglob("*.py")))


def machine(load_start: tuple[float, ...]) -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "loadavg_start": [round(x, 2) for x in load_start],
        "loadavg_end": [round(x, 2) for x in os.getloadavg()],
        "src_luxnorm_lines": src_lines(),
    }


def _inputs_from_json(data: dict) -> gen.Inputs:
    data = dict(data)
    data["directory"] = Path(data["directory"])
    data["files"] = {key: Path(value) for key, value in data["files"].items()}
    return gen.Inputs(**data)


def _inputs_to_json(inputs: gen.Inputs) -> dict:
    data = dataclasses.asdict(inputs)
    data["directory"] = str(inputs.directory)
    data["files"] = {key: str(value) for key, value in inputs.files.items()}
    return data


def child_main(spec: Path, seconds: float) -> int:
    """Repeat one workload's set-up and job for `seconds`; print samples.

    Runs in its own process so that peak memory covers this workload only.
    The set-up alone runs SETUP_ONLY_REPS times first, so that set-up time
    is a median over more samples than the job's. Outputs of every
    repetition must have the same digest; the last one is checked in full.
    """
    from workloads import WORKLOADS

    inputs = _inputs_from_json(json.loads(spec.read_text(encoding="utf-8")))
    workload = WORKLOADS[inputs.workload]
    out_dir = spec.parent / "out"
    out_dir.mkdir(exist_ok=True)
    setups: list[float] = []
    jobs: list[float] = []
    digests: list[str] = []
    for _ in range(SETUP_ONLY_REPS):
        gc.collect()
        begin = time.perf_counter()
        state = workload.setup(inputs)
        setups.append(time.perf_counter() - begin)
        del state
    start = time.perf_counter()
    while len(jobs) < MIN_REPS or time.perf_counter() - start < seconds:
        rep = None  # free the previous repetition before timing the next
        gc.collect()
        rep = workload.run(inputs, out_dir)
        setups.append(rep.setup_s)
        jobs.append(rep.job_s)
        digests.append(workload.digest(rep))
    check = workload.check(inputs, rep)
    if len(set(digests)) != 1:
        check.fail(f"outputs differ between repetitions: {sorted(set(digests))}")
    print(json.dumps({
        "setup_s": setups,
        "job_s": jobs,
        "self_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": check.attempted,
        "failed": check.failed,
        "err": check.err,
        "checklist_pass": check.checklist_pass,
        "problems": check.problems,
        "digest": digests[0],
    }))
    return 0


def tree_pids(root: int) -> list[int]:
    """Process `root` and all its descendants."""
    children: dict[int, list[int]] = defaultdict(list)
    for entry in os.scandir("/proc"):
        if entry.name.isdigit():
            try:
                with open(f"/proc/{entry.name}/stat", "rb") as handle:
                    ppid = int(handle.read().rsplit(b")", 1)[1].split()[1])
            except (OSError, IndexError, ValueError):
                continue
            children[ppid].append(int(entry.name))
    pids = [root]
    for pid in pids:
        pids.extend(children[pid])
    return pids


def rss_mb(pids: list[int]) -> float:
    """Summed resident memory of `pids`; pages shared between a process
    and its forked workers count once per process."""
    pages = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/statm", "rb") as handle:
                pages += int(handle.read().split()[1])
        except (OSError, IndexError, ValueError):
            continue
    return pages * PAGE_MB


def measure_child(argv: list[str]) -> tuple[str, float]:
    """Run `argv`, sampling the RSS of its process tree until it exits.

    Returns its stdout and the largest sampled tree RSS in MB. The child
    leads its own process group, which is killed when it ends, so that no
    worker of it outlives it.
    """
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, cwd=ROOT,
                            start_new_session=True)
    peak = 0.0

    def sample() -> None:
        nonlocal peak
        pids: list[int] = []
        next_scan = 0.0
        while proc.poll() is None:
            if time.monotonic() >= next_scan:
                pids = tree_pids(proc.pid)
                next_scan = time.monotonic() + TREE_SCAN_S
            peak = max(peak, rss_mb(pids))
            time.sleep(RSS_SAMPLE_S)

    sampler = threading.Thread(target=sample)
    sampler.start()
    try:
        stdout, stderr = proc.communicate(timeout=CHILD_TIMEOUT_S)
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sampler.join()
    if proc.returncode != 0:
        raise RuntimeError(f"{argv} failed (exit {proc.returncode}):\n{stderr}")
    return stdout, peak


def run_untraced(name: str, seed: int, seconds: float, work: Path) -> dict:
    """Generate the inputs, measure in a child process, build the result."""
    inputs = gen.generate(name, seed, work / "inputs", gen.suite_path(SRC))
    spec = work / "inputs.json"
    spec.write_text(json.dumps(_inputs_to_json(inputs)), encoding="utf-8")
    stdout, tree_peak = measure_child(
        [sys.executable, str(Path(__file__).resolve()), "--child", str(spec), "--seconds", str(seconds)])
    child = json.loads(stdout.splitlines()[-1])
    attempted, failed = child["attempted"], child["failed"]
    metrics = {
        "setup_s": (statistics.median(child["setup_s"]), "s"),
        "job_s": (statistics.median(child["job_s"]), "s"),
        # The sampled tree can miss a short spike of the child itself.
        "peak_rss_mb": (max(tree_peak, child["self_rss_mb"]), "MB"),
        "ok_frac": ((attempted - failed) / attempted, "ratio"),
        # Not applicable on every workload; 1.0 there keeps the metric non-zero.
        "err": (child["err"] if child["err"] is not None else 1.0, "ratio"),
        "checklist_pass": (child["checklist_pass"] if child["checklist_pass"] is not None else 1.0,
                           "ratio"),
    }
    return {
        "workload": name,
        "seed": seed,
        "input": {"sentences": inputs.sentences, "tokens": inputs.tokens},
        "samples": {"setup_s": child["setup_s"], "job_s": child["job_s"]},
        "applicable": {"err": child["err"] is not None,
                       "checklist_pass": child["checklist_pass"] is not None},
        "digest": child["digest"],
        "problems": child["problems"],
        "attempted": attempted,
        "failed": failed,
        "correct": failed == 0,
        "metrics": metrics,
    }


def run_traced(label: str, names: tuple[str, ...], seed: int, work: Path) -> dict:
    """Run all workloads under the tracer; per-layer metrics and traffic.

    The tracing overhead is measured on the workloads in `names`.
    """
    import layers
    from tracer import Tracer

    suite = gen.suite_path(SRC)
    all_inputs = {w: gen.generate(w, seed, work / "inputs" / w, suite) for w in gen.WORKLOADS}
    tracer = Tracer()
    overhead, checks = layers.traced_pass(all_inputs, work, tracer, overhead_of=names)
    trace = layers.Trace(tracer.spans())
    metrics = layers.layer_metrics(trace)
    metrics["trace.overhead_frac"] = (overhead, "ratio")
    problems = layers.traffic_problems(trace)
    attempted = sum(check.attempted for _, check in checks)
    failed = sum(check.failed for _, check in checks)
    problems += [f"{run}: {p}" for run, check in checks for p in check.problems]
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans_{label}_seed{seed}.jsonl")
    return {
        "workload": label,
        "seed": seed,
        "spans": len(tracer),
        "problems": problems,
        "attempted": attempted,
        "failed": failed,
        "correct": failed == 0 and not problems,
        "metrics": metrics,
    }


def show(result: dict) -> None:
    head = f"workload {result['workload']}  seed {result['seed']}"
    if "input" in result:
        head += f"  input {result['input']['sentences']} sentences, {result['input']['tokens']} tokens"
    print(head)
    for metric, (value, unit) in result["metrics"].items():
        note = ""
        if result.get("applicable", {}).get(metric) is False:
            note = "  (not applicable to this workload)"
        elif metric in ("setup_s", "job_s"):
            samples = result["samples"][metric]
            note = f"  (median of {len(samples)}, range {min(samples):.4f}-{max(samples):.4f})"
        print(f"  {metric:34s} {value:14.6f} {unit}{note}")
    if "input" in result:
        print(f"  {'failed_frac':34s} {result['failed'] / result['attempted']:14.6f} ratio"
              f"  ({result['failed']} of {result['attempted']} operations)")
        print(f"  digest sha256 {result['digest']}")
    for problem in result["problems"]:
        print(f"  problem: {problem}")


def final_line(results: list[dict]) -> dict:
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    return {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*gen.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "luxnorm" / "__init__.py").is_file():
        print(f"bench: no luxnorm sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.child is not None:
        return child_main(args.child, args.seconds)
    # Unwind on SIGTERM too, so that the child's process group is killed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if args.workload is None:
        parser.error("--workload is required")

    load_start = os.getloadavg()
    names = gen.WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    # The traced pass runs every workload, so it runs once.
    for name in (args.workload,) if args.trace else names:
        work = OUT / f"work-{name}-{args.seed}-{os.getpid()}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        try:
            if args.trace:
                result = run_traced(name, names, args.seed, work)
            else:
                result = run_untraced(name, args.seed, args.seconds, work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        results.append(result)
        show(result)
    info = machine(load_start)
    print("machine " + json.dumps(info, sort_keys=True))
    for result in results:
        kind = "trace" if args.trace else "bench"
        path = OUT / f"{kind}_{result['workload']}_seed{args.seed}.json"
        path.write_text(json.dumps({**result, "machine": info}, indent=1, sort_keys=True) + "\n",
                        encoding="utf-8")
    print(json.dumps(final_line(results)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
