#!/usr/bin/env python3
"""HetSim benchmark: builds the default tree and measures one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fig5-serial --seed 1 --seconds 30 --trace 0

Workloads (see perfbench/README.md for why each exists):
  fig5-serial   the 30 Figure 5 points through SweepRunner(1), in process
  knobs-serial  the same grid with one memory-layer override per system
  suite-par     every refs/MANIFEST artifact, bench by bench, at
                HETSIM_JOBS=nproc, checked with hetsim_check diff/fidelity

--trace 0 measures end to end (wall_s, cpu_s, peak_rss_mb, setup_s);
--trace 1 makes a traced run and reports the per-layer metrics instead.
--self-test runs the workload against a deliberately corrupted reference
and exits 0 only if the corruption is caught.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. Provenance and the full run record go to an
earlier stdout line and to .bench_build/perfbench/results/.
"""

import argparse
import hashlib
import json
import os
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

WORKLOADS = ("fig5-serial", "knobs-serial", "suite-par")
BUILD_DIR = os.path.join(".bench_build", "perfbench")
TREE_DIR = os.path.join(BUILD_DIR, "hetsim")
PERFBENCH = os.path.join(BUILD_DIR, "hetsim_perfbench")
HETSIM_CHECK = os.path.join(TREE_DIR, "tools", "hetsim_check")
WORK_DIR = os.path.join(BUILD_DIR, "work")
KNOB_REFS = os.path.join("perfbench", "refs", "knobs.txt")
FIG5_GOLDEN = os.path.join("refs", "golden", "fig5.csv")

# Artifacts regenerated at HETSIM_JOBS=1. ablation_contention segfaults in
# about 1% of runs at jobs=4 (0 in 400 at jobs=1, 0 in 800 at jobs=4 with
# the trace cache off), so a parallel run makes the suite flaky rather than
# slower; its sweep takes well under a second either way.
SERIAL_ARTIFACTS = ("ablation_contention.txt",)

SETUP_PROBES = 25       # extra set-up-only launches per run
CHILD_TIMEOUT_S = 150   # any single child process
BUILD_TIMEOUT_S = 850


def die(message, code=2):
    print("error: " + message, file=sys.stderr)
    sys.exit(code)


def log(message):
    print(message, file=sys.stderr, flush=True)


def nproc():
    return len(os.sched_getaffinity(0))


def clean_env():
    """The caller's environment minus every HETSIM_* variable, so knobs
    such as a trace-cache or fidelity-tier switch cannot leak into a run."""
    return {k: v for k, v in os.environ.items() if not k.startswith("HETSIM_")}


def resolve_jobs():
    raw = os.environ.get("HETSIM_JOBS")
    if raw is None:
        return nproc()
    if not raw.isdigit() or int(raw) < 1:
        die("HETSIM_JOBS must be a positive integer (got %r)" % raw)
    if int(raw) > nproc():
        die("refusing HETSIM_JOBS=%s: more than nproc=%d" % (raw, nproc()))
    return int(raw)


# -- child processes -------------------------------------------------------

def spawn(cmd, env, stdout_path, stderr_path=None):
    """Runs cmd to completion and returns its timing and resource use.
    stderr goes to stdout_path when stderr_path is None."""
    with open(stdout_path, "wb") as out:
        err = open(stderr_path, "wb") if stderr_path else None
        try:
            t_spawn = time.monotonic()
            proc = subprocess.Popen(cmd, stdout=out,
                                    stderr=err or subprocess.STDOUT, env=env)
            killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
            t_exit = time.monotonic()
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            if err:
                err.close()
    return {"rc": proc.returncode, "t_spawn": t_spawn, "t_exit": t_exit,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024.0}


def last_json_line(path):
    with open(path) as f:
        lines = [line for line in f.read().splitlines() if line.strip()]
    return json.loads(lines[-1]) if lines else None


# -- build -----------------------------------------------------------------

def manifest_entries():
    with open(os.path.join("refs", "MANIFEST")) as f:
        return [line.strip() for line in f
                if line.strip() and not line.startswith("#")]


def suite_programs():
    """(artifact, binary, merges stderr) for every .txt entry of the
    manifest; .csv entries are written by the bench of the same figure."""
    programs = []
    for name in manifest_entries():
        if not name.endswith(".txt"):
            continue
        stem = name[:-len(".txt")]
        if stem.startswith("example_"):
            programs.append((name, os.path.join(
                TREE_DIR, "examples", stem[len("example_"):]), True))
        else:
            programs.append((name, os.path.join(TREE_DIR, "bench", stem),
                             False))
    return programs


def tree_digest(roots):
    """sha256 over the paths and contents of every file under roots."""
    digest = hashlib.sha256()
    for root in roots:
        if os.path.isfile(root):
            walk = [(os.path.dirname(root), [], [os.path.basename(root)])]
        else:
            walk = os.walk(root)
        for base, dirs, files in walk:
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(base, name)
                digest.update(path.encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()


BUILD_INPUTS = ("CMakeLists.txt", "src", "bench", "examples", "tools",
                "tests", "perfbench")


def build():
    """Builds every binary a run needs. A stamp of the build inputs skips
    the (several-second) no-op make on every run after the first."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    build_log = os.path.join(BUILD_DIR, "build.log")
    stamp = os.path.join(BUILD_DIR, "build.stamp")
    inputs = tree_digest([p for p in BUILD_INPUTS if os.path.exists(p)])
    targets = ["hetsim_perfbench", "hetsim_check_tool"] + [
        os.path.basename(binary) for _, binary, _ in suite_programs()]
    binaries = [PERFBENCH, HETSIM_CHECK] + [b for _, b, _ in suite_programs()]
    if os.path.exists(stamp) and all(os.path.exists(b) for b in binaries):
        with open(stamp) as f:
            if f.read().strip() == inputs:
                return
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE="])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", str(nproc()),
                  "--target"] + targets)
    with open(build_log, "w") as out:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                                    env=clean_env(),
                                    timeout=BUILD_TIMEOUT_S).returncode
            except subprocess.TimeoutExpired:
                rc = -1
            if rc != 0:
                out.flush()
                with open(build_log) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                die("build failed: %s (log: %s)" % (" ".join(cmd), build_log),
                    1)
    with open(stamp, "w") as f:
        f.write(inputs + "\n")


# -- provenance --------------------------------------------------------------

def provenance(workload, seed, jobs):
    def first_line(cmd):
        try:
            out = subprocess.run(cmd, capture_output=True, text=True,
                                 timeout=20)
            return out.stdout.strip().splitlines()[0] if out.returncode == 0 \
                and out.stdout.strip() else None
        except (OSError, subprocess.TimeoutExpired):
            return None

    compiler, flags = "unknown", "unknown"
    try:
        with open(os.path.join(BUILD_DIR, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_CXX_COMPILER:"):
                    path = line.split("=", 1)[1].strip()
                    compiler = first_line([path, "--version"]) or path
        flags_make = os.path.join(TREE_DIR, "src", "core", "CMakeFiles",
                                  "hetsim_core.dir", "flags.make")
        with open(flags_make) as f:
            for line in f:
                if line.startswith("CXX_FLAGS"):
                    flags = line.split("=", 1)[1].strip()
    except OSError:
        pass

    return {"workload": workload, "seed": seed, "jobs": jobs,
            "nproc": nproc(), "nproc_all": os.cpu_count(),
            "compiler": compiler, "flags": flags,
            "git_revision": os.path.exists(".git") and
            first_line(["git", "rev-parse", "HEAD"]) or
            "none (not a git checkout)",
            "src_sha256": tree_digest(["src"])[:16]}


# -- in-process workloads (fig5-serial, knobs-serial) -------------------------

def perfbench_pass(workload, seed, refs, tag, extra=()):
    cmd = [PERFBENCH, workload, "--seed", str(seed)] + list(refs) + list(extra)
    out = os.path.join(WORK_DIR, tag + ".out")
    run = spawn(cmd, clean_env(), out, os.path.join(WORK_DIR, tag + ".err"))
    doc = last_json_line(out) if run["rc"] == 0 else None
    if doc is None:
        die("%s exited with %d (see %s.err)" % (" ".join(cmd), run["rc"],
                                                 os.path.join(WORK_DIR, tag)),
            1)
    doc["setup_s"] = doc["t_ready"] - run["t_spawn"]
    doc["rss_mb"] = run["rss_mb"]
    return doc


def setup_probes(workload, seed, count):
    return [perfbench_pass(workload, seed, [], "probe%d" % i,
                           ["--setup-only"])["setup_s"]
            for i in range(count)]


def inprocess_refs(workload, corrupt):
    """Reference arguments for the pass; with corrupt, a damaged copy."""
    if workload == "fig5-serial":
        flag, path = "--golden", FIG5_GOLDEN
    else:
        flag, path = "--refs", KNOB_REFS
    if corrupt:
        path = corrupt_copy(path, os.path.join(WORK_DIR, "corrupt",
                                               os.path.basename(path)))
    return [flag, path]


def corrupt_copy(src, dst):
    """Writes src to dst with one digit of every data line changed (a CSV
    header stays intact)."""
    with open(src) as f:
        lines = f.read().splitlines(keepends=True)
    first = 1 if src.endswith(".csv") else 0
    for i in range(first, len(lines)):
        lines[i] = re.sub(r"\d", lambda m: str((int(m.group()) + 1) % 10),
                          lines[i], count=1)
    os.makedirs(os.path.dirname(dst), exist_ok=True)
    with open(dst, "w") as f:
        f.writelines(lines)
    return dst


def timed_passes(run_pass, seconds):
    """Whole passes until the next one would overrun seconds (at least
    one pass)."""
    passes = []
    start = time.monotonic()
    while True:
        passes.append(run_pass("pass%d" % len(passes)))
        elapsed = time.monotonic() - start
        if elapsed * (1 + 1.0 / len(passes)) > seconds:
            return passes


def end_to_end(passes, setups):
    return {"wall_s": statistics.median(p["wall_s"] for p in passes),
            "cpu_s": statistics.median(p["cpu_s"] for p in passes),
            "peak_rss_mb": statistics.median(p["rss_mb"] for p in passes),
            "setup_s": statistics.median(setups)}


def totals(runs):
    """(attempted, failed) over pass records."""
    return sum(p["points"] for p in runs), sum(p["failed"] for p in runs)


def tracing_overhead(traced_pass, untraced):
    """Traced wall over the untraced passes run before and after it."""
    return traced_pass["wall_s"] / \
        statistics.median(p["wall_s"] for p in untraced) - 1.0


def run_inprocess(workload, seed, seconds, traced, corrupt):
    refs = inprocess_refs(workload, corrupt)

    def run_pass(tag, extra=()):
        return perfbench_pass(workload, seed, refs, tag, extra)

    if not traced:
        passes = timed_passes(run_pass, seconds)
        setups = [p["setup_s"] for p in passes] + \
            setup_probes(workload, seed, SETUP_PROBES)
        record = {"passes": passes, "setup_samples": setups}
        return totals(passes) + (end_to_end(passes, setups), record)

    # The traced pass sits between two untraced ones, so slow drift of the
    # host does not read as tracing overhead.
    trace_path = os.path.join(WORK_DIR, "%s-seed%d.trace.json" % (workload,
                                                                   seed))
    passes = [run_pass("pass0")]
    traced_pass = run_pass("traced", ["--trace", trace_path])
    passes.append(run_pass("pass1"))
    layers = dict(traced_pass["layers"])
    layers["core.sweep.idle_frac"] = idle_frac(passes[0]["cpu_s"],
                                               passes[0]["wall_s"], 1)
    layers["bench.tracing_overhead_frac"] = tracing_overhead(traced_pass,
                                                             passes)
    record = {"passes": passes, "traced": traced_pass,
              "trace_file": trace_path}
    return totals(passes + [traced_pass]) + (layers, record)


def idle_frac(cpu_s, wall_s, jobs):
    return 1.0 - cpu_s / (jobs * wall_s) if wall_s > 0 else 0.0


# -- suite-par -----------------------------------------------------------------

def check_report(command, out_dir, refs_dir):
    """Runs hetsim_check <command>; returns (exit code, docs it flagged)."""
    path = os.path.join(WORK_DIR, "check-%s.txt" % command)
    run = spawn([HETSIM_CHECK, command, "--out", out_dir, "--refs", refs_dir],
                clean_env(), path)
    with open(path) as f:
        flagged = set(re.findall(r"^\s*\d+\.\s+\S+\s+(\S+)", f.read(), re.M))
    return run["rc"], flagged


def suite_pass(seed, jobs, refs_dir, tag, spans=None):
    out_dir = os.path.join(WORK_DIR, "suite-out")
    err_dir = os.path.join(WORK_DIR, "suite-stderr")
    for d in (out_dir, err_dir):
        shutil.rmtree(d, ignore_errors=True)
        os.makedirs(d)
    env = clean_env()
    env["HETSIM_CSV_DIR"] = out_dir
    env["HETSIM_TIMING_JSON"] = os.path.join(err_dir, "bench_timing.json")

    programs = suite_programs()
    random.Random(seed).shuffle(programs)
    runs = []
    for artifact, binary, merge_stderr in programs:
        err = None if merge_stderr else os.path.join(err_dir, artifact)
        env["HETSIM_JOBS"] = "1" if artifact in SERIAL_ARTIFACTS else str(jobs)
        run = spawn([binary], env, os.path.join(out_dir, artifact), err)
        run["artifact"] = artifact
        run["jobs"] = int(env["HETSIM_JOBS"])
        runs.append(run)
        if spans is not None:
            spans.append((artifact, run["t_spawn"], run["t_exit"]))

    # An artifact fails when its binary exits non-zero or either check
    # flags it; a check that cannot run at all fails every artifact.
    entries = manifest_entries()
    failed = set()
    crashed = [r["artifact"][:-len(".txt")] for r in runs if r["rc"] != 0]
    for entry in entries:
        stem = entry.rsplit(".", 1)[0]
        if any(stem == c or c.startswith(stem + "_") for c in crashed):
            failed.add(entry)
    for command in ("diff", "fidelity"):
        rc, flagged = check_report(command, out_dir, refs_dir)
        if rc == 2 or (rc != 0 and not flagged & set(entries)):
            failed.update(entries)
        failed.update(flagged & set(entries))

    for r in runs:
        r["wall_s"] = r["t_exit"] - r["t_spawn"]
    return {"tag": tag,
            "wall_s": max(r["t_exit"] for r in runs) -
            min(r["t_spawn"] for r in runs),
            "cpu_s": sum(r["cpu_s"] for r in runs),
            "rss_mb": max(r["rss_mb"] for r in runs),
            "points": len(entries), "failed": len(failed),
            "failures": sorted(failed),
            # Per child, weighted by its wall time.
            "idle_frac": sum(idle_frac(r["cpu_s"], r["wall_s"], r["jobs"]) *
                             r["wall_s"] for r in runs) /
            sum(r["wall_s"] for r in runs),
            "children": [{k: r[k] for k in ("artifact", "rc", "jobs", "wall_s",
                                             "cpu_s", "rss_mb")}
                         for r in runs]}


def corrupted_refs():
    """A copy of refs/ with a damaged Figure 5 golden."""
    copy = os.path.join(WORK_DIR, "corrupt", "refs")
    shutil.rmtree(copy, ignore_errors=True)
    shutil.copytree("refs", copy)
    corrupt_copy(os.path.join("refs", "golden", "fig5.csv"),
            os.path.join(copy, "golden", "fig5.csv"))
    return copy


def write_chrome_trace(path, process, spans):
    origin = min(start for _, start, _ in spans)
    events = [{"ph": "M", "pid": 1, "tid": 0, "name": "process_name",
               "args": {"name": process}},
              {"ph": "M", "pid": 1, "tid": 0, "name": "thread_name",
               "args": {"name": "artifacts"}}]
    events += [{"ph": "X", "pid": 1, "tid": 0, "name": name,
                "cat": "perfbench", "ts": (start - origin) * 1e6,
                "dur": (end - start) * 1e6} for name, start, end in spans]
    with open(path, "w") as f:
        json.dump({"traceEvents": events, "displayTimeUnit": "ns",
                   "otherData": {"events": len(spans), "dropped": 0}}, f)
        f.write("\n")


def run_suite(seed, seconds, traced, corrupt, jobs):
    refs_dir = corrupted_refs() if corrupt else "refs"

    def run_pass(tag, spans=None):
        return suite_pass(seed, jobs, refs_dir, tag, spans)

    if not traced:
        passes = timed_passes(run_pass, seconds)
        # The suite's binaries cannot be probed from outside, so set-up is
        # priced on the Figure 5 grid they spend the most time on.
        setups = setup_probes("fig5-serial", seed, SETUP_PROBES)
        record = {"passes": passes, "setup_samples": setups}
        return totals(passes) + (end_to_end(passes, setups), record)

    spans = []
    passes = [run_pass("pass0")]
    traced_pass = run_pass("traced", spans)
    passes.append(run_pass("pass1"))
    trace_path = os.path.join(WORK_DIR, "suite-par-seed%d.trace.json" % seed)
    write_chrome_trace(trace_path, "perfbench suite-par", spans)

    # Layer costs come from a traced pass over the Figure 5 grid in
    # process: the bench binaries cannot be instrumented from outside, and
    # Figures 5 and 6 simulate that grid twice per suite.
    grid = perfbench_pass("fig5-serial", seed,
                          inprocess_refs("fig5-serial", corrupt), "grid",
                          ["--trace", os.path.join(WORK_DIR,
                                                   "grid.trace.json")])
    layers = dict(grid["layers"])
    durations = sorted(end - begin for _, begin, end in spans)
    layers.update({
        "core.points": float(len(spans)),
        "core.point_s.p50": durations[len(durations) // 2],
        "core.point_s.max": durations[-1],
        "core.sweep.idle_frac": traced_pass["idle_frac"],
        "bench.tracing_overhead_frac": tracing_overhead(traced_pass, passes),
    })
    record = {"passes": passes, "traced": traced_pass,
              "trace_file": trace_path, "layer_grid": grid}
    return totals(passes + [traced_pass, grid]) + (layers, record)


def metric_units(kind):
    """Names and units of the metrics BENCHMARK.json declares under kind."""
    with open("BENCHMARK.json") as f:
        return {m["name"]: m["unit"] for m in json.load(f)[kind]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="check against a corrupted reference; exit 0 "
                             "only if the corruption is caught")
    args = parser.parse_args()
    # SIGTERM unwinds like Ctrl-C, so spawn() kills and reaps its child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.seed < 0:
        die("--seed must be non-negative")

    if not all(os.path.exists(p) for p in (
            "BENCHMARK.json", "CMakeLists.txt", "src",
            os.path.join("refs", "MANIFEST"))):
        die("run from the root of a HetSim checkout (BENCHMARK.json, "
            "CMakeLists.txt, src/ or refs/MANIFEST not found)")
    jobs = resolve_jobs() if args.workload == "suite-par" else 1

    build()
    os.makedirs(WORK_DIR, exist_ok=True)
    info = provenance(args.workload, args.seed, jobs)
    info.update({"seconds": args.seconds, "trace": args.trace,
                 "self_test": args.self_test})
    print("provenance: " + json.dumps(info, sort_keys=True), flush=True)

    traced = args.trace == 1
    if args.workload == "suite-par":
        attempted, failed, values, record = run_suite(
            args.seed, args.seconds, traced, args.self_test, jobs)
    else:
        attempted, failed, values, record = run_inprocess(
            args.workload, args.seed, args.seconds, traced, args.self_test)

    units = metric_units("per_layer" if traced else "end_to_end")
    missing = sorted(set(units) - set(values))
    if missing:
        die("no value measured for: " + ", ".join(missing), 1)
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed,
              "metrics": {name: {"value": values[name], "unit": unit}
                          for name, unit in units.items()}}

    results_dir = os.path.join(BUILD_DIR, "results")
    os.makedirs(results_dir, exist_ok=True)
    with open(os.path.join(results_dir, "%s-seed%d-trace%d.json" % (
            args.workload, args.seed, args.trace)), "w") as f:
        json.dump({"provenance": info, "result": result, "record": record},
                  f, indent=1)
        f.write("\n")

    for p in record["passes"]:
        for message in p["failures"][:5]:
            log("failed: " + message)
    print(json.dumps(result), flush=True)
    if args.self_test and failed == 0:
        die("self-test: the corrupted reference was not caught", 1)


if __name__ == "__main__":
    main()
