#!/usr/bin/env python3
"""The repository benchmark: real tdc_run invocations on three workloads.

Run from the repository root:

    python3 perfbench/run.py --workload ipc|inject|serve --seed N \\
        --seconds S --trace 0|1 [--record FILE] [--smoke]

It builds tdc_run and perfbench_probe from source into .bench_build/,
works in .bench_run/, and runs every op single-threaded, one process at
a time. --trace 0 measures the end-to-end metrics; --trace 1 is the
traced run that prints the per-layer metrics and the tracing overhead.
The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. --record appends the full result (run
manifest, per-op digests, metrics) to a JSON-lines file that
perfbench/compare.py reads. perfbench/README.md says why each workload
exists and which layer metric should move which end-to-end metric.
"""

import argparse
import glob
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.join(".bench_build", "perfbench")
WORK_DIR = ".bench_run"
CACHE_DIR = os.path.join(WORK_DIR, "cache")
TDC_RUN = os.path.join(BUILD_DIR, "repo", "bench", "tdc_run")
PROBE = os.path.join(BUILD_DIR, "perfbench_probe")
WORKLOADS = ("ipc", "inject", "serve")
OP_TIMEOUT_S = 170

# End-to-end metrics: name -> (unit, better). Every workload reports all.
END_TO_END = {
    "wall_s": ("s", "lower"),
    "cpu_s": ("s", "lower"),
    "warm_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "setup_s": ("s", "lower"),
    "work_per_s": ("1/s", "higher"),
}

# What work_per_s counts on each workload, under its own name.
WORK_UNIT = {
    "ipc": "sim_kcycles_per_s",
    "inject": "trials_per_s",
    "serve": "requests_per_s",
}

# Per-layer metrics of the traced run: name -> (unit, better).
PER_LAYER = {
    "cpu.run_s": ("s", "lower"),
    "cpu.batch_s": ("s", "lower"),
    "cpu.serial_s": ("s", "lower"),
    "cpu.fat.ns_per_kcycle": ("ns", "lower"),
    "cpu.lean.ns_per_kcycle": ("ns", "lower"),
    "cpu.sim_cycles": ("count", "higher"),
    "cpu.sim_instructions": ("count", "higher"),
    "cpu.runs": ("count", "lower"),
    "workload.ns_per_instr": ("ns", "lower"),
    "core.recover_s": ("s", "lower"),
    "core.recover.calls": ("count", "lower"),
    "core.recover.failed": ("count", "lower"),
    "core.recover.row_reads": ("count", "lower"),
    "core.recover.success_ratio": ("ratio", "higher"),
    "core.scrub_ns_per_row": ("ns", "lower"),
    "core.read_ns": ("ns", "lower"),
    "core.write_ns": ("ns", "lower"),
    "ecc.edc8.encode_ns": ("ns", "lower"),
    "ecc.edc8.decode_clean_ns": ("ns", "lower"),
    "ecc.secded.decode_dirty_ns": ("ns", "lower"),
    "ecc.oecned.decode_dirty_ns": ("ns", "lower"),
    "ecc.rs15_12.decode_ns": ("ns", "lower"),
    "array.inject_ns": ("ns", "lower"),
    "array.extract_ns": ("ns", "lower"),
    "array.deposit_ns": ("ns", "lower"),
    "scheme.inject_s.2d": ("s", "lower"),
    "scheme.inject_s.conv": ("s", "lower"),
    "scheme.inject_s.wt": ("s", "lower"),
    "scheme.inject_s.prod": ("s", "lower"),
    "scheme.inject_s.dram": ("s", "lower"),
    "scheme.trials": ("count", "higher"),
    "reliability.lifetime_s": ("s", "lower"),
    "reliability.yield_s": ("s", "lower"),
    "reliability.cache.memory_hits": ("count", "higher"),
    "reliability.cache.disk_hits": ("count", "higher"),
    "reliability.cache.misses": ("count", "lower"),
    "reliability.cache.stored": ("count", "lower"),
    "reliability.cache.disk_hit_us": ("us", "lower"),
    "vlsi.cost_s": ("s", "lower"),
    "driver.optimize_s": ("s", "lower"),
    "driver.render_s": ("s", "lower"),
    "service.serve_s": ("s", "lower"),
    "service.ns_per_request.clean": ("ns", "lower"),
    "service.ns_per_request.faulted": ("ns", "lower"),
    "service.generate_s": ("s", "lower"),
    "service.trace_write_s": ("s", "lower"),
    "service.trace_read_s": ("s", "lower"),
    "service.rbw_absorbed": ("count", "higher"),
    "service.rbw_charged": ("count", "lower"),
    "service.steal_ratio": ("ratio", "higher"),
    "service.recoveries": ("count", "lower"),
    "service.recovery_row_reads": ("count", "lower"),
    "service.scrub_steps": ("count", "higher"),
    "trace.traced_wall_s": ("s", "lower"),
    "trace.untraced_wall_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}

# Probe counters that flag a wrong result when present and nonzero.
PROBE_ANOMALIES = (
    "trace.warm_mismatch",
    "service.trace_mismatch",
    "core.read_not_clean",
    "reliability.cache.lookup_misses",
    "ecc.secded.decode_dirty.unexpected",
    "ecc.oecned.decode_dirty.unexpected",
    "ecc.edc8.decode_clean.unexpected",
    "ecc.rs15_12.decode.unexpected",
)

# Fixed work of each figure op: simulated kcycles (ipc) or Monte-Carlo
# trials (inject), from the figure definitions in src/driver/figures.cc
# and src/scheme/figure_campaigns.cc.
FIGURE_WORK = {
    # 2 machines x 6 workloads x (baseline + 4 protections) x 150k cycles.
    "fig5": 2 * 6 * 5 * 150,
    # 2 tables (L1, L2) x 2 machines x 6 workloads x 150k cycles.
    "fig6": 2 * 2 * 6 * 150,
    # Ablations 3, 4, 5: (1 + 6) + 8 + 12 runs x 120k cycles.
    "ablation": 27 * 120,
    # 10 footprints x 4 schemes x 40 trials.
    "fig3": 10 * 4 * 40,
    # Monte-Carlo yield cross-check: 3 fault counts x 300 trials.
    "fig8": 3 * 300,
    # Scrub panel 4 x 4 cells + spare panel 3 x 4 cells, 60 trials each.
    "lifetime": 28 * 60,
    "related-work": 6 * 2 * 50,
    "chipkill": 7 * 5 * 50,
}


class BenchError(Exception):
    """The benchmark could not run (missing sources, failed build)."""


class Op:
    """One tdc_run invocation. check: a second invocation whose tables
    must equal this op's (serve: generator vs trace replay)."""

    def __init__(self, name, args, work=0.0, check=None):
        self.name = name
        self.args = args
        self.work = work
        self.check = check


# serve.faulted's recovery work (deterministic sweep reads) varies by
# +-40% between seeds, which would swamp any timing bound, so the faulted
# stream keeps a fixed seed like the figure ops; --seed feeds the clean
# stream.
FAULTED_SEED = 12345


def serve_streams(seed, smoke):
    """serve's two streams: name -> (generator spec, requests, flags,
    seed)."""
    faulted = ["--scrub-interval", "64", "--fault-interval", "32768",
               "--fault", "32x32"]
    if smoke:
        return {"serve.clean": ("uniform/n2e4/w30", 20000, [], seed),
                "serve.faulted": ("zipf90/n1e4", 10000, faulted,
                                  FAULTED_SEED)}
    return {"serve.clean": ("uniform/n4e6/w30", 4000000, [], seed),
            "serve.faulted": ("zipf90/n1e6", 1000000, faulted,
                              FAULTED_SEED)}


def trace_path(name):
    return os.path.join(WORK_DIR, name + ".trace")


def workload_ops(workload, seed, smoke=False):
    """The workload's ops, in the order they run."""
    s = str(seed)
    if workload == "ipc":
        if smoke:
            return [Op("table1", ["--figure", "table1"]),
                    Op("ipc.grid", ["--machine", "lean", "--protection",
                                    "l1+steal+l2", "--workload", "OLTP",
                                    "--cycles", "20000", "--seed", s],
                       work=2 * 20)]
        ops = [Op(f, ["--figure", f], FIGURE_WORK[f])
               for f in ("fig5", "fig6", "ablation")]
        # 6 workloads x (baseline + 1 protection) x 150k cycles.
        ops.append(Op("ipc.grid", ["--machine", "lean", "--protection",
                                   "l1+steal+l2", "--seed", s],
                      work=6 * 2 * 150))
        return ops
    if workload == "inject":
        figures = (("fig1", "fig2", "table1") if smoke else
                   ("fig1", "fig2", "fig3", "fig7", "fig8", "lifetime",
                    "table1", "related-work", "chipkill"))
        events = 4 if smoke else 200
        ops = [Op(f, ["--figure", f], FIGURE_WORK.get(f, 0))
               for f in figures]
        ops.append(Op("inject.grid",
                      ["--scheme", "2d:edc8/i4+vp32",
                       "--scheme", "conv:secded/i4",
                       "--scheme", "prod:256x256",
                       "--scheme", "dram:chipkill/x4",
                       "--fault", "32x32", "--fault", "row:32",
                       "--fault", "chip:any",
                       "--events", str(events), "--seed", s],
                      work=4 * 3 * events))
        # 12 design points x 4 default faults x trials (default 100).
        optimize = ["--optimize", "2d:edc{8,16,32}/i{1..8..x2}+vp32"]
        trials = 100
        if smoke:
            trials = 4
            optimize += ["--trials", str(trials)]
        ops.append(Op("inject.optimize", optimize + ["--seed", s],
                      work=12 * 4 * trials))
        return ops
    if workload == "serve":
        ops = []
        streams = serve_streams(seed, smoke)
        for name, (spec, requests, flags, stream_seed) in streams.items():
            tail = flags + ["--seed", str(stream_seed)]
            ops.append(Op(name, ["--serve", "trace:" + trace_path(name)] +
                          tail, work=requests, check=["--serve", spec] + tail))
        return ops
    raise BenchError("unknown workload %r" % workload)


def common_flags(cache_dir):
    return ["--threads", "1", "--cache-dir", cache_dir]


# --- Build ---------------------------------------------------------------


def run_quiet(cmd):
    """Run a build step, its output to stderr; raise on failure."""
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT)
    sys.stderr.write(proc.stdout.decode(errors="replace")[-4000:])
    if proc.returncode != 0:
        raise BenchError("build step failed: %s" % " ".join(cmd))


def build():
    if not (os.path.isfile("CMakeLists.txt") and os.path.isdir("src") and
            os.path.isfile(os.path.join("bench", "tdc_run.cc"))):
        raise BenchError("run from the repository root: the tdc_run "
                         "sources (CMakeLists.txt, src/, bench/) are missing")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        run_quiet(["cmake", "-S", HERE, "-B", BUILD_DIR,
                   "-DCMAKE_BUILD_TYPE=Release"] + generator)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_quiet(["cmake", "--build", BUILD_DIR, "--target", "tdc_run",
               "perfbench_probe", "-j", jobs])


# --- Running ops -----------------------------------------------------------


class Sample:
    """One finished process: stdout, exit code, host times, max RSS."""

    def __init__(self, stdout, code, wall, cpu, rss_mb):
        self.stdout = stdout
        self.code = code
        self.wall = wall
        self.cpu = cpu
        self.rss_mb = rss_mb

    def digest(self):
        return hashlib.sha256(self.stdout).hexdigest()


def run_process(cmd, timeout=OP_TIMEOUT_S):
    """Run cmd in its own session; on timeout kill the whole group and
    wait for it. Returns (returncode, stdout, stderr)."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        return None, out, err
    return proc.returncode, out, err


def launch(args):
    """Run tdc_run with args under the probe's exec launcher."""
    usage = os.path.join(WORK_DIR, "usage.txt")
    if os.path.exists(usage):
        os.remove(usage)
    code, out, err = run_process([PROBE, "exec", usage, TDC_RUN] + args)
    if code is None or not os.path.exists(usage):
        sys.stderr.write(err.decode(errors="replace"))
        return Sample(out, -1, float("nan"), float("nan"), 0.0)
    with open(usage) as f:
        wall, user, sys_s, rss_kb, status = f.read().split()
    if int(status) != 0:
        sys.stderr.write(err.decode(errors="replace")[-2000:])
    return Sample(out, int(status), float(wall), float(user) + float(sys_s),
                  int(rss_kb) / 1024.0)


def fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)


def op_cache_dir(i):
    return os.path.join(CACHE_DIR, "op%d" % i)


def cold_sample(i, op):
    """Op i from an empty cache directory of its own."""
    fresh_dir(op_cache_dir(i))
    return launch(op.args + common_flags(op_cache_dir(i)))


# --- Set-up and manifest ---------------------------------------------------


def source_digest():
    """sha256 over the sources tdc_run and the probe are built from
    (path + bytes); the probe's part keys its counters."""
    h = hashlib.sha256()
    here = os.path.relpath(HERE)
    files = ["CMakeLists.txt", os.path.join(here, "CMakeLists.txt"),
             os.path.join(here, "probe.cc")]
    for top in ("src", "bench"):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            files += [os.path.join(dirpath, f) for f in sorted(filenames)]
    for path in files:
        h.update(path.encode() + b"\0")
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def git_commit():
    if not os.path.isdir(".git"):
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"],
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    return proc.stdout.decode().strip() or None


def compiler():
    found = glob.glob(os.path.join(BUILD_DIR, "CMakeFiles", "*",
                                   "CMakeCXXCompiler.cmake"))
    info = {}
    if found:
        with open(found[0]) as f:
            for line in f:
                for key in ("CMAKE_CXX_COMPILER_ID",
                            "CMAKE_CXX_COMPILER_VERSION"):
                    if line.startswith("set(%s " % key):
                        info[key] = line.split('"')[1]
    return "%s %s" % (info.get("CMAKE_CXX_COMPILER_ID", "?"),
                      info.get("CMAKE_CXX_COMPILER_VERSION", "?"))


def build_type():
    with open(os.path.join(BUILD_DIR, "CMakeCache.txt")) as f:
        for line in f:
            if line.startswith("CMAKE_BUILD_TYPE:"):
                return line.split("=", 1)[1].strip()
    return "?"


def simd_tier():
    _, out, _ = run_process([TDC_RUN, "--cpu", "--format", "csv"])
    for line in out.decode().splitlines():
        if line.startswith("active,"):
            return line.split(",", 1)[1]
    return "?"


def make_manifest(workload, seed, smoke):
    return {
        "workload": workload,
        "seed": seed,
        "smoke": smoke,
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "build_type": build_type(),
        "compiler": compiler(),
        "simd": simd_tier(),
        "threads": 1,
        "nproc": os.cpu_count(),
        "cache": "cold: each op from an empty --cache-dir of its own; "
                 "warm: that directory after the cold run, a fresh process",
    }


def setup(workload, seed, smoke):
    """Everything before the first timed op: an empty cache directory,
    the run manifest, and (serve) the generated request traces."""
    fresh_dir(CACHE_DIR)
    manifest = make_manifest(workload, seed, smoke)
    with open(os.path.join(WORK_DIR, "manifest.json"), "w") as f:
        json.dump(manifest, f)
    if workload == "serve":
        for name, (spec, _, _, stream_seed) in \
                serve_streams(seed, smoke).items():
            code, _, err = run_process([PROBE, "gen", spec, str(stream_seed),
                                        trace_path(name)])
            if code != 0:
                raise BenchError("trace generation failed: %s"
                                 % err.decode(errors="replace"))
    return manifest


def timed_setup(workload, seed, smoke, reps):
    times = []
    manifest = None
    for _ in range(reps):
        start = time.perf_counter()
        manifest = setup(workload, seed, smoke)
        times.append(time.perf_counter() - start)
    return manifest, times


# --- Statistics -------------------------------------------------------------


def dist(values):
    """Median, the highest percentile with >= 10 samples beyond it (when
    there are enough samples), and the sample count."""
    vs = sorted(values)
    n = len(vs)
    out = {"median": statistics.median(vs), "n": n}
    if n >= 11:
        pct = math.floor(100.0 * (n - 10) / n)
        out["p%d" % pct] = vs[n - 11]
    return out


def fmt_dist(d):
    return " ".join("%s=%.6g" % (k, v) if k != "n" else "n=%d" % v
                    for k, v in d.items())


def tables_of(stdout):
    """A serve op's output without its first line, which names the
    request source (trace path or generator spec)."""
    return stdout.split(b"\n", 1)[1] if b"\n" in stdout else b""


# --- Self time ---------------------------------------------------------------


def self_times(spans):
    """spans: [parent, name, start, end] rows, row index = span id.
    Returns ({name: total}, {name: self}, {name: calls}); self time is a
    span's duration minus the part of it its child spans cover."""
    children = {}
    for i, (parent, _, _, _) in enumerate(spans):
        if parent >= 0:
            children.setdefault(parent, []).append(i)
    total, own, calls = {}, {}, {}
    for i, (_, name, start, end) in enumerate(spans):
        clipped = sorted((max(spans[c][2], start), min(spans[c][3], end))
                         for c in children.get(i, []))
        covered, reach = 0, start
        for lo, hi in clipped:
            lo = max(lo, reach)
            if hi > lo:
                covered += hi - lo
                reach = hi
        total[name] = total.get(name, 0) + (end - start)
        own[name] = own.get(name, 0) + (end - start - covered)
        calls[name] = calls.get(name, 0) + 1
    return total, own, calls


def layer_metrics(trace, untraced_wall_s):
    """Per-layer metrics from the probe's spans and counters."""
    total, _, _ = self_times(trace["spans"])
    c = trace["counts"]

    def ns(name):
        return float(total.get(name, 0))

    def s(*names):
        return sum(ns(n) for n in names) / 1e9

    def per(span, counter):
        return ns(span) / c[counter]

    traced_wall = sum(v for k, v in total.items()
                      if k.startswith("driver.op/")) / 1e9
    calls = c["core.recover.calls"]
    absorbed = c["service.rbw_absorbed"]
    rbw = absorbed + c["service.rbw_charged"]
    m = {
        "cpu.run_s": s("cpu.batch.fat", "cpu.batch.lean", "cpu.run.fat",
                       "cpu.run.lean"),
        "cpu.batch_s": s("cpu.batch.fat", "cpu.batch.lean"),
        "cpu.serial_s": s("cpu.serial"),
        "cpu.fat.ns_per_kcycle":
            (ns("cpu.batch.fat") + ns("cpu.run.fat")) / c["cpu.kcycles.fat"],
        "cpu.lean.ns_per_kcycle":
            (ns("cpu.batch.lean") + ns("cpu.run.lean")) /
            c["cpu.kcycles.lean"],
        "cpu.sim_cycles": c["cpu.sim_cycles"],
        "cpu.sim_instructions": c["cpu.sim_instructions"],
        "cpu.runs": c["cpu.runs"],
        "workload.ns_per_instr": per("workload.next",
                                     "workload.instructions"),
        "core.recover_s": s("core.recover"),
        "core.recover.calls": calls,
        "core.recover.failed": c["core.recover.failed"],
        "core.recover.row_reads": c["core.recover.row_reads"],
        "core.recover.success_ratio":
            (calls - c["core.recover.failed"]) / calls if calls else 1.0,
        "core.scrub_ns_per_row": per("core.scrub", "core.scrub.rows"),
        "core.read_ns": per("core.read", "core.reads"),
        "core.write_ns": per("core.write", "core.writes"),
        "array.inject_ns": per("array.inject", "array.inject.events"),
        "array.extract_ns": per("array.extract", "array.extract.calls"),
        "array.deposit_ns": per("array.deposit", "array.deposit.calls"),
        "scheme.trials": c["scheme.trials"],
        "reliability.lifetime_s": s("reliability.lifetime"),
        "reliability.yield_s": s("reliability.yield"),
        "reliability.cache.disk_hit_us":
            per("reliability.cache.lookup", "reliability.cache.lookups") /
            1e3,
        "vlsi.cost_s": s("vlsi.cost"),
        "driver.optimize_s": s("driver.optimize"),
        "driver.render_s": s("driver.render"),
        "service.serve_s": s("service.serve.clean", "service.serve.faulted"),
        "service.ns_per_request.clean":
            per("service.serve.clean", "service.requests.clean"),
        "service.ns_per_request.faulted":
            per("service.serve.faulted", "service.requests.faulted"),
        "service.generate_s": s("service.generate"),
        "service.trace_write_s": s("service.trace_write"),
        "service.trace_read_s": s("service.trace_read"),
        "service.steal_ratio": absorbed / rbw if rbw else 1.0,
        "trace.traced_wall_s": traced_wall,
        "trace.untraced_wall_s": untraced_wall_s,
        "trace.overhead_s": traced_wall - untraced_wall_s,
    }
    for code in ("edc8.encode", "edc8.decode_clean", "secded.decode_dirty",
                 "oecned.decode_dirty", "rs15_12.decode"):
        m["ecc.%s_ns" % code] = per("ecc." + code, "ecc.%s.calls" % code)
    for family in ("2d", "conv", "wt", "prod", "dram"):
        m["scheme.inject_s." + family] = s("scheme.inject." + family)
    for name in ("reliability.cache.memory_hits",
                 "reliability.cache.disk_hits", "reliability.cache.misses",
                 "reliability.cache.stored", "service.rbw_absorbed",
                 "service.rbw_charged", "service.recoveries",
                 "service.recovery_row_reads", "service.scrub_steps"):
        m[name] = c[name]
    return m


# --- The two kinds of run ----------------------------------------------------


class Tally:
    """Ops attempted and failed, with the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def check(self, name, ok, why):
        self.attempted += 1
        if not ok:
            self.failures.append("%s: %s" % (name, why))


def check_sample(tally, op, sample, what, reference=None):
    ok = sample.code == 0 and bool(sample.stdout)
    why = "exit code %d" % sample.code if sample.code else "empty output"
    if ok and reference is not None and sample.stdout != reference:
        ok, why = False, "stdout differs from the first cold run"
    tally.check("%s (%s)" % (op.name, what), ok, why)


def measure(workload, seed, seconds, smoke):
    """--trace 0: set-up, then rounds of op samples until `seconds` are
    spent (the first round always runs in full).

    Round 1 runs every op cold (an empty cache directory of its own),
    then warm (the same directory, a fresh process). Later rounds visit
    the ops longest first, each only while its next sample still fits in
    the time left, alternating cold and warm samples. An op whose cold
    runs leave its cache directory empty meets the same empty directory
    when re-run, so each of its samples counts as both cold and warm.
    Other work on a shared machine only ever slows a sample down, so an
    op's cost is its fastest sample; wall_s is the sum of those over the
    ops (likewise cpu_s, warm_s)."""
    ops = workload_ops(workload, seed, smoke)
    manifest, setup_times = timed_setup(workload, seed, smoke,
                                        reps=3 if workload == "serve" else 15)
    tally = Tally()
    samples = {op.name: {"cold": [], "warm": []} for op in ops}
    reference = {}
    cache_free = [True] * len(ops)
    deadline = time.perf_counter() + seconds

    def cold(i, op):
        sample = cold_sample(i, op)
        reference.setdefault(op.name, sample.stdout)
        check_sample(tally, op, sample, "cold", reference[op.name])
        cache_free[i] = cache_free[i] and not os.listdir(op_cache_dir(i))
        for kind in ("cold", "warm") if cache_free[i] else ("cold",):
            samples[op.name][kind].append(sample)
        return sample.wall

    def warm(i, op):
        # Millisecond replays (inject) get three samples per visit.
        spent = 0.0
        for _ in range(3):
            sample = launch(op.args + common_flags(op_cache_dir(i)))
            check_sample(tally, op, sample, "warm", reference[op.name])
            for kind in ("cold", "warm") if cache_free[i] else ("warm",):
                samples[op.name][kind].append(sample)
            spent += sample.wall
            if sample.wall > 0.1:
                break
        return spent

    cost = [{"cold": cold(i, op), "warm": warm(i, op)}
            for i, op in enumerate(ops)]
    longest_first = sorted(range(len(ops)),
                           key=lambda i: -sum(cost[i].values()))
    ran = True
    while ran:
        ran = False
        for i in longest_first:
            op = ops[i]
            kind = "cold" if cache_free[i] or (
                len(samples[op.name]["cold"]) <=
                len(samples[op.name]["warm"])) else "warm"
            if time.perf_counter() + cost[i][kind] <= deadline:
                cost[i][kind] = (cold if kind == "cold" else warm)(i, op)
                ran = True

    for op in ops:
        if op.check is None:
            continue
        sample = launch(op.check + common_flags(CACHE_DIR))
        ok = sample.code == 0 and (tables_of(sample.stdout) ==
                                   tables_of(reference[op.name]))
        tally.check(op.name + " (generator)", ok,
                    "generator tables differ from the trace replay's")

    def fastest(kind, field):
        return sum(min(getattr(x, field) for x in samples[op.name][kind])
                   for op in ops)

    wall = fastest("cold", "wall")
    metrics = {
        "wall_s": wall,
        "cpu_s": fastest("cold", "cpu"),
        "warm_s": fastest("warm", "wall"),
        "peak_rss_mb": max(x.rss_mb for op in ops
                           for kind in ("cold", "warm")
                           for x in samples[op.name][kind]),
        "setup_s": statistics.median(setup_times),
        "work_per_s": sum(op.work for op in ops) / wall,
    }
    print("manifest " + json.dumps(manifest, sort_keys=True))
    for op in ops:
        print("op %-16s sha256=%s cold[%s] warm[%s]" % (
            op.name, hashlib.sha256(reference[op.name]).hexdigest(),
            fmt_dist(dist([x.wall for x in samples[op.name]["cold"]])),
            fmt_dist(dist([x.wall for x in samples[op.name]["warm"]]))))
    print("dist setup_s %s" % fmt_dist(dist(setup_times)))
    print("work_per_s is %s: %g per cold pass" % (
        WORK_UNIT[workload], sum(op.work for op in ops)))
    digests = {op.name: hashlib.sha256(reference[op.name]).hexdigest()
               for op in ops}
    return manifest, digests, tally, {
        k: (v, END_TO_END[k][0]) for k, v in metrics.items()}


def counts_path(manifest):
    return os.path.join(WORK_DIR, "counts-%s-%d%s-%s.json" % (
        manifest["workload"], manifest["seed"],
        "-smoke" if manifest["smoke"] else "",
        manifest["source_sha256"][:16]))


def traced(workload, seed, smoke):
    """--trace 1: an untraced cold pass, then the probe's traced run."""
    ops = workload_ops(workload, seed, smoke)
    manifest = setup(workload, seed, smoke)
    tally = Tally()
    cold = [cold_sample(i, op) for i, op in enumerate(ops)]
    for op, sample in zip(ops, cold):
        check_sample(tally, op, sample, "untraced")
    untraced_wall = sum(x.wall for x in cold)

    trace_cache = os.path.join(WORK_DIR, "trace-cache")
    fresh_dir(trace_cache)
    ops_file = os.path.join(WORK_DIR, "ops.txt")
    with open(ops_file, "w") as f:
        for op in ops:
            f.write("\t".join([op.name] + op.args +
                              common_flags(trace_cache)) + "\n")
    out_file = os.path.join(WORK_DIR, "trace.json")
    if os.path.exists(out_file):
        os.remove(out_file)
    code, _, err = run_process([PROBE, "trace", workload, str(seed),
                                ops_file, WORK_DIR, out_file] +
                               (["smoke"] if smoke else []))
    if code != 0 or not os.path.exists(out_file):
        raise BenchError("traced run failed: %s"
                         % err.decode(errors="replace")[-2000:])
    with open(out_file) as f:
        trace = json.load(f)

    for i, (op, (name, exit_code)) in enumerate(zip(ops, trace["ops"])):
        with open(os.path.join(WORK_DIR, "op-%d.out" % i), "rb") as f:
            out = f.read()
        ok = exit_code == 0 and out == cold[i].stdout
        tally.check(op.name + " (traced)", ok,
                    "in-process output differs from tdc_run's")
    counts = trace["counts"]
    anomalies = [k for k in PROBE_ANOMALIES if counts.get(k, 0)]
    tally.check("layer phase", not anomalies,
                "wrong results: " + ", ".join(anomalies))

    # Deterministic counts must repeat exactly across traced runs of the
    # same sources, workload and seed.
    previous_path = counts_path(manifest)
    if os.path.exists(previous_path):
        with open(previous_path) as f:
            previous = json.load(f)
        changed = sorted(k for k in set(previous) | set(counts)
                         if previous.get(k) != counts.get(k))
        tally.check("deterministic counts", not changed,
                    "changed since the last traced run: " + ", ".join(changed))
    with open(previous_path, "w") as f:
        json.dump(counts, f, sort_keys=True)

    metrics = layer_metrics(trace, untraced_wall)
    total, own, calls = self_times(trace["spans"])
    print("manifest " + json.dumps(manifest, sort_keys=True))
    print("span %-34s %7s %12s %12s" % ("name", "calls", "total_s", "self_s"))
    for name in sorted(total):
        print("span %-34s %7d %12.6f %12.6f" % (
            name, calls[name], total[name] / 1e9, own[name] / 1e9))
    print("tracing overhead on %s: traced %.4f s - untraced %.4f s = %+.4f s"
          % (workload, metrics["trace.traced_wall_s"], untraced_wall,
             metrics["trace.overhead_s"]))
    digests = {op.name: cold[i].digest() for i, op in enumerate(ops)}
    return manifest, digests, tally, {
        k: (v, PER_LAYER[k][0]) for k, v in metrics.items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="append the result to this "
                        "JSON-lines file (for compare.py)")
    parser.add_argument("--smoke", action="store_true",
                        help="shortened ops, for the benchmark's tests")
    args = parser.parse_args(argv)
    try:
        build()
        os.makedirs(WORK_DIR, exist_ok=True)
        if args.trace:
            manifest, digests, tally, metrics = traced(
                args.workload, args.seed, args.smoke)
        else:
            manifest, digests, tally, metrics = measure(
                args.workload, args.seed, args.seconds, args.smoke)
    except BenchError as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 1
    for failure in tally.failures:
        print("FAILED %s" % failure)
    result = {
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in sorted(metrics.items())},
    }
    if args.record:
        with open(args.record, "a") as f:
            f.write(json.dumps({"workload": args.workload, "seed": args.seed,
                                "trace": args.trace, "manifest": manifest,
                                "digests": digests, "result": result},
                               sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
