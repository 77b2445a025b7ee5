#!/usr/bin/env python3
"""End-to-end benchmark of eco_chip: batch, serve and coordinate.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run it from the root of a source checkout. It builds the checkout's
eco_chip and perfbench/layer_trace (Release, into .bench_build/),
writes the workload's inputs from the seed (perfbench/workloads.py),
runs the shipped eco_chip binary on them for about --seconds, checks
every output, and prints the end-to-end metrics. The last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}.

--trace 1 prints the per-layer metrics instead. layer_trace times
calls into each layer's public functions on the same inputs, three
execution shapes per workload (a --batch replay, the server's
per-line stages, a coordinated run); the Chrome trace-event files
land in .bench_build/traces/.

Workloads (closed loop everywhere, load from this one process):
  batch_report      eco_chip --batch --engine_threads 2 --json over
                    cheap requests: the report is tens of MB, so JSON
                    serialization dominates.
  batch_montecarlo  the same command over Monte Carlo requests of
                    512-2048 trials: evaluation dominates, the report
                    is small.
  serve_mixed       eco_chip --serve --engine_threads 2 with a fresh
                    --cache_dir, one closed-loop connection, two
                    repeats (cache hits) per first sighting (a miss).
  coordinate_local  eco_chip --coordinate over two one-slot local hosts
                    on builtins plus the 54 fpga-pca-space points.

Every result line is preceded by a `perfbench ` line with the
environment stamp (nproc, CPU model, compiler, build type, revision);
perfbench/compare.py compares two sets of saved outputs.
"""

import argparse
import contextlib
import ctypes
import hashlib
import json
import os
import select
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True
import workloads  # noqa: E402

# Paths are relative to ROOT (the process chdirs there), which keeps
# the server's Unix socket path short whatever the checkout path.
BUILD = ".bench_build"
WORK = os.path.join(BUILD, "work")
ECO = os.path.join(BUILD, "ecochip", "eco_chip")
TOOL = os.path.join(BUILD, "layer_trace")

ENGINE_THREADS = 2
CONNECTIONS = workloads.CONNECTIONS
CHUNK_SIZE = str(workloads.SIZES["coordinate_local"]["chunk_size"])
SETUP_REPEATS = 21
WARMUP_S = 1.5
# serve_mixed sends --seconds x SERVE_RPS requests, about --seconds of
# serving on a 4-CPU box: a fixed amount of work, because the server's
# memory grows with every result it caches and must not depend on how
# fast the box happened to be.
SERVE_RPS = 1500
# Answers per window of the serve metrics. The tail reported is p90:
# over six seeds on a shared 4-CPU VM the window-median p90 spread 3%
# (IQR/median), p95 11% and p99 48%, the last tracking the host's steal.
WINDOW = 3000
# The traced run serves this many: its answers feed the replays.
TRACED_SERVE_REQUESTS = 15000
OVERHEAD_PASSES = 5
# One run must end within 180 s; the build before it is not counted.
DEADLINE_S = 165


class BenchError(Exception):
    pass


LIVE = []


def spawn(argv, stdout=subprocess.DEVNULL):
    log = open(os.path.join(WORK, "stderr.log"), "ab")
    try:
        proc = subprocess.Popen(argv, stdout=stdout, stderr=log)
    finally:
        log.close()
    LIVE.append(proc)
    return proc


def wait(proc):
    """Wait for @p proc and forget it; returns its exit code."""
    code = proc.wait()
    LIVE.remove(proc)
    return code


def measured(argv):
    """Spawn @p argv under `layer_trace run`, which reports its wall
    time, exit code, CPU time and peak RSS; a child forked by this
    process would inherit this process's peak RSS as its own."""
    return spawn([TOOL, "run"] + argv, stdout=subprocess.PIPE)


def measurement(proc):
    out = proc.stdout.read()
    wait(proc)
    try:
        return json.loads(out)
    except ValueError:
        raise BenchError("layer_trace run failed") from None


def timed_run(argv):
    """Run one process to completion: wall_s, exit, cpu_s, rss_mb."""
    return measurement(measured(argv))


def kill_all():
    for proc in list(LIVE):
        proc.kill()
        wait(proc)
    # A killed launcher's program dies with it and, orphaned, is
    # reparented to this process (a child subreaper): reap it too.
    while True:
        try:
            os.waitpid(-1, 0)
        except ChildProcessError:
            break


def become_subreaper():
    PR_SET_CHILD_SUBREAPER = 36
    ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1,
                                             0, 0, 0)


def must(code, what):
    if code != 0:
        raise BenchError(f"{what} exited {code} (see {WORK}/stderr.log)")


def tool(args):
    """Run layer_trace; returns its last stdout line parsed."""
    out = subprocess.run([TOOL] + args, capture_output=True, text=True)
    if out.returncode != 0:
        raise BenchError(f"layer_trace {args[0]} failed: "
                         f"{out.stdout[-500:]}{out.stderr[-500:]}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def check_documents(paths):
    """Every report passes ondemand::validate with finite numbers."""
    out = subprocess.run([TOOL, "check"] + paths, capture_output=True,
                         text=True)
    if out.returncode != 0:
        raise BenchError("invalid report: " + out.stdout.strip())


def digest(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def percentile(values, q):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def count_requests(path):
    with open(path) as f:
        return len(json.load(f)["requests"])


# ------------------------------------------------------------ build

def build():
    if not os.path.isfile("CMakeLists.txt") or not os.path.isdir("src"):
        raise BenchError("no eco_chip source tree at " + os.getcwd())
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(min(4, len(os.sched_getaffinity(0))))
    with open(os.path.join(BUILD, "build.log"), "w") as log:
        for argv in (
                ["cmake", "-S", "perfbench", "-B", BUILD,
                 "-DCMAKE_BUILD_TYPE=Release",
                 "-DFETCHCONTENT_FULLY_DISCONNECTED=ON"],
                ["cmake", "--build", BUILD, "-j", jobs,
                 "--target", "eco_chip", "layer_trace"]):
            if subprocess.run(argv, stdout=log, stderr=log).returncode:
                raise BenchError(f"build failed, see {BUILD}/build.log")


def environment():
    stamp = tool(["env"])
    if stamp["build_type"] != "Release" or not stamp["ndebug"]:
        raise BenchError("refusing to measure a non-Release build "
                         f"({stamp['build_type']})")
    cpu = "unknown"
    with open("/proc/cpuinfo") as f:
        for line in f:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "compiler": stamp["compiler"],
            "build_type": stamp["build_type"], "revision": revision()}


def revision():
    """The git commit when the checkout is a repository, else a hash
    of the sources the benchmark builds."""
    git = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                         capture_output=True, text=True)
    lines = git.stdout.split()
    if git.returncode == 0 and len(lines) == 2 and \
            os.path.realpath(lines[0]) == os.path.realpath("."):
        return lines[1]
    h = hashlib.sha256()
    for top in ("CMakeLists.txt", "apps", "src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(path.encode())
                with open(path, "rb") as f:
                    h.update(f.read())
        if os.path.isfile(top):
            with open(top, "rb") as f:
                h.update(f.read())
    return "tree-" + h.hexdigest()[:16]


# ------------------------------------------------------------ batch shapes

def batch_argv(batch, out, threads=ENGINE_THREADS):
    return [ECO, "--batch", batch, "--engine_threads", str(threads),
            "--json", out]


def coordinate_argv(batch, hosts, out, shard_dir):
    # One engine thread per worker: two workers plus the coordinator
    # stay within a 4-CPU box, whatever nproc the automatic split sees.
    return [ECO, "--coordinate", batch, "--hosts", hosts,
            "--shard_dir", fresh_dir(shard_dir), "--chunk_size",
            CHUNK_SIZE, "--engine_threads", "1", "--json", out]


def reference(batch):
    """The single-threaded --batch report every output must equal,
    checked once: valid JSON, finite numbers, no failed request."""
    ref = os.path.join(WORK, "ref.json")
    must(wait(spawn(batch_argv(batch, ref, threads=1))), "reference batch")
    check_documents([ref])
    with open(ref) as f:
        if json.load(f)["failed"] != 0:
            raise BenchError("a request of the reference batch failed")
    return ref


def mismatched_requests(out, ref):
    """Requests whose outcome differs from the reference (all of them
    when the output does not parse)."""
    with open(ref) as f:
        want = json.load(f)["outcomes"]
    try:
        with open(out) as f:
            got = json.load(f)["outcomes"]
    except (OSError, ValueError, KeyError):
        return len(want)
    return sum(1 for i, o in enumerate(want)
               if i >= len(got) or got[i] != o) + \
        max(0, len(got) - len(want))


def measure_processes(argv_for, one_argv_for, n, ref, seconds):
    """Closed loop of whole processes over the batch for @p seconds,
    after a warm-up that lets CPU frequency and the page cache settle;
    every output is checked, warm-up ones included."""
    ref_digest = digest(ref)
    out = os.path.join(WORK, "out.json")
    runs = []
    failed = 0
    attempted = 0
    for phase_s, keep in ((WARMUP_S, False), (seconds, True)):
        start = time.perf_counter()
        count = 0
        while time.perf_counter() - start < phase_s or count < 3:
            run = timed_run(argv_for(out))
            count += 1
            attempted += n
            if run["exit"] != 0 or digest(out) != ref_digest:
                failed += max(1, mismatched_requests(out, ref))
            if keep:
                runs.append(run)
    setups = []
    for _ in range(SETUP_REPEATS):
        run = timed_run(one_argv_for())
        must(run["exit"], "set-up run")
        setups.append(run["wall_s"])
    walls = [r["wall_s"] for r in runs]
    metrics = {
        "throughput_rps": n * len(runs) / sum(walls),
        "latency_p50_ms": statistics.median(walls) * 1000.0,
        "latency_p90_ms": percentile(walls, 90) * 1000.0,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": max(r["rss_mb"] for r in runs),
        "cpu_ms_per_request":
            sum(r["cpu_s"] for r in runs) * 1000.0 / (n * len(runs)),
    }
    info = [f"{len(runs)} runs of {n} requests after a {WARMUP_S} s "
            f"warm-up; latency = whole-run wall, {len(runs)} samples; "
            f"set-up median of "
            f"{SETUP_REPEATS}; failed_share {failed / attempted:.6f}"]
    return metrics, attempted, failed, info


def process_workload(workload, files, seconds):
    """batch_report, batch_montecarlo and coordinate_local: whole
    eco_chip processes over the batch file."""
    def argv(batch, out):
        if workload == "coordinate_local":
            return coordinate_argv(batch, files["hosts"], out,
                                   os.path.join(WORK, "shards"))
        return batch_argv(batch, out)

    ref = reference(files["requests"])
    return measure_processes(
        lambda out: argv(files["requests"], out),
        lambda: argv(files["one"], os.path.join(WORK, "one.out")),
        count_requests(files["requests"]), ref, seconds)


# ------------------------------------------------------------ serve shape

SOCKET = os.path.join(WORK, "s.sock")


def connect(timeout_s=30.0):
    stop = time.perf_counter() + timeout_s
    while True:
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            sock.connect(SOCKET)
            return sock
        except OSError:
            sock.close()
            if time.perf_counter() > stop:
                raise BenchError("server did not accept a connection")
            time.sleep(0.0005)


def start_server(cache_dir, measure):
    """Spawn the daemon, under `layer_trace run` when @p measure;
    returns it and the seconds until it accepted a connection."""
    argv = [ECO, "--serve", "--socket", SOCKET, "--engine_threads",
            str(ENGINE_THREADS), "--cache_dir", fresh_dir(cache_dir)]
    start = time.perf_counter()
    proc = measured(argv) if measure else spawn(argv)
    connect().close()
    return proc, time.perf_counter() - start


class Client:
    """One closed-loop connection: next line only after the answer."""

    def __init__(self, lines):
        self.sock = connect()
        self.lines = lines
        self.sent = 0
        self.sent_at = None
        self.buf = b""
        self.seen = set()

    def send_next(self, start):
        self.sent_at = time.perf_counter() - start
        self.sock.sendall(self.lines[self.sent].encode() + b"\n")
        self.sent += 1

    def read_line(self):
        while b"\n" not in self.buf:
            chunk = self.sock.recv(1 << 20)
            if not chunk:
                raise BenchError("server closed a connection")
            self.buf += chunk
        line, self.buf = self.buf.split(b"\n", 1)
        return line


def serve_closed_loop(conn_lines, requests, warmup):
    """Drive the server with one client per line list until @p requests
    answers came back (or the lines ran out); the first @p warmup
    answers are checked but not timed. Returns the timed round trips
    of hits and misses (and all of them, with completion times, in
    completion order), the distinct requests in
    first-sighting order, per-request answer digests (index member
    stripped) and the count of repeats whose answer differed from the
    first one."""
    clients = [Client(lines) for lines in conn_lines]
    by_sock = {c.sock: c for c in clients}
    hit_rts, miss_rts = [], []
    timed = []
    answers = {}
    first_seen = []
    hits = 0
    mismatched = 0
    answered = 0
    start = time.perf_counter()
    timed_from = start
    for c in clients:
        c.send_next(start)
    sent = len(clients)
    while any(c.sent_at is not None for c in clients):
        ready, _, _ = select.select(
            [c.sock for c in clients if c.sent_at is not None], [], [],
            30.0)
        if not ready:
            raise BenchError("server stopped answering")
        for sock in ready:
            c = by_sock[sock]
            line = c.read_line()
            done = time.perf_counter()
            rt = done - start - c.sent_at
            answered += 1
            measured = answered > warmup
            if measured:
                timed.append((done, rt))
            elif answered == warmup:
                timed_from = done
            c.sent_at = None
            request = c.lines[c.sent - 1]
            prefix = b'{"index":%d,' % (c.sent - 1)
            body = hashlib.sha1(line[len(prefix):]).digest() \
                if line.startswith(prefix) else None
            if request in c.seen:
                hits += 1
                if measured:
                    hit_rts.append(rt)
                if body != answers.get(request):
                    mismatched += 1
            else:
                c.seen.add(request)
                if measured:
                    miss_rts.append(rt)
                first_seen.append(request)
                answers[request] = body
            if c.sent < len(c.lines) and sent < requests:
                c.send_next(start)
                sent += 1
    clients[0].sock.sendall(b'{"control":"stats"}\n')
    stats = json.loads(clients[0].read_line())
    for c in clients:
        c.sock.close()
    return {"timed_from": timed_from, "timed": timed,
            "hit_rts": hit_rts, "miss_rts": miss_rts,
            "first_seen": first_seen, "answers": answers,
            "hits": hits, "mismatched": mismatched, "stats": stats,
            "sent": [c.lines[:c.sent] for c in clients]}


def stop_server(proc):
    """Drain the daemon; returns its measurement when it has one."""
    sock = connect()
    sock.sendall(b'{"control":"shutdown"}\n')
    sock.recv(4096)
    sock.close()
    if proc.stdout is None:
        must(wait(proc), "server")
        return None
    usage = measurement(proc)
    must(usage["exit"], "server")
    return usage


def serve_reference(loop):
    """--batch over the distinct requests the server answered: each
    served answer must equal its --stream event (index aside) and the
    --json report must be a valid document. Returns the batch file,
    its report and the number of requests whose answers differ."""
    batch = os.path.join(WORK, "sent.json")
    with open(batch, "w") as f:
        f.write('{"requests": [' + ",\n".join(loop["first_seen"]) + "]}\n")
    report = os.path.join(WORK, "sent_report.json")
    stream = os.path.join(WORK, "sent_stream.ndjson")
    with open(stream, "wb") as out:
        must(wait(spawn(batch_argv(batch, report) + ["--stream"], out)),
             "serve reference batch")
    check_documents([report])
    mismatched = 0
    with open(stream, "rb") as f:
        for line in f:
            head, rest = line.rstrip(b"\n").split(b",", 1)
            index = int(head[len(b'{"index":'):])
            request = loop["first_seen"][index]
            if hashlib.sha1(rest).digest() != loop["answers"][request]:
                mismatched += 1
    stats = loop["stats"]
    sent = sum(len(s) for s in loop["sent"])
    if stats["hits"] + stats["misses"] != sent or \
            stats["hits"] != loop["hits"]:
        mismatched += max(1, abs(stats["hits"] + stats["misses"] - sent))
    return batch, report, mismatched + loop["mismatched"]


def read_lines(path):
    with open(path) as f:
        return [line.rstrip("\n") for line in f if line.strip()]


def answer_windows(loop):
    """The timed answers cut into consecutive windows of WINDOW (the
    remainder joins the last one): (seconds spanned, round trips) each.
    Metrics are medians over windows, so that a stall of the shared
    host shorter than half the run does not move them."""
    timed = loop["timed"]
    count = max(1, len(timed) // WINDOW)
    windows = []
    begin = loop["timed_from"]
    for k in range(count):
        chunk = timed[k * WINDOW:(k + 1) * WINDOW if k + 1 < count
                      else len(timed)]
        end = chunk[-1][0]
        windows.append((end - begin, [rt for _, rt in chunk]))
        begin = end
    return windows


@contextlib.contextmanager
def on_one_cpu():
    """Run this process and the children it spawns meanwhile on one
    CPU. With one closed-loop connection the client and the daemon take
    turns, so one CPU serves them; on a shared VM every hand-over to
    another CPU may first have to wake that halted virtual CPU, which
    made the hit round trip swing with the host's load."""
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(allowed)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


def serve_workload(files, seconds):
    cache = os.path.join(WORK, "cache")
    with on_one_cpu():
        proc, _ = start_server(cache, measure=True)
        loop = serve_closed_loop([read_lines(files[f"conn{i}"])
                                  for i in range(CONNECTIONS)],
                                 int(seconds * SERVE_RPS),
                                 int(WARMUP_S * SERVE_RPS))
        usage = stop_server(proc)
        setups = []
        for _ in range(SETUP_REPEATS):
            proc, ready = start_server(cache, measure=False)
            setups.append(ready)
            stop_server(proc)
    _, _, failed = serve_reference(loop)
    answered = sum(len(sent) for sent in loop["sent"])
    windows = answer_windows(loop)
    metrics = {
        "throughput_rps": statistics.median(
            len(rts) / span for span, rts in windows),
        "latency_p50_ms": statistics.median(
            statistics.median(rts) for _, rts in windows) * 1000.0,
        "latency_p90_ms": statistics.median(
            percentile(rts, 90) for _, rts in windows) * 1000.0,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": usage["rss_mb"],
        "cpu_ms_per_request": usage["cpu_s"] * 1000.0 / answered,
    }
    info = [f"{answered} requests over {CONNECTIONS} closed-loop "
            f"connections ({loop['hits']} repeats), the last "
            f"{len(loop['timed'])} timed: throughput and latency are "
            f"medians over {len(windows)} windows of {WINDOW} answers; "
            f"set-up median of {SETUP_REPEATS} "
            f"spawns; failed_share {failed / answered:.6f}"]
    return metrics, answered, failed, info


# ------------------------------------------------------------ traced run

def traced_workload(workload, files):
    """Per-layer metrics from three traced shapes over the workload's
    inputs; see the module docstring."""
    cache = os.path.join(WORK, "cache")
    with on_one_cpu():
        proc, _ = start_server(cache, measure=False)
        loop = serve_closed_loop([read_lines(files[f"conn{i}"])
                                  for i in range(CONNECTIONS)],
                                 TRACED_SERVE_REQUESTS, 0)
        stop_server(proc)
    sent_batch, sent_report, failed = serve_reference(loop)
    if workload == "serve_mixed":
        batch, ref = sent_batch, sent_report
    else:
        batch = files["requests"]
        ref = reference(batch)
    ref_digest = digest(ref)

    # Shape A: the --batch replay, alternating untraced and traced
    # passes so that tracing overhead is measured on the same inputs.
    out = os.path.join(WORK, "a_out.json")
    rps = {"untraced": [], "traced": []}
    for _ in range(OVERHEAD_PASSES):
        for mode in ("untraced", "traced"):
            a = tool(["batch", batch, str(ENGINE_THREADS), out,
                      os.path.join(WORK, "trace_batch.json")] +
                     (["untraced"] if mode == "untraced" else []))
            rps[mode].append(a["rps"])
            if digest(out) != ref_digest:
                failed += max(1, mismatched_requests(out, ref))

    # Shape B: the server's per-line stages over the lines it was sent.
    lines = os.path.join(WORK, "sent_lines.ndjson")
    with open(lines, "w") as f:
        for sent in loop["sent"]:
            f.write("".join(s + "\n" for s in sent))
    b = tool(["serve", lines, fresh_dir(os.path.join(WORK, "b_cache")),
              os.path.join(WORK, "fp.sock"),
              os.path.join(WORK, "trace_serve.json")])

    # Shape C: the coordinator with a timing transport.
    out = os.path.join(WORK, "c_out.json")
    c = tool(["coordinate", batch, files["hosts"],
              fresh_dir(os.path.join(WORK, "c_shards")), ECO, CHUNK_SIZE,
              out, os.path.join(WORK, "trace_coordinate.json")])
    if digest(out) != ref_digest:
        failed += max(1, mismatched_requests(out, ref))

    spans = a["spans"]
    session = c if workload == "coordinate_local" else {
        "contexts": a["contexts"],
        "context_build_ms": spans["session.context"]["total_ms"]}
    miss_p50_ms = statistics.median(loop["miss_rts"]) * 1000.0
    stats = loop["stats"]
    metrics = {
        "json.serialize_ms": spans["json.serialize"]["total_ms"],
        "json.report_mb": a["report_mb"],
        "json.parse_ms": spans["json.parse"]["total_ms"],
        "io.write_ms": spans["io.write"]["total_ms"],
        "session.contexts": session["contexts"],
        "session.context_build_ms": session["context_build_ms"],
        "kernels.eval_ms": a["eval_ms"],
        "kernels.eval_mc_ms": a["eval_mc_ms"],
        "kernels.mc_trials": a["mc_trials"],
        "kernels.us_per_trial": a["eval_mc_ms"] * 1000.0 / a["mc_trials"],
        "engine.queue_wait_ms": a["queue_wait_ms"],
        "engine.busy_share": a["busy_share"],
        "server.line_parse_us": b["line_parse_us"],
        "server.cache_key_us": b["cache_key_us"],
        "server.event_serialize_us": b["event_serialize_us"],
        "server.hit_roundtrip_p50_ms":
            statistics.median(loop["hit_rts"]) * 1000.0,
        "server.miss_roundtrip_p50_ms": miss_p50_ms,
        "server.unattributed_miss_us":
            miss_p50_ms * 1000.0 - b["miss_stages_us"],
        "result_cache.lookup_hit_us": b["lookup_hit_us"],
        "result_cache.lookup_miss_us": b["lookup_miss_us"],
        "result_cache.store_us": b["store_us"],
        "result_cache.hit_share":
            stats["hits"] / (stats["hits"] + stats["misses"]),
        "coordinator.chunks": c["chunks"],
        "coordinator.dispatches": c["dispatches"],
        "coordinator.redispatches": c["redispatches"],
        "coordinator.polls": c["polls"],
        "coordinator.chunk_span_ms": c["chunk_span_ms"],
        "coordinator.reap_lag_ms": c["reap_lag_ms"],
        "coordinator.journal_mb": c["journal_mb"],
    }
    trace_path = merge_traces(workload)
    untraced = statistics.median(rps["untraced"])
    traced = statistics.median(rps["traced"])
    layers = sorted(a["layer_self_ms"].items(), key=lambda kv: -kv[1])
    info = [
        "batch replay self time by layer (ms): " + ", ".join(
            f"{k} {v:.1f}" for k, v in layers),
        f"largest self time: {layers[0][0]}",
        f"unattributed share of wall: "
        f"{spans['run']['self_ms'] / a['wall_ms']:.4f}",
        f"tracing overhead: traced {traced:.1f} vs untraced "
        f"{untraced:.1f} requests/s ({(1 - traced / untraced) * 100:+.2f}%)",
        "server replay self time by layer (ms): " + ", ".join(
            f"{k} {v:.1f}" for k, v in sorted(b["layer_self_ms"].items())),
        f"served {len(loop['hit_rts'])} hits / {len(loop['miss_rts'])} "
        f"misses; coordinator {c['requests']:.0f} requests in "
        f"{c['coordinate_ms']:.1f} ms",
        f"trace: {trace_path}",
    ]
    attempted = a["requests"] * 2 * OVERHEAD_PASSES + b["requests"] + \
        c["requests"] + \
        sum(len(sent) for sent in loop["sent"])
    return metrics, int(attempted), failed, info


def merge_traces(workload):
    """One Chrome trace per run, one process row per shape."""
    events = []
    for pid, shape in enumerate(("batch", "serve", "coordinate"), 1):
        with open(os.path.join(WORK, f"trace_{shape}.json")) as f:
            for event in json.load(f)["traceEvents"]:
                event["pid"] = pid
                events.append(event)
        events.append({"name": "process_name", "ph": "M", "pid": pid,
                       "args": {"name": shape}})
    os.makedirs(os.path.join(BUILD, "traces"), exist_ok=True)
    path = os.path.join(BUILD, "traces", f"{workload}.json")
    with open(path, "w") as f:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, f)
    return path


# ------------------------------------------------------------ main

def on_deadline(signum, frame):
    raise BenchError(f"run exceeded {DEADLINE_S} s")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    os.chdir(ROOT)
    become_subreaper()
    try:
        build()
        signal.signal(signal.SIGALRM, on_deadline)
        signal.alarm(DEADLINE_S)
        shutil.rmtree(WORK, ignore_errors=True)
        os.makedirs(WORK, exist_ok=True)
        env = environment()
        files = workloads.generate(
            args.workload, args.seed, os.path.join(WORK, "inputs"),
            os.path.abspath(workloads.CATALOG))
        before = host_cpu_ticks()
        if args.trace:
            metrics, attempted, failed, info = traced_workload(
                args.workload, files)
        elif args.workload == "serve_mixed":
            metrics, attempted, failed, info = serve_workload(
                files, args.seconds)
        else:
            metrics, attempted, failed, info = process_workload(
                args.workload, files, args.seconds)
        after = host_cpu_ticks()
        info.append("host steal (CPU time taken by other guests): "
                    f"{steal_share(before, after):.2%} of this run")
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)
        kill_all()

    units = units_of(args.trace)
    result = {
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}
    header = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "env": env}
    for line in info:
        print("# " + line)
    print("perfbench " + json.dumps(header))
    print(json.dumps(result))
    save_result(header, result)
    shutil.rmtree(WORK, ignore_errors=True)
    return 0 if failed == 0 else 1


def host_cpu_ticks():
    with open("/proc/stat") as f:
        return [int(v) for v in f.readline().split()[1:]]


def steal_share(before, after):
    delta = [b - a for a, b in zip(before, after)]
    return delta[7] / max(1, sum(delta))


def units_of(trace):
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def save_result(header, result):
    """Keep a copy under .bench_build/results for compare.py."""
    path = os.path.join(BUILD, "results")
    os.makedirs(path, exist_ok=True)
    name = (f"{header['workload']}-t{header['trace']}-s{header['seed']}-"
            f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}.out")
    with open(os.path.join(path, name), "w") as f:
        f.write("perfbench " + json.dumps(header) + "\n")
        f.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    sys.exit(main())
