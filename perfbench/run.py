#!/usr/bin/env python3
"""End-to-end benchmark for gammaflow, with a per-layer ledger.

Run from the root of a gammaflow checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The first run builds the `gammaflow` CLI from source (Release) and the
reference kernel under `perfbench/refkernel` into `.bench_build/` (or
`$CARGO_TARGET_DIR`). Every run then drives the CLI as a user would, on inputs
generated from `--seed`, for `--seconds` seconds, and checks every output
against a model computed here. The last line on stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

Two end-to-end paths are measured (README.md lists the workloads):

- program text -> fixpoint: one `gammaflow rungamma` / `gammaflow run`
  process per sample, timed from spawn to exit;
- serve request line -> reply line: a closed-loop client on the Unix socket of
  one `gammaflow serve` daemon, timed from send to the reply's newline.

`--trace 0` reports the end-to-end metrics with the program's telemetry off.
`--trace 1` repeats the workload with telemetry on (`--metrics`, serve
`stats`) and reports the per-layer ledger instead, in raw wall-clock units.
"""

import argparse
import fcntl
import json
import os
import random
import re
import socket
import statistics
import subprocess
import sys
import time

SOURCE_DIRS = ("src", "tools")
CLI_TIMEOUT_S = 60.0
# Dropped before timing so page-cache and loader warm-up stay out of samples.
WARMUP = 2
STARTUP_REPS = 9
# On a shared host, each CPU runs at full speed or up to ~1.6x slower (a busy
# neighbour on the same core), and which CPUs are slowed changes from one
# few-second window to the next, so plain medians jump by 20-30% between runs.
# So the run takes its samples on each CPU in turn, pinned there together with
# the reference kernel, and divides each sample by the reference-kernel run
# taken just before it on the same CPU; that cancels most of the neighbours'
# effect and host-wide drift. End-to-end latency is the 25th percentile of
# these ratios and set-up time their median, times REF_NOMINAL_S: the
# kernel's 10th percentile on the 4-vCPU 2.1 GHz Xeon the benchmark was
# defined on, so values there read as wall-clock time on a quiet CPU.
LATENCY_QUANTILE = 0.25
REF_NOMINAL_S = 0.0014
# Serve requests between two reference-kernel samples.
REF_EVERY = 128

PER_LAYER = {
    "ref_kernel_ms": "ms",
    "startup_ms": "ms",
    "load_ms": "ms",
    "engine_ms": "ms",
    "traced_latency_ms": "ms",
    "tail_p95_ms": "ms",
    "compile_ms": "ms",
    "fires": "count",
    "match_attempts": "count",
    "match_failures": "count",
    "fire_ratio": "ratio",
    "batch_evals": "count",
    "batch_width": "count",
    "vm_instrs": "count",
    "column_compactions": "count",
    "commit_conflicts": "count",
    "search_retries": "count",
    "df_wavefronts": "count",
    "wire_ping_us": "us",
    "outside_engine_us": "us",
    "wakeups": "count",
    "rematches": "count",
    "drain_batches": "count",
}


class BenchError(Exception):
    """A failure that leaves no result to print (build, daemon start)."""


class Result:
    """What one workload run measured, before any normalization.

    `latencies` and `setups` hold (seconds, reference-kernel seconds) pairs.
    """

    def __init__(self, attempted, failed, latencies, setups, layers=None):
        self.attempted = attempted
        self.failed = failed
        self.latencies = latencies
        self.setups = setups
        self.layers = layers or {}


def scaled(pairs, q):
    """Quantile `q` of time / reference time, in seconds of a quiet CPU."""
    return quantile(sorted(t / r for t, r in pairs), q) * REF_NOMINAL_S


def raw(pairs):
    return [t for t, _ in pairs]


# ---------------------------------------------------------------------------
# Build


def build_dir():
    return os.environ.get("CARGO_TARGET_DIR") or ".bench_build"


def cmake_build(source, out, binary, configure_args, watched):
    """Configures and builds `source` into `out` unless `binary` is fresh."""
    if os.path.isfile(binary) and not newer_than(watched, binary):
        return
    log_path = os.path.join(out, "perfbench-build.log")
    os.makedirs(out, exist_ok=True)
    with open(log_path, "w") as log:
        steps = []
        if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
            steps.append(["cmake", "-S", source, "-B", out] + configure_args)
        jobs = str(min(4, os.cpu_count() or 1))
        steps.append(["cmake", "--build", out, "-j", jobs])
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
                raise BenchError("build failed; see " + log_path)
    if not os.path.isfile(binary):
        raise BenchError("build produced no " + binary)
    os.utime(binary)


def newer_than(paths, binary):
    stamp = os.path.getmtime(binary)
    for top in paths:
        if os.path.isfile(top):
            if os.path.getmtime(top) > stamp:
                return True
            continue
        for root, _, files in os.walk(top):
            for name in files:
                if os.path.getmtime(os.path.join(root, name)) > stamp:
                    return True
    return False


def build_all():
    """Returns (gammaflow CLI, reference kernel), building them if needed."""
    if not (os.path.isfile("CMakeLists.txt") and os.path.isdir("src")):
        raise BenchError("run from the root of a gammaflow checkout "
                         "(no CMakeLists.txt/src here)")
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    cli = os.path.join(out, "tools", "gammaflow")
    ref_src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "refkernel")
    ref_out = os.path.join(out, "perfbench-refkernel")
    ref = os.path.join(ref_out, "refkernel")
    with open(os.path.join(out, "perfbench.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        # GCC 12 raises false -Werror=restrict in Release, so the benchmark
        # build never promotes warnings.
        cmake_build(".", out, cli, [
            "-DCMAKE_BUILD_TYPE=Release", "-DGAMMAFLOW_WERROR=OFF",
            "-DGAMMAFLOW_BUILD_TESTS=OFF", "-DGAMMAFLOW_BUILD_BENCH=OFF",
            "-DGAMMAFLOW_BUILD_EXAMPLES=OFF"],
            ("CMakeLists.txt",) + SOURCE_DIRS)
        cmake_build(ref_src, ref_out, ref, ["-DCMAKE_BUILD_TYPE=Release"],
                    (ref_src,))
    return os.path.abspath(cli), os.path.abspath(ref)


class RefKernel:
    """The reference kernel as a helper process; `tick` times one run."""

    def __init__(self, binary):
        self.times = []
        self.proc = subprocess.Popen([binary], stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)

    def move_to(self, cpu):
        """Pins the kernel, this process and its later children to `cpu`.

        Pinned there, the program under test (all its threads: the parallel
        engine's workers, the serve daemon and its client) and the kernel
        share one CPU's neighbours.
        """
        os.sched_setaffinity(0, {cpu})
        os.sched_setaffinity(self.proc.pid, {cpu})

    def tick(self):
        self.proc.stdin.write("run\n")
        self.proc.stdin.flush()
        self.times.append(int(self.proc.stdout.readline().split()[0]) * 1e-9)
        return self.times[-1]

    def close(self):
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


# ---------------------------------------------------------------------------
# Statistics


def quantile(sorted_values, q):
    """Linear-interpolated quantile of an already sorted list."""
    if len(sorted_values) == 1:
        return sorted_values[0]
    pos = q * (len(sorted_values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def timed(cmd, **kwargs):
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=CLI_TIMEOUT_S, **kwargs)
    return time.perf_counter() - t0, proc


def startup_ms(cli):
    """Process spawn + dynamic loading, with no program work."""
    return statistics.median(
        timed([cli, "help"])[0] for _ in range(STARTUP_REPS)) * 1e3


def zero_layers():
    return {name: (0.0, unit) for name, unit in PER_LAYER.items()}


# ---------------------------------------------------------------------------
# Batch workloads: program text -> fixpoint, one CLI process per sample


def elements_text(elements):
    return " ".join(
        "[%d]" % e if isinstance(e, int) else "[%d,'%s']" % e for e in elements)


def parse_final(stdout):
    """(ints, labelled pairs, fires) from a rungamma stdout."""
    first, _, rest = stdout.partition("\n")
    pairs = [(int(v), k) for v, k in re.findall(r"\[(-?\d+), *'([^']*)'\]", first)]
    ints = [] if pairs else [int(v) for v in re.findall(r"-?\d+", first)]
    fired = re.search(r"^# (\d+) reactions fired", rest, re.M)
    return ints, pairs, int(fired.group(1)) if fired else -1


# How much work a fixpoint takes must not depend on the seed, or the spread
# between seeds would hide a regression: each input keeps one fixed shape
# (element order, bucket sizes, loop count) and the seed picks the values.
SIEVE_ORDER = random.Random(0).sample(range(2, 400), 398)


class SieveInput:
    """Dense condition evaluation: every probe sweeps the whole int bucket."""
    program = ("Rsieve = replace x, y by [x]\n"
               "         where (y % x == 0) and (x > 1)\n")
    engine = ["--engine", "idx"]
    inert = [2, 3]

    def __init__(self, rng):
        # Scaling keeps divisibility, so the probe sequence is the same.
        scale = rng.randint(1, 1000)
        self.elements = [scale * x for x in SIEVE_ORDER]
        kept = sorted(scale * p for p in SIEVE_ORDER
                      if all(p % d for d in range(2, p)))
        self.expect = (kept, [], len(self.elements) - len(kept))

    def check(self, stdout):
        ints, pairs, fires = parse_final(stdout)
        return (sorted(ints), pairs, fires) == self.expect


class ReduceInput:
    """Condition-free reduction: store remove/insert and commit per fire."""
    program = "Rsum = replace x, y by x + y\n"
    engine = ["--engine", "idx"]
    inert = [1]

    def __init__(self, rng):
        self.elements = [rng.randint(-1000, 1000) for _ in range(4096)]
        self.expect = ([sum(self.elements)], [], len(self.elements) - 1)

    def check(self, stdout):
        return parse_final(stdout) == self.expect


class KeyedInput:
    """Independent per-label sums: width for the parallel engine."""
    program = "Rkey = replace [x, k], [y, k] by [x + y, k]\n"
    engine = ["--engine", "par", "--workers", "4"]
    inert = [(1, "k0")]

    def __init__(self, rng):
        self.elements = [(rng.randint(0, 999), "k%d" % (i % 64))
                         for i in range(4096)]
        sums = {}
        for v, k in self.elements:
            sums[k] = sums.get(k, 0) + v
        self.expect = ([], sorted((v, k) for k, v in sums.items()),
                       len(self.elements) - len(sums))

    def check(self, stdout):
        ints, pairs, fires = parse_final(stdout)
        return (ints, sorted(pairs), fires) == self.expect


LOOP_SRC = """int y = {y};
int z = {z};
int x = {x};
for (i = z; i > 0; i--)
  x = x + y;
output x;
"""


class LoopInput:
    """Imperative source compiled to a tagged dataflow loop and interpreted."""
    engine = ["--engine", "seq"]

    def __init__(self, rng):
        self.y, self.x = rng.randint(1, 9), rng.randint(0, 99)
        self.program = LOOP_SRC.format(y=self.y, z=10000, x=self.x)
        self.expect = self.x + self.y * 10000

    def check(self, stdout):
        found = re.search(r"^x = (-?\d+)$", stdout, re.M)
        return found is not None and int(found.group(1)) == self.expect


def parse_report(stdout):
    """Counters and histogram n/mean/sum from a `--metrics` report."""
    values = {}
    section = None
    for line in stdout.splitlines():
        if line and not line[0].isspace():
            section = line.rstrip(":")
            continue
        fields = line.split()
        if section == "counters" and len(fields) == 2:
            try:
                values[fields[0]] = float(fields[1])
            except ValueError:
                pass
        elif section == "histograms" and fields:
            stats = dict(f.split("=", 1) for f in fields[1:] if "=" in f)
            try:
                n, mean = float(stats["n"]), float(stats["mean"])
            except (KeyError, ValueError):
                continue
            values[fields[0] + ".n"] = n
            values[fields[0] + ".mean"] = mean
            values[fields[0] + ".sum"] = n * mean
    return values


class BatchWorkload:
    inputs_per_run = 4

    def __init__(self, kind, suffix):
        self.kind = kind
        self.suffix = suffix

    def write_inputs(self, rng, work):
        """Writes each input's program and returns [(argv tail, input)]."""
        runs = []
        for i in range(self.inputs_per_run):
            inp = self.kind(rng)
            path = os.path.join(work, "input%d%s" % (i, self.suffix))
            with open(path, "w") as f:
                f.write(inp.program)
            if self.suffix == ".src":
                runs.append((["run", path] + inp.engine, inp))
            else:
                runs.append((["rungamma", path, "--init",
                              elements_text(inp.elements)] + inp.engine, inp))
        return runs

    def setup_argv(self, runs, work):
        """One CLI run that loads the program but has no work to do."""
        argv, inp = runs[0]
        if self.suffix == ".src":
            path = os.path.join(work, "empty.src")
            with open(path, "w") as f:
                f.write(LOOP_SRC.format(y=1, z=0, x=0))
            return ["run", path] + inp.engine
        return argv[:3] + [elements_text(self.kind.inert)] + inp.engine

    def run(self, cli, rng, seconds, trace, work, ref):
        runs = self.write_inputs(rng, work)
        setup = [cli] + self.setup_argv(runs, work)
        cpus = sorted(os.sched_getaffinity(0))
        extra = ["--metrics"] if trace else []
        latencies, setups, attempted, failed = [], [], 0, 0
        counters, reports = {}, 0
        i = 0
        deadline = time.perf_counter() + seconds
        while i <= WARMUP or time.perf_counter() < deadline:
            argv, inp = runs[i % len(runs)]
            ref.move_to(cpus[i % len(cpus)])
            ref_dt = ref.tick()
            setup_dt = timed(setup)[0]
            try:
                dt, proc = timed([cli] + argv + extra)
                ok = proc.returncode == 0 and inp.check(proc.stdout)
            except subprocess.TimeoutExpired:
                dt, proc, ok = CLI_TIMEOUT_S, None, False
            if i >= WARMUP:
                attempted += 1
                failed += 0 if ok else 1
                setups.append((setup_dt, ref_dt))
                latencies.append((dt, ref_dt))
                if trace and ok:
                    reports += 1
                    for name, value in parse_report(proc.stdout).items():
                        counters[name] = counters.get(name, 0.0) + value
            i += 1
        result = Result(attempted, failed, latencies, setups)
        if trace:
            result.layers = self.layers(cli, raw(latencies), raw(setups),
                                        counters, reports)
        return result

    @staticmethod
    def layers(cli, latencies, setups, counters, reports):
        per_fix = {k: v / max(reports, 1) for k, v in counters.items()}
        ordered = sorted(latencies)
        traced_ms = quantile(ordered, 0.5) * 1e3
        setup_ms = statistics.median(setups) * 1e3
        boot_ms = startup_ms(cli)
        fires = per_fix.get("gamma.fires", per_fix.get("df.fires", 0.0))
        attempts = per_fix.get("gamma.match_attempts", 0.0)
        layers = zero_layers()
        layers.update({
            "startup_ms": (boot_ms, "ms"),
            "load_ms": (setup_ms - boot_ms, "ms"),
            "engine_ms": (traced_ms - setup_ms, "ms"),
            "traced_latency_ms": (traced_ms, "ms"),
            "tail_p95_ms": (quantile(ordered, 0.95) * 1e3, "ms"),
            "compile_ms": (per_fix.get("expr.compile_ms.sum", 0.0), "ms"),
            "fires": (fires, "count"),
            "match_attempts": (attempts, "count"),
            "match_failures": (per_fix.get("gamma.match_failures", 0.0), "count"),
            "fire_ratio": (fires / attempts if attempts else 0.0, "ratio"),
            "batch_evals": (per_fix.get("vm.batch_evals", 0.0), "count"),
            "batch_width": (per_fix.get("vm.batch_width.mean", 0.0), "count"),
            "vm_instrs": (per_fix.get("vm.instrs_executed", 0.0), "count"),
            "column_compactions": (per_fix.get("store.column_compactions", 0.0), "count"),
            "commit_conflicts": (per_fix.get("gamma.commit_conflicts", 0.0), "count"),
            "search_retries": (per_fix.get("gamma.search_retries", 0.0), "count"),
            "df_wavefronts": (per_fix.get("df.wavefront_width.n", 0.0), "count"),
        })
        return layers


# ---------------------------------------------------------------------------
# Serve workloads: request line -> reply line over the daemon's Unix socket

SERVE_PROGRAM = "Rkey = replace [x, k], [y, k] by [x + y, k]\n"
SESSIONS = 4
# Each run is split into episodes, each with a fresh daemon on the next CPU in
# turn, so every CPU is sampled at several moments of the run.
SERVE_EPISODES = 40
LABELS = 32
INIT_ELEMENTS = 64
# A session is closed and created afresh after this many injects. Inject
# cost grows with a session's age, so without a fixed lifetime a faster run
# would reach older sessions and its latency would depend on its own speed.
SESSION_INJECTS = 256
STAT_KEYS = ("fires", "wakeups", "rematches", "drain_batches")


class Client:
    """One connection; sends a line, reads the reply line."""

    def __init__(self, path):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            self.sock.connect(path)
        except OSError:
            self.sock.close()
            raise
        self.reader = self.sock.makefile("rb")

    def request(self, obj):
        line = json.dumps(obj, separators=(",", ":")).encode() + b"\n"
        t0 = time.perf_counter()
        self.sock.sendall(line)
        reply = self.reader.readline()
        dt = time.perf_counter() - t0
        if not reply:
            raise BenchError("daemon closed the connection")
        return dt, json.loads(reply)

    def close(self):
        self.reader.close()
        self.sock.close()


class SessionModel:
    """Expected per-label sums of one session, for checking replies."""

    def __init__(self, name, rng):
        self.name = name
        self.reset(rng)

    def reset(self, rng):
        self.sums = {}
        self.fires_total = 0
        self.injects = 0
        self.init = self.draw(rng, INIT_ELEMENTS)
        self.apply(self.init)

    def create_request(self):
        return {"verb": "create", "session": self.name,
                "init": elements_text(self.init)}

    def created(self, reply):
        return (reply.get("ok") is True and
                reply.get("store_size") == len(self.sums) and
                reply.get("fires_total") == self.fires_total)

    @staticmethod
    def draw(rng, count):
        return [(rng.randint(0, 999), "k%d" % rng.randrange(LABELS))
                for _ in range(count)]

    def apply(self, elements):
        fires = 0
        for v, k in elements:
            if k in self.sums:
                fires += 1
            self.sums[k] = self.sums.get(k, 0) + v
        self.fires_total += fires
        return fires

    def snapshot(self):
        return {"[%d, '%s']" % (v, k): 1 for k, v in self.sums.items()}


class Daemon:
    """A `gammaflow serve` process on a socket inside the work directory."""

    def __init__(self, cli, work, program_path):
        # Relative, so the path stays under the 108-byte sun_path limit.
        self.path = os.path.relpath(os.path.join(work, "serve.sock"))
        if os.path.exists(self.path):
            os.unlink(self.path)
        self.control = None
        self.proc = subprocess.Popen(
            [cli, "serve", os.path.abspath(program_path), "--socket",
             os.path.basename(self.path)],
            cwd=work, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL)
        give_up = time.perf_counter() + 30.0
        while self.control is None:
            try:
                self.control = Client(self.path)
            except OSError:
                if self.proc.poll() is not None or time.perf_counter() > give_up:
                    self.stop()
                    raise BenchError("serve daemon did not start")
                time.sleep(0.0005)

    def stop(self):
        try:
            if self.proc.poll() is None and self.control is not None:
                self.control.request({"verb": "shutdown"})
                self.proc.wait(timeout=10)
        except (OSError, BenchError, ValueError, subprocess.TimeoutExpired):
            pass
        if self.control is not None:
            self.control.close()
            self.control = None
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def create_sessions(daemon, models):
    ok = True
    for m in models:
        ok = m.created(daemon.control.request(m.create_request())[1]) and ok
    _, pong = daemon.control.request({"verb": "ping"})
    return ok and pong.get("pong") is True


def session_counters(client, name):
    _, reply = client.request({"verb": "stats", "session": name})
    return {k: reply.get(k, 0) for k in STAT_KEYS}


def client_loop(path, models, rng, deadline, tick, trace):
    """Closed loop of injects of 1-4 elements into the client's sessions.

    Only injects are timed. Recycling a session (close, create) and, with
    `trace`, reading its worklist counters are requests outside the sample.
    """
    client = Client(path)
    lat, quiesce, attempted, failed = [], [], 0, 0
    stats = dict.fromkeys(STAT_KEYS, 0)
    base = {m.name: session_counters(client, m.name) for m in models} if trace else {}

    def harvest(m):
        now = session_counters(client, m.name)
        for k in STAT_KEYS:
            stats[k] += now[k] - base[m.name][k]

    try:
        while not lat or time.perf_counter() < deadline:
            if attempted % REF_EVERY == 0:
                ref_dt = tick()
            m = rng.choice(models)
            if m.injects == SESSION_INJECTS:
                if trace:
                    harvest(m)
                _, closed = client.request({"verb": "close", "session": m.name})
                m.reset(rng)
                if not (closed.get("ok") is True and
                        m.created(client.request(m.create_request())[1])):
                    failed += 1
                if trace:
                    base[m.name] = session_counters(client, m.name)
            attempted += 1
            m.injects += 1
            elements = SessionModel.draw(rng, rng.randint(1, 4))
            fires = m.apply(elements)
            dt, reply = client.request({
                "verb": "inject", "session": m.name,
                "elements": elements_text(elements)})
            ok = (reply.get("ok") is True and reply.get("fires") == fires and
                  reply.get("fires_total") == m.fires_total and
                  reply.get("store_size") == len(m.sums))
            if ok:
                quiesce.append((dt, reply.get("quiesce_us", 0.0) * 1e-6))
            lat.append((dt, ref_dt))
            failed += 0 if ok else 1
        if trace:
            for m in models:
                harvest(m)
    finally:
        client.close()
    return {"lat": lat, "quiesce": quiesce, "attempted": attempted,
            "failed": failed, "stats": stats}


class ServeWorkload:
    def run(self, cli, rng, seconds, trace, work, ref):
        program_path = os.path.join(work, "keyed.gamma")
        with open(program_path, "w") as f:
            f.write(SERVE_PROGRAM)
        models = [SessionModel("s%d" % i, rng) for i in range(SESSIONS)]
        cpus = sorted(os.sched_getaffinity(0))
        setups, probes, failed = [], {}, 0
        total = {"lat": [], "quiesce": [], "attempted": 0, "failed": 0,
                 "stats": dict.fromkeys(STAT_KEYS, 0)}
        for episode in range(SERVE_EPISODES):
            if episode:
                for m in models:
                    m.reset(rng)
            ref.move_to(cpus[episode % len(cpus)])
            ref_dt = ref.tick()
            t0 = time.perf_counter()
            daemon = Daemon(cli, work, program_path)
            try:
                ok = create_sessions(daemon, models)
                setups.append((time.perf_counter() - t0, ref_dt))
                if trace and episode == 0:
                    probes = self.trace_probes(daemon)
                out = client_loop(daemon.path, models, rng,
                                  time.perf_counter() + seconds / SERVE_EPISODES,
                                  ref.tick, trace)
                ok = self.check_final(daemon, models) and ok
            finally:
                daemon.stop()
            failed += 0 if ok else 1
            for key in ("lat", "quiesce"):
                total[key] += out[key]
            for key in ("attempted", "failed"):
                total[key] += out[key]
            for key in STAT_KEYS:
                total["stats"][key] += out["stats"][key]
        result = Result(total["attempted"], total["failed"] + failed,
                        total["lat"], setups)
        if trace:
            result.layers = self.layers(cli, raw(total["lat"]), total["quiesce"],
                                        probes, total["stats"])
        return result

    @staticmethod
    def layers(cli, latencies, quiesce, probes, stats):
        injects = max(len(quiesce), 1)
        ordered = sorted(latencies)
        layers = zero_layers()
        layers.update({
            "startup_ms": (startup_ms(cli), "ms"),
            "load_ms": (probes["load_ms"], "ms"),
            "engine_ms": (statistics.median(q for _, q in quiesce) * 1e3, "ms"),
            "traced_latency_ms": (quantile(ordered, 0.5) * 1e3, "ms"),
            "tail_p95_ms": (quantile(ordered, 0.95) * 1e3, "ms"),
            "fires": (stats["fires"] / injects, "count"),
            "fire_ratio": (stats["fires"] / stats["rematches"]
                           if stats["rematches"] else 0.0, "ratio"),
            "wire_ping_us": (probes["wire_ping_us"], "us"),
            "outside_engine_us": (
                statistics.median(dt - q for dt, q in quiesce) * 1e6, "us"),
            "wakeups": (stats["wakeups"] / injects, "count"),
            "rematches": (stats["rematches"] / injects, "count"),
            "drain_batches": (stats["drain_batches"] / injects, "count"),
        })
        return layers

    @staticmethod
    def trace_probes(daemon):
        """Wire-only round trips, and program load without any elements."""
        ping = sorted(daemon.control.request({"verb": "ping"})[0]
                      for _ in range(500))
        loads = []
        for i in range(50):
            dt, reply = daemon.control.request({
                "verb": "create", "session": "probe%d" % i,
                "program": SERVE_PROGRAM})
            if reply.get("ok") is not True:
                raise BenchError("probe create failed")
            loads.append(dt)
            daemon.control.request({"verb": "close", "session": "probe%d" % i})
        ping_s = quantile(ping, 0.5)
        return {"wire_ping_us": ping_s * 1e6,
                "load_ms": (statistics.median(loads) - ping_s) * 1e3}

    @staticmethod
    def check_final(daemon, models):
        for m in models:
            _, reply = daemon.control.request({"verb": "snapshot", "session": m.name})
            if reply.get("ok") is not True or reply.get("store") != m.snapshot():
                return False
        return True


# ---------------------------------------------------------------------------

WORKLOADS = {
    "sieve": BatchWorkload(SieveInput, ".gamma"),
    "reduce": BatchWorkload(ReduceInput, ".gamma"),
    "parallel": BatchWorkload(KeyedInput, ".gamma"),
    "dataflow": BatchWorkload(LoopInput, ".src"),
    "serve": ServeWorkload(),
}


def provenance(cli):
    compiler = "unknown"
    cache = os.path.join(os.path.dirname(os.path.dirname(cli)), "CMakeCache.txt")
    try:
        with open(cache) as f:
            for line in f:
                if line.startswith("CMAKE_CXX_COMPILER:"):
                    path = line.split("=", 1)[1].strip()
                    out = subprocess.run([path, "--version"], capture_output=True,
                                         text=True, timeout=10).stdout
                    compiler = out.splitlines()[0] if out else path
    except (OSError, subprocess.TimeoutExpired):
        pass
    return "Release build, %s, %d hardware threads" % (compiler, os.cpu_count() or 0)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        cli, ref_binary = build_all()
        work = os.path.join(build_dir(), "perfbench-work", args.workload)
        os.makedirs(work, exist_ok=True)
        rng = random.Random("%s:%d" % (args.workload, args.seed))
        ref = RefKernel(ref_binary)
        try:
            result = WORKLOADS[args.workload].run(
                cli, rng, args.seconds, args.trace == 1, work, ref)
        finally:
            ref.close()
    except BenchError as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 1
    ref_s = statistics.median(ref.times)
    if args.trace:
        metrics = result.layers
        metrics["ref_kernel_ms"] = (ref_s * 1e3, "ms")
    else:
        metrics = {
            "latency_p25_ms": (scaled(result.latencies, LATENCY_QUANTILE) * 1e3, "ms"),
            "setup_s": (scaled(result.setups, 0.5), "s"),
        }
    print("# perfbench %s seed %d: %s; reference kernel median %.3f ms; "
          "%d samples, %d set-ups"
          % (args.workload, args.seed, provenance(cli), ref_s * 1e3,
             len(result.latencies), len(result.setups)))
    print(json.dumps({
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
