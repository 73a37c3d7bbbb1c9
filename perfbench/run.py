#!/usr/bin/env python3
"""SpacePTA benchmark: a TVCA measurement campaign and a served ANALYZE mix.

Run from the root of a checkout:

    python3 perfbench/run.py --workload tvca_fresh --seed 1 --seconds 20 --trace 0

It builds spta_cli, spta_serve and the benchmark's own two programs into
.bench_build/, runs the workload against the built binaries, checks their
outputs, and prints one JSON object as the last line of stdout:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones from a separate traced run. Exits nonzero, without a result
line, when it cannot build or run. See perfbench/README.md.
"""

import argparse
import json
import math
import os
import re
import shutil
import socket
import statistics
import subprocess
import sys
import time

ROOT = os.getcwd()
HERE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build")
TMP_ROOT = os.path.join(ROOT, ".bench_tmp")
CLI = os.path.join(BUILD, "spta", "tools", "spta_cli")
SERVE = os.path.join(BUILD, "spta", "tools", "spta_serve")
LOAD = os.path.join(BUILD, "perfbench_load")
TRACE = os.path.join(BUILD, "perfbench_trace")

# Fixed concurrency, so that figures compare across hosts with >= 4 cores:
# campaign worker threads, load-generator connections, service shards.
JOBS = 2
CONNECTIONS = 2
SHARDS = 2

# Every workload runs both products of the repo, a TVCA campaign to a pWCET
# curve and spta_serve under the same closed-loop request mix, so that it
# reports every end-to-end metric. The workloads differ in the campaign's
# inputs.
WORKLOADS = {
    # Every run draws a fresh scenario: frame building dominates.
    "tvca_fresh": {"scenarios": 0, "round_runs": 150},
    # An 8-scenario test-vector suite: frames are built once, the
    # simulator dominates.
    "tvca_suite": {"scenarios": 8, "round_runs": 800},
}
CAMPAIGN_SHARE = 0.6      # Of --seconds; the serve phase has the rest.

# TvcaConfig's independent mode flags: path bit 0 calibration (0.2),
# bit 1 maneuver-x (0.3), bit 2 maneuver-y (0.3).
MODE_PROBS = (0.2, 0.3, 0.3)
PREFIX_RUNS = 24          # Rows re-run at --jobs 1 (and through the batch kernel).
GUMBEL_TOLERANCE = 0.20   # |pWCET@1e-12 (MLE) - own moment fit| / own fit.
CHECK_SAMPLES = 4         # Served analyses re-done by spta_cli analyze.
SHUTDOWN_WAIT_S = 20.0
# Measured request kinds of the serve phase (perfbench_load's JSON keys).
SERVE_KINDS = ("cold", "warm", "append", "session_repeat")


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


class Failure(Exception):
    """An output check failed: the run is reported with correct=false."""


def run_checked(cmd, **kw):
    res = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                         text=True, **kw)
    if res.returncode != 0:
        sys.stderr.write(res.stdout[-2000:] + res.stderr[-4000:])
        raise SystemExit("perfbench: failed: " + " ".join(cmd))
    return res


def build(targets):
    if not (os.path.isdir(os.path.join(ROOT, "src")) and
            os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))):
        raise SystemExit("perfbench: no SpacePTA sources under " + ROOT)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        run_checked(["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    res = run_checked(["cmake", "--build", BUILD, "-j", jobs, "--target"] +
                      targets)
    sys.stderr.write(res.stdout[-400:])


class RusagePopen(subprocess.Popen):
    """Popen that keeps the child's own rusage (CPU time, peak RSS) from
    the wait4 that reaps it."""

    rusage = None

    def _try_wait(self, wait_flags):
        try:
            pid, sts, ru = os.wait4(self.pid, wait_flags)
        except ChildProcessError:
            return self.pid, 0
        if pid == self.pid:
            self.rusage = ru
        return pid, sts


def timed(cmd):
    """Runs cmd; returns (wall s, user+sys CPU s, peak RSS MiB, exit code,
    stdout, stderr)."""
    t0 = time.perf_counter()
    proc = RusagePopen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                       text=True)
    stdout, stderr = proc.communicate()
    wall = time.perf_counter() - t0
    ru = proc.rusage
    return (wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0,
            proc.returncode, stdout, stderr)


def host_steal_s():
    """CPU time the hypervisor gave to other guests, summed over this host's
    CPUs (/proc/stat); None where it is not reported."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def round_seed(seed, k):
    return (seed * 1000003 + k) % (1 << 62)


def read_csv(path):
    with open(path) as f:
        lines = f.read().split("\n")
    if lines[0] != "cycles,path_id":
        raise Failure("%s: header %r" % (path, lines[0]))
    rows = [line for line in lines[1:] if line]
    return lines, rows


def parse_report(text):
    """Fields of one mbpta::RenderReport block (the pooled analysis)."""
    rep = {}
    m = re.search(r"i\.i\.d\. gate \(alpha=([0-9.e-]+)\): (PASSED|REJECTED)",
                  text)
    rep["alpha"], rep["gate"] = float(m.group(1)), m.group(2)
    rep["p_lb"] = float(re.search(r"Ljung-Box \(independence\):\s+p=([0-9.]+)",
                                  text).group(1))
    rep["p_ks"] = float(re.search(r"KS two-sample[^:]*:\s+p=([0-9.]+)",
                                  text).group(1))
    rep["block"] = int(re.search(r"block size: (\d+)", text).group(1))
    table = text.split("| exceedance prob | pWCET (cycles) |")[1]
    rep["table"] = [(float(p), float(v)) for p, v in
                    re.findall(r"^\| (1e-\d+)\s+\| (\d+)\s+\|$", table,
                               re.M)[:5]]
    rep["verdict"] = re.search(r"verdict: (\w+)", text).group(1)
    return rep


def gate_extreme(rep, what):
    """Checks that the gate's verdict follows its p-values, and returns
    whether a p-value prints as 0.000 (p < 0.0005): dependence that a true
    i.i.d. sample shows once in 1,000 samples. See README."""
    passed = rep["p_lb"] >= rep["alpha"] and rep["p_ks"] >= rep["alpha"]
    # p-values print with 3 decimals; skip the verdict check at the edge.
    edge = min(abs(rep["p_lb"] - rep["alpha"]), abs(rep["p_ks"] - rep["alpha"]))
    if edge > 0.0006 and passed != (rep["gate"] == "PASSED"):
        raise Failure("%s: gate verdict %s disagrees with p-values %s/%s" %
                      (what, rep["gate"], rep["p_lb"], rep["p_ks"]))
    return min(rep["p_lb"], rep["p_ks"]) == 0.0


def check_gates(extreme, what):
    """Fails when every checked sample of the run shows extreme dependence,
    as a broken randomization does."""
    if extreme and all(extreme):
        raise Failure("%s: every sample fails the i.i.d. gate with p < 0.0005"
                      % what)


def check_curve(rep, cycles, what):
    table = rep["table"]
    if len(table) != 5 or [p for p, _ in table] != [1e-3, 1e-6, 1e-9, 1e-12,
                                                    1e-15]:
        raise Failure("%s: pWCET table %r" % (what, table))
    values = [v for _, v in table]
    if any(b < a for a, b in zip(values, values[1:])):
        raise Failure("%s: pWCET decreases as probability falls: %r" %
                      (what, values))
    if values[1] < max(cycles):
        raise Failure("%s: pWCET@1e-6 %d below the largest observation %d" %
                      (what, values[1], max(cycles)))
    # Own Gumbel fit by the method of moments over block maxima.
    b = rep["block"]
    maxima = [max(cycles[i * b:(i + 1) * b]) for i in range(len(cycles) // b)]
    beta = statistics.stdev(maxima) * math.sqrt(6) / math.pi
    mu = statistics.fmean(maxima) - 0.5772156649015329 * beta
    own = mu - beta * math.log(-b * math.log1p(-1e-12))
    dev = abs(values[3] - own) / own
    if dev > GUMBEL_TOLERANCE:
        raise Failure("%s: pWCET@1e-12 %d vs own moment fit %.0f (%.1f%%)" %
                      (what, values[3], own, 100 * dev))
    return dev


def binomial_ok(count, n, p):
    return abs(count - n * p) <= 5.0 * math.sqrt(n * p * (1 - p)) + 1.0


class Tmp:
    def __init__(self, workload):
        self.path = os.path.join(TMP_ROOT, "%s-%d" % (workload, os.getpid()))
        shutil.rmtree(self.path, ignore_errors=True)
        os.makedirs(self.path)

    def __call__(self, name):
        return os.path.join(self.path, name)

    def remove(self):
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            os.rmdir(TMP_ROOT)
        except OSError:
            pass


def campaign_cmd(w, seed, runs, jobs, out):
    cmd = [CLI, "campaign", "--platform", "rand", "--runs", str(runs),
           "--jobs", str(jobs), "--seed", str(seed), "--output", out]
    if w["scenarios"]:
        cmd += ["--scenarios", str(w["scenarios"])]
    return cmd


# --------------------------------------------------------------------------
# Campaign phase


def cold_starts(w, seed, tmp):
    """One cold set-up of each program, each in a new process: a one-run
    campaign of the workload's kind, and spawn of spta_serve to its first
    answered PING. Returns (campaign s, server s, server drained)."""
    camp = timed(campaign_cmd(w, seed, 1, 1, tmp("setup.csv")))
    if camp[3] != 0:
        raise SystemExit("perfbench: one-run campaign failed: " + camp[5])
    server = Server(tmp)
    server.stop()
    return camp[0], server.setup_s, server.clean


def campaign_phase(w, seed, budget_s, tmp):
    """Whole rounds of campaign + analyze until budget_s has passed, each
    after one cold start of each program. The host's speed drifts over
    seconds, so the cold starts are spread over the phase, not taken back
    to back."""
    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < budget_s:
        k = len(rounds)
        setup = cold_starts(w, round_seed(seed, k), tmp)
        csv = tmp("round%d.csv" % k)
        camp = timed(campaign_cmd(w, round_seed(seed, k), w["round_runs"],
                                  JOBS, csv))
        ana = timed([CLI, "analyze", "--input", csv, "--per-path"])
        rounds.append({"csv": csv, "camp": camp, "ana": ana, "setup": setup,
                       "seed": round_seed(seed, k)})
    runs = w["round_runs"]
    metrics = {
        # Both programs' cold set-up, each the median over the rounds.
        "setup_s": statistics.median(r["setup"][0] for r in rounds) +
                   statistics.median(r["setup"][1] for r in rounds),
        "campaign_runs_per_s": statistics.median(
            runs / (r["camp"][0] + r["ana"][0]) for r in rounds),
        "campaign_cpu_ms_per_run": statistics.median(
            1000.0 * (r["camp"][1] + r["ana"][1]) / runs for r in rounds),
        "peak_rss_mb": max(r["camp"][2] for r in rounds),
    }
    return rounds, metrics


def check_campaign(w, rounds, tmp):
    runs = w["round_runs"]
    path_counts = [0] * 8
    total = 0
    worst_dev = 0.0
    extreme = []
    for k, r in enumerate(rounds):
        what = "round %d" % k
        if not r["setup"][2]:
            raise Failure("%s: spta_serve started for set-up did not drain "
                          "and exit cleanly" % what)
        if r["camp"][3] != 0:
            raise Failure("%s: campaign exited %d: %s" %
                          (what, r["camp"][3], r["camp"][5][-300:]))
        _, rows = read_csv(r["csv"])
        if len(rows) != runs:
            raise Failure("%s: %d rows, expected %d" % (what, len(rows), runs))
        cycles = []
        for row in rows:
            c, p = row.split(",")
            if int(c) <= 0 or not 0 <= int(p) < 8:
                raise Failure("%s: bad row %r" % (what, row))
            cycles.append(int(c))
            path_counts[int(p)] += 1
        total += len(rows)
        # analyze exits 1 when the pooled sample is not usable.
        if r["ana"][3] not in (0, 1):
            raise Failure("%s: analyze exited %d" % (what, r["ana"][3]))
        rep = parse_report(r["ana"][4])
        if (r["ana"][3] == 0) != (rep["verdict"] == "usable"):
            raise Failure("%s: analyze exit %d with verdict %s" %
                          (what, r["ana"][3], rep["verdict"]))
        if w["scenarios"] == 0:
            extreme.append(gate_extreme(rep, what))
        worst_dev = max(worst_dev, check_curve(rep, cycles, what))
        if "=== MBPTA per-path analysis ===" not in r["ana"][4]:
            raise Failure("%s: no per-path report" % what)

    # Same seed => same bytes: a prefix at --jobs 1 equals the first rows.
    first = rounds[0]
    lines, _ = read_csv(first["csv"])
    prefix = tmp("prefix.csv")
    counters = tmp("prefix_counters.csv")
    res = timed(campaign_cmd(w, first["seed"], PREFIX_RUNS, 1, prefix) +
                ["--counters-out", counters])
    if res[3] != 0:
        raise Failure("prefix campaign exited %d" % res[3])
    want = "\n".join(lines[:PREFIX_RUNS + 1]) + "\n"
    if open(prefix).read() != want:
        raise Failure("prefix campaign at --jobs 1 differs from the "
                      "measured rows")
    with open(counters) as f:
        crow = [l for l in f.read().split("\n") if l and l[0].isdigit()]
    if len(crow) != PREFIX_RUNS:
        raise Failure("counters: %d rows" % len(crow))
    for l in crow:
        fields = l.split(",")
        if int(fields[2]) < int(fields[3]):
            raise Failure("run %s: cycles %s < instructions %s" %
                          (fields[0], fields[2], fields[3]))
    if w["scenarios"]:
        # The lockstep batch kernel gives the default engine's rows.
        batch = tmp("batch.csv")
        res = timed(campaign_cmd(w, first["seed"], PREFIX_RUNS, 1, batch) +
                    ["--batch-lanes", "8"])
        if res[3] != 0 or open(batch).read() != want:
            raise Failure("--batch-lanes 8 rows differ from the default "
                          "engine's")
        # Fixed inputs, randomized platform: each scenario's runs pass the
        # gate. (The pooled suite sample cycles through 8 scenarios in
        # order, so it is autocorrelated by construction.)
        _, rows = read_csv(first["csv"])
        for s in range(w["scenarios"]):
            sub = tmp("scenario%d.csv" % s)
            with open(sub, "w") as f:
                f.write("cycles,path_id\n" +
                        "\n".join(rows[s::w["scenarios"]]) + "\n")
            res = timed([CLI, "analyze", "--input", sub])
            if res[3] not in (0, 1):
                raise Failure("scenario %d: analyze exited %d" % (s, res[3]))
            extreme.append(gate_extreme(parse_report(res[4]),
                                        "scenario %d" % s))
        check_gates(extreme, "suite scenarios")
    else:
        check_gates(extreme, "campaign rounds")
        # Path frequencies follow the independent mode flags.
        for path in range(8):
            p = 1.0
            for bit, q in enumerate(MODE_PROBS):
                p *= q if path >> bit & 1 else 1.0 - q
            if not binomial_ok(path_counts[path], total, p):
                raise Failure("path %d: %d of %d runs, expected p=%.3f" %
                              (path, path_counts[path], total, p))
    return worst_dev


# --------------------------------------------------------------------------
# Serve phase


def frame(verb, body=b""):
    return b"spta1 %s %d\n" % (verb, len(body)) + body


def read_reply(sock_file):
    header = sock_file.readline().split()
    if len(header) != 3 or header[0] != b"spta1":
        raise OSError("bad reply header %r" % header)
    return header[1].decode(), sock_file.read(int(header[2])).decode()


class Server:
    """spta_serve --tcp on an ephemeral port; always reaped."""

    def __init__(self, tmp, extra=()):
        self.log_path = tmp("serve.log")
        self.log = open(self.log_path, "w")
        self.t0 = time.perf_counter()
        self.proc = RusagePopen(
            [SERVE, "--tcp", "0", "--shards", str(SHARDS)] + list(extra),
            stdout=subprocess.DEVNULL, stderr=self.log)
        self.port = None
        deadline = time.monotonic() + 30
        while self.port is None:
            if self.proc.poll() is not None or time.monotonic() > deadline:
                self.stop()
                raise SystemExit("perfbench: spta_serve did not start")
            with open(self.log_path) as f:
                m = re.search(r"listening on [0-9.]+:(\d+)", f.read())
            if m:
                self.port = int(m.group(1))
            else:
                time.sleep(0.0005)
        with socket.create_connection(("127.0.0.1", self.port)) as s:
            s.sendall(frame(b"PING"))
            status, _ = read_reply(s.makefile("rb"))
        self.setup_s = time.perf_counter() - self.t0
        if status != "OK":
            self.stop()
            raise SystemExit("perfbench: PING answered " + status)
        self.clean = False

    def stop(self):
        """SHUTDOWN, wait for drained=1, reap. Kills after a bounded wait;
        self.clean says whether that was needed."""
        drained = False
        if self.proc.poll() is None and self.port is not None:
            try:
                with socket.create_connection(("127.0.0.1", self.port),
                                              timeout=SHUTDOWN_WAIT_S) as s:
                    s.sendall(frame(b"SHUTDOWN"))
                    status, body = read_reply(s.makefile("rb"))
                    drained = status == "OK" and "drained=1" in body
            except OSError as e:
                log("SHUTDOWN failed: %s" % e)
        try:
            self.proc.wait(timeout=SHUTDOWN_WAIT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            drained = False
        self.log.close()
        self.clean = drained and self.proc.returncode == 0
        ru = self.proc.rusage
        self.peak_rss_mb = ru.ru_maxrss / 1024.0 if ru else 0.0


def serve_phase(seed, seconds, tmp, extra=()):
    server = Server(tmp, extra)
    try:
        res = subprocess.run(
            [LOAD, "--port", str(server.port), "--seed", str(seed),
             "--seconds", "%.3f" % seconds, "--connections", str(CONNECTIONS),
             "--server-pid", str(server.proc.pid), "--check-dir", tmp.path,
             "--check-samples", str(CHECK_SAMPLES)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            timeout=seconds + 120)
    finally:
        server.stop()
    if res.returncode != 0:
        sys.stderr.write(res.stderr)
        raise SystemExit("perfbench: load generator failed")
    load = json.loads(res.stdout.strip().split("\n")[-1])
    return server, load


def serve_metrics(server, load):
    return {
        "serve_cpu_us_per_request":
            1e6 * load["server_cpu_s"] / load["window_requests"],
        "serve_peak_rss_mb": server.peak_rss_mb,
    }


def check_serve(server, load, tmp):
    if not server.clean:
        raise Failure("spta_serve did not drain and exit cleanly")
    if load["failed"]:
        raise Failure("serve: %d requests failed, first: %s" %
                      (load["failed"], load["first_error"]))
    for kind in SERVE_KINDS:
        if load[kind]["n"] < 1000:
            raise Failure("only %d %s requests measured" %
                          (load[kind]["n"], kind))
    if load["cache_field_mismatches"]:
        raise Failure("%d replies with an unexpected cache= field" %
                      load["cache_field_mismatches"])
    if load["own_misses"] != load["server_cache_misses"] or \
            load["own_hits"] != (load["server_cache_hits"] +
                                 load["server_memo_hits"]):
        raise Failure("cache counters: sent %d new / %d repeated, server "
                      "counted %d misses / %d+%d hits" %
                      (load["own_misses"], load["own_hits"],
                       load["server_cache_misses"], load["server_cache_hits"],
                       load["server_memo_hits"]))
    if load["quantile_outside"]:
        raise Failure("%d usable pWCETs outside %.0f%% of the analytic "
                      "quantile" % (load["quantile_outside"],
                                    100 * load["tolerance"]))
    # A served analysis equals spta_cli analyze on the same sample.
    for i in range(CHECK_SAMPLES):
        with open(tmp("check_%d.reply" % i)) as f:
            reply = f.read()
        args = dict(t.split("=", 1) for t in reply.split("\n", 1)[0].split())
        res = timed([CLI, "analyze", "--input", tmp("check_%d.csv" % i)])
        if res[3] not in (0, 1):
            raise Failure("check sample %d: analyze exited %d" % (i, res[3]))
        served = reply.split("\n", 1)[1].replace("=== spta_serve analysis",
                                                 "=== spta_cli analysis")
        cli = res[4][:res[4].index("path coverage:")]
        if served != cli:
            raise Failure("check sample %d: served report differs from "
                          "spta_cli analyze" % i)
        if (args["usable"] == "1") != (res[3] == 0):
            raise Failure("check sample %d: usable=%s but analyze exited %d" %
                          (i, args["usable"], res[3]))
        if "%.0f" % float(args["pwcet"]) != "%.0f" % parse_report(
                res[4])["table"][3][1]:
            raise Failure("check sample %d: served pwcet %s vs CLI table" %
                          (i, args["pwcet"]))


# --------------------------------------------------------------------------
# Traced run


def server_queue_wait_p50_ms(trace_dir):
    waits = []
    for name in os.listdir(trace_dir):
        with open(os.path.join(trace_dir, name)) as f:
            doc = json.load(f)
        events = doc["traceEvents"] if isinstance(doc, dict) else doc
        waits += [e["dur"] / 1000.0 for e in events
                  if e.get("name") == "queue_wait" and "dur" in e]
    return (statistics.median(waits) if waits else 0.0), len(waits)


def traced_run(w, seed, seconds, tmp):
    build(["perfbench_load", "perfbench_trace"])
    s0 = round_seed(seed, 0)
    traced_runs = 60 if w["scenarios"] == 0 else 400
    csv = tmp("e2e.csv")
    e2e = timed(campaign_cmd(w, s0, traced_runs, 1, csv))
    if e2e[3] != 0:
        raise SystemExit("perfbench: campaign failed: " + e2e[5])
    res = timed([TRACE, "--scenarios", str(w["scenarios"]), "--seed", str(s0),
                 "--runs", str(traced_runs), "--round-runs",
                 str(w["round_runs"]), "--csv", csv, "--spans",
                 tmp("spans.csv")])
    if res[3] not in (0, 1):
        raise SystemExit("perfbench: traced run failed: " + res[5])
    layers = json.loads(res[4].strip().split("\n")[-1])
    correct = res[3] == 0
    if not correct:
        log(res[5][-2000:])
    e2e_ms_per_run = 1000.0 * e2e[0] / traced_runs
    layers["analysis.runner_ms_per_run"] = e2e_ms_per_run - (
        layers["trace.interpret_ms_per_run"] +
        layers["apps.compose_ms_per_run"] + layers["sim.simulate_ms_per_run"])
    log("campaign at --jobs 1: %.3f ms/run end to end, %.3f ms/run traced "
        "in process (%d frames built, %d reused)" %
        (e2e_ms_per_run, layers["traced_run_ms"], layers["frames_built"],
         layers["frames_reused"]))

    trace_dir = tmp("server_trace")
    os.makedirs(trace_dir)
    server, load = serve_phase(seed, max(2.0, seconds * 0.2), tmp,
                               ["--trace-dir", trace_dir])
    correct = correct and server.clean and load["failed"] == 0
    analyses = load["own_hits"] + load["own_misses"]
    layers["service.cache_hit_ratio"] = (
        (load["server_cache_hits"] + load["server_memo_hits"]) / analyses)
    layers["service.queue_wait_ms_p50"], waits = \
        server_queue_wait_p50_ms(trace_dir)
    warm_us = 1000.0 * load["warm"]["p50_ms"]
    # The p50 warm repeat resends bytes the client already holds and is a
    # hit in the event loop's memo, which answers before any shard parses
    # its rows or probes its result cache: encode, payload parse and the
    # shard-side cache probe are not on its path.
    layers["service.transport_us_per_request"] = warm_us - sum(
        layers[k] for k in ("service.parse_us_per_request",
                            "service.route_us_per_request",
                            "service.render_us_per_response",
                            "service.decode_us_per_response"))
    log("service: warm p50 %.1f us client-observed; %d queue waits traced" %
        (warm_us, waits))
    attempted = traced_runs + load["attempted"]
    return correct, attempted, load["failed"], layers


# --------------------------------------------------------------------------


def declared_metrics(kind):
    """{name: unit} of the end_to_end or per_layer list of BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[kind]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("need --seed >= 0 and --seconds > 0")
    w = WORKLOADS[args.workload]
    tmp = None
    t0, steal0 = time.perf_counter(), host_steal_s()
    try:
        if args.trace:
            tmp = Tmp(args.workload)
            correct, attempted, failed, layers = traced_run(
                w, args.seed, args.seconds, tmp)
            metrics = {k: {"value": layers[k], "unit": u}
                       for k, u in declared_metrics("per_layer").items()}
        else:
            build(["perfbench_load"])
            tmp = Tmp(args.workload)
            rounds, camp = campaign_phase(
                w, args.seed, args.seconds * CAMPAIGN_SHARE, tmp)
            server, load = serve_phase(
                args.seed, args.seconds * (1 - CAMPAIGN_SHARE), tmp)
            values = dict(camp)
            values.update(serve_metrics(server, load))
            correct = True
            try:
                dev = check_campaign(w, rounds, tmp)
                log("campaign: %d rounds of %d runs; worst pWCET@1e-12 "
                    "distance to own moment fit %.2f%%" %
                    (len(rounds), w["round_runs"], 100 * dev))
                check_serve(server, load, tmp)
                # Latencies are logged, not reported: they follow the
                # host's steal time (README.md).
                log("serve: p50/p99 ms: " + ", ".join(
                    "%s %.4f/%.4f" % (kind, load[kind]["p50_ms"],
                                      load[kind]["p99_ms"])
                    for kind in SERVE_KINDS))
                log("serve: %d requests (%.1f/s over the whole window), %d "
                    "usable pWCETs within %.0f%% of the analytic quantile "
                    "(worst %.2f%%), %d unusable" %
                    (load["attempted"],
                     load["window_requests"] / load["window_s"],
                     load["quantile_checked"],
                     100 * load["tolerance"], 100 * load["worst_rel_dev"],
                     load["unusable"]))
            except Failure as e:
                log("check failed: %s" % e)
                correct = False
            attempted = len(rounds) * w["round_runs"] + load["attempted"]
            failed = load["failed"] + sum(
                w["round_runs"] for r in rounds if r["camp"][3] != 0)
            metrics = {k: {"value": values[k], "unit": u}
                       for k, u in declared_metrics("end_to_end").items()}
    finally:
        if tmp is not None:
            tmp.remove()
    steal1 = host_steal_s()
    if steal0 is not None and steal1 is not None:
        # Figures move with the host's steal time; see README.md.
        log("host steal time: %.2f of %d CPUs over the run" %
            ((steal1 - steal0) / (time.perf_counter() - t0),
             os.cpu_count() or 1))
    print(json.dumps({"correct": bool(correct), "attempted": int(attempted),
                      "failed": int(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
