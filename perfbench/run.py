#!/usr/bin/env python3
"""End-to-end benchmark of the real tensorlib_cli paths.

    python3 perfbench/run.py --workload serve-einsum --seed 1 --seconds 15 --trace 0

Builds the benchmark's own dune package (perfbench/ocaml: the in-process
replay, with the repository's lib/ and bin/ linked in) from source into
.bench_build/, drives the CLI as a child process on the named workload
(`all` runs every workload), checks its outputs, and prints a metric
table followed by one JSON line:
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
metrics are the end-to-end metrics of BENCHMARK.json, measured with
tracing off; with --trace 1 they are the per-layer metrics, from the
traced in-process replay of the same inputs.  Exits 1 when an output
check fails, 2 when the build fails and 3 when a workload runs out of
its time budget; a timeout is counted in `failed` and leaves `correct`
alone.  Workloads, metrics and the layer -> end-to-end mapping:
perfbench/README.md.
"""

import argparse
import json
import os
import re
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.dont_write_bytecode = True
sys.path.insert(0, HERE)

import corpus  # noqa: E402
import stats  # noqa: E402

BUILD = os.path.join(ROOT, ".bench_build")
# the package's workspace: its dune-project and replay/, next to links to
# the repository's sources
WORKSPACE = os.path.join(BUILD, "src")
WORKSPACE_LINKS = {
    "replay": os.path.join(HERE, "ocaml", "replay"),
    "lib": os.path.join(ROOT, "lib"),
    "bin": os.path.join(ROOT, "bin"),
}
CLI = os.path.join(BUILD, "dune", "default", "bin", "tensorlib_cli.exe")
REPLAY = os.path.join(BUILD, "dune", "default", "replay", "replay.exe")

# Each workload must end within 180 s of the build; every child gets what
# is left of its workload's budget.
RUN_BUDGET_S = 170.0
START = time.perf_counter()

SERVE_SETUP_SPAWNS = 15

PROBE = '{"id":"ready"}'
# p95 needs at least ten answers beyond it
SERVE_MIN_REQUESTS = stats.min_samples(0.95)

SWEEP_MIN_RUNS = 2
# set-up samples (warm-store sweeps) taken after each cold sweep
SWEEP_WARM_PER_COLD = 3

FAULT_MIN_RUNS = 5

# The end-to-end throughputs are named after one workload's unit of work
# (requests, design points, trials).  Every run prints every end-to-end
# metric, so a workload that produces no such unit reports its operation
# rate, req_per_s, under that name.
RATES = ("req_per_s", "points_per_s", "trials_per_s")

# layer busy time over replay wall time; below this the breakdown misses work
MIN_COVERAGE = 0.9


class CheckFailed(Exception):
    """An output check failed: the program is wrong."""


class Timeout(Exception):
    """The workload ran out of its time budget: the host is slow."""


def left_s():
    return RUN_BUDGET_S - (time.perf_counter() - START)


def measuring(elapsed, count, min_count, seconds, next_s, reserve_s, what):
    """Whether a measurement loop takes one more operation of about
    `next_s` seconds, keeping `reserve_s` for what follows it (the replay
    and its checks).  Raises Timeout when the budget cannot hold
    `min_count` operations."""
    if elapsed >= seconds and count >= min_count:
        return False
    if left_s() < next_s + reserve_s:
        if count >= min_count:
            return False
        raise Timeout(f"{what}: only {count} of {min_count} operations fit the budget")
    return True


def workspace():
    shutil.rmtree(WORKSPACE, ignore_errors=True)
    os.makedirs(WORKSPACE)
    shutil.copy(os.path.join(HERE, "ocaml", "dune-project"), WORKSPACE)
    for name, target in WORKSPACE_LINKS.items():
        os.symlink(target, os.path.join(WORKSPACE, name))


def build():
    cmd = ["dune", "build", "--root", WORKSPACE, "--cache=disabled",
           "--build-dir", os.path.join(BUILD, "dune"),
           "./bin/tensorlib_cli.exe", "./replay/replay.exe"]
    try:
        workspace()
        r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        sys.stderr.write(f"benchmark build failed: {e}\n")
        sys.exit(2)
    if r.returncode != 0:
        sys.stderr.write(r.stdout[-4000:] + r.stderr[-4000:])
        sys.stderr.write("benchmark build failed\n")
        sys.exit(2)


def cli_env():
    return stats.with_gc_stats(os.environ)


def child_timeout(timeout):
    return max(0.1, min(timeout, left_s()))


def run_cli(args, work, timeout=60.0):
    """One one-shot CLI process: (stdout, exit stats, wall seconds)."""
    err_path = os.path.join(work, "stderr.txt")
    with open(err_path, "w") as err:
        t0 = time.perf_counter()
        try:
            p = subprocess.run([CLI] + args, stdout=subprocess.PIPE, stderr=err, text=True,
                               env=cli_env(), cwd=work, timeout=child_timeout(timeout))
        except subprocess.TimeoutExpired:
            raise Timeout(f"{args[0]}: still running when the budget ran out")
        wall = time.perf_counter() - t0
    with open(err_path) as f:
        err_text = f.read()
    if p.returncode != 0:
        raise CheckFailed(f"{args[0]} exited {p.returncode}: {err_text[-500:]}")
    return p.stdout, stats.parse_gc_stats(err_text), wall


def last_json(text, what):
    lines = [l for l in text.splitlines() if l.strip()]
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError) as e:
        raise CheckFailed(f"{what}: output is not JSON ({e})")


def run_replay(args, timeout=150.0):
    try:
        p = subprocess.run([REPLAY] + args, capture_output=True, text=True,
                           timeout=child_timeout(timeout), cwd=ROOT)
    except subprocess.TimeoutExpired:
        raise Timeout(f"replay {args[0]}: still running when the budget ran out")
    if p.returncode != 0:
        raise CheckFailed(f"replay {args[0]} exited {p.returncode}: {p.stderr[-500:]}")
    out = last_json(p.stdout, "replay")
    bad = [k for k, ok in out["checks"].items() if not ok]
    if bad:
        raise CheckFailed(f"replay {args[0]} checks failed: {bad}")
    return out


def heap_mb(gc, word_bytes):
    if "top_heap_words" not in gc:
        raise CheckFailed("no OCaml exit statistics (OCAMLRUNPARAM v=0x400)")
    return gc["top_heap_words"] * word_bytes / 1e6


# ---------------------------------------------------------------------------
# serve-einsum

# The serve reply to a request no candidate dataflow compiles for
# (bin/tensorlib_cli.ml, serve_program).  Every other `ok: false` reply,
# such as a failed golden verification or a simulator failure, fails the run.
REJECTION = re.compile(r"^no dataflow of .+ compiles onto the .+ target; "
                       r"\d+ candidates rejected")


class Server:
    """One `serve` process and a closed-loop client that waits for each reply."""

    def __init__(self, work, args):
        self.err_path = os.path.join(work, f"serve-{time.perf_counter_ns()}.err")
        self.err = open(self.err_path, "w")
        self.spawned = time.perf_counter()
        self.p = subprocess.Popen([CLI] + args, stdin=subprocess.PIPE,
                                  stdout=subprocess.PIPE, stderr=self.err,
                                  env=cli_env(), cwd=work)
        self.buf = bytearray()

    def ask(self, line):
        os.write(self.p.stdin.fileno(), line.encode() + b"\n")
        fd = self.p.stdout.fileno()
        while True:
            nl = self.buf.find(b"\n")
            if nl >= 0:
                reply = bytes(self.buf[:nl])
                del self.buf[:nl + 1]
                return reply.decode()
            wait = left_s()
            if wait <= 0 or not select.select([fd], [], [], wait)[0]:
                raise Timeout("serve: no reply before the budget ran out")
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                raise CheckFailed("serve: stdout closed before the reply")
            self.buf += chunk

    def close(self):
        """Shut down on EOF; returns the exit statistics."""
        self.p.stdin.close()
        try:
            code = self.p.wait(timeout=child_timeout(30.0))
        except subprocess.TimeoutExpired:
            self.kill()
            if left_s() <= 0:
                raise Timeout("serve: still running on EOF when the budget ran out")
            raise CheckFailed("serve: did not exit within 30 s of EOF")
        self.p.stdout.close()
        self.err.close()
        with open(self.err_path) as f:
            text = f.read()
        if code != 0:
            raise CheckFailed(f"serve exited {code}: {text[-500:]}")
        return stats.parse_gc_stats(text)

    def kill(self):
        if self.p.poll() is None:
            self.p.kill()
            self.p.wait()


def ready(server):
    """Seconds from spawn to the reply to a probe line outside the corpus."""
    reply = json.loads(server.ask(PROBE))
    if reply.get("id") != "ready":
        raise CheckFailed("serve: probe reply does not echo its id")
    return time.perf_counter() - server.spawned


def check_reply(text, cls, req, mnk):
    """True for an ok, verified answer and False for a compile rejection of a
    request outside the envelope; raises on any other reply."""
    try:
        reply = json.loads(text)
    except ValueError:
        raise CheckFailed(f"request {req['id']}: reply is not JSON")
    if not isinstance(reply, dict) or reply.get("id") != req["id"]:
        raise CheckFailed(f"request {req['id']}: reply does not echo the id")
    if reply.get("ok") is True:
        m, n, k = mnk
        if reply.get("verified") is not True:
            raise CheckFailed(f"request {req['id']}: ok but not verified")
        if reply.get("macs") != m * n * k:
            raise CheckFailed(f"request {req['id']}: macs {reply.get('macs')} != {m * n * k}")
        if not isinstance(reply.get("program"), dict):
            raise CheckFailed(f"request {req['id']}: ok without a program document")
        return True
    error = reply.get("error")
    if reply.get("ok") is not False or not isinstance(error, str):
        raise CheckFailed(f"request {req['id']}: malformed reply")
    if not REJECTION.match(error):
        raise CheckFailed(f"request {req['id']}: failed: {error[:200]}")
    if cls == "in_envelope":
        raise CheckFailed(f"request {req['id']}: in-envelope request rejected: {error[:200]}")
    return False


def serve_einsum(ctx):
    work, seconds = ctx["work"], ctx["seconds"]
    args = ctx["cli_args"]["serve"]
    servers = []
    try:
        setup = []
        for _ in range(SERVE_SETUP_SPAWNS):
            s = Server(work, args)
            servers.append(s)
            setup.append(ready(s))
            s.close()
        s = Server(work, args)
        servers.append(s)
        setup.append(ready(s))

        stream = corpus.requests(ctx["seed"])
        exchanges, latencies = [], []
        t_start = time.perf_counter()
        while True:
            elapsed = time.perf_counter() - t_start
            per_req = elapsed / len(exchanges) if exchanges else 0.0
            # the traced replay costs about what the CLI took, the check alone little
            reserve = 10.0 + (1.5 if ctx["trace"] else 0.2) * elapsed
            if not measuring(elapsed, len(exchanges), SERVE_MIN_REQUESTS, seconds,
                             per_req * len(corpus.BLOCK), reserve, "serve"):
                break
            for _ in range(len(corpus.BLOCK)):
                cls, req, mnk = next(stream)
                line = corpus.line(req)
                t0 = time.perf_counter()
                text = s.ask(line)
                latencies.append((time.perf_counter() - t0) * 1000.0)
                exchanges.append((cls, req, mnk, line, text))
        corpus_s = time.perf_counter() - t_start
        gc = s.close()
    finally:
        for srv in servers:
            srv.kill()

    classes = {}
    for cls, req, mnk, _, text in exchanges:
        ok, sent = classes.get(cls, (0, 0))
        classes[cls] = (ok + check_reply(text, cls, req, mnk), sent + 1)
    oks = sum(ok for ok, _ in classes.values())
    n = len(exchanges)
    corpus_path = os.path.join(work, "corpus.jsonl")
    replies_path = os.path.join(work, "replies.jsonl")
    with open(corpus_path, "w") as f:
        f.write("".join(line + "\n" for _, _, _, line, _ in exchanges))
    with open(replies_path, "w") as f:
        f.write("".join(text + "\n" for _, _, _, _, text in exchanges))
    replay = run_replay(["serve", "--corpus", corpus_path, "--replies", replies_path,
                         "--trace", str(ctx["trace"])])
    if replay["info"]["programs_decoded"] != oks:
        raise CheckFailed("serve: not every ok reply's program decoded")
    if ctx["trace"] and replay["info"]["replay_compiled"] != oks:
        raise CheckFailed("serve: the replay compiled other requests than the CLI answered")

    p50, _ = stats.percentile(latencies, 0.50)
    p95, beyond = stats.percentile(latencies, 0.95)
    e2e = {
        "setup_s": (statistics.median(setup), "s", len(setup)),
        "req_per_s": (n / corpus_s, "1/s", n),
        "latency_p50_ms": (p50, "ms", n),
        "latency_p95_ms": (p95, "ms", f"{n} ({beyond} beyond)"),
        "ok_frac": (oks / n, "ratio", n),
        "heap_peak_mb": (heap_mb(gc, ctx["word_bytes"]), "MB", 1),
    }
    layers = dict(replay["metrics"])
    layers["gc.minor_words_per_req"] = gc["minor_words"] / n
    layers["cli.unit_ms"] = corpus_s * 1000.0 / n
    info = {"requests": n, "classes": {c: {"ok": o, "sent": t} for c, (o, t) in classes.items()}}
    return {"attempted": n, "e2e": e2e, "layers": layers, "info": info}


# ---------------------------------------------------------------------------
# sweep-cold and fault-campaign: one CLI process per operation


def one_shot_e2e(walls, setup, gcs, ctx):
    """End-to-end metrics shared by the one-shot CLIs, from the process wall
    times of the measured operations and of the set-up operations."""
    n = len(walls)
    walls_ms = [w * 1000.0 for w in walls]
    p50, _ = stats.percentile(walls_ms, 0.50)
    p95, beyond = stats.percentile(walls_ms, 0.95)
    return {
        "setup_s": (statistics.median(setup), "s", len(setup)),
        "req_per_s": (1000.0 / p50, "1/s", n),
        "latency_p50_ms": (p50, "ms", n),
        "latency_p95_ms": (p95, "ms", f"{n} ({beyond} beyond)"),
        # a process that failed a check has already failed the run
        "ok_frac": (1.0, "ratio", n + len(setup)),
        "heap_peak_mb": (max(heap_mb(g, ctx["word_bytes"]) for g in gcs), "MB", n),
    }


def next_op_s(walls):
    return statistics.median(walls) if walls else 0.0


# ---------------------------------------------------------------------------
# sweep-cold


def sweep_report(stdout, store):
    r = last_json(stdout, "sweep")
    if r.get("schema") != "tensorlib-sweep/1" or r.get("complete") is not True:
        raise CheckFailed(f"sweep on {store}: incomplete or unknown report")
    if not r.get("points"):
        raise CheckFailed(f"sweep on {store}: no design points")
    return r


def sweep_cold(ctx):
    work, seconds = ctx["work"], ctx["seconds"]
    stores = os.path.join(work, "stores")
    os.makedirs(stores)
    args = ctx["cli_args"]["sweep"] + ["--store"]
    cold, setup, digests = [], [], set()
    t_start = time.perf_counter()
    while True:
        w = next_op_s([c[0] for c in cold])
        # replay: one single-domain sweep; traced, two more and the traced one
        reserve = 10.0 + (6 if ctx["trace"] else 2) * w
        if not measuring(time.perf_counter() - t_start, len(cold), SWEEP_MIN_RUNS, seconds,
                         w + SWEEP_WARM_PER_COLD * next_op_s(setup), reserve, "sweep-cold"):
            break
        store = os.path.join(stores, f"cold-{len(cold)}")
        out, gc, wall = run_cli(args + [store], work)
        r = sweep_report(out, store)
        if r["hits"] != 0:
            raise CheckFailed("sweep-cold: a fresh store reported hits")
        digests.add(r["digest"])
        cold.append((wall, r["points"], gc))
        # set-up: the same sweep on the now warm store, where no point is
        # evaluated; interleaved so both see the same host conditions
        for _ in range(SWEEP_WARM_PER_COLD):
            out, _, wall = run_cli(args + [store], work)
            r = sweep_report(out, "warm store")
            if r["misses"] != 0:
                raise CheckFailed("sweep-cold: warm store missed")
            digests.add(r["digest"])
            setup.append(wall)

    replay = run_replay(["sweep", "--trace", str(ctx["trace"]),
                         "--store", os.path.join(work, "replay-store")])
    if digests != {replay["info"]["digest"]}:
        raise CheckFailed(f"sweep-cold: CLI digests {sorted(digests)} != in-process "
                          f"{replay['info']['digest']}")

    e2e = one_shot_e2e([w for w, _, _ in cold], setup, [g for _, _, g in cold], ctx)
    e2e["points_per_s"] = (statistics.median(p / w for w, p, _ in cold), "1/s", len(cold))
    layers = dict(replay["metrics"])
    layers["gc.minor_words_per_point"] = statistics.median(g["minor_words"] / p for _, p, g in cold)
    layers["cli.unit_ms"] = e2e["latency_p50_ms"][0]
    info = {"sweeps": len(cold), "points_per_sweep": cold[0][1],
            "digest": replay["info"]["digest"]}
    return {"attempted": len(cold) + len(setup), "e2e": e2e, "layers": layers, "info": info}


# ---------------------------------------------------------------------------
# fault-campaign


def fault_counts(stdout, trials):
    r = last_json(stdout, "fault")
    counts = r.get("outcomes", {})
    if r.get("trials") != trials or sum(counts.values()) != trials:
        raise CheckFailed(f"fault: outcome counts {counts} do not sum to {trials} trials")
    return counts


def fault_campaign(ctx):
    work, seconds = ctx["work"], ctx["seconds"]
    trials = ctx["fault_trials"]
    # the campaign's only input is its fault plan, drawn from this seed
    seed_args = ["--seed", str(corpus.SplitMix64(ctx["seed"]).next() % 1_000_000)]
    args = ctx["cli_args"]["fault"] + seed_args
    setup, runs, outcomes = [], [], set()
    t_start = time.perf_counter()
    while True:
        w = next_op_s([r[0] for r in runs])
        # replay: one campaign and a short tape run; traced, one more single-domain
        reserve = 10.0 + (6 if ctx["trace"] else 3) * w
        if not measuring(time.perf_counter() - t_start, len(runs), FAULT_MIN_RUNS, seconds,
                         w + next_op_s(setup), reserve, "fault-campaign"):
            break
        # set-up: a one-trial campaign, interleaved with the measured ones
        out, _, wall = run_cli(args + ["--trials", "1"], work)
        fault_counts(out, 1)
        setup.append(wall)
        out, gc, wall = run_cli(args + ["--trials", str(trials)], work)
        outcomes.add(json.dumps(fault_counts(out, trials), sort_keys=True))
        runs.append((wall, gc))

    replay = run_replay(["fault"] + seed_args + ["--trace", str(ctx["trace"])])
    expect = {k: replay["info"][k] for k in ("masked", "sdc", "detected", "hang")}
    if outcomes != {json.dumps(expect, sort_keys=True)}:
        raise CheckFailed(f"fault: CLI outcomes {sorted(outcomes)} != in-process {expect}")

    e2e = one_shot_e2e([w for w, _ in runs], setup, [g for _, g in runs], ctx)
    e2e["trials_per_s"] = (statistics.median(trials / w for w, _ in runs), "1/s", len(runs))
    layers = dict(replay["metrics"])
    layers["gc.minor_words_per_trial"] = statistics.median(
        g["minor_words"] / trials for _, g in runs)
    layers["cli.unit_ms"] = e2e["latency_p50_ms"][0] / trials
    info = {"campaigns": len(runs), "trials_per_campaign": trials, "outcomes": expect,
            "tape_trials": replay["info"]["tape_trials"]}
    return {"attempted": len(runs) + len(setup), "e2e": e2e, "layers": layers, "info": info}


WORKLOADS = {
    "serve-einsum": serve_einsum,
    "sweep-cold": sweep_cold,
    "fault-campaign": fault_campaign,
}


# ---------------------------------------------------------------------------


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def git_commit():
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                           text=True, timeout=10)
        return r.stdout.strip() if r.returncode == 0 else "unknown"
    except OSError:
        return "unknown"


def metadata(seed, seconds, runtime):
    return {
        "nproc": os.cpu_count(),
        "pool_width": runtime["pool_width"],
        "TL_DOMAINS": os.environ.get("TL_DOMAINS"),
        "ocaml": runtime["ocaml"],
        "OCAMLRUNPARAM": os.environ.get("OCAMLRUNPARAM"),
        "cli_OCAMLRUNPARAM": cli_env()["OCAMLRUNPARAM"],
        "commit": git_commit(),
        "seed": seed,
        "seconds": seconds,
    }


def select_metrics(result, trace, bench):
    """Exactly the BENCHMARK.json metrics of this trace mode, with units."""
    out, table = {}, []
    if trace:
        unknown = set(result["layers"]) - {m["name"] for m in bench["per_layer"]}
        if unknown:
            raise CheckFailed(f"per-layer metrics missing from BENCHMARK.json: {sorted(unknown)}")
        for m in bench["per_layer"]:
            # a layer this workload never calls did no work on it
            value = result["layers"].get(m["name"], 0.0)
            out[m["name"]] = {"value": value, "unit": m["unit"]}
            table.append((m["name"], value, m["unit"], ""))
        return out, table
    e2e = dict(result["e2e"])
    for rate in RATES:
        if rate not in e2e:
            e2e[rate] = e2e["req_per_s"]
    for m in bench["end_to_end"]:
        value, unit, samples = e2e[m["name"]]
        if unit != m["unit"]:
            raise CheckFailed(f"{m['name']}: unit {unit} != {m['unit']}")
        out[m["name"]] = {"value": value, "unit": unit}
        table.append((m["name"], value, unit, samples))
    return out, table


def run_workload(name, args, bench, info):
    """(correct, attempted, failed, metrics, timed_out) of one workload,
    which has a budget of its own."""
    global START
    START = time.perf_counter()
    work = os.path.join(BUILD, "work", f"{name}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    ctx = {"work": work, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
           "word_bytes": info["word_bytes"], "cli_args": info["cli_args"],
           "fault_trials": int(info["fault_trials"])}
    try:
        result = WORKLOADS[name](ctx)
        if args.trace and result["layers"]["coverage"] < MIN_COVERAGE:
            raise CheckFailed(f"replay coverage {result['layers']['coverage']:.3f} < {MIN_COVERAGE}")
        metrics, table = select_metrics(result, args.trace, bench)
        print(f"== {name}  {json.dumps(result['info'])}")
        for metric, value, unit, samples in table:
            print(f"  {metric:36s} {value:14.6g} {unit:10s} {samples}")
        return True, result["attempted"], 0, metrics, False
    except Timeout as e:
        print(f"== {name}  TIMED OUT: {e}")
        return True, 1, 1, {}, True
    except (CheckFailed, OSError) as e:
        print(f"== {name}  CHECK FAILED: {e}")
        return False, 1, 1, {}, False
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main():
    ap = argparse.ArgumentParser(description="tensorlib end-to-end benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    # terminate like an interrupt, so every child process is killed and waited for
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    bench = spec()
    build()
    global START
    START = time.perf_counter()
    try:
        info = run_replay(["info"])["info"]
    except (CheckFailed, Timeout) as e:
        sys.stderr.write(f"benchmark replay does not start: {e}\n")
        return 2
    print("meta: " + json.dumps(metadata(args.seed, args.seconds, info)))

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    correct, attempted, failed, metrics, timed_out = True, 0, 0, {}, False
    for name in names:
        ok, a, f, m, t = run_workload(name, args, bench, info)
        correct &= ok
        timed_out |= t
        attempted += a
        failed += f
        if len(names) == 1:
            metrics = m
        else:
            metrics.update({f"{name}/{k}": v for k, v in m.items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    if not correct:
        return 1
    return 3 if timed_out else 0


if __name__ == "__main__":
    sys.exit(main())
