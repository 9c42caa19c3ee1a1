#!/usr/bin/env python3
"""Repository benchmark: seeded closed-loop SoC workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/ (the simulator library from src/ plus the workload
harness, Release) into $CARGO_TARGET_DIR (default .bench_build), runs one
workload in its own process for S seconds, checks every output and prints
the metrics as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones
(see BENCHMARK.json and perfbench/README.md). The line before it is a
summary with the build type, compiler, source identity and the modeled
digest; the same record is written under <build dir>/results/.
"""

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
WORKLOADS = ("memcpy_stream", "nw_dispatch")
# Hard wall-clock cap on the harness process, on top of --seconds: a
# round that overruns it (the known dispatch hang, see README) is killed
# and its unfinished commands count as failed.
DEADLINE_MARGIN_S = 90
DEADLINE_CAP_S = 160
# Stated gap for the phase conservation check: setup + run + verify must
# cover the round span to within this many seconds.
PHASE_GAP_S = 0.005
STALL_CLASSES = ("busy", "idle", "stall_cmd", "stall_downstream",
                 "stall_mem", "stall_upstream")
NOC_CHANNELS = ("ar", "b", "cmd", "r", "resp", "w")
# Units of the per-layer metrics: by name, else by suffix, else "count".
UNITS = {
    "cmd.latency_cycles.p50": "cycles", "cmd.latency_cycles.p90": "cycles",
    "sim.cycles": "cycles", "sim.ticks_per_cycle": "ticks/cycle",
    "sim.cycles_per_s": "cycles/s", "sim.ns_per_tick": "ns",
    "alloc.per_cycle": "allocs/cycle", "alloc.bytes_per_cycle": "B/cycle",
    "noc.flits_per_cycle": "flits/cycle", "mem.bytes_read": "B",
    "mem.bytes_written": "B", "power.joules": "J", "verify.s": "s",
}
UNIT_SUFFIXES = (("_s", "s"), ("_cycles", "cycles"), ("_frac", "fraction"),
                 ("_ratio", "fraction"))


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build():
    """Configure and build the harness; returns the binary path."""
    out = build_dir() / "perfbench"
    cmds = [["cmake", "-S", str(BENCH_DIR), "-B", str(out),
             "-DCMAKE_BUILD_TYPE=Release"],
            ["cmake", "--build", str(out), "-j",
             str(min(4, os.cpu_count() or 1))]]
    for cmd in cmds:
        res = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                             cwd=ROOT, check=False)
        if res.returncode != 0:
            raise RuntimeError("build step failed: " + " ".join(cmd))
    binary = out / "soc_workload"
    if not binary.is_file():
        raise RuntimeError("build produced no soc_workload binary")
    return binary


def source_identity():
    """The git commit (None in an exported checkout, which carries no
    git metadata) and a content hash of the simulator and benchmark
    sources, which identifies uncommitted trees too."""
    commit = None
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, check=False)
        if res.returncode == 0 and res.stdout.strip():
            commit = res.stdout.strip()
    except OSError:
        pass
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for p in sorted((ROOT / top).rglob("*")):
            if p.is_file() and "__pycache__" not in p.parts:
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return commit, h.hexdigest()[:16]


def run_harness(binary, workload, seed, seconds, trace_path,
                deadline=None, extra_args=()):
    """Run one harness process. Returns (records, cut): cut is None when
    the process ended normally, else why it was cut short (deadline,
    crash); the commands it left unfinished then count as failed."""
    cmd = [str(binary), "--workload=" + workload, "--seed=%d" % seed,
           "--seconds=%g" % seconds, *extra_args]
    if trace_path is not None:
        cmd.append("--trace-out=" + str(trace_path))
    if deadline is None:
        deadline = min(seconds + DEADLINE_MARGIN_S, DEADLINE_CAP_S)
    cut = None
    try:
        res = subprocess.run(cmd, capture_output=True, text=True,
                             timeout=deadline, check=False, cwd=ROOT)
        out, err = res.stdout, res.stderr
        if res.returncode != 0:
            cut = "harness exited with code %d" % res.returncode
    except subprocess.TimeoutExpired as e:
        # subprocess.run has killed and reaped the child already.
        out, err = (x.decode() if isinstance(x, bytes) else (x or "")
                    for x in (e.stdout, e.stderr))
        cut = "deadline expired"
        log("harness killed at the %gs deadline" % deadline)
    if err:
        log(err.rstrip())
    records = []
    for line in out.splitlines():
        try:
            records.append(json.loads(line))
        except ValueError:
            if cut is None:
                raise
    return records, cut


def unit_of(name):
    if name in UNITS:
        return UNITS[name]
    return next((u for suf, u in UNIT_SUFFIXES if name.endswith(suf)),
                "count")


def median(values):
    return statistics.median(values) if values else 0.0


def stats_digest(stats):
    canon = json.dumps(stats, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def scalar(group, name):
    return float(group.get("scalars", {}).get(name, 0.0))


def stall_counts(group):
    st = group.get("groups", {}).get("stall", {})
    return {c: scalar(st, c) for c in STALL_CLASSES}


def layer_counts(rec):
    """Per-layer counters of one round, read from its final stats tree
    (cumulative over the round: input DMA, commands and read-back)."""
    stats = rec["stats"]
    groups = stats.get("groups", {})
    cycles = scalar(stats, "cycles")
    m = {}

    ddr = groups.get("ddr", {})
    hits, misses = scalar(ddr, "rowHits"), scalar(ddr, "rowMisses")
    ids = ddr.get("groups", {}).get("ids", {}).get("groups", {})
    m["dram.col_reads"] = scalar(ddr, "colReads")
    m["dram.col_writes"] = scalar(ddr, "colWrites")
    m["dram.row_hit_ratio"] = hits / (hits + misses) if hits + misses else 0
    m["dram.turnarounds"] = scalar(ddr, "turnarounds")
    m["dram.refreshes"] = scalar(ddr, "refreshes")
    m["dram.busy_frac"] = stall_counts(ddr)["busy"] / cycles
    m["dram.queue_wait_cycles"] = sum(scalar(g, "queueWait")
                                      for g in ids.values())
    m["dram.bank_wait_cycles"] = sum(scalar(g, "bankWait")
                                     for g in ids.values())

    noc = groups.get("noc", {}).get("groups", {})
    flits = 0.0
    for ch in NOC_CHANNELS:
        f = scalar(noc.get(ch, {}), "flits")
        m["noc.flits." + ch] = f
        flits += f
    m["noc.flits_per_cycle"] = flits / cycles

    streams = [g for g in groups.values()
               if "bytesRead" in g.get("scalars", {})
               or "bytesWritten" in g.get("scalars", {})]
    m["mem.bytes_read"] = sum(scalar(g, "bytesRead") for g in streams)
    m["mem.bytes_written"] = sum(scalar(g, "bytesWritten") for g in streams)
    sc = [stall_counts(g) for g in streams]
    denom = cycles * len(sc)
    m["mem.busy_frac"] = sum(s["busy"] for s in sc) / denom
    m["mem.stall_mem_frac"] = sum(s["stall_mem"] for s in sc) / denom

    cores = [groups.get("%s.core%d" % (rec["system"], i), {})
             for i in range(rec["cores"])]
    acc = {c: sum(stall_counts(g)[c] for g in cores) for c in STALL_CLASSES}
    denom = cycles * rec["cores"]
    m["accel.busy_frac"] = acc["busy"] / denom
    m["accel.stall_mem_frac"] = acc["stall_mem"] / denom
    m["accel.stall_cmd_frac"] = acc["stall_cmd"] / denom
    m["accel.idle_frac"] = acc["idle"] / denom
    # Conservation: every core-cycle lands in exactly one stall class.
    stall_exact = sum(acc.values()) == denom
    return m, stall_exact


def percentile(sorted_vals, p):
    """Nearest-rank percentile."""
    if not sorted_vals:
        return 0.0
    k = math.ceil(p * len(sorted_vals) / 100) - 1
    return float(sorted_vals[max(0, k)])


def span_metrics(spans, rnd):
    """Host and cycle figures of one traced round from its spans, plus
    the nesting and phase-sum conservation checks."""
    by_id = {s["id"]: s for s in spans}
    mine = [s for s in spans if s["round"] == rnd]
    nest_ok = True
    for s in mine:
        p = by_id.get(s["parent"])
        if s["t1"] < s["t0"] or p is None:
            nest_ok = False
            continue
        if s["t0"] < p["t0"] or s["t1"] > p["t1"]:
            nest_ok = False
        if min(s["c0"], p["c0"]) >= 0 and s["c0"] < p["c0"]:
            nest_ok = False
        if min(s["c1"], p["c1"]) >= 0 and s["c1"] > p["c1"]:
            nest_ok = False

    def dur(s):
        return (s["t1"] - s["t0"]) * 1e-9

    def cyc(s):
        return s["c1"] - s["c0"] if min(s["c0"], s["c1"]) >= 0 else 0

    def total(name, f=dur):
        return sum(f(s) for s in mine if s["name"] == name)

    def self_time(name):
        # Span duration minus the union of its children's intervals.
        out = 0.0
        for s in (x for x in mine if x["name"] == name):
            kids = sorted((c["t0"], c["t1"]) for c in mine
                          if c["parent"] == s["id"])
            covered, end = 0, s["t0"]
            for a, b in kids:
                a = max(a, end)
                if b > a:
                    covered += b - a
                    end = b
            out += dur(s) - covered * 1e-9
        return out

    lat = sorted(cyc(s) for s in mine if s["name"] == "cmd")
    m = {
        "runtime.malloc_s": total("malloc"),
        "runtime.dma_in_s": total("dma_in"),
        "runtime.dma_in_cycles": total("dma_in", cyc),
        "cmd.invoke_s": total("invoke"),
        "cmd.invoke_cycles": total("invoke", cyc),
        "cmd.get_s": total("get"),
        "cmd.get_cycles": total("get", cyc),
        "cmd.latency_cycles.p50": percentile(lat, 50),
        "cmd.latency_cycles.p90": percentile(lat, 90),
        "cmd.latency_samples": len(lat),
        "self.setup_s": self_time("setup"),
        "self.run_s": self_time("run"),
    }
    # The round's self time: what setup, run and verify leave uncovered.
    gap = self_time("round")
    m["check.phase_gap_s"] = gap
    return m, nest_ok, 0 <= gap <= PHASE_GAP_S


def summarize(workload, seed, seconds, trace, records, cut, spans):
    meta = next((r for r in records if r["kind"] == "meta"), {})
    rounds = [r for r in records if r["kind"] == "round"]
    setup_reps = [r for r in records if r["kind"] == "setup_rep"]
    done = next((r for r in records if r["kind"] == "done"), {})
    correct = bool(meta) and bool(rounds)

    attempted = sum(r["ops"] for r in rounds)
    failed = sum(r["ops"] - r["ok_ops"] for r in rounds)
    errors = [r["error"] for r in rounds if r["error"]]
    for r in setup_reps:
        if r["error"]:
            # A failed setup blocks the whole round it stands for.
            attempted, failed = attempted + 1, failed + 1
            errors.append(r["error"])
    if cut is not None:
        # Commands of the round the cut interrupted: the ones never
        # completed count as failed.
        finished = {r["round"] for r in rounds + setup_reps}
        starts = [r for r in records if r["kind"] == "run_start"
                  and r["round"] not in finished]
        ops_done = [r["done"] for r in records if r["kind"] == "op"
                    and r["round"] not in finished]
        cut_ops = starts[-1]["ops"] if starts else 1
        attempted += cut_ops
        failed += cut_ops - (ops_done[-1] if ops_done else 0)
        errors.append(cut)
    attempted = max(attempted, 1)
    correct = correct and failed == 0 and not errors
    correct = correct and all(r["hygiene"] for r in rounds)

    good = [r for r in rounds if not r["error"]]
    digests = {stats_digest(r["stats"]) for r in good}
    modeled_us = [(r["cmd_end_cycle"] - r["cmd_start_cycle"])
                  / r["clock_mhz"] for r in good]
    uj_per_op = [r["cmd_joules"] * 1e6 / r["ops"] for r in good]
    # Same inputs every round: the modeled results must repeat exactly.
    identical = len(digests) <= 1 and len(set(modeled_us)) <= 1 and \
        len(set(uj_per_op)) <= 1
    correct = correct and identical

    release = meta.get("build_type") == "Release"
    commit, tree = source_identity()
    summary = {
        "kind": "summary", "workload": workload, "seed": seed,
        "seconds": seconds, "trace": trace,
        "build_type": meta.get("build_type"),
        "compiler": meta.get("compiler"),
        "commit": commit,
        "source_sha256": tree,
        "host_metrics_valid": release,
        "rounds": len(rounds),
        "digest": next(iter(digests), None),
        "modeled_us": median(modeled_us),
        "modeled_uj_per_op": median(uj_per_op),
        "errors": errors,
    }
    if not release:
        log("warning: %s build; host metrics are invalid"
            % meta.get("build_type"))

    untraced = [r for r in good if not r["traced"]]
    traced = [r for r in good if r["traced"]]
    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    def med(rs, f):
        return median([f(r) for r in rs])

    run_s = lambda r: r["phases"]["run"]
    if not trace:
        put("run_s", med(untraced, run_s), "s")
        put("setup_s", med([r for r in setup_reps + untraced
                            if not r["error"]],
                           lambda r: r["phases"]["setup"]), "s")
        put("peak_rss_mb", done.get("peak_rss_kb", 0) / 1024.0, "MiB")
        put("ok_op_frac", (attempted - failed) / attempted, "fraction")
        put("modeled_us", median(modeled_us), "us")
        put("modeled_uj_per_op", median(uj_per_op), "uJ")
        return correct, attempted, failed, metrics, summary

    per_round, nest_ok, gap_ok, stall_ok = [], True, True, True
    for r in traced:
        m, nest, gap = span_metrics(spans, r["round"])
        counts, stall_exact = layer_counts(r)
        m.update(counts)
        nest_ok, gap_ok = nest_ok and nest, gap_ok and gap
        stall_ok = stall_ok and stall_exact
        cyc = r["cmd_end_cycle"] - r["cmd_start_cycle"]
        ph = r["phases"]
        m.update({
            "core.elab_s": ph["elab"],
            "core.fit_s": ph.get("fit", 0.0),
            "core.fit_probes": r["fit_probes"],
            "core.modules": r["modules"],
            "cmd.count": r["ops"],
            "sim.cycles": cyc,
            "sim.module_ticks": r["cmd_ticks"],
            "sim.ticks_per_cycle": r["cmd_ticks"] / cyc,
            "sim.cycles_per_s": cyc / ph["run"],
            "sim.ns_per_tick": ph["run"] * 1e9 / r["cmd_ticks"],
            "alloc.per_cycle": r["cmd_allocs"] / cyc,
            "alloc.bytes_per_cycle": r["cmd_alloc_bytes"] / cyc,
            "power.joules": r["cmd_joules"],
            "power.static_frac": r["static_watts"] * cyc
            / (r["clock_mhz"] * 1e6) / r["cmd_joules"],
            "verify.s": ph["verify"],
        })
        per_round.append(m)
    correct = correct and bool(traced) and nest_ok and gap_ok and stall_ok

    for name in (per_round[0] if per_round else {}):
        put(name, median([m[name] for m in per_round]), unit_of(name))
    put("trace.overhead_frac",
        med(traced, run_s) / med(untraced, run_s) - 1 if untraced else 0.0,
        "fraction")
    put("check.span_nesting", 1 if nest_ok else 0, "bool")
    put("check.stall_sum_exact", 1 if stall_ok else 0, "bool")
    put("failed_op_frac", failed / attempted, "fraction")
    return correct, attempted, failed, metrics, summary


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    try:
        binary = build()
    except (OSError, RuntimeError) as e:
        log("benchmark build failed: %s" % e)
        return 2

    results = build_dir() / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    span_path = results / (stem + ".spans.json") if args.trace else None
    if span_path is not None and span_path.exists():
        span_path.unlink()
    t0 = time.monotonic()
    try:
        records, cut = run_harness(binary, args.workload, args.seed,
                                   args.seconds, span_path)
    except (OSError, ValueError) as e:
        log("benchmark run failed: %s" % e)
        return 3
    spans = []
    if span_path is not None and span_path.exists():
        spans = json.loads(span_path.read_text())["spans"]
    correct, attempted, failed, metrics, summary = summarize(
        args.workload, args.seed, args.seconds, args.trace, records, cut,
        spans)
    summary["wall_s"] = time.monotonic() - t0
    result = {"correct": correct, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    (results / (stem + ".json")).write_text(
        json.dumps({"summary": summary, "result": result}, indent=1) + "\n")
    print(json.dumps(summary))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
