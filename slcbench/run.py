#!/usr/bin/env python3
"""Repository benchmark: the SLC reproduction and its batch engine.

Run from the root of a checkout:

    python3 slcbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads (one closed-loop caller each, one at a time):

  repro-small      the real `run_all` program at SLC_SCALE=small, repeated
  mag-sweep-full   paper-scale lossless MAG 16/32/64 sweep (NOCOMP + E2MC)
  engine-snapshots the batch engine on every benchmark's memory image

`--trace 0` prints the end-to-end metrics of BENCHMARK.json; `--trace 1`
runs the traced measurement and prints its per-layer metrics. The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
Build output goes to $CARGO_TARGET_DIR (default .bench_build); span files
go to <target>/slcbench-spans/. `--scale tiny` shrinks every input (for
the self-tests in selftest.py).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("repro-small", "mag-sweep-full", "engine-snapshots")
BENCHES = ["JM", "BS", "DCT", "FWT", "TP", "BP", "NN", "SRAD1", "SRAD2"]
FIGURES = ["Fig. 1:", "Fig. 2:", "Fig. 7:", "Fig. 8:", "Fig. 9:"]
CODECS = ["bdi", "rans", "e2mc"]
# Engine measurement appended to repro-small, whose run_all children
# report no engine figures of their own.
REPRO_ENGINE_SECONDS = 5.0


class BenchError(Exception):
    pass


class Spans:
    """Spans around the processes this script starts, written out at exit."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.epoch = time.perf_counter_ns()
        self.spans = []
        self.open = []

    def begin(self, name):
        self.spans.append({"run": self.run_id, "id": len(self.spans), "name": name,
                           "start_ns": time.perf_counter_ns() - self.epoch, "end_ns": None,
                           "parent": self.open[-1] if self.open else None})
        self.open.append(len(self.spans) - 1)

    def end(self):
        self.spans[self.open.pop()]["end_ns"] = time.perf_counter_ns() - self.epoch

    def write(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps(s) + "\n")


def target_dir():
    return (ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()


def build():
    """Builds run_all (repository workspace) and slcbench (own workspace)."""
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates").is_dir():
        raise BenchError(f"{ROOT} is not a checkout of the repository (no Cargo.toml / crates)")
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()))
    for cmd in (["cargo", "build", "--release", "--offline", "-q", "-p", "slc-exp", "--bin", "run_all"],
                ["cargo", "build", "--release", "--offline", "-q",
                 "--manifest-path", str(HERE / "Cargo.toml")]):
        # Build output goes to stderr: stdout carries only the result line.
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            raise BenchError("build failed: " + " ".join(cmd))
    release = target_dir() / "release"
    return release / "run_all", release / "slcbench"


def run_child(cmd, env=None):
    """Runs one workload process; returns (stdout, wall s, peak RSS MiB)."""
    t0 = time.perf_counter()
    p = subprocess.Popen([str(c) for c in cmd], cwd=ROOT, stdout=subprocess.PIPE,
                         env=dict(os.environ, **(env or {})))
    try:
        out = p.stdout.read().decode()
        _, status, usage = os.wait4(p.pid, 0)
    except BaseException:
        p.kill()
        p.wait()
        raise
    p.returncode = os.waitstatus_to_exitcode(status)
    p.stdout.close()
    wall = time.perf_counter() - t0
    if p.returncode != 0:
        raise BenchError(f"{cmd[0]} {cmd[1] if len(cmd) > 1 else ''} exited with {p.returncode}")
    return out, wall, usage.ru_maxrss / 1024.0


def child_json(out):
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError("workload process printed no result")
    return json.loads(lines[-1])


def figure_rows_ok(stdout):
    """Each figure of run_all's report lists the nine benchmarks in order."""
    for i, head in enumerate(FIGURES):
        start = stdout.find(head)
        if start < 0:
            return False
        ends = [stdout.find(h, start + 1) for h in FIGURES[i + 1:]]
        end = min([e for e in ends if e >= 0], default=len(stdout))
        names = [ln.split()[0] for ln in stdout[start:end].splitlines()
                 if ln.split() and ln.split()[0] in BENCHES]
        if names != BENCHES:
            return False
    return True


class Result:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.metrics = {}

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"slcbench: FAILED {what}", file=sys.stderr)

    def merge(self, child, names=None):
        """Adds a workload process's counts and (selected) metrics."""
        self.attempted += child["attempted"]
        self.failed += child["failed"]
        for name, m in child["metrics"].items():
            if names is None or name in names:
                self.metrics[name] = m

    def set(self, name, value, unit):
        self.metrics[name] = {"value": value, "unit": unit}


def run_all_reps(run_all, scale, seconds, min_reps, res, spans):
    """Repeats run_all until `seconds` passed and `min_reps` ran; checks
    each stdout against the first. Returns (walls, peak RSS, stdout)."""
    walls, rss, first = [], [], None
    start = time.perf_counter()
    while len(walls) < min_reps or time.perf_counter() - start < seconds:
        spans.begin("run_all")
        out, wall, peak = run_child([run_all], {"SLC_SCALE": scale})
        spans.end()
        walls.append(wall)
        rss.append(peak)
        first = out if first is None else first
        res.check(out == first and figure_rows_ok(out),
                  f"run_all repetition {len(walls)}: stdout differs or a figure lacks its nine rows")
    return walls, rss, first


def scales(a):
    """(small, full) input scales: the workloads' own, or tiny for self-tests."""
    return ("tiny", "tiny") if a.scale == "tiny" else ("small", "full")


def workload_e2e(name, a, bins, res, spans):
    run_all, slcbench = bins
    small, full = scales(a)
    if name == "repro-small":
        walls, rss, _ = run_all_reps(run_all, small, a.seconds, 3, res, spans)
        res.set("wall_s", statistics.median(walls), "s")
        res.set("peak_rss_mb", statistics.median(rss), "MiB")
        spans.begin("slcbench.engine")
        out, _, _ = run_child([slcbench, "engine", "--small", small, "--seed", a.seed,
                               "--seconds", REPRO_ENGINE_SECONDS])
        spans.end()
        child = child_json(out)
        res.merge(child, {n for n in child["metrics"] if n not in ("wall_s", "peak_rss_mb")})
    elif name == "mag-sweep-full":
        spans.begin("slcbench.sweep")
        out, _, _ = run_child([slcbench, "sweep", "--full", full, "--seed", a.seed,
                               "--seconds", a.seconds])
        spans.end()
        res.merge(child_json(out))
    else:
        spans.begin("slcbench.engine")
        out, _, _ = run_child([slcbench, "engine", "--small", small, "--seed", a.seed,
                               "--seconds", a.seconds])
        spans.end()
        res.merge(child_json(out))


def workload_traced(a, bins, res, spans):
    """The traced run. The same layers are measured whatever the
    workload: the run_all mirror and SLC replay split, the engine on
    seeded snapshots and the paper-scale sweep, plus a single-thread
    reference child for every parallel layer."""
    run_all, slcbench = bins
    small, full = scales(a)
    span_dir = target_dir() / "slcbench-spans"
    walls, _, stdout = run_all_reps(run_all, small, 0, 1, res, spans)
    spans.begin("slcbench.traced")
    out, _, _ = run_child([slcbench, "traced", "--small", small, "--full", full, "--seed", a.seed,
                           "--run-id", spans.run_id,
                           "--spans", span_dir / f"{spans.run_id}.traced.jsonl"])
    spans.end()
    traced = child_json(out)
    spans.begin("slcbench.serial_ref")
    out, _, _ = run_child([slcbench, "serial-ref", "--small", small, "--full", full,
                           "--seed", a.seed, "--run-id", spans.run_id,
                           "--spans", span_dir / f"{spans.run_id}.serial.jsonl"],
                          {"SLC_PAR_THREADS": "1"})
    spans.end()
    serial = child_json(out)
    res.merge(traced)
    res.merge(serial, set())
    res.check(traced["texts"]["fig7"] in stdout, "traced render_fig7 differs from run_all's Fig. 7")
    m, sm = traced["metrics"], serial["metrics"]
    val = lambda d, k: d[k]["value"]
    res.set("trace.overhead_pct.repro_small",
            (val(m, "exp.mirror_s") / walls[0] - 1.0) * 100.0, "%")
    for layer, key in (("prepare_all", "exp.prepare_all_s"),
                       ("evaluate", "exp.evaluate_prepared_s"),
                       ("sweep", "exp.sweep_s")):
        res.set(f"par.speedup.{layer}", val(sm, key) / val(m, key), "x")
    for c in CODECS:
        for d in ("compress", "decompress"):
            s = val(sm, f"engine.serial_gbps.{c}.{d}")
            res.set(f"engine.serial_gbps.{c}.{d}", s, "GB/s")
            res.set(f"engine.parallel_speedup.{c}.{d}", val(m, f"engine.gbps.{c}.{d}") / s, "x")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("paper", "tiny"), default="paper",
                    help="'tiny' shrinks every input (self-tests only)")
    a = ap.parse_args()
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        wanted = spec["per_layer" if a.trace else "end_to_end"]
        bins = build()
        run_id = f"{a.workload}-s{a.seed}-t{a.trace}-{os.getpid()}"
        spans = Spans(run_id)
        res = Result()
        spans.begin(f"bench.{a.workload}")
        try:
            if a.trace:
                workload_traced(a, bins, res, spans)
            else:
                workload_e2e(a.workload, a, bins, res, spans)
        finally:
            spans.end()
            spans.write(target_dir() / "slcbench-spans" / f"{run_id}.run.jsonl")
        missing = [w["name"] for w in wanted if w["name"] not in res.metrics]
        if missing:
            raise BenchError("metrics not measured: " + ", ".join(missing))
        for w in wanted:
            got = res.metrics[w["name"]]
            if got["unit"] != w["unit"] or got["value"] is None:
                raise BenchError(f"metric {w['name']}: {got} does not match {w['unit']}")
    except (BenchError, OSError, KeyError, ValueError) as e:
        print(f"slcbench: {e}", file=sys.stderr)
        sys.exit(1)
    metrics = {w["name"]: res.metrics[w["name"]] for w in wanted}
    print(json.dumps({"correct": res.failed == 0, "attempted": res.attempted,
                      "failed": res.failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
