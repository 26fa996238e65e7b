"""leafatlas benchmark: end-to-end metrics per workload, per-layer metrics traced.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload atlas|enumerate|rewrite \
        --seed N --seconds S --trace 0|1

Every CLI job and every rewrite config runs in a fresh single-threaded
interpreter (perfbench/child.py), so all of leafatlas's caches start cold,
as in a real CLI invocation.

--trace 0 repeats whole passes over the workload's operations while another
pass fits in --seconds, and reports the end-to-end metrics.  Their times are
given at a reference host speed (see perfbench/host.py): each child samples
a fixed loop while it works, and each pass is scaled by HOST_REF_S over the
mean sample of that pass; the measured times are printed too.  --trace 1 runs
one pass twice, untraced and traced child by child, and reports the
per-layer metrics from the traced half and the tracing overhead.  The last
line of stdout is one JSON object; the lines before it print every metric
by name with its unit, the sample counts, and each failed operation.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

from host import calibrate
from workloads import ATLAS_JOBS, ENUMERATE_JOBS, REWRITE_CONFIGS, job_argv, job_name

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
HARD_LIMIT_S = 170          # the whole run, whatever --seconds says
SETUP_PROBES = 8            # set-up-only children per run, besides the pass children


def metric_units(kind: str) -> dict[str, str]:
    """Name -> unit of BENCHMARK.json's `end_to_end` or `per_layer` metrics."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


# ---------------------------------------------------------------------------
# workloads as lists of child specs

def _job_specs(jobs):
    return [{"kind": "job", "argv": job_argv(j), "digest": j[3], "name": job_name(j)} for j in jobs]


def _rewrite_specs(seed):
    return [{"kind": "rewrite", "group": g, "k": k, "count": n, "seed": seed,
             "name": f"rewrite {g} k={k}"} for g, k, n in REWRITE_CONFIGS]


def pass_specs(workload: str, seed: int, index: int) -> list[dict]:
    """The children of pass `index`; the seed shuffles their order."""
    if workload == "atlas":
        specs = _job_specs(ATLAS_JOBS)
    elif workload == "enumerate":
        specs = _job_specs(ENUMERATE_JOBS)
    else:
        specs = _rewrite_specs(seed)
    random.Random(seed * 1000 + index).shuffle(specs)
    return specs


# ---------------------------------------------------------------------------
# children

# Mean HostSampler reading at which end-to-end times are expressed: about the
# mean reading on a shared 2-vCPU Xeon virtual machine with Python 3.11.7.
HOST_REF_S = 0.003


class Child:
    """Outcome of one child process."""

    def __init__(self, spec: dict):
        self.spec = spec
        self.ops: list[dict] = []
        self.failures: list[str] = []
        self.setup_s = None
        self.rss_mb = None
        self.trace = None
        self.host_samples: list[float] = []

    @property
    def op_seconds(self) -> list[float]:
        """Operation times without the time the host sampler took inside them."""
        return [op["s"] - op.get("sampled_s", 0.0) for op in self.ops]


def run_child(spec: dict, deadline: float, trace: bool = False, sample: bool = False,
              setup_only: bool = False, spans: str = "") -> Child:
    """Run one child to completion (or kill it at `deadline`) and check its operations."""
    child = Child(spec)
    payload = dict(spec, trace=trace, sample=sample, setup_only=setup_only, spans=spans)
    if spec["kind"] == "job":
        payload["output"] = str(OUT_DIR / f"report-{os.getpid()}.json")
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    cmd = [sys.executable, str(ROOT / "perfbench" / "child.py"), json.dumps(payload)]
    spawned = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired:       # subprocess.run has killed and reaped it
        child.failures.append(f"{spec['name']}: child timed out")
        return child
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        child.failures.append(f"{spec['name']}: child exited {proc.returncode}: {tail[0]}")
        return child
    report = json.loads(lines[-1])
    child.setup_s = report["ready"] - spawned - report["setup_sampled_s"]
    child.host_samples = report["host_samples"]
    child.rss_mb = report["rss_kb"] / 1024
    child.trace = report.get("trace")
    child.ops = report["ops"]
    for op in child.ops:
        problem = _op_problem(spec, op)
        if problem:
            child.failures.append(f"{op['name']}: {problem}")
    return child


def _op_problem(spec: dict, op: dict) -> str:
    if "error" in op:
        return op["error"]
    if spec["kind"] == "job":
        if op["rc"] != 0:
            return f"exit code {op['rc']}"
        if op.get("digest") != spec["digest"]:
            return f"report digest {op.get('digest')} != recorded {spec['digest']}"
        return ""
    return "" if op["associative"] else "(A*B)*C != A*(B*C)"


# ---------------------------------------------------------------------------
# runs

def _percentile(values, q: float) -> float:
    """Inclusive linear-interpolation percentile, q in [0, 1]."""
    s = sorted(values)
    pos = q * (len(s) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def untraced_run(workload: str, seed: int, seconds: int, hard_deadline: float, log):
    children: list[Child] = []
    probe_specs = pass_specs(workload, seed, 0)
    for i in range(SETUP_PROBES):
        children.append(run_child(probe_specs[i % len(probe_specs)], hard_deadline,
                                  sample=True, setup_only=True))
    begin = time.perf_counter()
    passes: list[list[Child]] = []
    pass_elapsed: list[float] = []
    while True:
        t0 = time.perf_counter()
        specs = pass_specs(workload, seed, len(passes) + 1)
        done = [run_child(spec, hard_deadline, sample=True) for spec in specs]
        pass_elapsed.append(time.perf_counter() - t0)
        passes.append(done)
        children.extend(done)
        now = time.perf_counter()
        if now + statistics.median(pass_elapsed) > min(begin + seconds, hard_deadline):
            break

    # Times at the reference host speed: each pass's operations are scaled by
    # HOST_REF_S over the mean host sample taken inside that pass's children.
    def host_factor(group):
        samples = [x for c in group for x in c.host_samples]
        return HOST_REF_S / statistics.fmean(samples) if samples else 1.0

    pass_ops = [[s for c in p for s in c.op_seconds] for p in passes]
    norm_ops = [[s * host_factor(p) for s in ops] for p, ops in zip(passes, pass_ops)]
    measured = [ops for ops in norm_ops if ops]
    setups = [c.setup_s * host_factor(children) for c in children if c.setup_s is not None]
    metrics = {}
    if measured and setups:
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(sum(ops) for ops in measured),
            "op_p50_ms": statistics.median(_percentile(ops, 0.5) * 1e3 for ops in measured),
            "op_p90_ms": statistics.median(_percentile(ops, 0.9) * 1e3 for ops in measured),
            "peak_rss_mb": max(c.rss_mb for c in children if c.rss_mb is not None),
        }
    samples = [x for c in children for x in c.host_samples]
    log(f"passes: {len(passes)}; operations per pass: {[len(ops) for ops in pass_ops]}; "
        f"set-up samples: {len(setups)}; host samples: {len(samples)}, "
        f"mean {statistics.fmean(samples) if samples else 0:.6f} s (reference {HOST_REF_S} s)")
    log(f"measured pass wall_s: {[round(sum(ops), 4) for ops in pass_ops]}; "
        f"at reference host speed: {[round(sum(ops), 4) for ops in norm_ops]}")
    log(f"op latency samples per pass: {len(pass_ops[0])} "
        f"(op_p50_ms and op_p90_ms are per-pass percentiles, median over passes)")
    return children, metrics


def traced_run(workload: str, seed: int, hard_deadline: float, run_id: str, log):
    children: list[Child] = []
    untraced_s = traced_s = 0.0
    totals = {"calls": {}, "self_s": {}, "leaf_calls": {}, "counts": {}}
    root_s = 0.0
    spans_dropped = 0
    for i, spec in enumerate(pass_specs(workload, seed, 1)):
        spans = str(OUT_DIR / f"spans-{run_id}-{i}.csv")
        order = (False, True) if i % 2 == 0 else (True, False)   # alternate to spread drift
        for trace in order:
            child = run_child(spec, hard_deadline, trace=trace, spans=spans if trace else "")
            children.append(child)
            if trace:
                traced_s += sum(child.op_seconds)
                root_s += (child.trace or {}).get("root_s", 0.0)
                spans_dropped += (child.trace or {}).get("spans_dropped", 0)
                for part, table in totals.items():
                    for name, value in (child.trace or {}).get(part, {}).items():
                        table[name] = table.get(name, 0) + value
            else:
                untraced_s += sum(child.op_seconds)
    metrics = _layer_metrics(totals)
    metrics["trace.wall_s"] = root_s
    metrics["trace.overhead_ratio"] = traced_s / untraced_s if untraced_s else 0.0
    log(f"traced children: {len(children) // 2}; spans written to "
        f"{OUT_DIR.name}/spans-{run_id}-*.csv ({spans_dropped} beyond the per-child cap dropped)")
    log(f"layer self times sum to {sum(totals['self_s'].values()):.4f} s; "
        f"traced root spans measured around them (trace.wall_s) {root_s:.4f} s; "
        f"traced operations {traced_s:.4f} s, untraced {untraced_s:.4f} s")
    return children, metrics


def _layer_metrics(t: dict) -> dict:
    """Per-layer metrics from summed tracer summaries; aggregates are <layer>.<field>."""
    calls, self_s, leaf, counts = t["calls"], t["self_s"], t["leaf_calls"], t["counts"]

    def ratio(num, den):
        return num / den if den else 0.0

    out = {}
    for name in metric_units("per_layer"):
        layer, _, field = name.rpartition(".")
        if field == "calls":
            out[name] = calls.get(layer, 0)
        elif field == "self_s":
            out[name] = self_s.get(layer, 0.0)
    out["exactnum.mul.rational_share"] = ratio(counts.get("exactnum.mul.rational", 0),
                                               calls.get("exactnum.mul", 0))
    out["refgroup.mul.hit_ratio"] = ratio(leaf.get("refgroup.mul", 0), calls.get("refgroup.mul", 0))
    out["cherednik.yx_product.hit_ratio"] = ratio(leaf.get("cherednik.yx_product", 0),
                                                  calls.get("cherednik.yx_product", 0))
    scanned = counts.get("refgroup.stabilizer.scanned", 0)
    out["refgroup.stabilizer.scanned"] = scanned
    out["refgroup.stabilizer.yield"] = ratio(counts.get("refgroup.stabilizer.kept", 0), scanned)
    cosets = counts.get("tau.twist_classes.cosets_scanned", 0)
    out["tau.twist_classes.cosets_scanned"] = cosets
    out["tau.twist_classes.yield"] = ratio(counts.get("tau.twist_classes.kept", 0), cosets)
    for name in ("refgroup.group_order", "leaves.leaf_count", "cherednik.product_terms"):
        out[name] = counts.get(name, 0)
    return out


# ---------------------------------------------------------------------------

WORKLOADS = ("atlas", "enumerate", "rewrite")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "leafatlas" / "cli.py").is_file():
        print(f"error: no leafatlas sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    start = time.perf_counter()
    hard_deadline = start + HARD_LIMIT_S
    OUT_DIR.mkdir(exist_ok=True)

    def log(line):
        print(line, flush=True)

    calib = statistics.median(calibrate() for _ in range(3))
    log(f"workload {args.workload}, seed {args.seed}, seconds {args.seconds}, trace {args.trace}")
    log(f"host.calib_s = {calib:.6f} s (fixed Fraction loop; blame slow runs on the host)")
    if args.trace:
        run_id = f"{args.workload}-s{args.seed}"
        children, metrics = traced_run(args.workload, args.seed, hard_deadline, run_id, log)
        metrics["host.calib_s"] = calib
        units = metric_units("per_layer")
    else:
        children, metrics = untraced_run(args.workload, args.seed, args.seconds,
                                         hard_deadline, log)
        units = metric_units("end_to_end")

    failures = [f for c in children for f in c.failures]
    # a child that died before reporting counts as one failed operation
    attempted = sum(len(c.ops) or len(c.failures) for c in children)
    failed = len(failures)
    for f in failures:
        log(f"FAILED {f}")
    correct = failed == 0 and len(metrics) == len(units)
    log(f"fail_ratio = {failed / max(attempted, 1):.6f} ({failed} of {attempted} operations)")
    for name, unit in units.items():
        if name in metrics:
            log(f"{name} = {metrics[name]:.6f} {unit}")
    result = {
        "correct": correct,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items() if name in metrics},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
