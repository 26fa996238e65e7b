"""One fresh interpreter of the benchmark: a CLI job or one rewrite config.

Usage: python3 perfbench/child.py '<json spec>'   (run by perfbench/run.py)

Prints one JSON line: `ready` (perf_counter reading once leafatlas is
imported and the inputs exist; the parent subtracts its spawn reading),
per-operation seconds and outcomes, the host sampler's readings and the time
they took, peak RSS, and with tracing the layer aggregates.  perf_counter is
CLOCK_MONOTONIC on Linux, shared by all processes, so the parent and the
child can compare readings.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time

from host import HostSampler


def _job_op(cli, argv, output):
    def op():
        return {"rc": cli.run(argv + ["--format", "json", "--output", output])}

    def check(entry):
        if os.path.exists(output):
            with open(output, "rb") as fh:
                entry["digest"] = hashlib.sha256(fh.read()).hexdigest()
            os.remove(output)
    return op, check


def _triple_op(alg, A, B, C):
    def op():
        left = alg.multiply(alg.multiply(A, B), C)
        right = alg.multiply(A, alg.multiply(B, C))
        return {"associative": left == right}
    return op, None


def main() -> int:
    spec = json.loads(sys.argv[1])
    sampler = HostSampler()
    if spec["sample"]:
        sampler.start()
    import leafatlas.cli as cli

    tracer = None
    if spec["trace"]:
        from tracer import Tracer, install
        tracer = Tracer()
        install(tracer)

    def build_ops():
        if spec["kind"] == "job":
            return [(" ".join(spec["argv"]), _job_op(cli, spec["argv"], spec["output"]))]
        from leafatlas.cherednik import CherednikAlgebra
        from leafatlas.refgroup import catalog
        from workloads import make_triples
        W = catalog(spec["group"])
        alg = CherednikAlgebra(W, cli.resolve_parameter(W, spec["k"]), "t")
        triples = make_triples(alg, spec["count"], spec["seed"])
        label = f"{spec['group']} k={spec['k']} triple"
        return [(f"{label} {i}", _triple_op(alg, *t)) for i, t in enumerate(triples)]

    if tracer is None:
        ops = build_ops()
    else:
        ops, _ = tracer.root("bench", 0, build_ops)
    ready = time.perf_counter()
    setup_sampled_s = sampler.spent

    results = []
    if not spec.get("setup_only"):
        for i, (name, (op, check)) in enumerate(ops, 1):
            entry = {"name": name}
            sampled = sampler.spent
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    out = op()
                    entry["s"] = time.perf_counter() - t0
                else:
                    out, entry["s"] = tracer.root("bench", i, op)
                entry.update(out)
            except Exception as exc:      # counted as a failed operation by the parent
                entry["s"] = time.perf_counter() - t0
                entry["error"] = f"{type(exc).__name__}: {exc}"
            entry["sampled_s"] = sampler.spent - sampled
            if check is not None:
                check(entry)
            results.append(entry)
    sampler.stop()

    report = {
        "ready": ready,
        "setup_sampled_s": setup_sampled_s,
        "host_samples": sampler.samples,
        "ops": results,
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        report["trace"] = tracer.summary()
        if spec.get("spans"):
            tracer.write_spans(spec["spans"])
    sys.stdout.write(json.dumps(report) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
