#!/usr/bin/env python3
"""Self-test of the benchmark (about a minute).

    python3 perfbench/selftest.py

From the root of a checkout.  For each workload, at --tiny size:
  * an untraced run prints every end-to-end metric of BENCHMARK.json with
    its unit, and a traced run every per-layer metric;
  * two runs of one seed repeat the deterministic counters exactly
    (interp.steps, psim.task.cycles, andersen.constraints,
    pdg.alias_queries, every *.alloc_mwords, and the quality ratio, which
    is the code speedup geomean on corpus-pipeline).  The one exception is
    serve.alloc_mwords, held to 0.01%: with tracing on, Serve.handle feeds
    each request's latency to Ir.Trace.observe, whose bucket search boxes
    an int64 per bit of the value, so its allocation follows the clock;
  * an injected wrong output makes the oracle fail the run;
  * seeds 1 and 2 draw different inputs.
And at full size, the default seed's corpus draw holds a kernel on which
DSWP-after-vec rolls back (ferret, fluidanimate or lbm).
Exits 0 when every check holds.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = [sys.executable, os.path.join(ROOT, "perfbench", "run.py")]
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
EXACT = ["interp.steps", "psim.task.cycles", "andersen.constraints", "pdg.alias_queries"]
CLOCK_DEPENDENT = {"serve.alloc_mwords": 1e-4}  # relative tolerance, see above
problems = []


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        problems.append(what)


def run(workload, seed, trace, *extra):
    args = ["--workload", workload, "--seed", str(seed), "--seconds", "1",
            "--trace", str(trace), "--tiny", *extra]
    p = subprocess.run(RUN + args, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if p.returncode != 0:
        sys.stderr.write(p.stderr)
        raise SystemExit(f"selftest: {' '.join(args)} exited {p.returncode}")
    result = json.loads(p.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    return result


def draw(workload, seed, *extra):
    p = subprocess.run(RUN + ["--workload", workload, "--seed", str(seed), "--list-draw", *extra],
                       cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    return p.stdout.strip()


def units(result):
    return {k: v["unit"] for k, v in result["metrics"].items()}


def main():
    e2e = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for w in [x["name"] for x in SPEC["workloads"]]:
        a, b = run(w, 1, 0), run(w, 1, 0)
        check(units(a) == e2e, f"{w}: end-to-end metrics and units")
        check(a["correct"] and a["failed"] == 0 and a["attempted"] >= 1, f"{w}: outputs correct")
        check(a["metrics"]["quality"] == b["metrics"]["quality"], f"{w}: quality repeats exactly")
        t1, t2 = run(w, 1, 1), run(w, 1, 1)
        check(units(t1) == layer, f"{w}: per-layer metrics and units")
        exact = EXACT + [k for k in layer if k.endswith(".alloc_mwords")]
        diff = [k for k in exact
                if abs(t1["metrics"][k]["value"] - t2["metrics"][k]["value"])
                > CLOCK_DEPENDENT.get(k, 0) * abs(t1["metrics"][k]["value"])]
        check(not diff, f"{w}: deterministic counters repeat exactly {diff or ''}")
        bad = run(w, 1, 0, "--inject-fault")
        check(bad["failed"] > 0 and not bad["correct"], f"{w}: injected wrong output is caught")
        check(draw(w, 1, "--tiny") != draw(w, 2, "--tiny") and draw(w, 1) != draw(w, 2),
              f"{w}: seeds 1 and 2 draw different inputs")
    corpus = draw("corpus-pipeline", 1).split()
    check(any(k in corpus for k in ("ferret", "fluidanimate", "lbm")),
          f"corpus-pipeline: default draw {corpus} holds a DSWP-after-vec rollback kernel")
    print("selftest: " + ("all checks passed" if not problems else f"{len(problems)} FAILED"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
