"""Request benchmark for gromov_width: one process, one thread, one closed-loop client.

    python3 perfbench/run.py --workload toric-sweep --seed 1 --seconds 20 --trace 0

Runs whole rounds of the workload's requests until --seconds have passed
(or exactly --rounds rounds), checks every output with the independent
checker, and prints each metric by name with its unit, then the attempted
and failed request counts, and as the last line one JSON object.  With
--trace 0 the metrics are the end-to-end ones of BENCHMARK.json; with
--trace 1 every layer is traced, the per-layer metrics are printed, and
spans and metrics are written under perfbench-trace/.  See perfbench/README.md.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import types  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Percentile reported as latency_tail_ms: the highest one that keeps at
# least ten samples beyond it at each workload's request count per run.
TAIL_PERCENTILE = {"toric-sweep": 98, "toric-fresh": 95, "product-cli": 99}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(TAIL_PERCENTILE))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--rounds", type=int, default=None,
                   help="run exactly this many rounds instead of --seconds; a traced "
                        "run given an untraced run's round count attempts the same requests")
    return p.parse_args(argv)


def load_package():
    """Import gromov_width from this checkout's src/, and nowhere else."""
    src = ROOT / "src"
    if not (src / "gromov_width" / "__init__.py").is_file():
        raise SystemExit(f"error: no gromov_width package under {src}")
    sys.path.insert(0, str(src))
    import gromov_width
    from gromov_width import (circle_action, cli, grassmannian, lattice, polytope, seidel,
                              serialize, toric)
    if Path(gromov_width.__file__).resolve().parent != (src / "gromov_width").resolve():
        raise SystemExit(f"error: imported gromov_width from {gromov_width.__file__}")
    return types.SimpleNamespace(circle_action=circle_action, cli=cli,
                                 grassmannian=grassmannian, lattice=lattice,
                                 polytope=polytope, seidel=seidel, serialize=serialize,
                                 toric=toric)


def nearest_rank(sorted_values, percentile):
    return sorted_values[max(math.ceil(percentile / 100 * len(sorted_values)) - 1, 0)]


@dataclass
class Tally:
    latencies: list = field(default_factory=list)   # seconds, one per attempted request
    attempted: int = 0
    failed: int = 0      # raised, or disagreed with the checker
    wrong: int = 0       # disagreed with the checker
    rounds: int = 0


def drive(workload, batch, seconds, rounds=None, tracer=None) -> Tally:
    """Closed loop: whole rounds until `seconds` have passed, or exactly `rounds`."""
    tally = Tally()
    start = time.perf_counter()
    while True:
        for request in batch:
            if tracer is not None:
                tracer.begin_request()
            t = time.perf_counter()
            try:
                result = workload.execute(request)
                error = None
            except (Exception, SystemExit) as exc:   # argparse exits on bad argv
                error = exc
            tally.latencies.append(time.perf_counter() - t)
            tally.attempted += 1
            if error is not None:
                tally.failed += 1
                print(f"request {tally.attempted - 1} raised {type(error).__name__}: "
                      f"{error}", file=sys.stderr)
                continue
            problems = workload.verify(request, result)
            if problems:
                tally.failed += 1
                tally.wrong += 1
                print(f"request {tally.attempted - 1}: {'; '.join(problems)}",
                      file=sys.stderr)
        tally.rounds += 1
        if (tally.rounds == rounds if rounds is not None
                else time.perf_counter() - start >= seconds):
            return tally
        batch = workload.next_round()


def main(argv=None):
    args = parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    mods = load_package()
    workload = workloads.WORKLOADS[args.workload](args.seed, mods, ROOT)
    try:
        batch = workload.next_round()
        setup_s = time.perf_counter() - T0
        tracer = None
        if args.trace:
            tracer = tracing.Tracer(keep_requests=len(batch))   # raw spans of round one
            tracing.install(tracer)
        tally = drive(workload, batch, args.seconds, args.rounds, tracer)
    finally:
        workload.close()
    attempted, failed = tally.attempted, tally.failed

    busy = sum(tally.latencies)
    print(f"workload {args.workload}  seed {args.seed}  rounds {tally.rounds}  "
          f"trace {args.trace}  {attempted - failed} requests completed in {busy:.3f} s "
          f"of request time")
    if tracer is None:
        ordered = sorted(tally.latencies)
        tail = TAIL_PERCENTILE[args.workload]
        beyond = attempted - math.ceil(tail / 100 * attempted)
        if beyond < 10:
            print(f"warning: only {beyond} samples beyond p{tail}", file=sys.stderr)
        values = {
            "throughput_rps": (attempted - failed) / busy,
            "latency_p50_ms": statistics.median(ordered) * 1e3,
            "latency_tail_ms": nearest_rank(ordered, tail) * 1e3,
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        wanted = bench["end_to_end"]
        print(f"latency_tail_ms is p{tail}, {beyond} of {attempted} samples beyond it")
    else:
        layers = tracing.layer_metrics(tracer, workload.output_bytes)
        out_dir = ROOT / "perfbench-trace"
        out_dir.mkdir(exist_ok=True)
        stem = out_dir / f"{args.workload}-seed{args.seed}"
        tracer.write_spans(f"{stem}.spans.jsonl")
        Path(f"{stem}.layers.json").write_text(json.dumps(
            {name: {"value": v, "unit": u} for name, (v, u) in layers.items()}, indent=1))
        for name, (value, unit) in layers.items():
            print(f"  {name} = {value:.6g} {unit}")
        values = {name: value for name, (value, _) in layers.items()}
        wanted = bench["per_layer"]
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
               for m in wanted}
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"attempted {attempted}  failed {failed}")
    print(json.dumps({"correct": tally.wrong == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
