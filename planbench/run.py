"""Planner benchmark: search cost, plan serving and elastic replans.

Run from the root of a checkout:

    python3 planbench/run.py --workload search-paper --seed 1 \\
        --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics listed in
``BENCHMARK.json``: ``plans_per_ref_s`` is the workload's rate in
reference seconds (see ``pace.py``), and every raw wall-clock value is
printed above the result line.  ``--trace 1`` runs the workload once
untraced and once with spans recorded around every layer's public
functions, and reports the per-layer metrics plus the tracing overhead
(traced wall over untraced wall); neither of those executions is
paced.  Every run checks the planner's outputs, and the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  WORKLOADS.md describes the workloads and
what each metric should move.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = {
    "search-paper": "search_paper",
    "serve-churn": "serve_churn",
    "elastic-churn": "elastic_churn",
}
#: The request whose per-layer self-time split the traced run prints.
SHARES_OF = "gpt3-1.3b@8"


def _layer_fingerprint(layers: dict) -> dict:
    """The per-layer numbers that are counts, which repeat exactly."""
    return {
        name: value for name, value in sorted(layers.items())
        if name.endswith((".calls", ".candidates", ".estimates", ".configs",
                          ".iterations", ".converged", ".forks", ".tasks",
                          ".failures", ".decisions", ".replans",
                          ".fallbacks"))
        or name in ("perfmodel.estimates", "trace.spans")
    }


def _traced(module, args, notes: list):
    """Untraced then traced execution of the same inputs."""
    from tracer import RID, Tracer, install, layer_metrics, self_time_shares

    base = module.execute(args.seed, args.seconds)
    tracer = Tracer()
    install(tracer)
    try:
        traced = module.execute(args.seed, args.seconds, tracer)
    finally:
        tracer.unpatch()
    traced.check(
        traced.fingerprint == base.fingerprint,
        "the traced execution's outcome differs from the untraced one",
    )
    layers = layer_metrics(tracer)
    layers.update(traced.layer_metrics)
    layers["trace.overhead_ratio"] = traced.wall_s / base.wall_s
    notes.extend(traced.notes)
    notes.append(
        f"tracing overhead: traced {traced.wall_s:.2f} s / untraced "
        f"{base.wall_s:.2f} s = {layers['trace.overhead_ratio']:.3f}"
    )
    if any(record[RID] == SHARES_OF for record in tracer.spans):
        notes.append(f"self time by layer on {SHARES_OF}:")
        for name, seconds, share in self_time_shares(tracer, SHARES_OF)[:8]:
            notes.append(f"  {name:32s} {seconds:8.3f} s  {100 * share:5.1f}%")
    spans_path = (
        ROOT / ".planbench" / f"spans-{args.workload}-{args.seed}.tsv.gz"
    )
    spans_path.parent.mkdir(exist_ok=True)
    tracer.write(spans_path)
    notes.append(f"{len(tracer.spans)} spans written to {spans_path.name}")
    return base, traced, layers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="planbench", description=__doc__.split("\n\n")[0]
    )
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(
            f"planbench: no planner sources under {ROOT / 'src'}; run "
            "from the root of a checkout", file=sys.stderr,
        )
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(ROOT / "src"))
    module = importlib.import_module(WORKLOADS[args.workload])
    from common import ledger_check, source_digest
    from pace import Pace

    notes: list = []
    key = f"{args.workload}:{args.seed}:{args.seconds:g}:{source_digest(ROOT)}"
    if args.trace:
        base, outcome, layers = _traced(module, args, notes)
        checks = [base, outcome]
        mismatches = [
            ledger_check(ROOT, key + ":trace", _layer_fingerprint(layers))
        ]
        metrics = {
            m["name"]: {"value": layers.get(m["name"], 0.0), "unit": m["unit"]}
            for m in spec["per_layer"]
        }
    else:
        pace = Pace()
        outcome = base = module.execute(args.seed, args.seconds, pace=pace)
        rate = outcome.metrics["plans_per_s"][0]
        outcome.metrics["plans_per_ref_s"] = (
            rate * pace.work_s / pace.work_ref_s, "1/ref_s"
        )
        checks = [outcome]
        notes.extend(outcome.notes)
        notes.append(pace.note())
        for name, (value, unit) in sorted(outcome.metrics.items()):
            notes.append(f"{name} = {value:.6g} {unit}")
        mismatches = []
        metrics = {
            m["name"]: {"value": outcome.metrics[m["name"]][0],
                        "unit": m["unit"]}
            for m in spec["end_to_end"]
        }
    # The same inputs and code must give the same fingerprint as every
    # earlier run in this checkout.
    mismatches.append(ledger_check(ROOT, key, base.fingerprint))
    for mismatch in mismatches:
        outcome.check(mismatch is None, f"determinism ledger: {mismatch}")

    attempted = sum(o.attempted for o in checks)
    failures = [f for o in checks for f in o.failures]
    for line in notes:
        print(line)
    print(f"fingerprint {base.fingerprint['digest']} ({key})")
    for failure in failures:
        print(f"FAILED: {failure}")
    print(
        f"failed_frac = {len(failures) / attempted:.6g} ratio "
        f"({len(failures)} failed of {attempted} checks)"
    )
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
