"""Run one benchmark workload and print every metric it measured.

Usage, from the repository root::

    python3 perfbench/run.py --workload fleet-wide --seed 1 --seconds 12 \
        --trace 0

Each workload runs in this fresh process against the program's source
tree under ``src/`` (there is no build step).  The report lists every
metric by name, unit and sample count; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  Its metrics are the ``end_to_end`` names of
``BENCHMARK.json`` (``--trace 0``) or the ``per_layer`` names
(``--trace 1``).  Metrics that belong to one workload only (the
storm's attach and snapshot-gap figures, the fleet's speed error, the
per-layer numbers of a layer only one workload reaches) appear in the
report and in ``.perfbench/<workload>-seed<seed>-trace<t>.json`` with
the recorded spans, but not in that last line.

Host pace: a shared host's CPU speed swings by up to 2x over seconds
to minutes, and every wall time swings with it.  Each run therefore
times a short slice of the benchmark's own work (``bench.Pacer``) five
times a second, on each CPU in turn, through every set-up and every
op, and the declared timings are taken against it: ``run_ref_p50`` is
the median op time in reference slices, and ``setup_s`` the median
set-up time in seconds at the host's usual pace (6 ms of CPU a slice).  The wall times
(``run_s_p50``, ``setup_wall_s``) are printed and recorded beside them.

Isolation: the artifact store is switched off (``REPRO_STORE`` is
dropped and no default store is set), so no calibration is ever read
from disk, and the program's observability stays off in every run.
Without the program's sources under ``src/`` it exits with code 1
and prints no result.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import sys
from multiprocessing import resource_tracker
from pathlib import Path

from bench import Spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("fleet-wide", "campaign-mixed", "service-storm")


def _import_program():
    """Import ``repro`` from this checkout's ``src/`` and isolate it."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program sources under {src}")
    os.environ.pop("REPRO_STORE", None)
    sys.path.insert(0, str(src))
    import repro
    import repro.observability
    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        sys.exit(f"perfbench: imported repro from {repro.__file__}, "
                 f"not {src}")
    repro.set_default_store(None)
    repro.observability.disable()
    return repro


def _reap_children() -> None:
    """Stop every process this run left behind and wait for each."""
    for child in multiprocessing.active_children():
        child.terminate()
        child.join(5.0)
    # The shared-memory resource tracker outlives the pool; stopping it
    # closes its pipe and waits for it to exit.
    tracker = getattr(resource_tracker, "_resource_tracker", None)
    stop = getattr(tracker, "_stop", None)
    if stop is not None:
        stop()


def _declared() -> dict[str, list[str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {kind: [m["name"] for m in spec[kind]]
            for kind in ("end_to_end", "per_layer")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    declared = _declared()
    _import_program()
    import campaign_mixed
    import fleet_wide
    import service_storm
    module = {"fleet-wide": fleet_wide, "campaign-mixed": campaign_mixed,
              "service-storm": service_storm}[args.workload]

    trace = bool(args.trace)
    try:
        out = module.run(args.seed, args.seconds, trace)
    finally:
        _reap_children()

    print(f"workload {args.workload}  seed {args.seed}  "
          f"trace {args.trace}  ops {out.attempted}  failed {out.failed}")
    for title, metrics in (("end to end", out.end_to_end),
                           ("per layer", out.per_layer)):
        print(f"-- {title}")
        for name, m in metrics.items():
            print(f"  {name:<34} {m.value:>14.6g} {m.unit:<6} n={m.n}")
    for name, ok in out.checks.items():
        print(f"check {name}: {'ok' if ok else 'FAILED'}")
    if trace:
        print("-- self time per span (s)")
        spans = Spans(True)
        spans.records = out.spans
        for name, s in sorted(spans.self_times().items()):
            print(f"  {name:<34} {s:>14.6g}")

    record_dir = ROOT / ".perfbench"
    record_dir.mkdir(exist_ok=True)
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "attempted": out.attempted, "failed": out.failed,
        "checks": out.checks,
        "metrics": {name: vars(m) for name, m in
                    {**out.end_to_end, **out.per_layer}.items()},
        "spans": out.spans,
    }
    (record_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}"
     ".json").write_text(json.dumps(record, indent=1) + "\n")

    pool = out.per_layer if trace else out.end_to_end
    names = declared["per_layer" if trace else "end_to_end"]
    print(json.dumps({
        "correct": out.failed == 0 and all(out.checks.values()),
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {name: {"value": pool[name].value,
                           "unit": pool[name].unit}
                    for name in names if name in pool},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
