"""Closed-loop benchmark of the ``krein`` engine: one client, one thread.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload witness-audit --seed 1 --seconds 45 --trace 0

The run builds its inputs from ``--seed``, including one explicit
decomposition-search seed per case (``KREIN_SEED`` is ignored), then takes whole passes
over the case list, each case only after the previous one finished, as many
as fit in ``--seconds`` (at least one; see ``_run_passes``). Every output
is checked exactly. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it is a
JSON record of the run's details (tail percentile and sample count, decided
and failed ratios, search seeds, input properties, first failures, raw
wall times). Reported times are calibrated for the host's speed while the
program ran (:mod:`perfbench.clock`).

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` takes a fixed,
shorter case list (``inputs.make_cases(..., traced=True)``) once untraced and
once traced, and reports the per-layer metrics of :mod:`perfbench.layers`
for that list, plus the tracing overhead.

The benchmark imports ``krein`` from ``src/`` of the checkout it lives in and
exits with code 2, printing no result, when that source tree is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if str(ROOT) not in sys.path:  # run as a script: make the perfbench package importable
    sys.path.insert(0, str(ROOT))

from perfbench import clock  # noqa: E402

SETUP_SAMPLES = 3  # set-ups per run: this process, then fresh interpreters
MIN_TAIL_BEYOND = 10  # samples above the tail percentile, per pass


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _bootstrap() -> None:
    """Import krein from this checkout's source tree, or exit 2."""
    if not (SRC / "krein" / "__init__.py").is_file():
        _fail(f"no krein source tree at {SRC}")
    os.environ.pop("KREIN_SEED", None)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import krein

    if Path(krein.__file__).resolve().parent != SRC / "krein":
        _fail(f"imported krein from {krein.__file__}, not from {SRC}")


def _parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def _setup_once(workload: str, seed: int) -> float:
    """Calibrated set-up ns of a fresh interpreter: import krein, generate the inputs."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("probe_setup.py")), workload, str(seed)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def _run_passes(workload, cases, budget_s=None, passes=None):
    """Run whole passes over ``cases``: exactly ``passes``, or as many as fit ``budget_s``.

    The pass count is the budget over the first pass's calibrated time,
    rounded, and at least 1; a noisy host therefore cannot change it.
    """
    from perfbench.cases import run_case

    outcomes = []
    done = 0
    while passes is None or done < passes:
        outcomes += [run_case(workload, case) for case in cases]
        done += 1
        if passes is None:
            passes = max(1, round(budget_s * 1e9 / sum(o.calibrated_ns for o in outcomes)))
    return outcomes, done


def _tail(samples, passes):
    """(value, percentile) of the tail: MIN_TAIL_BEYOND samples per pass lie beyond it.

    The percentile is fixed by the case count of one pass, so a faster
    program that fits more passes into the run reports the same percentile.
    With too few samples for any such percentile, the maximum.
    """
    xs = sorted(samples)
    n = len(xs)
    beyond = MIN_TAIL_BEYOND * passes
    if n <= beyond:
        return xs[-1], 100.0
    return xs[n - beyond - 1], 100.0 * (n - beyond) / n


def _summary(outcomes):
    completed = [o for o in outcomes if o.completed]
    verdicts = [o.verdict for o in outcomes if o.verdict is not None]
    failures = [o.error for o in outcomes if not o.ok]
    return completed, verdicts, failures


def main(argv=None) -> int:
    args = _parse_args(argv)
    # set up SETUP_SAMPLES times: here (krein is imported in _bootstrap), then
    # in fresh interpreters; each time is calibrated in its own process
    with clock.Stopwatch() as setup:
        _bootstrap()
        from perfbench import inputs

        if args.workload not in inputs.WORKLOADS:
            _fail(f"unknown workload {args.workload!r}; choose from {', '.join(inputs.WORKLOADS)}")
        cases = inputs.make_cases(args.workload, args.seed, traced=bool(args.trace))
    setup_cal = [setup.calibrated_ns]

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "search_seeds": [c.search_seed for c in cases],
        "search_budget": inputs.SEARCH_BUDGET,
        "inputs": inputs.input_properties(cases),
    }
    if args.trace:
        from perfbench.layers import LAYERS, layer_values
        from perfbench.tracer import Tracer

        plain, passes = _run_passes(args.workload, cases, passes=1)
        tracer = Tracer(LAYERS)
        with tracer.installed():
            traced, _ = _run_passes(args.workload, cases, passes=1)
        outcomes = plain + traced
        traced_cal = sum(o.calibrated_ns for o in traced)
        overhead = traced_cal / sum(o.calibrated_ns for o in plain)
        metrics = layer_values(tracer, overhead, traced_cal / sum(o.elapsed_ns for o in traced))
    else:
        setup_cal += [_setup_once(args.workload, args.seed) for _ in range(SETUP_SAMPLES - 1)]
        outcomes, passes = _run_passes(args.workload, cases, budget_s=args.seconds)
        completed, _, failures = _summary(outcomes)
        if not completed:
            print(json.dumps({"workload": args.workload, "seed": args.seed, "failures": failures[:5]}))
            _fail("no case completed, so there is no latency to report")
        lat_ms = [o.calibrated_ns / 1e6 for o in completed]
        raw_ms = [o.elapsed_ns / 1e6 for o in completed]
        tail_ms, tail_pct = _tail(lat_ms, passes)
        detail.update(
            tail_percentile=tail_pct,
            samples=len(lat_ms),
            raw_wall={
                "cases_per_s": len(completed) * 1e9 / sum(o.elapsed_ns for o in outcomes),
                "case_p50_ms": statistics.median(raw_ms),
                "case_tail_ms": _tail(raw_ms, passes)[0],
                "setup_s": setup.elapsed_ns / 1e9,
            },
        )
        metrics = {
            "cases_per_s": {"value": len(completed) * 1e9 / sum(o.calibrated_ns for o in outcomes), "unit": "1/s"},
            "case_p50_ms": {"value": statistics.median(lat_ms), "unit": "ms"},
            "case_tail_ms": {"value": tail_ms, "unit": "ms"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
            "setup_s": {"value": statistics.median(setup_cal) / 1e9, "unit": "s"},
        }

    _, verdicts, failures = _summary(outcomes)
    decided = [v for v in verdicts if v != "unknown"]
    detail.update(
        passes=passes,
        setup_samples_s=[x / 1e9 for x in setup_cal],
        decided_ratio=len(decided) / len(verdicts) if verdicts else None,
        failed_ratio=len(failures) / len(outcomes),
        failures=failures[:5],
    )
    print(json.dumps(detail, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": len(outcomes),
                "failed": len(failures),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
