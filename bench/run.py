"""Run the benchmark: ``python3 bench/run.py`` or ``python -m bench.run``.

Three ways in, one measuring process per (workload, pass):

- ``--workload W --seed N --seconds S --trace 0|1`` runs one pass of one
  workload and prints, as the last line of stdout, one JSON object with
  ``correct``, ``attempted``, ``failed`` and ``metrics`` — the end-to-end
  metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
  This is the form ``BENCHMARK.json``'s command is run in.
- without ``--trace`` it runs both passes of every workload (or of
  ``--workload``), one child process each, one after another, prints the
  ledger and writes it to ``--out``.
- ``--smoke`` is the self-test: every workload at 1/50 scale, one repeat,
  then the emitted names are compared with ``BENCHMARK.json``.

Load is closed-batch: one process, one thread, a fixed packet set offered
back to back to the simulator.  A *repeat* is synthesize traffic -> build
a fresh chain/runtime/platform -> ``run_load`` -> percentile summary (->
export artifacts when telemetry is on).  The timed pass repeats untraced
for ``--seconds`` and reports medians; the traced pass alternates untraced
and traced repeats, so tracing overhead is measured, not assumed.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List

STARTED = time.perf_counter()
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC_PATH = ROOT / "BENCHMARK.json"
#: dc_obs writes (and removes) its telemetry artifacts below this
ARTIFACT_ROOT = ROOT / ".bench_tmp"
SMOKE_SCALE = 0.02
#: median of this many fresh interpreters -> setup_s
SETUP_RUNS = 5
#: largest share of a traced repeat that may lie outside every span
MAX_CLOSURE_ERROR = 0.05


def load_program():
    """Import the benchmark's modules, and with them the program under
    test, from a bare checkout; returns (workloads, measure, checks)."""
    if not (ROOT / "src" / "repro").is_dir():
        raise SystemExit(f"bench: nothing to measure: {ROOT / 'src' / 'repro'} is missing")
    # Run as a script, sys.path[0] is bench/ itself, where trace.py would
    # shadow the standard library's module of that name.
    if sys.path and Path(sys.path[0] or ".").resolve() == HERE:
        sys.path.pop(0)
    for entry in (ROOT / "src", ROOT):
        if str(entry) not in sys.path:
            sys.path.insert(0, str(entry))
    from repro import vector

    if not vector.HAVE_NUMPY:
        # the pure-Python column fallback is correct but an order of
        # magnitude slower: timing it silently would be a false baseline
        raise SystemExit("bench: numpy is required")
    from bench import checks, measure, workloads

    return workloads, measure, checks


# -- set-up time ---------------------------------------------------------------


def setup_only(args) -> int:
    """Import everything the workload uses, build it once, report, exit."""
    workloads, __, __ = load_program()
    imported = time.perf_counter()
    workloads.WORKLOADS[args.workload](args.seed, args.scale).build()
    built = time.perf_counter()
    print(json.dumps({"import_s": imported - STARTED, "build_s": built - imported}))
    return 0


def spawn_setup(args, measure) -> tuple:
    """One ``--setup-only`` child: (spawn->exit seconds at reference
    machine speed, its own report)."""
    command = [
        sys.executable, str(HERE / "run.py"), "--setup-only",
        "--workload", args.workload, "--seed", str(args.seed), "--scale", str(args.scale),
    ]
    before = measure.calibrate()
    started = time.perf_counter()
    done = subprocess.run(command, capture_output=True, text=True, check=True)
    seconds = time.perf_counter() - started
    speed = measure.at_reference_speed((before + measure.calibrate()) / 2)
    return seconds * speed, json.loads(done.stdout.splitlines()[-1])


# -- one pass of one workload --------------------------------------------------


@dataclass
class Pass:
    """One measuring process's findings."""

    metrics: Dict[str, float] = field(default_factory=dict)
    #: IQR / median of the samples behind a metric, where it has several
    spreads: Dict[str, float] = field(default_factory=dict)
    info: Dict[str, object] = field(default_factory=dict)
    correct: bool = True
    attempted: int = 0
    failed: int = 0


def run_pass(args) -> Pass:
    workloads, measure, checks = load_program()
    imported = time.perf_counter()
    keeps_memory = measure.keep_freed_memory()
    make = workloads.WORKLOADS[args.workload]
    workload = make(args.seed, args.scale, ARTIFACT_ROOT / str(os.getpid()))
    traced = bool(args.trace)
    outcome = Pass()
    metrics = outcome.metrics

    if traced:
        __, child = spawn_setup(args, measure)
        metrics["run.import_s"] = child["import_s"]
        metrics["run.build_s"] = child["build_s"]
    else:
        setups = [
            spawn_setup(args, measure)[0] for __ in range(SETUP_RUNS if args.seconds else 1)
        ]
        metrics["setup_s"] = statistics.median(setups)
        outcome.spreads["setup_s"] = measure.iqr_ratio(setups)

    # Full size, so that the first touch of the workload's working set
    # (seconds of page faults on the batch workloads) is paid here and
    # not by the first timed repeat.
    warm_started = time.perf_counter()
    measure.run_repeat(workload)
    metrics_started = time.perf_counter()
    plain, with_trace = measure.run_repeats(workload, args.seconds, traced)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    checks_started = time.perf_counter()

    tally = checks.Tally()
    checks.check_repeats(tally, plain + with_trace)
    reduction_pct = checks.check_equivalence(tally, workload)
    bare_offer_s = checks.check_uninstrumented(tally, workload, plain[0].digest)
    workload.extra_checks(tally.add)

    host = [repeat.ns_per_packet for repeat in plain]
    if traced:
        metrics.update(traced_metrics(measure, workload, plain, with_trace))
        metrics["run.warmup_s"] = metrics_started - warm_started
        metrics["obs.run_overhead_ratio"] = (
            statistics.median(repeat.offer_ns for repeat in plain) / 1e9 / bare_offer_s
            if bare_offer_s
            else 0.0
        )
        metrics["core.scaling_ratio"] = 0.0
        if workload.scaling_factor:
            # ROADMAP item 1's super-linear growth: ns/packet of a cell
            # scaling_factor times the size over this one's (flat = 1.0)
            gc.collect()
            larger = measure.run_repeat(make(args.seed, args.scale * workload.scaling_factor))
            metrics["core.scaling_ratio"] = (
                larger.raw_ns_per_packet / metrics["run.raw_ns_per_packet"]
            )
        if metrics["run.closure_error"] > MAX_CLOSURE_ERROR:
            outcome.correct = False
            outcome.info["error"] = "layers do not sum to the repeat"
        if not metrics[f"sim.{workload.expected_route}_runs"]:
            outcome.correct = False
            outcome.info["error"] = f"replay did not take the {workload.expected_route} route"
        if args.trace_out:
            Path(args.trace_out).write_text(
                json.dumps([repeat.tracer.to_dict() for repeat in with_trace])
            )
    else:
        metrics["host_ns_per_packet"] = statistics.median(host)
        outcome.spreads["host_ns_per_packet"] = measure.iqr_ratio(host)
        metrics["peak_rss_mb"] = peak_rss_mb
        metrics.update(plain[0].sim)
        metrics["sim_p50_reduction_pct"] = reduction_pct

    outcome.attempted, outcome.failed = tally.attempted, tally.failed
    outcome.correct = outcome.correct and tally.failed == 0
    outcome.info.update(
        sim_digest=plain[0].digest,
        repeats=len(plain),
        malloc_keeps_freed_memory=keeps_memory,
        host_ns_per_packet_samples=host,
        machine_speed_ratio=machine_speed_ratio(measure, plain),
        # where this pass's own wall time went
        phase_s={
            "import": imported - STARTED,
            "setup_children": warm_started - imported,
            "warmup": metrics_started - warm_started,
            "repeats": checks_started - metrics_started,
            "checks_and_extras": time.perf_counter() - checks_started,
        },
        failed_share=tally.failed / tally.attempted,
        checks={what: list(counts) for what, counts in tally.checks.items()},
        sim_p50_reduction_pct=reduction_pct,
    )
    if workload.paper_reduction_pct is not None:
        outcome.info["paper_reduction_pct"] = workload.paper_reduction_pct
    return outcome


def machine_speed_ratio(measure, repeats: list) -> float:
    """Median calibration reading over the reference (above 1: slower)."""
    return 1.0 / measure.at_reference_speed(
        statistics.median(repeat.calibration_ns for repeat in repeats)
    )


def traced_metrics(measure, workload, plain: list, with_trace: list) -> Dict[str, float]:
    """Per-layer numbers: the median over the traced repeats, plus what
    the untraced ones say about the measurement itself."""
    per_repeat = [measure.layer_metrics(workload, repeat) for repeat in with_trace]
    metrics = {
        name: statistics.median(entry[name] for entry in per_repeat) for name in per_repeat[0]
    }
    metrics["run.repeats"] = len(plain)
    metrics["run.host_iqr_ratio"] = measure.iqr_ratio([repeat.ns_per_packet for repeat in plain])
    metrics["run.raw_ns_per_packet"] = statistics.median(
        repeat.raw_ns_per_packet for repeat in plain
    )
    metrics["run.machine_speed_ratio"] = machine_speed_ratio(measure, plain)
    metrics["run.trace_overhead_ratio"] = statistics.median(
        repeat.wall_ns for repeat in with_trace
    ) / statistics.median(repeat.wall_ns for repeat in plain)
    return metrics


def print_pass(args, outcome: Pass, spec: dict) -> None:
    """Every metric by name with its unit, the info line, then — last —
    the result line the contract prescribes."""
    units = {
        entry["name"]: entry["unit"] for entry in spec["end_to_end"] + spec["per_layer"]
    }
    info = outcome.info
    print(f"# {args.workload} seed={args.seed} trace={args.trace} scale={args.scale}")
    for name, value in outcome.metrics.items():
        spread = outcome.spreads.get(name)
        tail = f"  (IQR/median {spread:.3f})" if spread is not None else ""
        print(f"{name:<34} {value:>16.6g} {units[name]}{tail}")
    print(f"{'failed_share':<34} {info['failed_share']:>16.6g} ratio"
          f"  ({outcome.failed} of {outcome.attempted} operations)")
    print(f"{'sim_digest':<34} {info['sim_digest']}")
    if "paper_reduction_pct" in info:
        paper = info["paper_reduction_pct"]
        print(f"sim_p50_reduction_pct {info['sim_p50_reduction_pct']:.2f} % against the paper's "
              f"{paper:.1f} %: {info['sim_p50_reduction_pct'] - paper:+.2f} points")
    print("info " + json.dumps({**info, "spreads": outcome.spreads}, sort_keys=True))
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in outcome.metrics.items()
        },
    }))


# -- the ledger: every workload, both passes -----------------------------------


def run_child(args, workload: str, trace: int) -> dict:
    """One pass in its own process; returns its result with its info."""
    command = [
        sys.executable, str(HERE / "run.py"),
        "--workload", workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--scale", str(args.scale), "--trace", str(trace),
    ]
    if trace and args.trace_out:
        Path(args.trace_out).mkdir(parents=True, exist_ok=True)
        command += ["--trace-out", str(Path(args.trace_out) / f"{workload}.json")]
    done = subprocess.run(command, capture_output=True, text=True)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or len(lines) < 2:
        sys.stderr.write(done.stdout + done.stderr)
        raise SystemExit(f"bench: {workload} --trace {trace} exited with {done.returncode}")
    print("\n".join(lines[:-2]) + "\n", flush=True)
    result = json.loads(lines[-1])
    result["info"] = json.loads(lines[-2].split(" ", 1)[1])
    return result


def run_ledger(args, spec: dict) -> dict:
    names = [args.workload] if args.workload else [entry["name"] for entry in spec["workloads"]]
    ledger = {"seed": args.seed, "seconds": args.seconds, "scale": args.scale, "workloads": {}}
    for name in names:
        timed, traced = run_child(args, name, 0), run_child(args, name, 1)
        ledger["workloads"][name] = {
            "correct": timed["correct"] and traced["correct"],
            "attempted": timed["attempted"] + traced["attempted"],
            "failed": timed["failed"] + traced["failed"],
            "sim_digest": timed["info"]["sim_digest"],
            "traced_sim_digest": traced["info"]["sim_digest"],
            "spreads": timed["info"]["spreads"],
            "end_to_end": timed["metrics"],
            "per_layer": traced["metrics"],
            "info": {"timed": timed["info"], "traced": traced["info"]},
        }
    return ledger


def ledger_errors(ledger: dict, spec: dict, check_names: bool) -> List[str]:
    """What is wrong with a ledger; with ``check_names`` (the smoke
    test) also that names emitted == names declared, both directions."""
    errors = []
    if check_names:
        declared = {entry["name"] for entry in spec["workloads"]}
        if set(ledger["workloads"]) != declared:
            errors.append(f"workloads differ: {sorted(set(ledger['workloads']) ^ declared)}")
    for name, entry in ledger["workloads"].items():
        if check_names:
            for key in ("end_to_end", "per_layer"):
                difference = set(entry[key]) ^ {metric["name"] for metric in spec[key]}
                if difference:
                    errors.append(f"{name}: {key} names differ: {sorted(difference)}")
        if entry["failed"] or not entry["correct"]:
            errors.append(
                f"{name}: failed={entry['failed']} correct={entry['correct']} "
                f"{entry['info']['traced'].get('error', '')}"
            )
        if entry["sim_digest"] != entry["traced_sim_digest"]:
            errors.append(f"{name}: the traced pass's simulated result differs")
    return errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=2019)
    parser.add_argument("--seconds", type=float, help="default: BENCHMARK.json's run_seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--scale", type=float, default=1.0, help="size multiplier")
    parser.add_argument("--out", help="write the ledger as JSON (all-workload form)")
    parser.add_argument("--trace-out", help="write the traced repeats' spans here")
    parser.add_argument("--smoke", action="store_true", help="1/50-scale self-test")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_only:
        return setup_only(args)
    if not SPEC_PATH.is_file():
        raise SystemExit(f"bench: {SPEC_PATH} is missing")
    spec = json.loads(SPEC_PATH.read_text())
    if args.smoke:
        args.scale, args.seconds = SMOKE_SCALE, 0.0
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    known = [entry["name"] for entry in spec["workloads"]]
    if args.workload is not None and args.workload not in known:
        raise SystemExit(f"bench: unknown workload {args.workload!r}; one of {known}")

    if args.trace is not None:
        if args.workload is None:
            raise SystemExit("bench: --trace needs --workload")
        print_pass(args, run_pass(args), spec)
        return 0

    load_program()  # fail here, not in ten children, when the program is missing
    ledger = run_ledger(args, spec)
    if args.out:
        Path(args.out).write_text(json.dumps(ledger, indent=2, sort_keys=True) + "\n")
    errors = ledger_errors(ledger, spec, check_names=args.smoke)
    for error in errors:
        print(f"FAIL {error}")
    print("ok" if not errors else f"{len(errors)} problem(s)")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
