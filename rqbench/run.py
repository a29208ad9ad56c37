"""rqshot benchmark: one workload, one run, one JSON line of metrics.

    python3 rqbench/run.py --workload eval-warm --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; rqshot is imported from ./src and
nowhere else.  The run sets up the workload several times, then runs whole
rounds of it until ``--seconds`` of workload time have passed, timing the
reference kernel (refkernel.py) after every part of a round so that times
can be stated in seconds of the nominal host.  Every episode is checked
outside the timed phase.  With ``--trace 0`` the last line holds the
end-to-end metrics; with ``--trace 1`` the run times half its rounds
untraced, then sets up and runs the other half with every layer wrapped,
and the last line holds the per-layer metrics.  Details go to
rqbench/results/.
"""

from __future__ import annotations

import os

# One BLAS thread, fixed before NumPy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import layers  # noqa: E402
import refkernel  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RESULTS = HERE / "results"
IMPORT_REPEATS = 7

END_TO_END = (
    ("setup_s", "s"),
    ("episodes_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)

_IMPORT_PROBE = """
import sys, time
import numpy
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import rqshot.benchmark, rqshot.learner
print(time.perf_counter() - t0)
"""


def _import_seconds() -> float:
    """Time importing rqshot in a fresh interpreter that has NumPy loaded."""
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, str(SRC)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.strip())


def _wall(fn) -> float:
    t0 = perf_counter()
    fn()
    return perf_counter() - t0


def _beside_kernel(measure, ref) -> tuple[float, float]:
    """(seconds `measure` reports, mean kernel time just before and after it)."""
    before = ref.time()
    seconds = measure()
    return seconds, 0.5 * (before + ref.time())


def _timed_phase(wl, seconds: float, ref, tracer=None) -> dict:
    """Whole rounds until `seconds` of workload time, the kernel between parts.

    Each part is timed on its own and paired with the mean of the kernel
    times just before and just after it; checks run after the kernel.
    """
    rounds, notes, problems = [], [], []
    ref_before = ref.time()
    busy = 0.0
    while busy < seconds:
        outs, parts, error = [], [], None
        for part in range(wl.parts):
            if tracer is not None:
                tracer.recording = True
            t0 = perf_counter()
            try:
                outs.append(wl.run_part(part))
            except Exception:
                error = traceback.format_exc()
            elapsed = perf_counter() - t0
            if tracer is not None:
                tracer.recording = False
            ref_after = ref.time()
            parts.append({"s": elapsed, "ref_s": 0.5 * (ref_before + ref_after)})
            ref_before = ref_after
            busy += elapsed
            if error is not None:
                break
        if error is None:
            failed, found, run_problems = wl.check(outs)
        else:
            failed, found, run_problems = wl.episodes_per_round, [error], []
        notes += found
        problems += run_problems
        rounds.append({"parts": parts, "episodes": wl.episodes_per_round, "failed": failed})
    return {"rounds": rounds, "notes": notes, "problems": problems}


def _round_seconds(rounds, nominal: float | None = None) -> float:
    """Seconds of one round: the sum over its parts of each part's median.

    With `nominal` each part's seconds are first scaled to the nominal host
    by the kernel times around it.  Every round repeats the same parts, so
    the per-part median discards a part that a host stall lengthened.
    """
    def seconds(p):
        return p["s"] if nominal is None else p["s"] * nominal / p["ref_s"]

    return sum(
        statistics.median(seconds(r["parts"][k]) for r in rounds if len(r["parts"]) > k)
        for k in range(max(len(r["parts"]) for r in rounds))
    )


def _rates(rounds, nominal: float) -> tuple[float, float]:
    """Episodes per nominal-host second, and per wall second."""
    episodes = rounds[0]["episodes"]
    return episodes / _round_seconds(rounds, nominal), episodes / _round_seconds(rounds)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _environment() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "rqshot" / "__init__.py").is_file():
        print(f"rqshot sources not found under {SRC}", file=sys.stderr)
        return 2

    if args.workload not in workloads.NAMES:
        print(f"unknown workload {args.workload!r}; one of {workloads.NAMES}", file=sys.stderr)
        return 2

    t0 = perf_counter()
    sys.path.insert(0, str(SRC))
    import rqshot.benchmark
    import rqshot.learner

    first_import_s = perf_counter() - t0
    if Path(rqshot.__file__).resolve().parent != SRC / "rqshot":
        print(f"imported rqshot from {rqshot.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    wl = workloads.make(args.workload, rqshot, args.seed)
    ref = refkernel.ReferenceKernel(wl.kernel)
    nominal = ref.nominal_s
    ref.time()  # first touch of the kernel's pages, not timed beside anything
    # The high-water mark before any set-up or workload part has run: what
    # the interpreter, the imports and the kernel hold.  peak_rss_mb reads
    # the program only where it ends above this.
    kernel_rss_mb = _peak_rss_mb()
    import_s = [_beside_kernel(_import_seconds, ref) for _ in range(IMPORT_REPEATS)]
    setup_s = [_beside_kernel(lambda: _wall(wl.setup), ref) for _ in range(wl.setup_repeats)]

    def nominal_median(samples):
        return statistics.median(s * nominal / r for s, r in samples)

    result = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": _environment(),
        "import_s": import_s, "first_import_s": first_import_s, "setup_pass_s": setup_s,
        "reference_kernel": wl.kernel, "reference_nominal_s": nominal,
        "kernel_rss_mb": kernel_rss_mb,
    }
    trace_metrics = None
    if args.trace == 0:
        phase = _timed_phase(wl, args.seconds, ref)
        phases = [phase]
    else:
        untraced = _timed_phase(wl, args.seconds / 2, ref)
        tracer = spans.Tracer()
        tracer.install(layers.HOOKS)
        try:
            tracer.recording = True
            t0 = perf_counter()
            wl.setup()
            setup_traced_s = perf_counter() - t0
            tracer.recording = False
            setup_spans, _ = tracer.take()
            traced = _timed_phase(wl, args.seconds / 2, ref, tracer)
            timed_spans, counters = tracer.take()
        finally:
            tracer.uninstall()
        phases = [untraced, traced]
        phase = traced
        trace_metrics = _trace_metrics(
            tracer, untraced, traced, timed_spans, counters, setup_spans, setup_traced_s, nominal,
        )
        result["absent_layers"] = tracer.absent
        _write_spans(args, setup_spans, timed_spans)

    try:
        final_failed, final_notes, final_problems = wl.finish()
    except Exception:
        final_failed, final_notes, final_problems = 0, [], [traceback.format_exc()]
    rounds = [r for p in phases for r in p["rounds"]]
    attempted = sum(r["episodes"] for r in rounds)
    failed = sum(r["failed"] for r in rounds) + final_failed
    notes = [n for p in phases for n in p["notes"]] + final_notes
    problems = [q for p in phases for q in p["problems"]] + final_problems
    if trace_metrics is not None and trace_metrics["trace.hooked_share"] > 1.0 + 1e-9:
        problems.append("hooked self times exceed the traced timed phase")

    norm_rate, raw_rate = _rates(phase["rounds"], nominal)
    end_to_end = {
        "setup_s": nominal_median(import_s) + nominal_median(setup_s),
        "episodes_per_s": norm_rate,
        "peak_rss_mb": _peak_rss_mb(),
    }
    digest = wl.digest()
    result.update({
        "end_to_end": end_to_end, "raw_episodes_per_s": raw_rate,
        "reference_s": [p["ref_s"] for r in rounds for p in r["parts"]], "rounds": rounds,
        "attempted": attempted, "failed": failed, "digest": digest,
        "digest_payload": wl.digest_payload(),
        "failures": notes[:50], "problems": problems,
    })
    if trace_metrics is not None:
        result["per_layer"] = trace_metrics
    RESULTS.mkdir(exist_ok=True)
    out_path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")

    for line in notes[:20] + problems:
        print(f"CHECK FAILED: {line}", file=sys.stderr)
    env = result["environment"]
    print(f"environment: python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, "
          f"nproc {env['nproc']}")
    print(f"reference kernel ({wl.kernel}): median {statistics.median(result['reference_s']):.6f} s "
          f"(nominal {nominal} s) beside {len(result['reference_s'])} parts in {len(rounds)} rounds")
    print(f"raw_episodes_per_s {raw_rate:.4f} 1/s (wall clock, not normalised)")
    print(f"kernel_rss_mb {kernel_rss_mb:.1f} MB (high-water mark before set-up)")
    if args.trace == 0:
        metrics = {name: {"value": end_to_end[name], "unit": unit} for name, unit in END_TO_END}
    else:
        metrics = {name: {"value": trace_metrics[name], "unit": unit}
                   for name, unit, _ in layers.PER_LAYER}
        for absent in result["absent_layers"]:
            print(f"absent layer: {absent}")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(f"digest {digest}")
    print(f"details in {out_path.relative_to(HERE.parent)}")
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def _trace_metrics(tracer, untraced, traced, timed_spans, counters,
                   setup_spans, setup_traced_s, nominal) -> dict:
    calls, own, hooked_s = spans.self_times(timed_spans)
    setup_calls, setup_own, _ = spans.self_times(setup_spans)
    rounds = traced["rounds"]
    out = layers.layer_metrics(calls, own, counters, len(rounds), setup_calls, setup_own)
    wall_s = sum(p["s"] for r in rounds for p in r["parts"])
    out.update({
        "setup.traced_s": setup_traced_s,
        "trace.rounds": len(rounds),
        "trace.round_s": _round_seconds(rounds),
        "trace.hooked_share": hooked_s / wall_s,
        "trace.overhead_ratio": (
            _round_seconds(rounds, nominal) / _round_seconds(untraced["rounds"], nominal)),
        "trace.absent_layers": len(tracer.absent),
    })
    return out


def _write_spans(args, setup_spans, timed_spans) -> None:
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{args.workload}-seed{args.seed}-spans.json"
    with open(path, "w") as fh:
        json.dump({"fields": ["name", "start", "end", "parent"],
                   "setup": setup_spans, "timed": timed_spans}, fh)


if __name__ == "__main__":
    sys.exit(main())
