"""Entry point of the end-to-end benchmark.

    python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1
    PYTHONPATH=src python -m benchmarks.e2e [--workload W] [--seed N] [--smoke]

With ``--workload`` and ``--trace`` it makes one pass over one workload and
prints, as its last line, the JSON object BENCHMARK.json's contract asks
for.  Without ``--trace`` it makes both passes, the untraced window first;
without ``--workload`` it runs every workload, each in a process of its
own, and the last line carries all of it.  Either way the full record goes
to ``results/latest.json``.
"""

from __future__ import annotations

import time

_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RESULTS = os.path.join(HERE, "results")
WORKLOADS = ("etl_batch", "iter_apps", "plan_heavy", "serve_mix")
#: set-up is repeated and its median reported, so one slow start does not
#: read as a regression; the last set-up is the one that gets measured
SETUP_REPEATS = 3


def _bootstrap() -> None:
    """Make ``repro`` and ``benchmarks.e2e`` importable from a checkout."""
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        sys.exit(f"{ROOT}: no src/repro here; run from a checkout of the repo")
    for path in (ROOT, os.path.join(ROOT, "src")):
        if path not in sys.path:
            sys.path.insert(0, path)


def load_contract() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _git_sha() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _load_1min() -> float:
    load = os.getloadavg()[0]
    if load > (os.cpu_count() or 1):
        print(f"warning: 1-min load average {load:.2f} exceeds "
              f"{os.cpu_count()} cores; timings will be noisy", file=sys.stderr)
    return load


def run_pass(name: str, seed: int, seconds: float, traced: bool,
             smoke: bool, import_s: float) -> dict:
    """Set up ``name`` (several times), then make one pass over it."""
    from benchmarks.e2e import batch, layers, serve, stats

    is_serve = name == "serve_mix"

    def prepare():
        if is_serve:
            return serve.prepare(ROOT, seed, smoke)
        return batch.prepare(name, seed, smoke)

    def release(prepared) -> None:
        if is_serve and prepared is not None:
            prepared.daemon.stop()

    setup_walls, prepared = [], None
    try:
        for _ in range(SETUP_REPEATS):
            release(prepared)
            prepared = None  # free the previous inputs before the next set
            started = time.perf_counter()
            prepared = prepare()
            setup_walls.append(time.perf_counter() - started)
        if not traced:
            result = (serve.measure if is_serve else batch.measure)(
                prepared, seconds)
            result["metrics"]["setup_s"] = import_s + stats.median(setup_walls)
        else:
            os.makedirs(RESULTS, exist_ok=True)
            log = layers.SpanLog()
            if is_serve:
                result = serve.trace(prepared, seconds, log)
            else:
                result = batch.trace(prepared, seconds, log, RESULTS)
            log.write_chrome_trace(os.path.join(RESULTS, f"trace-{name}.json"))
    finally:
        release(prepared)
    result.update(workload=name, seed=seed, seconds=seconds,
                  trace=int(traced), smoke=smoke, setup_walls_s=setup_walls)
    return result


def declared(run: dict, contract: dict) -> dict:
    """The run's metrics under their declared names and units.

    An end-to-end metric must have been measured.  A per-layer metric that
    the workload does not exercise reads 0: no time spent, nothing counted.
    """
    section = "per_layer" if run["trace"] else "end_to_end"
    values = run["metrics"]
    names = {metric["name"] for metric in contract[section]}
    unknown = sorted(set(values) - names)
    if unknown:
        raise RuntimeError(f"metrics not declared in BENCHMARK.json: {unknown}")
    out = {}
    for metric in contract[section]:
        value = values.get(metric["name"], None if section == "end_to_end" else 0.0)
        if value is None:
            raise RuntimeError(f"{run['workload']}: {metric['name']} not measured")
        out[metric["name"]] = {"value": float(value), "unit": metric["unit"]}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="benchmarks.e2e", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="length of a pass (default 30, or 1.5 with --smoke)")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: untraced window, end-to-end metrics; 1: traced "
                             "pass, per-layer metrics (default: both)")
    parser.add_argument("--smoke", action="store_true",
                        help="input sizes / 20 and short passes: a functional check")
    args = parser.parse_args(argv)
    seconds = args.seconds or (1.5 if args.smoke else 30.0)

    for key in sorted(key for key in os.environ if key.startswith("REPRO_")):
        print(f"warning: ignoring {key}: the benchmark measures the defaults",
              file=sys.stderr)
        del os.environ[key]  # the daemon subprocess inherits this environment
    _bootstrap()
    load_start = _load_1min()
    if args.workload is None:
        runs = _each_in_its_own_process(argv if argv is not None else sys.argv[1:])
    else:
        contract = load_contract()
        import repro  # noqa: F401 - timed: import cost is part of set-up
        from benchmarks.e2e import batch, serve  # noqa: F401

        import_s = time.perf_counter() - _PROCESS_START
        runs = []
        for traced in ([False, True] if args.trace is None else [bool(args.trace)]):
            run = run_pass(args.workload, args.seed, seconds, traced,
                           args.smoke, import_s)
            run["metrics"] = declared(run, contract)
            for name, cell in run["metrics"].items():
                print(f"{args.workload:<11} {name:<44} "
                      f"{cell['value']:>14.4f} {cell['unit']}")
            runs.append(run)

    record = {
        "provenance": {
            "git_sha": _git_sha(), "python": platform.python_version(),
            "nproc": os.cpu_count(), "seed": args.seed, "seconds": seconds,
            "smoke": args.smoke, "load_1min_start": load_start,
            "load_1min_end": _load_1min(),
        },
        "runs": runs,
    }
    os.makedirs(RESULTS, exist_ok=True)
    with open(os.path.join(RESULTS, "latest.json"), "w") as fh:
        json.dump(record, fh, indent=1)

    metrics: dict = {}
    for run in runs:
        prefix = "" if args.workload else f"{run['workload']}."
        for name, cell in run["metrics"].items():
            metrics[prefix + name] = cell
    failed = sum(run["failed"] for run in runs)
    print(json.dumps({
        "correct": failed == 0, "failed": failed,
        "attempted": sum(run["attempted"] for run in runs), "metrics": metrics,
    }))
    return 0


def _each_in_its_own_process(flags: list) -> list:
    """Run every workload as ``run.py --workload W <flags>`` and collect the
    runs each child recorded: a process of its own gives every workload its
    own import time and its own peak RSS."""
    runs = []
    for name in WORKLOADS:
        child = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name, *flags],
            stdout=subprocess.PIPE, text=True,
        )
        print("\n".join(child.stdout.splitlines()[:-1]), flush=True)
        if child.returncode != 0:
            sys.exit(f"{name}: exit code {child.returncode}")
        with open(os.path.join(RESULTS, "latest.json")) as fh:
            runs += json.load(fh)["runs"]
    return runs


if __name__ == "__main__":
    sys.exit(main())
