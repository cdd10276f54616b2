"""Benchmark for tsl: one workload per run, in this fresh interpreter.

    python3 perfbench/run.py --workload exact-ladder --seed 3 --seconds 30 --trace 0

Load is a closed loop with one client: this process issues the workload's
commands one at a time through ``tsl.cli.main(argv)``, capturing stdout and
stderr, and starts no threads.  It repeats passes over the commands for
``--seconds`` seconds (at least one pass) and checks every command's output
against ``reference.json``.  Between commands it times the block of
calibrate.py for half as long as the commands took, and scales the reported
times to the reference speed by the run's typical block time.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json.  ``--trace 1``
runs one untraced pass, then traced passes (see spans.py), and prints the
per-layer metrics, including the tracing overhead.  ``--workload all`` runs
every workload, each in its own interpreter, and prints all their metrics.
The last line of stdout is the result as JSON; results and spans are also
written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout

import calibrate
import check
import ladder
import probe
import spans

OUT = os.path.join(probe.HERE, "out")
# Set-up probes per run, spread over the run between commands.
SETUP_PROBES = 10
# Calibration time as a share of command time, kept up after every command.
CALIBRATION_SHARE = 0.5
LOAD = "closed loop, 1 client process, no threads"


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "revision": git_revision(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "seed": seed,
        "load": LOAD,
    }


def git_revision() -> str:
    head = os.path.join(probe.ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(probe.ROOT, ".git", ref[5:]), encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return "unknown (not a git checkout)"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def setup_seconds() -> float:
    """Seconds from starting a fresh interpreter to set-up done."""
    started = time.monotonic()
    done = subprocess.run(
        [sys.executable, os.path.join(probe.HERE, "probe.py")],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout) - started


def commands(workload: str, paths: dict, seed: int, trials: int) -> list[tuple[str, list[str]]]:
    """(label, argv) for each command; the label keys reference.json."""
    out = []
    for template in ladder.WORKLOADS[workload]:
        argv = [template[0], paths[template[1]]] + [
            a.format(seed=seed, trials=trials) for a in template[2:]
        ]
        out.append((" ".join(template), argv))
    return out


def run_command(main, argv, tracer):
    out, err = io.StringIO(), io.StringIO()
    started = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            if tracer is None:
                rc = main(argv)
            else:
                rc = tracer.call("cli.main", main, argv)
    except Exception as exc:  # a crash is one failed command, not a failed run
        rc = exc
    return time.perf_counter() - started, rc, out.getvalue(), err.getvalue()


def run_pass(main, cmds, reference, tracer=None, between=None) -> dict:
    """One pass over the commands; `between(seconds)` runs after each, untimed."""
    times, failures = [], []
    for label, argv in cmds:
        if tracer is not None:
            tracer.problem = os.path.basename(argv[1])
        seconds, rc, out, err = run_command(main, argv, tracer)
        times.append(seconds)
        reason = check.failure(reference.get(label), argv, rc, out, err)
        if reason is not None:
            failures.append(f"{label}: {reason}")
        if between is not None:
            between(seconds)
    return {"times": times, "failures": failures}


def run_passes(main, cmds, reference, seconds, tracer=None, between=None) -> list[dict]:
    """Passes until one more would overrun `seconds`; at least one."""
    passes = []
    started = time.perf_counter()
    while True:
        begun = time.perf_counter()
        if tracer is not None:
            tracer.pass_index = len(passes)
        passes.append(run_pass(main, cmds, reference, tracer, between))
        last = time.perf_counter() - begun
        if time.perf_counter() - started + last > seconds:
            return passes


def end_to_end(workload, cmds, passes, setup_s, block_s) -> tuple[dict, dict]:
    """The BENCHMARK.json metrics, and the summary's extras: the failure
    ratio, the raw wall time, the calibration, the key commands' median times
    and the simulation rate.  Command times are scaled to the reference speed
    by the run's typical calibration block time `block_s`.  `run_s` is the
    mean pass time, not the median: the speed drifts over the whole run, and
    means of the commands and of the blocks average the same drift."""
    scale = calibrate.REFERENCE_S / block_s
    wall_run_s = statistics.fmean(sum(p["times"]) for p in passes)
    metrics = {
        "run_s": (wall_run_s * scale, "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    attempted = len(cmds) * len(passes)
    failed = sum(len(p["failures"]) for p in passes)
    extras = {
        "fail_ratio": (failed / attempted, "ratio"),
        "wall_run_s": (wall_run_s, "s"),
        "calibration_block_s": (block_s, "s"),
    }
    for command, problem in ladder.KEY_COMMANDS[workload]:
        index = next(
            i for i, (_, argv) in enumerate(cmds)
            if argv[0] == command and os.path.basename(argv[1]) == f"{problem}.tsl"
        )
        extras[f"{command}.{problem}_s"] = (
            statistics.median(p["times"][index] for p in passes) * scale, "s"
        )
    sims = [i for i, (_, argv) in enumerate(cmds) if argv[0] == "simulate"]
    if sims and workload != "capacity-guard":
        trials = sum(int(cmds[i][1][cmds[i][1].index("--trials") + 1]) for i in sims)
        extras["sim_trials_per_s"] = (
            statistics.median(trials / sum(p["times"][i] for i in sims) for p in passes)
            / scale,
            "1/s",
        )
    return metrics, extras


def run_workload(args) -> int:
    try:
        cli, paths = probe.setup()
    except probe.CheckoutError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    with open(os.path.join(probe.HERE, "reference.json"), encoding="utf-8") as fh:
        reference = json.load(fh)
    trials = ladder.SMOKE_TRIALS if args.smoke else ladder.TRIALS.get(args.workload, 0)
    cmds = commands(args.workload, paths, args.seed, trials)
    env = environment(args.seed)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    os.makedirs(OUT, exist_ok=True)

    if args.trace:
        untraced = run_passes(cli.main, cmds, reference, 0)
        tracer = spans.Tracer(args.workload)
        tracer.install()
        try:
            traced = run_passes(
                cli.main, cmds, reference,
                args.seconds - sum(untraced[0]["times"]), tracer,
            )
        finally:
            tracer.uninstall()
        passes = untraced + traced
        metrics = spans.layer_metrics(tracer, len(traced), sum(untraced[0]["times"]))
        extras = {}
        calibration = []
        tracer.write(os.path.join(OUT, f"{tag}-spans.json"))
    else:
        setup_seconds()  # the first start only fills the bytecode caches
        probes = 1 if args.smoke else SETUP_PROBES
        setups: list[float] = []
        blocks: list[float] = []
        owed = [0.0]  # calibration seconds still to run
        due = [time.perf_counter()]

        def between(seconds):
            owed[0] += CALIBRATION_SHARE * seconds
            while owed[0] > 0:
                blocks.append(calibrate.time_block())
                owed[0] -= blocks[-1]
            while len(setups) < probes and time.perf_counter() >= due[0]:
                setups.append(setup_seconds())
                due[0] += args.seconds / probes
            # The blocks' garbage would otherwise fall to the next command's
            # collections, and later passes would slow by 7-16%.
            gc.collect()

        passes = run_passes(cli.main, cmds, reference, args.seconds, between=between)
        metrics, extras = end_to_end(
            args.workload, cmds, passes, statistics.median(setups),
            calibrate.typical_block(blocks),
        )
        calibration = blocks

    attempted = len(cmds) * len(passes)
    failures = [f for p in passes for f in p["failures"]]
    for failure in failures[:10]:
        print(f"failed: {failure}", file=sys.stderr)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print("env " + " ".join(f"{key}={value!r}" for key, value in env.items()))
    print(f"workload {args.workload}: {len(passes)} passes of {len(cmds)} commands, "
          f"{attempted} attempted, {len(failures)} failed")
    for name, (value, unit) in {**metrics, **extras}.items():
        print(f"  {name} = {value:.6g} {unit}")
    with open(os.path.join(OUT, f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(
            {"environment": env, "workload": args.workload, "result": result,
             "summary": {k: {"value": v, "unit": u} for k, (v, u) in extras.items()},
             "commands": [label for label, _ in cmds],
             "pass_times": [p["times"] for p in passes],
             "calibration_blocks": calibration, "failures": failures},
            fh, indent=1,
        )
        fh.write("\n")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    results = {}
    for workload in ladder.WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        done = subprocess.run(argv, capture_output=True, text=True, timeout=600)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            return done.returncode
        results[workload] = json.loads(done.stdout.splitlines()[-1])
    print(json.dumps(results))
    return 0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*ladder.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=check.REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help=f"{ladder.SMOKE_TRIALS} trials per simulate, one set-up probe")
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 1 << 64:
        parser.error("--seed must be in [0, 2**64)")
    return args


if __name__ == "__main__":
    arguments = parse_args()
    sys.exit(run_all(arguments) if arguments.workload == "all" else run_workload(arguments))
