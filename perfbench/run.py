#!/usr/bin/env python3
"""Build and run the benchmark from the root of a checkout.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --steady RUNS --workload W [--seconds S]

The first form builds the benchmark and the `scc-serve` binary with cargo
(into $CARGO_TARGET_DIR, default `.bench_build`), then runs one
measurement; its last line of standard output is the result JSON. It
exits with 1 if that line's metrics are not exactly the ones
BENCHMARK.json lists for the mode (end_to_end, or per_layer with
--trace 1).

The second form is the steadiness check: RUNS untraced runs of one
workload on seeds 1..RUNS, then RUNS more on held-out seeds, each run a
separate process. For every end-to-end metric it prints the median, the
quartiles and the quartile spread as a share of the median against the
bound in BENCHMARK.json, and whether both seed sets reach the same
verdict. It exits with 1 unless every spread, `setup_s` included, is
below a third of its bound, no operation failed, every output was
correct, and the held-out medians stay within the bounds.
"""

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
HELD_OUT_SEED_BASE = 7_000_000


def build():
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    for manifest, extra in (
        (os.path.join(HERE, "Cargo.toml"), []),
        (os.path.join(ROOT, "crates", "serve", "Cargo.toml"), ["--bin", "scc-serve"]),
    ):
        if not os.path.exists(manifest):
            sys.exit(f"run.py: {manifest} is missing; run from a full checkout")
        cmd = ["cargo", "build", "--release", "--quiet", "--manifest-path", manifest] + extra
        # Cargo's own output goes to stderr, so stdout stays the result.
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            sys.exit("run.py: build failed")
    release = os.path.join(target, "release")
    return os.path.join(release, "perfbench"), os.path.join(release, "scc-serve")


# The benchmark process is the one doing the measured work, and its
# VmHWM is peak_rss_mb. Runner::run starts a thread per batch, and glibc
# gives such threads arenas of their own whose reuse differs from run to
# run; one arena keeps that VmHWM from jumping by 4-6 MB in about a
# quarter of runs. The scc-serve processes a traced run starts are
# spawned without this setting, so they run as deployed.
BENCH_ENV = dict(os.environ, MALLOC_ARENA_MAX="1")


def manifest():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def check_names(stdout, trace):
    """Exits with 1 unless the result line holds exactly the metrics
    BENCHMARK.json lists for this mode."""
    want = {m["name"] for m in manifest()["per_layer" if trace else "end_to_end"]}
    got = set(json.loads(stdout.strip().splitlines()[-1])["metrics"])
    if got != want:
        sys.exit(f"run.py: result metrics differ from BENCHMARK.json: "
                 f"missing {sorted(want - got)}, extra {sorted(got - want)}")


def run_once(bench, serve, args):
    proc = subprocess.run([bench, "--serve-bin", serve] + args, stdout=subprocess.PIPE, text=True,
                          env=BENCH_ENV)
    if proc.returncode != 0:
        sys.exit(f"run.py: benchmark exited with {proc.returncode}")
    return proc.stdout


def steady(bench, serve, runs, workload, seconds):
    bounds = {m["name"]: m["bound"] for m in manifest()["end_to_end"]}
    verdicts, medians = [], []
    for label, base in (("seeds 1..", 1), ("held-out seeds", HELD_OUT_SEED_BASE)):
        values, failed, attempted, correct = {}, 0, 0, True
        for seed in range(base, base + runs):
            stdout = run_once(bench, serve, ["--workload", workload, "--seed", str(seed),
                                             "--seconds", str(seconds), "--trace", "0"])
            check_names(stdout, False)
            result = json.loads(stdout.strip().splitlines()[-1])
            failed += result["failed"]
            correct = correct and result["correct"]
            attempted += result["attempted"]
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"{workload}, {label}{base}: {runs} runs, failed {failed} of {attempted}"
              f"{'' if correct else ', NOT CORRECT'}")
        # Failed operations or a wrong output make the set unsteady,
        # whatever its timings.
        verdict = {"outputs": failed == 0 and correct}
        for name, vs in values.items():
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / abs(med) if med else float("inf")
            bound = bounds.get(name)
            ok = bound is None or spread < bound / 3
            verdict[name] = ok
            print(f"  {name:<26} median {med:<14.6g} q1 {q1:<14.6g} q3 {q3:<14.6g} "
                  f"spread {spread:8.4f}  bound {bound}  {'steady' if ok else 'NOT STEADY'}")
        verdicts.append(verdict)
        medians.append({name: statistics.median(vs) for name, vs in values.items()})
    same = verdicts[0] == verdicts[1]
    print(f"held-out seeds give the same verdicts: {'yes' if same else 'NO'}")
    print("median shift, held-out against seeds 1..:")
    for name, first in medians[0].items():
        shift = (medians[1].get(name, float("nan")) - first) / abs(first) if first else float("inf")
        bound = bounds.get(name)
        within = bound is None or abs(shift) <= bound
        print(f"  {name:<26} {shift:+8.4f}  bound {bound}  {'ok' if within else 'OUTSIDE BOUND'}")
        same = same and within
    return 0 if same and all(verdicts[0].values()) else 1


def main():
    argv = sys.argv[1:]
    bench, serve = build()
    if "--steady" in argv:
        i = argv.index("--steady")
        runs = int(argv[i + 1])
        rest = argv[:i] + argv[i + 2:]
        opts = dict(zip(rest[::2], rest[1::2]))
        seconds = int(opts.get("--seconds", manifest()["run_seconds"]))
        return steady(bench, serve, runs, opts["--workload"], seconds)
    stdout = run_once(bench, serve, argv)
    sys.stdout.write(stdout)
    sys.stdout.flush()
    opts = dict(zip(argv[::2], argv[1::2]))
    check_names(stdout, opts.get("--trace", "0") != "0")
    return 0


if __name__ == "__main__":
    sys.exit(main())
