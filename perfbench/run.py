'''g2calc benchmark runner.

  python3 perfbench/run.py --workload verify|exact|eh --seed N --seconds T --trace 0|1

Run from the root of a checkout.  Every pass of the workload, and every
set-up probe, is a fresh interpreter (perfbench/child.py) with g2calc's
sources on PYTHONPATH, one BLAS thread, G2CALC_THREADS unset and a fixed
hash seed.  Children run one at a time, and a lock file keeps two runs in
one checkout from overlapping.

--trace 0 makes max(1, seconds // PASS_SECONDS[workload]) passes, about
--seconds of work, and reports the end-to-end metrics.  --trace 1 makes
one plain pass and one traced pass and reports the per-layer metrics;
trace.overhead_s is the difference of their run_s.

Human-readable lines come first; the last line of standard output is one
JSON object {correct, attempted, failed, metrics}.  Each run also appends
a record with its provenance to perfbench/out/results.jsonl; traced runs
leave their spans in perfbench/out/spans-<workload>-<seed>.json.gz.
Exit codes: 0 measured (even with failed operations), 1 the benchmark
could not measure, 2 usage error or no g2calc sources.
'''
from __future__ import annotations

import argparse
import fcntl
import itertools
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
OUT = BENCH / "out"

WORKLOADS = ("verify", "exact", "eh")
#: nominal length of one pass at the reference speed; a run makes
#: max(1, seconds // PASS_SECONDS) passes, the same number on every run
PASS_SECONDS = {"verify": 30.0, "exact": 8.0, "eh": 14.0}
SETUP_PROBES = 5
TIME_LIMIT_S = 170.0          # a run must end within 180 s

END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "sample_p50_ms": "ms",
                    "sample_p98_ms": "ms", "peak_rss_mb": "MiB"}


class BenchError(RuntimeError):
    """The benchmark itself could not measure (not a failed operation)."""


def layer_unit(name: str) -> str:
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_per_radius"):
        return "calls/radius"
    if name.endswith(".bytes"):
        return "bytes"
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    return "count"


def _child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "G2CALC_THREADS"}
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONHASHSEED="0", PYTHONPATH=str(ROOT / "src"))
    return env


def _run_child(args: list, result: Path, deadline: float) -> dict:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"time limit of {TIME_LIMIT_S:.0f} s reached")
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "child.py"), "--result", str(result), *args],
            cwd=ROOT, env=_child_env(), stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"time limit of {TIME_LIMIT_S:.0f} s reached") from None
    if proc.returncode != 0 or not result.is_file():
        raise BenchError(f"child exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(result.read_text())


def _git_rev() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _quantile(values: list, q: int) -> float:
    """q-th percentile, linear between order statistics."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _end_to_end(setups: list, passes: list, raw: bool = False) -> dict:
    """The end-to-end metrics from set-up probes and passes: at the
    reference speed, or unscaled with `raw`."""
    setup, run, samples = (("setup_raw_s", "run_raw_s", "samples_raw_ms") if raw
                           else ("setup_s", "run_s", "samples_ms"))
    reps = [p[samples] for p in passes]
    if len({len(r) for r in reps}) == 1:
        # every pass ran the same samples: keep each sample's best repetition,
        # which drops the millisecond stalls the host adds to random samples
        best = [min(r) for r in zip(*reps)]
    else:
        best = [x for r in reps for x in r]
    return {
        "setup_s": statistics.median(r[setup] for r in setups + passes),
        "run_s": statistics.median(p[run] for p in passes),
        "sample_p50_ms": _quantile(best, 50),
        "sample_p98_ms": _quantile(best, 98),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }


def measure(workload: str, seed: int, seconds: float, trace: bool, tmp: Path) -> dict:
    deadline = time.monotonic() + TIME_LIMIT_S
    n = itertools.count()
    speed = [] if trace else ["--speed"]

    def child(args):
        return _run_child(args, tmp / f"child-{next(n)}.json", deadline)

    def one_pass(extra=()):
        workdir = tmp / f"pass-{next(n)}"
        workdir.mkdir()
        return child(["--workload", workload, "--seed", str(seed),
                      "--workdir", str(workdir), *extra])

    child(["--probe"])            # warm-up: byte-compiles and fills the page cache
    setups = [child(["--probe", *speed]) for _ in range(SETUP_PROBES)]
    if trace:
        spans = OUT / f"spans-{workload}-{seed}.json.gz"
        passes = [one_pass(), one_pass(["--spans", str(spans)])]
    else:
        n_passes = max(1, int(seconds // PASS_SECONDS[workload]))
        passes = [one_pass(speed) for _ in range(n_passes)]

    rec = {"workload": workload, "seed": seed, "trace": int(trace), "seconds": seconds,
           "git_rev": _git_rev(), "python": passes[0]["python"],
           "numpy": passes[0]["numpy"], "nproc": len(os.sched_getaffinity(0)),
           "passes": len(passes), "setup_probes": len(setups),
           "samples": sum(len(p["samples_ms"]) for p in passes)}
    if trace:
        plain, traced = passes
        values = dict(traced["layers"])
        values["trace.run_s"] = traced["run_s"]
        values["trace.overhead_s"] = traced["run_s"] - plain["run_s"]
        units = {k: layer_unit(k) for k in values}
    else:
        values = _end_to_end(setups, passes)
        units = END_TO_END_UNITS
        rec["unscaled"] = _end_to_end(setups, passes, raw=True)
        rec["speed_factor"] = statistics.median(r["speed_factor"] for r in setups + passes)
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    rec.update({
        "attempted": attempted, "failed": failed,
        "failed_share": failed / attempted if attempted else 0.0,
        "correct": all(p["wrong"] == 0 for p in passes),
        "problems": sorted({x for p in passes for x in p["problems"]}),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    })
    return rec


def _print_report(rec: dict) -> None:
    print(f"workload {rec['workload']}  seed {rec['seed']}  trace {rec['trace']}  "
          f"passes {rec['passes']}  samples {rec['samples']}  "
          f"set-up probes {rec['setup_probes']}")
    print(f"git {rec['git_rev']}  python {rec['python']}  numpy {rec['numpy']}  "
          f"nproc {rec['nproc']}")
    if "speed_factor" in rec:
        print(f"times below are at the reference speed; this run's speed factor "
              f"{rec['speed_factor']:.4f} (unscaled value in brackets)")
    for name, m in rec["metrics"].items():
        unscaled = rec.get("unscaled", {}).get(name)
        extra = f"  [{unscaled:.6g}]" if unscaled is not None and m["unit"] != "MiB" else ""
        print(f"  {name:<48} {m['value']:>14.6g} {m['unit']}{extra}")
    print(f"  {'failed_share':<48} {rec['failed_share']:>14.6g} ratio  "
          f"({rec['failed']}/{rec['attempted']})")
    for line in rec["problems"]:
        print(f"  failed: {line}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "g2calc" / "cli.py").is_file():
        print(f"run.py: no g2calc sources under {ROOT / 'src'}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    with open(OUT / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)      # one workload at a time
        try:
            with tempfile.TemporaryDirectory(dir=OUT) as tmp:
                rec = measure(args.workload, args.seed, args.seconds,
                              bool(args.trace), Path(tmp))
        except BenchError as e:
            print(f"run.py: {e}", file=sys.stderr)
            return 1
    rec["time"] = time.strftime("%Y-%m-%dT%H:%M:%S%z")
    with open(OUT / "results.jsonl", "a") as fh:
        fh.write(json.dumps(rec) + "\n")
    _print_report(rec)
    print(json.dumps({"correct": rec["correct"], "attempted": rec["attempted"],
                      "failed": rec["failed"], "metrics": rec["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
