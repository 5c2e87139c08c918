"""End-to-end benchmark of the ``nvcr`` command line.

    python3 bench/run.py --workload tables --seed 1 --seconds 36 --trace 0

Each command of the workload (see ``workloads.py``) runs as a fresh
``python -m nvcr.cli`` process with ``PYTHONPATH=src``, one after the
other, from this one process: a closed loop with one client.  A pass
runs the whole command list in a fresh output directory; passes repeat
while another one fits in ``--seconds`` (at least two, so that every
output is compared byte for byte with another pass of the same seed).

End-to-end metrics (``--trace 0``).  Each command's wall time, CPU time
and peak memory is a median over the passes; a pass figure sums these
(memory takes the largest), so one slow process does not move it:

* ``wall_s``       wall time of one pass, process start-up included
* ``setup_s``      wall time of ``nvcr --version`` (interpreter start,
                   package import, parser build), median of five probes
* ``cpu_s``        user + system CPU of the pass's processes
* ``peak_rss_mb``  largest resident set of any process in the pass

A command fails when it exits non-zero, when its output fails a check in
``checks.py``, or when its output differs from the first pass;
``failed_frac`` is failed over attempted.

``--trace 1`` runs one untraced pass of the workload and then one traced
pass of every workload through ``tracer.py``, so that each per-layer
metric is measured on every traced run.  Per-layer metrics are sums over
that sweep; ``trace.overhead_s`` is the named workload's traced minus
untraced pass wall time.  Where each layer should show:

* imports and ``cli.*``: ``setup_s`` everywhere, ``wall_s`` on lab
* ``spin_model.*``: ``wall_s`` on grids (bulk scans) and lab (point-wise)
* ``odmr.*``: ``wall_s`` on lab and grids
* ``eta_average.*``: ``wall_s``, ``cpu_s`` and ``peak_rss_mb`` on tables
* ``analysis.*``, ``relaxation.*``: ``wall_s`` on lab
* ``serialize.*``: ``wall_s`` on grids (writes) and lab (reads)

The last stdout line is the JSON result; the full record (environment,
every sample, fingerprints, output hashes, per-command trace counts) is
written to ``bench/results/``.  Seed 1 is the development seed; seed 2
is held out for confirming claims.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import tracer
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_PROBES = 5
MIN_PASSES = 2
# every run, first one included, must end inside 180 s
RUN_BUDGET_S = 170.0
LOAD_MODEL = "closed loop, 1 client, serial processes"
UNITS = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


@dataclass
class Process:
    wall_s: float
    cpu_s: float
    rss_mb: float
    code: int
    stdout: str
    stderr: str


@dataclass
class Pass:
    wall_s: float
    procs: dict[str, Process] = field(default_factory=dict)
    failures: dict[str, list[str]] = field(default_factory=dict)
    hashes: dict[str, str] = field(default_factory=dict)
    fingerprints: dict[str, dict] = field(default_factory=dict)
    spans: dict[str, dict] = field(default_factory=dict)


class Runner:
    """Starts one process at a time and reaps it with its resource use."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([os.environ["PYTHONPATH"]]
                                   if os.environ.get("PYTHONPATH") else []))

    def run(self, argv: list[str], cwd: Path, tag: str) -> Process:
        out_path, err_path = cwd / f"{tag}.stdout", cwd / f"{tag}.stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=cwd, env=self.env, stdout=out,
                                    stderr=err)
            watchdog = threading.Timer(
                max(0.0, self.deadline - time.monotonic()), proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                watchdog.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Process(wall, usage.ru_utime + usage.ru_stime,
                       usage.ru_maxrss / 1024.0, proc.returncode,
                       out_path.read_text(errors="replace"),
                       err_path.read_text(errors="replace"))

    def nvcr(self, args: list[str], cwd: Path, tag: str) -> Process:
        return self.run([sys.executable, "-m", "nvcr.cli", *args], cwd, tag)

    def traced(self, args: list[str], cwd: Path, tag: str) -> Process:
        return self.run([sys.executable, str(BENCH / "tracer.py"), "--spans",
                         f"{tag}.spans.json", "--", *args], cwd, tag)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.is_file() \
        else ""


def run_pass(runner: Runner, wl: workloads.Workload, where: Path,
             traced: bool = False) -> Pass:
    """Run the command list once in the fresh directory ``where``."""
    where.mkdir(parents=True)
    for name, text in wl.inputs.items():
        (where / name).write_text(text, encoding="utf-8")
    launch = runner.traced if traced else runner.nvcr
    start = time.perf_counter()
    procs = {cmd.id: launch(cmd.args, where, cmd.id) for cmd in wl.commands}
    result = Pass(time.perf_counter() - start, procs)
    for cmd in wl.commands:
        proc, out = procs[cmd.id], where / cmd.output
        errors, result.fingerprints[cmd.id] = checks.check_output(
            cmd.check, out, cmd.expect)
        if proc.code != 0:
            tail = (proc.stdout + proc.stderr).strip().splitlines()[-1:]
            errors.insert(0, f"exit code {proc.code}: {' '.join(tail)}")
        result.hashes[cmd.id] = _sha256(out)
        if traced:
            result.spans[cmd.id] = _spans(where / f"{cmd.id}.spans.json",
                                          errors)
        if errors:
            result.failures[cmd.id] = errors
    return result


def _spans(path: Path, errors: list[str]) -> dict:
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        errors.append(f"no spans: {exc}")
        return {"spans": [], "counts": {}}


def compare_outputs(reference: Pass, other: Pass, label: str):
    """Fail every command whose output differs from the reference pass."""
    for cid, digest in other.hashes.items():
        if digest != reference.hashes.get(cid):
            other.failures.setdefault(cid, []).append(
                f"output differs from {label}")


def typical_pass(passes: list[Pass]) -> dict[str, float]:
    """Each command's median over the passes, summed (max for memory).

    Taking the median per command before summing keeps one slow process
    from moving the pass total.
    """
    def median(cid: str, attr: str) -> float:
        return statistics.median(getattr(p.procs[cid], attr) for p in passes)

    ids = list(passes[0].procs)
    return {"wall_s": sum(median(c, "wall_s") for c in ids),
            "cpu_s": sum(median(c, "cpu_s") for c in ids),
            "peak_rss_mb": max(median(c, "rss_mb") for c in ids)}


def failure_lines(runs: list[tuple[str, Pass]]) -> list[str]:
    return [f"{label} {cid}: {e}" for label, p in runs
            for cid, errs in p.failures.items() for e in errs]


def timed_run(runner: Runner, name: str, seed: int, seconds: float,
              work: Path) -> dict:
    wl = workloads.build(name, seed)
    work.mkdir(parents=True)
    setup, setup_failures = [], []
    for k in range(SETUP_PROBES):
        proc = runner.nvcr(["--version"], work, f"version{k}")
        setup.append(proc.wall_s)
        if proc.code != 0 or not proc.stdout.startswith("nvcr "):
            setup_failures.append(f"--version probe {k}: exit {proc.code}")
    passes: list[Pass] = []
    start = time.monotonic()
    # start a pass only if one more of the last one's length still fits
    while len(passes) < MIN_PASSES or \
            time.monotonic() - start + passes[-1].wall_s <= seconds:
        passes.append(run_pass(runner, wl, work / f"pass{len(passes)}"))
        if len(passes) > 1:
            compare_outputs(passes[0], passes[-1], "pass 0")
    metrics = typical_pass(passes)
    metrics["setup_s"] = statistics.median(setup)
    return {
        "metrics": {m: metrics[m] for m in UNITS},
        "units": UNITS,
        "passes": len(passes),
        "setup_samples_s": setup,
        "pass_wall_s": [p.wall_s for p in passes],
        "command_wall_s": {cid: [p.procs[cid].wall_s for p in passes]
                           for cid in passes[0].procs},
        "attempted": SETUP_PROBES + len(passes) * len(wl.commands),
        "failed": len(setup_failures) + sum(len(p.failures) for p in passes),
        "failures": setup_failures + failure_lines(
            [(f"pass {k}", p) for k, p in enumerate(passes)]),
        "truth": wl.truth,
        "fingerprints": passes[0].fingerprints,
        "sha256": passes[0].hashes,
    }


def traced_run(runner: Runner, name: str, seed: int, work: Path) -> dict:
    """One untraced pass of ``name``, then a traced pass of every workload.

    The named workload's traced pass runs right after its untraced one,
    so that their difference, the tracing overhead, spans little drift.
    """
    wl = workloads.build(name, seed)
    plain = run_pass(runner, wl, work / "untraced")
    order = [name] + [n for n in workloads.WORKLOADS if n != name]
    sweep = {n: run_pass(runner, workloads.build(n, seed),
                         work / f"traced-{n}", traced=True) for n in order}
    compare_outputs(plain, sweep[name], "the untraced pass")
    documents = [doc for p in sweep.values() for doc in p.spans.values()]
    metrics = tracer.layer_metrics(documents)
    metrics["trace.overhead_s"] = sweep[name].wall_s - plain.wall_s
    runs = [("untraced", plain)] + [(f"traced {n}", p)
                                    for n, p in sweep.items()]
    return {
        "metrics": metrics,
        "units": {m: layer_unit(m) for m in metrics},
        "attempted": sum(len(p.procs) for _, p in runs),
        "failed": sum(len(p.failures) for _, p in runs),
        "failures": failure_lines(runs),
        "command_wall_s": {label: {cid: proc.wall_s for cid, proc in
                                   p.procs.items()} for label, p in runs},
        "per_command": {f"{n}/{cid}": {k: v for k, v in
                                       tracer.layer_metrics([doc]).items()
                                       if v}
                        for n, p in sweep.items()
                        for cid, doc in p.spans.items()},
        "truth": wl.truth,
        "fingerprints": plain.fingerprints,
        "sha256": plain.hashes,
    }


def layer_unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith(".bytes"):
        return "bytes"
    if metric.endswith("_frac"):
        return "ratio"
    return "count"


def environment(runner: Runner) -> dict:
    record = {"nproc": os.cpu_count(),
              "cpus_usable": len(os.sched_getaffinity(0)),
              "platform": platform.platform(), "load_model": LOAD_MODEL}
    probe = subprocess.run([sys.executable, str(BENCH / "envinfo.py")],
                           env=runner.env, capture_output=True, text=True,
                           timeout=30)
    record.update(json.loads(probe.stdout) if probe.returncode == 0
                  else {"envinfo_error": probe.stderr.strip()[-300:]})
    record["git_sha"] = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        record["git_sha"] = git.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0")
        digest.update(path.read_bytes())
    record["src_sha256"] = digest.hexdigest()
    return record


def print_report(args, result: dict, detail_path: Path):
    print(f"nvcr benchmark  workload={args.workload} seed={args.seed} "
          f"trace={args.trace}  ({LOAD_MODEL})")
    counts = {"setup_s": f"median of {SETUP_PROBES} probes"}
    if "passes" in result:
        counts.update(dict.fromkeys(
            ("wall_s", "cpu_s", "peak_rss_mb"),
            f"per-command medians of {result['passes']} passes"))
    for metric, value in result["metrics"].items():
        print(f"  {metric:<40} {value:>14.6g} {result['units'][metric]:<6}"
              f" {counts.get(metric, '')}")
    frac = result["failed"] / result["attempted"]
    print(f"  {'failed_frac':<40} {frac:>14.6g} ratio  "
          f"({result['failed']} of {result['attempted']} commands)")
    for line in result["failures"]:
        print(f"  FAILED {line}")
    print(f"  fingerprints: {json.dumps(result['fingerprints'])}")
    print(f"  detail: {detail_path.relative_to(ROOT)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "nvcr" / "cli.py").is_file():
        print(f"bench: no nvcr sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    runner = Runner(time.monotonic() + RUN_BUDGET_S)
    env = environment(runner)
    work = BENCH / "work" / f"{args.workload}-{args.seed}-{args.trace}-" \
                            f"{os.getpid()}"
    try:
        if args.trace:
            result = traced_run(runner, args.workload, args.seed, work)
        else:
            result = timed_run(runner, args.workload, args.seed,
                               args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    detail = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "environment": env, **result}
    detail_path = BENCH / "results" / \
        f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    detail_path.parent.mkdir(exist_ok=True)
    detail_path.write_text(json.dumps(detail, indent=1), encoding="utf-8")
    print_report(args, result, detail_path)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m: {"value": v, "unit": result["units"][m]}
                    for m, v in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
