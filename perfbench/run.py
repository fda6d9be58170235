"""secrecy-sor benchmark: timed CLI sweeps with a reference check.

Usage, from the root of a checkout (``src/secrecy_sor`` must be there):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``NAME`` is one of ``area_fig5``, ``sop_fig6``, ``mc_validate``,
``cold_keys`` or ``all``.  The seed picks the workload's inputs (see
``workloads.py``).  One client runs a closed loop: each repetition is a
fresh interpreter (``rep.py``) that runs the workload's fixed list of
``secrecy_sor.cli.main`` calls in-process, one after another, so every
repetition pays cold caches and kernel-table builds as a user's run does.
Repetitions continue until ``--seconds`` have passed (at least one runs).

With ``--trace 0`` the run reports the end-to-end metrics: the median
``sweep_norm_s`` (wall time of the invocation list at the reference host
speed, see below), ``setup_s`` (wall time of ``import secrecy_sor.cli``,
median over at least five fresh interpreters) and ``peak_rss_mb`` (the
repetition's ``ru_maxrss``).  With ``--trace 1`` it alternates untraced and
traced repetitions and reports the per-layer metrics from the traced ones
(``spans.py``), plus the raw wall time, the host's slowdown and the tracing
overhead.

The host is a shared machine whose speed drifts by up to 1.9x over minutes,
more than any run that fits the time budget can average out.  Each
repetition therefore also times a fixed probe of interpreter and numpy work
(``rep.probe``) about once a second, and its sweep wall time is divided by
the repetition's slowdown: the median probe time over
``PROBE_REFERENCE_S``.

Every CSV is checked against ``reference.json`` (``check.py``); rows that
fail count in ``failed``, and ``failed / attempted`` is the error rate.
The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Working files go to ``perfbench/_work``.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import check
import workloads

HERE = Path(__file__).resolve().parent
MIN_SETUP_SAMPLES = 5
REP_TIMEOUT_S = 150.0
RUN_LIMIT_S = 160.0
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")
# A round figure near the probe's median wall time on the 2-vCPU Xeon host
# the baseline was measured on: sweep_norm_s is in seconds at that speed.
PROBE_REFERENCE_S = 0.060
_PROBE = ("import time; t = time.perf_counter(); import secrecy_sor.cli; "
          "print(time.perf_counter() - t)")


def _read(path):
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def environment(root):
    """Machine and source identity for the result record."""
    cpu = next((line.split(":", 1)[1].strip()
                for line in _read("/proc/cpuinfo").splitlines()
                if line.startswith("model name")), None)
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob(
            "index*")):
        level = _read(index / "level").strip()
        kind = _read(index / "type").strip()
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"l{level}"] = _read(index / "size").strip()
    commit = None
    if (root / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "secrecy_sor").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "l2": caches.get("l2"), "l3": caches.get("l3"),
            "git_commit": commit, "src_sha256": digest.hexdigest()}


class Runner:
    """Runs and checks the repetitions of one workload."""

    def __init__(self, root, workload, seed, trace):
        self.root = root
        self.trace = trace
        self.work = root / "perfbench" / "_work" / \
            f"{workload}-s{seed}-t{int(trace)}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.planned = workloads.write_manifests(
            workloads.build(workload, seed), self.work)
        self.tables = check.load_reference()
        # one BLAS thread: with --threads 2 the run then uses at most two
        # threads on two cores, and no BLAS thread spins against them
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"),
                        **{v: "1" for v in BLAS_THREAD_VARS})
        self.attempted = self.failed = 0
        self.reps = {False: [], True: []}

    def _child(self, args):
        return subprocess.run([sys.executable, "-s", *args], cwd=self.work,
                              env=self.env, capture_output=True, text=True,
                              timeout=REP_TIMEOUT_S)

    def repetition(self, traced):
        index = sum(len(r) for r in self.reps.values())
        for _, _, out in self.planned:
            out.unlink(missing_ok=True)
        plan = self.work / f"plan{index}.json"
        result_path = self.work / f"rep{index}.json"
        plan.write_text(json.dumps({
            "invocations": [argv for _, argv, _ in self.planned],
            "trace": traced,
            "spans_path": str(self.work / f"spans{index}.jsonl")}))
        started = time.monotonic()
        try:
            proc = self._child([str(HERE / "rep.py"), str(plan),
                                str(result_path)])
        except subprocess.TimeoutExpired:
            proc = None
        wall = time.monotonic() - started
        result = None
        if proc is not None and proc.returncode == 0:
            result = json.loads(result_path.read_text())
            if Path(result["module"]).resolve() != \
                    (self.root / "src" / "secrecy_sor" / "cli.py").resolve():
                result = None
        if result is None:
            sys.stderr.write(proc.stderr[-4000:] if proc else
                             f"repetition timed out after {REP_TIMEOUT_S} s\n")
        counts = self._check(result)
        self.reps[traced].append({"result": result, "wall": wall,
                                  "counts": counts})

    def _check(self, result):
        counts = {"invocations": len(self.planned), "rows": 0,
                  "rows_nan": 0, "warnings": 0}
        by_name = {}
        for i, (inv, _, out) in enumerate(self.planned):
            code = result["codes"][i] if result else -1
            twin = by_name.get(inv.twin)
            twin_bytes = twin.read_bytes() if twin and twin.is_file() else None
            if inv.twin is not None and twin_bytes is None:
                code = -1
            attempted, failed, n_nan, n_warn = check.check_invocation(
                inv, out, code, self.tables, twin_bytes)
            by_name[inv.name] = out
            self.attempted += attempted
            self.failed += failed
            counts["rows"] += attempted
            counts["rows_nan"] += n_nan
            counts["warnings"] += n_warn
        if result:
            for err in result["errors"]:
                sys.stderr.write(err)
        return counts

    def run(self, seconds):
        """Repeat until ``seconds`` have passed.

        Another repetition starts when, at the median repetition time, it
        would end no more than half a repetition past the deadline, so runs
        last ``seconds`` on average whatever a repetition costs.
        """
        deadline = time.monotonic() + seconds
        hard_stop = time.monotonic() + RUN_LIMIT_S
        while True:
            traced = self.trace and \
                len(self.reps[True]) < len(self.reps[False])
            self.repetition(traced)
            done = self.reps[False] and (self.reps[True] or not self.trace)
            walls = [r["wall"] for kind in self.reps.values() for r in kind]
            rep = statistics.median(walls)
            if done and time.monotonic() + rep / 2 > deadline \
                    or time.monotonic() + rep > hard_stop:
                break

    def setup_samples(self):
        samples = [r["result"]["setup_s"] for r in self.reps[False]
                   if r["result"]]
        while len(samples) < MIN_SETUP_SAMPLES:
            proc = self._child(["-c", _PROBE])
            if proc.returncode != 0:
                break
            samples.append(float(proc.stdout.strip()))
        return samples


def _median_of(reps, key):
    values = [r["result"][key] for r in reps if r["result"]]
    return statistics.median(values) if values else None


def slowdown(result):
    """How much slower than the reference the host ran in a repetition."""
    return statistics.median(result["probe_s"]) / PROBE_REFERENCE_S


def _median_norm(reps):
    values = [r["result"]["sweep_s"] / slowdown(r["result"]) for r in reps
              if r["result"]]
    return statistics.median(values) if values else None


def measure(root, workload, seed, seconds, trace):
    """Run one workload.

    Returns (end-to-end metrics, per-layer metrics, record); each metric
    maps a name to (value, unit).  The per-layer metrics are empty unless
    ``trace``.  The record carries everything for the result file.
    """
    load_before = os.getloadavg()
    runner = Runner(root, workload, seed, trace)
    runner.run(seconds)
    untraced, traced = runner.reps[False], runner.reps[True]
    sweep = _median_norm(untraced)
    setup = runner.setup_samples() if not trace else [
        r["result"]["setup_s"] for r in untraced if r["result"]]
    end_to_end = {
        "sweep_norm_s": (sweep, "s"),
        "setup_s": (statistics.median(setup) if setup else None, "s"),
        "peak_rss_mb": (_median_of(untraced, "peak_rss_mb"), "MB")}
    layers = {}
    good = sorted((r for r in traced if r["result"]),
                  key=lambda r: r["result"]["sweep_s"])
    if good and sweep:
        rep = good[len(good) // 2]
        layers = {k: tuple(v) for k, v in rep["result"]["layers"].items()}
        for name, value in rep["counts"].items():
            layers[f"cli.{name}"] = (value, "count")
        layers["run.cpu_s"] = (_median_of(untraced, "cpu_s"), "s")
        layers["run.sweep_wall_s"] = (_median_of(untraced, "sweep_s"), "s")
        layers["run.host_slowdown"] = (statistics.median(
            slowdown(r["result"]) for r in untraced if r["result"]), "ratio")
        layers["run.trace_overhead"] = (
            _median_norm(traced) / sweep - 1.0, "ratio")
    first = next((r["result"] for kind in (untraced, traced) for r in kind
                  if r["result"]), {})
    record = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace, "env": {**environment(root),
                                **first.get("versions", {})},
        "load_before": load_before, "load_after": os.getloadavg(),
        "repetitions": {"untraced": len(untraced), "traced": len(traced)},
        "sweep_s_each": [r["result"]["sweep_s"] for r in untraced
                         if r["result"]],
        "slowdown_each": [slowdown(r["result"]) for r in untraced
                          if r["result"]],
        "setup_s_each": setup,
        "attempted": runner.attempted, "failed": runner.failed,
        "error_rate": runner.failed / max(runner.attempted, 1),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in {**end_to_end, **layers}.items()},
    }
    return end_to_end, layers, record


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "secrecy_sor" / "cli.py").is_file():
        print("perfbench: no src/secrecy_sor/cli.py in the working "
              "directory; run from the root of a secrecy-sor checkout",
              file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" \
        else (args.workload,)
    reported, attempted, failed = {}, 0, 0
    for name in names:
        end_to_end, layers, record = measure(root, name, args.seed,
                                             args.seconds, bool(args.trace))
        attempted += record["attempted"]
        failed += record["failed"]
        prefix = f"{name}." if len(names) > 1 else ""
        for metric, (value, unit) in (layers if args.trace
                                      else end_to_end).items():
            reported[prefix + metric] = (value, unit)
        (root / "perfbench" / "_work" /
         f"result-{name}-s{args.seed}-t{args.trace}.json").write_text(
            json.dumps(record, indent=1))
        print(f"# {name}: seed {args.seed}, "
              f"{record['repetitions']['untraced']} untraced + "
              f"{record['repetitions']['traced']} traced repetitions")
        print(f"{prefix}error_rate = {record['error_rate']:.6g} ratio "
              f"({record['failed']}/{record['attempted']} rows)")
        for metric, (value, unit) in {**end_to_end, **layers}.items():
            print(f"{prefix}{metric} = {value} {unit}")
        print(json.dumps({"env": record["env"],
                          "load_before": record["load_before"],
                          "load_after": record["load_after"]}))
    complete = reported and all(v is not None for v, _ in reported.values())
    print(json.dumps({
        "correct": bool(complete) and failed == 0 and attempted > 0,
        "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in reported.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
