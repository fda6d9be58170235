"""One timed repetition in a fresh interpreter.

Usage: python3 rep.py PLAN.json RESULT.json

PLAN holds ``argv`` lists for ``secrecy_sor.cli.main`` and ``trace`` (0/1).
The repetition times ``import secrecy_sor.cli``, checks that the kernel
tables start cold, runs every invocation in-process one after another and
writes timings, peak RSS, CPU time and (when traced) per-layer metrics and
spans to RESULT.  ``secrecy_sor`` must come from the ``src`` directory of
the checkout the benchmark runs in (``PYTHONPATH``).

Between invocations, at most once a second and once more at the end, the
repetition times a host-speed probe (``probe``): a fixed slice of
interpreter and numpy work that no change to ``secrecy_sor`` can touch.
``run.py`` scales the sweep's wall time by it.  Probe time is not part of
the sweep time.
"""

import json
import resource
import sys
import time
import traceback
from pathlib import Path


PROBE_EVERY_S = 1.0


def _cpu_s():
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def probe(np):
    """Wall time of a fixed slice of pure-Python and numpy work (~60 ms).

    Both halves run on one thread.  The numpy half works in place on two
    1.6 MB arrays written before the clock starts, so the time does not
    depend on how the allocator was left by the invocations before it.
    """
    x = np.linspace(0.0, 1.0, 200_000)
    buf = x.copy()
    started = time.perf_counter()
    acc = 0
    for i in range(200_000):
        acc += i * i % 7
    for _ in range(60):
        np.multiply(x, -3.0, out=buf)
        np.exp(buf, out=buf)
        acc += float(buf.sum())
    return time.perf_counter() - started


def main(plan_path, result_path):
    t0 = time.perf_counter()
    import secrecy_sor.cli as cli
    setup_s = time.perf_counter() - t0

    import numpy
    import scipy
    from secrecy_sor import crosstalk

    plan = json.loads(Path(plan_path).read_text())
    warm = crosstalk._kernel_tables.cache_info().currsize
    if warm != 0:
        raise SystemExit(f"kernel tables hold {warm} entries before the "
                         "timed repetition; it would not start cold")
    tracer = None
    entry = cli.main
    if plan["trace"]:
        from spans import Tracer
        tracer = Tracer()
        entry = tracer.install()

    codes, inv_s, errors = [], [], []
    cpu_s = 0.0
    probe(numpy)  # warm-up: first calls into numpy's ufuncs
    probes = [probe(numpy)]
    last_probe = time.perf_counter()
    for i, argv in enumerate(plan["invocations"]):
        if tracer is not None:
            tracer.begin_invocation(i)
        cpu = _cpu_s()
        t = time.perf_counter()
        try:
            code = entry(argv)
        except Exception:
            code = -1
            errors.append(traceback.format_exc())
        inv_s.append(time.perf_counter() - t)
        cpu_s += _cpu_s() - cpu
        codes.append(code)
        if time.perf_counter() - last_probe >= PROBE_EVERY_S \
                or i == len(plan["invocations"]) - 1:
            probes.append(probe(numpy))
            last_probe = time.perf_counter()

    result = {
        "setup_s": setup_s, "sweep_s": sum(inv_s), "cpu_s": cpu_s,
        "probe_s": probes,
        "invocation_s": inv_s, "codes": codes, "errors": errors,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "module": cli.__file__,
        "versions": {"python": sys.version.split()[0],
                     "numpy": numpy.__version__, "scipy": scipy.__version__},
    }
    if tracer is not None:
        from spans import layer_metrics
        result["layers"] = layer_metrics(tracer.spans, tracer.tables_built())
        tracer.dump(plan["spans_path"])
    Path(result_path).write_text(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
