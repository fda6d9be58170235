"""SHA-256 digests of every benchmark and figure CSV.

Usage, from any directory:

    python3 tools/csv_digests.py OUTDIR

Writes, into ``OUTDIR``, the CSV (and manifest) of every invocation in the
benchmark's reference pools (``perfbench.workloads.pool``), the Monte Carlo
``--threads 2`` twins, and ``reproduce fig2``, ``fig2 --both-alpha`` and
``fig3`` to ``fig6``: 136 CSVs.  Prints one ``sha256  name`` line per CSV,
so two checkouts compare with ``diff``; ``tools/csv_digests.sha256`` holds
the expected lines.  Every call runs in this process with one BLAS thread.
Progress lines from the CLI go to stderr.
"""

import hashlib
import os
import sys
from pathlib import Path

# before numpy is imported: a second BLAS thread only adds CPU time
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402
from secrecy_sor.cli import main as cli_main  # noqa: E402

FIGURES = (("fig2",), ("fig2", "--both-alpha"), ("fig3",), ("fig4",),
           ("fig5",), ("fig6",))


def invocations():
    """Every pool invocation, then the Monte Carlo twins."""
    out = [inv for name in workloads.WORKLOADS
           for inv in workloads.pool(name)]
    return out + [inv for inv in workloads.build("mc_validate", 0)
                  if inv.twin is not None]


def run(argv):
    code = cli_main(argv)
    if code != 0:
        raise SystemExit(f"secrecy-sor {' '.join(argv)} exited {code}")


def main(outdir):
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    csvs = []
    for _, argv, out_path in workloads.write_manifests(invocations(), outdir):
        run(argv)
        csvs.append(out_path)
    for figure in FIGURES:
        out_path = outdir / ("_".join(figure).replace("--", "") + ".csv")
        run(["reproduce", *figure, "--out", str(out_path)])
        csvs.append(out_path)
    for path in csvs:
        print(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.name}")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        raise SystemExit(__doc__)
    main(sys.argv[1])
