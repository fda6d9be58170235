"""Record the reference tables that ``check.py`` compares against.

Usage, from the root of a checkout:

    python3 perfbench/record_reference.py [WORKLOAD ...]

Runs every input any seed of the named workloads (default: all) can pick
through ``secrecy_sor.cli.main`` and stores the CSV rows in
``reference.json``, keyed by reference table and first column.  Tables of
workloads not named are kept.  Prints each invocation's wall time, which
is what the workload pools were balanced on.
"""

import json
import sys
import tempfile
import time
from pathlib import Path

import check
import workloads


def main(names):
    sys.path.insert(0, str(Path.cwd() / "src"))
    import secrecy_sor.cli as cli

    path = check.REFERENCE_PATH
    doc = json.loads(path.read_text()) if path.is_file() else {"tables": {}}
    with tempfile.TemporaryDirectory(dir=Path(__file__).parent) as tmp:
        for name in names or workloads.WORKLOADS:
            doc["tables"] = {k: v for k, v in doc["tables"].items()
                             if not k.startswith(f"{name}/")}
            for inv, argv, out in workloads.write_manifests(
                    workloads.pool(name), Path(tmp)):
                started = time.perf_counter()
                if cli.main(argv) != 0:
                    raise SystemExit(f"{inv.name} failed")
                print(f"{inv.name}: {time.perf_counter() - started:.2f} s",
                      flush=True)
                _, rows = check.read_csv(out)
                doc["tables"][inv.ref] = {row[0]: row[1:] for row in rows}
    # one table per line keeps the file diffable
    lines = ",\n".join(f"{json.dumps(k)}: {json.dumps(v, sort_keys=True)}"
                        for k, v in sorted(doc["tables"].items()))
    path.write_text('{"tables": {\n' + lines + "\n}}\n")


if __name__ == "__main__":
    main(sys.argv[1:])
