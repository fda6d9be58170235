"""Reference check for benchmark outputs.

Every CSV row is looked up in ``reference.json`` by its first column (the
swept value, or ``theta_deg`` for ``sor-map``) and compared column by
column.  The tolerances are no looser than the tier-1 frozen-value tests:
probabilities and jamming fractions to 1e-9 absolute (``test_sop``,
``test_alloc``), areas and radii to 1e-6 relative (``test_04a``).  Monte
Carlo estimates must lie within 3 binomial standard errors of the
closed form, with the standard error taken at the closed-form ``p`` as in
``test_mc`` and ``test_06c`` (the CSV's ``binom_se`` column uses the
empirical ``p`` and is ignored).

A row fails when any value is ``nan``, when a value misses its rule, or
when the reference has no such row.
"""

import csv
import json
import math
from pathlib import Path

REFERENCE_PATH = Path(__file__).with_name("reference.json")

# The 100 m row of fig5, frozen in tests/test_acceptance.py::test_04a as
# (no_jam, uniform, algo2, algo3) areas, held to 1e-6 relative.
FROZEN_AREA_100M = {"no_jam": 3394.76126, "uniform": 934.990078,
                    "algo2": 254.613435, "algo3": 254.613435}
FROZEN_AREA_KEY = "100"


def load_reference():
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)["tables"]


def read_csv(path):
    """(header, rows) of a CLI CSV; rows are lists of strings."""
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def value_ok(rule, got, want, closed=None):
    """Whether ``got`` (float) passes ``rule`` against ``want`` (float).

    ``closed`` is the reference closed-form SOP, used by the Monte Carlo
    rule in place of ``want``.
    """
    if math.isnan(got):
        return False
    kind, param = rule
    if kind == "abs":
        return abs(got - want) <= param
    if kind == "rel":
        return abs(got - want) <= param * abs(want)
    if kind == "mc3se":
        p = closed
        return abs(got - p) <= 3.0 * math.sqrt(p * (1.0 - p) / param)
    raise ValueError(f"unknown rule {kind!r}")


def row_ok(header, row, ref_row, tols):
    """Whether one CSV row passes every column rule.

    ``ref_row`` holds the reference fields after the key column, in CSV
    order; columns without a rule (``warning``, ``binom_se``) are skipped,
    but a ``nan`` in any numeric column fails the row.
    """
    if ref_row is None or len(row) != len(header):
        return False
    fields = dict(zip(header[1:], row[1:]))
    ref = dict(zip(header[1:], ref_row))
    for column, text in fields.items():
        if column == "warning":
            continue
        try:
            got = float(text)
        except ValueError:
            return False
        if math.isnan(got):
            return False
        rule = tols.get(column)
        if rule is None:
            continue
        closed = float(ref["sop_closed"]) if rule[0] == "mc3se" else None
        if not value_ok(rule, got, float(ref[column]), closed):
            return False
    return True


def check_invocation(inv, csv_path, returncode, tables, twin_bytes=None):
    """(rows attempted, rows failed, rows with nan, rows with warnings).

    A nonzero exit, a missing CSV, a short CSV or a CSV that differs from
    its twin (the same manifest at another thread count) fails every row.
    """
    expected = inv.expected_rows()
    if returncode != 0 or not Path(csv_path).is_file():
        return expected, expected, 0, 0
    header, rows = read_csv(csv_path)
    if twin_bytes is not None and Path(csv_path).read_bytes() != twin_bytes:
        return expected, expected, 0, 0
    table = tables.get(inv.ref, {})
    failed = max(expected - len(rows), 0)
    n_nan = n_warn = 0
    for row in rows:
        if any(v == "nan" for v in row[1:-1]):
            n_nan += 1
        if row and row[-1]:
            n_warn += 1
        ok = row_ok(header, row, table.get(row[0]), inv.tols)
        if ok and inv.ref.startswith("area_fig5/") \
                and row[0] == FROZEN_AREA_KEY:
            scheme = inv.ref.split("/", 1)[1]
            ok = value_ok(("rel", 1e-6), float(row[header.index("objective")]),
                          FROZEN_AREA_100M[scheme])
        failed += not ok
    return max(expected, len(rows)), failed, n_nan, n_warn
