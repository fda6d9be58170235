"""Tier-1 reds check.

Runs the tier-1 suite (``pytest -q --continue-on-collection-errors`` from
the repository root, with ``src`` importable) and exits nonzero unless every
failure is one of the documented reds, failing on its own assertion:

* a test outside ``DOCUMENTED_REDS`` fails, errors in set-up or teardown,
  or a test module fails to collect;
* a documented red fails with an exception other than ``AssertionError``
  (``test_07a`` once died on ``AttributeError`` before reaching its
  assertion, which hid whether the clause still held);
* a documented red passes: its clause now holds, so README, the test's
  docstring and ``DOCUMENTED_REDS`` are out of date.  Only a red whose test
  body ran counts, so ``-k`` filters that deselect the reds stay usable.

Extra arguments go to pytest, e.g. ``python3 tools/check_reds.py -x``.
"""

import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TIER1_ARGS = ["-q", "--continue-on-collection-errors"]
DOCUMENTED_REDS = tuple(
    f"tests/test_acceptance.py::{name}_" for name in
    ("test_04b", "test_05", "test_07a"))


class Recorder:
    """Collects (nodeid, phase, exception name) for every failed report and
    the node ids of the documented reds whose test body passed."""

    def __init__(self):
        self.failures = []
        self.red_passes = []

    @pytest.hookimpl(hookwrapper=True)
    def pytest_runtest_makereport(self, item, call):
        report = (yield).get_result()
        if report.failed:
            exc = call.excinfo.type.__name__ if call.excinfo else None
            self.failures.append((item.nodeid, call.when, exc))

    def pytest_runtest_logreport(self, report):
        if report.when == "call" and report.passed \
                and report.nodeid.startswith(DOCUMENTED_REDS):
            self.red_passes.append(report.nodeid)

    def pytest_collectreport(self, report):
        if report.failed:
            self.failures.append((report.nodeid, "collect", None))


def unexpected(failures):
    """The failures that are not a documented red failing its assertion."""
    return [(nodeid, when, exc) for nodeid, when, exc in failures
            if not (nodeid.startswith(DOCUMENTED_REDS) and when == "call"
                    and exc == "AssertionError")]


def main(argv):
    os.chdir(ROOT)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    recorder = Recorder()
    code = pytest.main(TIER1_ARGS + argv, plugins=[recorder])
    if code not in (pytest.ExitCode.OK, pytest.ExitCode.TESTS_FAILED):
        print(f"check_reds: pytest exited with {code!r}")
        return 1
    bad = unexpected(recorder.failures)
    for nodeid, when, exc in bad:
        print(f"check_reds: unexpected failure in {when}: {nodeid} ({exc})")
    for nodeid in recorder.red_passes:
        print(f"check_reds: documented red passed: {nodeid}; update README, "
              f"the test docstring and DOCUMENTED_REDS")
    reds = len(recorder.failures) - len(bad)
    print(f"check_reds: {reds} documented red(s) failing on their "
          f"assertion, {len(bad)} unexpected failure(s), "
          f"{len(recorder.red_passes)} documented red(s) passing")
    return 1 if bad or recorder.red_passes else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
