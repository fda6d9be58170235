"""The tier-1 reds check (``tools/check_reds.py``) passes only the
documented reds, and only while they fail on their own assertion."""

import importlib.util
from pathlib import Path
from types import SimpleNamespace

_PATH = Path(__file__).resolve().parents[1] / "tools" / "check_reds.py"
_SPEC = importlib.util.spec_from_file_location("check_reds", _PATH)
check_reds = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(check_reds)

RED = "tests/test_acceptance.py::test_07a_side_lobe_areas_below_bound"


def test_documented_red_on_its_assertion_passes():
    assert check_reds.unexpected([(RED, "call", "AssertionError")]) == []


def test_other_failures_are_flagged():
    failures = [
        (RED, "call", "AttributeError"),
        ("tests/test_acceptance.py::test_04a_area_scheme_ordering", "call",
         "AssertionError"),
        ("tests/test_acceptance.py::test_04b_uniform_opt_halves_the_area",
         "setup", "ValueError"),
        ("tests/test_alloc.py", "collect", None),
    ]
    assert check_reds.unexpected(failures) == failures


def test_documented_red_that_passes_is_recorded():
    recorder = check_reds.Recorder()
    other = "tests/test_alloc.py::test_algorithm2_beats_uniform_optimum"
    for nodeid, when in [(RED, "setup"), (RED, "call"), (RED, "teardown"),
                         (other, "call")]:
        recorder.pytest_runtest_logreport(
            SimpleNamespace(nodeid=nodeid, when=when, passed=True))
    # a red deselected by -k reports nothing, and a failing one is not a
    # pass
    recorder.pytest_runtest_logreport(
        SimpleNamespace(nodeid=RED, when="call", passed=False))
    assert recorder.red_passes == [RED]
