import sys
import tracemalloc

from hypothesis import settings

# CI runs with --hypothesis-profile=ci: a fixed example sequence, and the
# blob that replays a failure locally (@reproduce_failure). Local runs keep
# hypothesis's default, randomized profile.
settings.register_profile("ci", derandomize=True, print_blob=True)


def traced_peak(fn) -> int:
    """Peak bytes that Python and numpy allocate while fn() runs.

    tracemalloc counts each allocation exactly, so a bound on it holds on any
    machine, unlike one on the process's resident set.
    """
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def pytest_runtest_logreport(report):
    """One visible pass/fail line per acceptance criterion."""
    if report.when != "call" or "test_acceptance.py" not in report.nodeid:
        return
    name = report.nodeid.split("::")[-1]
    if not name.startswith("test_a"):
        return
    criterion = name.split("_")[1].upper()
    status = "PASS" if report.passed else "FAIL"
    sys.stderr.write(f"[acceptance] {criterion} {status} ({name})\n")
