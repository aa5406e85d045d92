import sys

from hypothesis import settings

# CI runs with --hypothesis-profile=ci: a fixed example sequence, and the
# blob that replays a failure locally (@reproduce_failure). Local runs keep
# hypothesis's default, randomized profile.
settings.register_profile("ci", derandomize=True, print_blob=True)


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
