import os

import pytest

ACCEPTANCE_LINES: list[str] = []


def pytest_configure(config):
    # tests run on at most 2 CPUs, so multi_seed_run starts at most one worker
    # process, here and in the interpreters tests start
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[:2])


@pytest.fixture(scope="session")
def acceptance_record():
    def record(line: str) -> None:
        ACCEPTANCE_LINES.append(line)
    return record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
