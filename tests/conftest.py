import pytest

from radialspec import spectrum, transform

ACCEPTANCE_LINES = []


@pytest.fixture(autouse=True)
def _cold_transform_caches():
    """Start each test with no cached basis set-up and no remembered Parseval
    defect, so a test that counts builds or projections does not depend on
    which test ran before it."""
    spectrum._row_setup.cache_clear()
    transform._last_defect[0] = (None, None)


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for line in ACCEPTANCE_LINES:
        terminalreporter.write_line(line)
