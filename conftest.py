import pytest

from radialspec import quadrature, resolvent, spectrum, transform

ACCEPTANCE_LINES = []


@pytest.fixture(autouse=True)
def _cold_caches():
    """Start each test, under tests/ and perfbench/ alike, with no cached
    basis set-up, no remembered Parseval defect, no cached resolvent set-up
    and no cached quadrature rule, so a test that counts builds, projections,
    rules, nodes or traced calls does not depend on which test ran before
    it."""
    spectrum._row_setup.cache_clear()
    transform._last_defect[0] = (None, None)
    resolvent._kernel_setup.cache_clear()
    quadrature._cached_rule.cache_clear()


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for line in ACCEPTANCE_LINES:
        terminalreporter.write_line(line)
