"""The reachability allowlist cannot rot or grow a free-text excuse:
every line names an existing non-dunder function and gives a reason
from the closed set (``sweep.REASONS``); a *test observation point*
also names at least two test modules that mention the function.  The
sweep itself (``python tests/reachability/sweep.py``, a CI leg) checks
that the listed functions are exactly the unreached ones.
"""

import pytest

from tests.reachability.sweep import REASONS, ROOT, allowlist, defs

LISTED = allowlist()


def test_every_entry_names_an_existing_function():
    assert LISTED
    assert set(LISTED) <= set(defs().values())  # defs() holds no dunders


@pytest.mark.parametrize("name", sorted(LISTED))
def test_reason_comes_from_the_closed_set(name):
    reason, _, detail = LISTED[name].partition(":")
    assert reason.strip() in REASONS
    if reason.strip() == "test observation point":
        modules = [word.strip(",") for word in detail.split()
                   if word.startswith("tests/")]
        assert len(modules) >= 2
        for module in modules:
            assert name.rpartition(".")[2] in (ROOT / module).read_text()
