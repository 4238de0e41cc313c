"""The kill list: mutants the executable specification must catch.

Each mutant is a one-line edit of one pipeline function, recompiled
from that function's source and monkeypatched onto its class; the state
machine of ``test_replication_spec.py``, run at the ``soak`` profile's
size with fresh draws, must then fail within ``BUDGET``.  A pipeline
change is accepted when the spec and this list are green.  Not collected
by tier-1 (the name does not match ``test_*.py``); run it with::

    PYTHONPATH=src python -m pytest -q tests/spec/kill_list.py
"""

import inspect
import textwrap
import time

import pytest
from hypothesis import HealthCheck, Phase, settings
from hypothesis.stateful import run_state_machine_as_test

from repro.storage.adc import JournalGroup
from repro.storage.array import StorageArray
from repro.storage.reduction import WireReducer
from tests.spec.test_replication_spec import ReplicationSpec

#: wall-clock seconds a mutant must be killed in
BUDGET = 60.0

#: ``(name, owner, function, source as written, mutated source)``
REQUIRED = [
    ("batch window applied newest-first", JournalGroup, "_apply_window",
     "for index, entry in enumerate(window):",
     "for index, entry in reversed(list(enumerate(window))):"),
    ("one-entry window installs before its media wait", JournalGroup,
     "_apply_window", "delay = target.apply_delay(rows)",
     "delay = target.apply_delay(rows); target.install_blocks(rows); "
     "rows = ()"),
    ("wire coalescing keeps the first writer", JournalGroup,
     "_coalesce_batch",
     "survivor[(entry.volume_id, entry.block)] = entry.sequence",
     "survivor.setdefault((entry.volume_id, entry.block), entry.sequence)"),
    ("main journal trimmed at ship", JournalGroup, "_prepare_shipment",
     "return _Shipment(",
     "self.main_journal.pop_through(batch[-1].sequence); return _Shipment("),
    ("in-flight shipments kept after a failed head", JournalGroup,
     "_transfer_loop_windowed", "inflight.clear()", "pass"),
    ("restore-window conflict keeps the first writer", JournalGroup,
     "_apply_window", "early[surviving.pop(address)[0]] = _APPLY_COALESCED",
     "early[index] = _APPLY_COALESCED; continue"),
    ("initial copies flip newest pending first", JournalGroup,
     "_update_copy_states", "pending.pop(0)", "pending.pop()"),
    ("restored_sequence set to the window's first sequence", JournalGroup,
     "_restore_loop", "self.restored_sequence = last",
     "self.restored_sequence = window[0].sequence"),
    ("coalesced-batch restore rule reverted", JournalGroup,
     "_receive_batch", "elif len(ship) < len(batch):", "elif False:"),
    ("cut stamped with transferred_sequence", StorageArray,
     "create_snapshot_group", "restore_group.restored_sequence",
     "restore_group.transferred_sequence"),
]

#: equivalent under the spec's current rules (no faults): tried, not
#: required — each needs a fault rule to tell it apart
EQUIVALENT = [
    ("reducer commits its caches at send", WireReducer, "encode_batch",
     "pending[fingerprint] = payload",
     "pending[fingerprint] = payload; self.sender.put(fingerprint, "
     "payload); self.receiver.put(fingerprint, payload)"),
    ("stale test > for >=", JournalGroup, "_apply_target",
     "if svol.versions.get(entry.block, 0) >= entry.version:",
     "if svol.versions.get(entry.block, 0) > entry.version:"),
]


def mutate(monkeypatch, owner, name, original, mutated):
    """Recompile ``owner.name`` with its one occurrence of ``original``
    replaced and monkeypatch the result in."""
    function = owner.__dict__[name]
    source = inspect.getsource(getattr(function, "__func__", function))
    assert source.count(original) == 1, (name, original)
    namespace = {}
    code = compile(textwrap.dedent(source.replace(original, mutated)),
                   inspect.getsourcefile(owner), "exec")
    exec(code, inspect.getmodule(owner).__dict__, namespace)
    monkeypatch.setattr(owner, name, namespace[name])


def survives() -> bool:
    """Run the state machine at the soak size, with fresh draws each
    time, until it fails (False) or ``BUDGET`` seconds pass (True)."""
    deadline = time.monotonic() + BUDGET
    while time.monotonic() < deadline:
        try:
            run_state_machine_as_test(ReplicationSpec, settings=settings(
                settings.get_profile("soak"), database=None,
                phases=[Phase.generate], print_blob=False,
                suppress_health_check=list(HealthCheck)))
        except Exception:  # noqa: BLE001 - any failure kills the mutant
            return False
    return True


@pytest.mark.parametrize("mutant", REQUIRED, ids=[m[0] for m in REQUIRED])
def test_the_spec_kills(mutant, monkeypatch):
    mutate(monkeypatch, *mutant[1:])
    assert not survives(), f"mutant survived: {mutant[0]}"


@pytest.mark.parametrize("mutant", EQUIVALENT,
                         ids=[m[0] for m in EQUIVALENT])
def test_the_spec_tries(mutant, monkeypatch):
    mutate(monkeypatch, *mutant[1:])
    if survives():
        pytest.skip(f"equivalent under the fault-free rules: {mutant[0]}")
