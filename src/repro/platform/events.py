"""Platform events: the operator's observable audit trail.

Kubernetes operators surface progress as Event objects attached to the
resources they manage; the demo console shows them to the user.  The
namespace operator and the replication plugin record events on state
transitions, so the "screen" of the demonstration can narrate what the
automation is doing (Figs 3-4's storyline) without the user reading
controller logs.

Events deduplicate the Kubernetes way: re-recording the same
(involved object, reason) increments a count instead of creating a new
object.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import ClassVar

from repro.errors import InvalidObjectError
from repro.platform.apiserver import ApiServer
from repro.platform.objects import ApiObject, ObjectKey


@dataclass
class PlatformEvent(ApiObject):
    """One recorded event (kind name ``Event`` on the API surface)."""

    KIND: ClassVar[str] = "Event"
    NAMESPACED: ClassVar[bool] = True

    #: "Kind/namespace/name" of the object the event is about
    involved: str = ""
    reason: str = ""
    message: str = ""
    #: the controller that recorded it
    source: str = ""
    count: int = 1
    first_seen: float = 0.0
    last_seen: float = 0.0

    def validate(self) -> None:
        super().validate()
        if not self.reason:
            raise InvalidObjectError("events need a reason")
        if not self.involved:
            raise InvalidObjectError("events need an involved object")

    def __str__(self) -> str:
        suffix = f" (x{self.count})" if self.count > 1 else ""
        return (f"[{self.last_seen:10.6f}] {self.reason}: "
                f"{self.message}{suffix}  ({self.involved})")


def _event_name(involved: str, reason: str) -> str:
    digest = zlib.crc32(f"{involved}:{reason}".encode())
    return f"evt-{digest:08x}"


def record_event(api: ApiServer, namespace: str, involved: ObjectKey,
                 reason: str, message: str, source: str) -> PlatformEvent:
    """Record (or de-duplicate into) an event about ``involved``."""
    involved_ref = str(involved)
    name = _event_name(involved_ref, reason)
    existing = api.try_get(PlatformEvent, name, namespace)
    if existing is not None:
        existing.count += 1
        existing.last_seen = api.sim.now
        existing.message = message
        return api.update(existing)
    event = PlatformEvent()
    event.meta.name = name
    event.meta.namespace = namespace
    event.involved = involved_ref
    event.reason = reason
    event.message = message
    event.source = source
    event.first_seen = api.sim.now
    event.last_seen = api.sim.now
    return api.create(event)
