"""API object model of the simulated container platform.

Objects follow the Kubernetes conventions the namespace operator relies
on: every object has ``metadata`` (name, namespace, labels, resource
version, finalizers, deletion timestamp), a kind string, and free-form
``spec``/``status`` sections modelled as dataclass fields on concrete
resource classes.

The API server stores deep copies, so objects held by controllers are
snapshots — mutating them has no effect until ``update()`` is called,
and stale updates fail with a :class:`~repro.errors.ConflictError`,
exactly the optimistic-concurrency discipline real operators live with.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar, Dict, List, Optional

from repro.errors import InvalidObjectError


@dataclass
class ObjectMeta:
    """Standard object metadata."""

    name: str = ""
    namespace: str = ""
    uid: int = 0
    labels: Dict[str, str] = field(default_factory=dict)
    annotations: Dict[str, str] = field(default_factory=dict)
    resource_version: int = 0
    creation_time: float = 0.0
    deletion_time: Optional[float] = None
    finalizers: List[str] = field(default_factory=list)

    def validate(self, namespaced: bool) -> None:
        """Reject malformed metadata before admission."""
        if not self.name:
            raise InvalidObjectError("metadata.name is required")
        if namespaced and not self.namespace:
            raise InvalidObjectError(
                f"object {self.name!r} requires metadata.namespace")
        if not namespaced and self.namespace:
            raise InvalidObjectError(
                f"cluster-scoped object {self.name!r} must not set "
                "metadata.namespace")

    @property
    def deleting(self) -> bool:
        """True once a delete has been requested (finalizers pending)."""
        return self.deletion_time is not None


@dataclass
class ApiObject:
    """Base class of every resource kind.

    Subclasses set the ``KIND`` and ``NAMESPACED`` class attributes and
    add their spec/status fields.
    """

    KIND: ClassVar[str] = ""
    NAMESPACED: ClassVar[bool] = True

    meta: ObjectMeta = field(default_factory=ObjectMeta)

    @property
    def kind(self) -> str:
        """The object's kind string."""
        return type(self).KIND

    @property
    def key(self) -> "ObjectKey":
        """The (kind, namespace, name) identity of this object."""
        return ObjectKey(self.kind, self.meta.namespace, self.meta.name)

    def validate(self) -> None:
        """Admission validation; subclasses may extend."""
        if not type(self).KIND:
            raise InvalidObjectError(
                f"{type(self).__name__} does not define KIND")
        self.meta.validate(type(self).NAMESPACED)


@dataclass(frozen=True)
class ObjectKey:
    """Identity of an object within one API server."""

    kind: str
    namespace: str
    name: str

    def __str__(self) -> str:
        if self.namespace:
            return f"{self.kind}/{self.namespace}/{self.name}"
        return f"{self.kind}/{self.name}"


@dataclass
class Condition:
    """A typed status condition, as used by operators to report state."""

    type: str
    status: bool
    reason: str = ""
    message: str = ""
    last_transition: float = 0.0


def set_condition(conditions: List[Condition], condition: Condition) -> None:
    """Insert or replace the condition with the same type in place."""
    for index, existing in enumerate(conditions):
        if existing.type == condition.type:
            if existing.status == condition.status and \
                    existing.reason == condition.reason:
                condition.last_transition = existing.last_transition
            conditions[index] = condition
            return
    conditions.append(condition)
