"""Namespace tag vocabulary of the namespace operator (§III-B1).

The paper's user starts a backup by tagging the target namespace with the
value ``ConsistentCopyToCloud`` (Fig 3).  This module defines the tag key,
the recognised values, and the parsing into a :class:`BackupMode`.

Two values are recognised:

* ``ConsistentCopyToCloud`` — the paper's configuration: every volume of
  the namespace replicates inside **one consistency group**;
* ``AsyncCopyToCloud`` — the collapse-prone baseline used by the
  experiments: asynchronous copy with **independent** per-volume
  journals.  The paper's Section I explains why this configuration can
  collapse backup data; keeping it expressible makes the comparison a
  one-label change.
"""

from __future__ import annotations

import enum
from typing import Optional

#: the label key the operator watches on namespaces
TAG_KEY = "backup.hitachi.com/consistency-copy"

#: Fig 3's tag value: ADC inside one consistency group
TAG_CONSISTENT = "ConsistentCopyToCloud"

#: experiment baseline: ADC with independent per-volume journals
TAG_INDEPENDENT = "AsyncCopyToCloud"

#: annotation keys the operator maintains on tagged namespaces
ANNOTATION_STATE = "backup.hitachi.com/state"
ANNOTATION_MESSAGE = "backup.hitachi.com/message"
ANNOTATION_VOLUMES = "backup.hitachi.com/protected-volumes"


class BackupMode(enum.Enum):
    """How a tagged namespace's volumes are replicated."""

    #: one shared journal: the backup cut is a global prefix
    CONSISTENT_GROUP = "consistent-group"
    #: private journals: per-volume prefixes only (collapse-prone)
    INDEPENDENT = "independent"

    @property
    def uses_consistency_group(self) -> bool:
        """True for the paper's configuration."""
        return self is BackupMode.CONSISTENT_GROUP


def parse_tag(value: Optional[str]) -> Optional[BackupMode]:
    """Map a tag value to a backup mode; None for absent/unknown values.

    Unknown values are deliberately ignored rather than rejected: the
    operator must not react to labels owned by other tools.
    """
    if value == TAG_CONSISTENT:
        return BackupMode.CONSISTENT_GROUP
    if value == TAG_INDEPENDENT:
        return BackupMode.INDEPENDENT
    return None
