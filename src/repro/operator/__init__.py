"""The namespace operator (NSO) — the paper's contribution.

* :func:`install_namespace_operator` — install the NSO on a cluster;
* :class:`NamespaceOperatorReconciler` — the reconciler itself;
* :mod:`repro.operator.tags` — the tag vocabulary
  (``ConsistentCopyToCloud`` et al.);
* :mod:`repro.operator.planner` — pure planning logic.
"""

from repro.operator.nso import (NS_STATE_CONFIGURING, NS_STATE_DEGRADED,
                                NS_STATE_NO_VOLUMES, NS_STATE_PROTECTED,
                                NS_STATE_WAITING, OWNED_BY_LABEL,
                                NamespaceOperatorReconciler,
                                install_namespace_operator)
from repro.operator.planner import BackupPlan, plan_backup, plan_differs
from repro.operator.tags import (ANNOTATION_MESSAGE, ANNOTATION_STATE,
                                 ANNOTATION_VOLUMES, TAG_CONSISTENT,
                                 TAG_INDEPENDENT, TAG_KEY, BackupMode,
                                 parse_tag)

__all__ = [
    "ANNOTATION_MESSAGE",
    "ANNOTATION_STATE",
    "ANNOTATION_VOLUMES",
    "BackupMode",
    "BackupPlan",
    "NS_STATE_CONFIGURING",
    "NS_STATE_DEGRADED",
    "NS_STATE_NO_VOLUMES",
    "NS_STATE_PROTECTED",
    "NS_STATE_WAITING",
    "NamespaceOperatorReconciler",
    "OWNED_BY_LABEL",
    "TAG_CONSISTENT",
    "TAG_INDEPENDENT",
    "TAG_KEY",
    "install_namespace_operator",
    "parse_tag",
    "plan_backup",
    "plan_differs",
]
