"""repro — reproduction of the ICDE 2025 demonstration paper
"Data Backup System with No Impact on Business Processing Utilizing
Storage and Container Technologies" (S. Watanabe, Hitachi).

The package provides, on fully simulated substrates:

* ``repro.simulation`` — deterministic discrete-event kernel;
* ``repro.storage`` — enterprise storage array (volumes, journals,
  async/sync replication, consistency groups, snapshots);
* ``repro.platform`` — Kubernetes-style container platform;
* ``repro.csi`` — CSI driver + vendor storage/replication plugins;
* ``repro.operator`` — the paper's namespace operator;
* ``repro.apps`` — MiniDB (WAL + 2PC) and the e-commerce/analytics apps;
* ``repro.recovery`` — failover, consistency checking, RPO/RTO;
* ``repro.scenarios`` — two-site system builder and the scripted demo;
* ``repro.bench`` — experiment harness shared by the benchmarks.

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-claim-to-experiment mapping.
"""

__version__ = "1.0.0"

# Convenience re-exports of the most common entry points; subsystem
# packages remain the canonical import locations.
from repro.simulation import Simulator  # noqa: E402
from repro.scenarios import (  # noqa: E402
    BusinessConfig, SystemConfig, build_system,
    deploy_business_process, run_demo)
from repro.operator import (  # noqa: E402
    TAG_CONSISTENT, TAG_INDEPENDENT, TAG_KEY,
    install_namespace_operator)
from repro.recovery import fail_and_recover  # noqa: E402

__all__ = [
    "BusinessConfig",
    "Simulator",
    "SystemConfig",
    "TAG_CONSISTENT",
    "TAG_INDEPENDENT",
    "TAG_KEY",
    "__version__",
    "build_system",
    "deploy_business_process",
    "fail_and_recover",
    "install_namespace_operator",
    "run_demo",
]
