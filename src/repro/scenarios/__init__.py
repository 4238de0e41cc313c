"""Scenario assembly: the two-site topology and the scripted ICDE demo."""

from repro.scenarios.builders import (DEFAULT_STORAGE_CLASS, Site,
                                      SystemConfig, TwoSiteSystem,
                                      build_system)
from repro.scenarios.business import (BusinessConfig, BusinessProcess,
                                      PVC_LAYOUT, deploy_business_process)
from repro.scenarios.demo import DemoEnvironment, DemoResult, run_demo

__all__ = [
    "BusinessConfig",
    "BusinessProcess",
    "DEFAULT_STORAGE_CLASS",
    "DemoEnvironment",
    "DemoResult",
    "PVC_LAYOUT",
    "Site",
    "SystemConfig",
    "TwoSiteSystem",
    "build_system",
    "deploy_business_process",
    "run_demo",
]
