"""The local-DP system substrate (paper Fig. 2(b)): devices that only
emit privatized reports, the untrusted aggregation server, and a fleet
simulation harness."""

from .device import Device
from .fleet import FleetResult, run_fleet
from .ledger import DisclosureLedger, fleet_device_id
from .protocol import Report
from .server import AggregationServer, EpochSummary

__all__ = [
    "Device",
    "FleetResult",
    "run_fleet",
    "DisclosureLedger",
    "fleet_device_id",
    "Report",
    "AggregationServer",
    "EpochSummary",
]
