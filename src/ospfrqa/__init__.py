"""OSPF anomaly detection with recurrence quantification analysis."""

__version__ = "0.1.0"
