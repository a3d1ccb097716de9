"""In-order core support (Section 6, "In-Order Cores and ROB-Style
Register Renaming")."""

from repro.inorder.core import InOrderCore, InOrderStats
from repro.inorder.value_csq import CsqLog, ValueCsq, ValueCsqEntry
from repro.inorder.processor import InOrderPersistentProcessor

__all__ = [
    "CsqLog",
    "InOrderCore",
    "InOrderPersistentProcessor",
    "InOrderStats",
    "ValueCsq",
    "ValueCsqEntry",
]
