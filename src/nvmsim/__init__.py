"""Secure non-volatile main-memory persist-path simulator.

Models the write path of a memory controller that encrypts data with
split counters, authenticates it with per-block MACs and a Bonsai Merkle
Tree over the counters, and enforces crash-recoverable persist ordering
under strict or epoch persistency.  Four BMT update schedulers are
provided: sequential, pipelined, out-of-order (intra-epoch) and
coalescing.  A crash harness injects power failures and verifies that
recovery always lands on a consistent persist-order prefix.
"""

from .model_core import (
    BLOCK_SIZE,
    PAGE_SIZE,
    BlockAddr,
    GoldenMemory,
    MisalignedAddress,
    SplitCounter,
)
from .crypto import KeySet, decrypt, encrypt, hash_node, mac_tag, verify_mac
from .bmt import BmtGeometry, BmtState, rebuild_from_counters
from .caches import MetadataCache
from .trace import Fence, GenSpec, Store, TraceParseError, generate, parse, render
from .timing import DeadlockError, EventQueue, LatencyConfig, run_until_idle, throughput_probe
from .engine import SCHEMES, SimParams, Simulator
from .crash import CrashPlan, RecoveryReport, Violation, check_prefix_consistency, crash, recover

__version__ = "0.1.0"

__all__ = [
    "BLOCK_SIZE",
    "PAGE_SIZE",
    "BlockAddr",
    "BmtGeometry",
    "BmtState",
    "CrashPlan",
    "DeadlockError",
    "EventQueue",
    "Fence",
    "GenSpec",
    "GoldenMemory",
    "KeySet",
    "LatencyConfig",
    "MetadataCache",
    "MisalignedAddress",
    "RecoveryReport",
    "SCHEMES",
    "SimParams",
    "Simulator",
    "SplitCounter",
    "Store",
    "TraceParseError",
    "Violation",
    "check_prefix_consistency",
    "crash",
    "decrypt",
    "encrypt",
    "generate",
    "hash_node",
    "mac_tag",
    "parse",
    "rebuild_from_counters",
    "recover",
    "render",
    "run_until_idle",
    "throughput_probe",
    "verify_mac",
]
