"""Rule registry for reprolint.

Each rule lives in its own module and registers itself here.  To add a
rule: write a :class:`tools.reprolint.core.Rule` subclass with a fresh
``RL0xx`` id, import it below, and append it to :data:`RULE_CLASSES` --
the dispatcher, suppression machinery, baseline and reporters pick it up
with no further wiring.
"""

from __future__ import annotations

from typing import List, Type

from tools.reprolint.core import Rule
from tools.reprolint.rules.bench_oracle import BenchOracleRule
from tools.reprolint.rules.cache_invalidation import CacheInvalidationRule
from tools.reprolint.rules.dtype_discipline import DtypeDisciplineRule
from tools.reprolint.rules.kernel_purity import KernelPurityRule
from tools.reprolint.rules.memmap_lifetime import MemmapLifetimeRule
from tools.reprolint.rules.registry_sync import RegistrySyncRule
from tools.reprolint.rules.serve_handlers import ServeHandlerRule

#: Every shipped rule, in id order.
RULE_CLASSES: List[Type[Rule]] = [
    KernelPurityRule,
    DtypeDisciplineRule,
    CacheInvalidationRule,
    RegistrySyncRule,
    BenchOracleRule,
    MemmapLifetimeRule,
    ServeHandlerRule,
]


def all_rules() -> List[Rule]:
    """Fresh instances of every registered rule (rules carry findings)."""
    return [cls() for cls in RULE_CLASSES]


__all__ = [
    "RULE_CLASSES",
    "all_rules",
    "KernelPurityRule",
    "DtypeDisciplineRule",
    "CacheInvalidationRule",
    "RegistrySyncRule",
    "BenchOracleRule",
    "MemmapLifetimeRule",
    "ServeHandlerRule",
]
