"""reprolint: an AST-based invariant checker for this repository's contracts.

The engine stack (flat -> graph -> scenarios -> parallel -> contraction)
rests on correctness rules that used to live only in prose: kernel modules
must not loop over the node/scenario axes in Python, cache-bearing classes
must invalidate on every mutating write, the engine registry must stay in
sync with the CLI / docs / test matrix, and every benchmark must pin itself
to a parity oracle in the same run it measures.  ``reprolint`` turns each
of those conventions into a machine-checked rule over the stdlib
:mod:`ast` -- no third-party dependencies -- and runs as a CI gate.

Usage::

    python -m tools.reprolint [--json] [--baseline] paths...

The checker walks every ``.py`` file under the given paths exactly once,
dispatching AST nodes to the registered rules (:mod:`tools.reprolint.rules`),
applies inline suppressions (``# reprolint: disable=RL00x``) and the
committed baseline (``tools/reprolint/baseline.json`` with ``--baseline``),
and exits nonzero on new findings.

Rules shipped (see each module under ``tools/reprolint/rules/`` for the
full rationale):

========  ===============================================================
RL001     kernel purity: no Python ``for``/``while`` over node/scenario
          axes inside kernel solve/sweep functions
RL002     explicit ``dtype=`` on array allocations in kernel modules; no
          ``.tolist()`` / ``float()`` scalarization in hot kernel paths
RL004     cache-invalidation contract: mutating methods of the
          cache-bearing classes must invalidate (declarative table)
RL005     engine-registry completeness: registered backends must appear
          in the CLI ``--engine`` choices, the docs engine table and the
          cross-engine test matrix
RL006     oracle pinning: every ``benchmarks/bench_*.py`` test that
          measures must assert against its oracle in the same run
========  ===============================================================
"""

from tools.reprolint.core import (
    Finding,
    LintConfig,
    LintResult,
    Module,
    Project,
    Rule,
    run_paths,
)

__all__ = [
    "Finding",
    "LintConfig",
    "LintResult",
    "Module",
    "Project",
    "Rule",
    "run_paths",
]
