"""RL009 -- handler coroutines never touch a kernel directly.

The timing service's liveness rests on one discipline: the asyncio event
loop only ever does traffic plumbing, and every solve/sweep/ECO runs in a
thread-pool executor (or through the coalescing batcher, which does the
same).  A single ``graph.worst_slack()`` called from an ``async def``
handler would run the whole levelized sweep *on the event loop*, stalling
every connected client for its duration -- correct results, ruined
service; the kind of regression a quick benchmark on a small design never
notices.

So the rule is static and blunt: inside modules of the service package
(``LintConfig.serve_package``), no ``async def`` body may *call* any of
the kernel/ECO entry points in ``LintConfig.serve_kernel_calls``.
References are fine -- ``run_in_executor(None, session.worst_slack)``
passes the bound method as data -- and so are calls inside ``lambda`` or
nested ``def`` bodies, which are deferred thunks by construction.
Synchronous functions (the :class:`~repro.serve.session.Session` compute
methods) are exactly where those calls belong and are not checked.

Name-based like RL008: a handler laundering a kernel call through a
local alias would evade it, but the point is to catch the honest mistake
-- "just call the graph, it's quick" -- not an adversary.
"""

from __future__ import annotations

import ast
from typing import List

from tools.reprolint.core import LintConfig, Module, Rule


def _call_name(func: ast.AST) -> str:
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return ""


def _direct_calls(func: ast.AsyncFunctionDef) -> List[ast.Call]:
    """Calls made by the coroutine itself, skipping deferred-thunk bodies.

    ``lambda`` and nested ``def``/``async def`` subtrees are excluded: a
    call inside them runs when the thunk runs (typically in the executor),
    not on the event loop.  Nested ``async def`` bodies are still checked
    -- just independently, since the module walk visits every coroutine.
    """
    calls: List[ast.Call] = []
    stack: List[ast.AST] = list(ast.iter_child_nodes(func))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Call):
            calls.append(node)
        stack.extend(ast.iter_child_nodes(node))
    return calls


class ServeHandlerRule(Rule):
    """Ban direct kernel/ECO calls from service-package coroutines."""

    rule_id = "RL009"
    title = "serve handlers: no kernel calls on the event loop"
    rationale = (
        "A solve or ECO called directly from an async handler runs the "
        "whole sweep on the event loop, stalling every connected client; "
        "compute must go through the executor or the coalescing batcher."
    )
    node_types = ()

    def finish_module(self, module: Module, config: LintConfig) -> None:
        if config.serve_package not in module.rel:
            return
        banned = set(config.serve_kernel_calls)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.AsyncFunctionDef):
                continue
            for call in sorted(
                _direct_calls(node), key=lambda c: (c.lineno, c.col_offset)
            ):
                name = _call_name(call.func)
                if name in banned:
                    self.report(
                        module,
                        call,
                        f"coroutine `{node.name}` calls kernel/ECO entry "
                        f"point `{name}` directly on the event loop; hand "
                        "it to the executor (`run_in_executor`) or the "
                        "what-if batcher instead",
                    )
