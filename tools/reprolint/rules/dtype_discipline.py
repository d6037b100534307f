"""RL002 -- dtype discipline in kernel modules.

Two checks, both scoped to the kernel modules
(:attr:`LintConfig.kernel_modules`):

* Every ``np.empty`` / ``np.zeros`` / ``np.ones`` / ``np.full`` call
  must pass an explicit ``dtype=``.  The planes these allocate are the
  element/result planes the shards write into; a dtype left to numpy's
  default works today but breaks bitwise parity the moment a platform or
  numpy release changes the default.  ``*_like`` allocators are exempt --
  they inherit their dtype from an existing plane, which is the point.
* Inside kernel *functions*, ``.tolist()`` and ``float(...)``
  scalarization are flagged: both drop from the vectorized plane to
  Python objects in a hot path.  (Outside kernel functions they are
  fine -- reporting code wants Python floats.)
"""

from __future__ import annotations

import ast

from tools.reprolint.core import Context, LintConfig, Module, Rule


def _call_name(func: ast.AST) -> str:
    """The trailing identifier of a call target (``np.zeros`` -> ``zeros``)."""
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return ""


def _is_numpy_attr(func: ast.AST) -> bool:
    """True for ``np.<x>`` / ``numpy.<x>`` attribute call targets."""
    return (
        isinstance(func, ast.Attribute)
        and isinstance(func.value, ast.Name)
        and func.value.id in ("np", "numpy")
    )


class DtypeDisciplineRule(Rule):
    """Require explicit dtypes and forbid hot-path scalarization."""

    rule_id = "RL002"
    title = "explicit dtype on kernel allocations; no hot-path scalarization"
    rationale = (
        "Shared-memory planes must have a pinned dtype for bitwise parity "
        "and buffer-size arithmetic; .tolist()/float() in kernels drop to "
        "Python objects mid-sweep."
    )
    node_types = (ast.Call,)

    def applies_to(self, module: Module, config: LintConfig) -> bool:
        """Only the kernel modules are in scope."""
        return any(module.matches(suffix) for suffix in config.kernel_modules)

    def visit(self, node: ast.AST, ctx: Context) -> None:
        """Check allocator calls module-wide, scalarization in kernels."""
        assert isinstance(node, ast.Call)
        name = _call_name(node.func)
        if name in ctx.config.alloc_functions and _is_numpy_attr(node.func):
            if not any(kw.arg == "dtype" for kw in node.keywords):
                self.report(
                    ctx.module,
                    node,
                    f"`np.{name}` without an explicit `dtype=` in a kernel "
                    "module; element/result planes must pin their dtype",
                )
            return
        in_kernel = bool(
            set(ctx.function_names()) & set(ctx.config.kernel_functions)
        )
        if not in_kernel:
            return
        if name == "tolist" and isinstance(node.func, ast.Attribute):
            self.report(
                ctx.module,
                node,
                "`.tolist()` inside a kernel function materializes Python "
                "objects in a hot path",
            )
        elif (
            isinstance(node.func, ast.Name)
            and node.func.id == "float"
            and node.args
        ):
            self.report(
                ctx.module,
                node,
                "`float(...)` scalarization inside a kernel function; keep "
                "values on the numpy plane",
            )
