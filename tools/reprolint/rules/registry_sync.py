"""RL005 -- engine-registry completeness across its three mirrors.

The backend registry (``repro.parallel.backends``, populated by the
``register_backend(...)`` calls in ``repro.parallel.engine``) is
mirrored by hand in three places: the CLI ``--engine`` choices, the
engine table in docs/architecture.md, and the cross-engine parity
matrix in tests/properties/test_engine_matrix.py.  A backend that lands
in the registry but not in a mirror is either uninvocable from the CLI,
undocumented, or -- worst -- unpinned by the parity suite.  This rule
makes the sync machine-checked, so deleting a backend also means
deleting its CLI choice, docs row and matrix arm.

The rule runs in :meth:`finish_project` and activates only when the
registry module was part of the scanned set.  Registered names are the
first-argument string literals of ``register_backend(...)`` calls; each
must appear in:

* the ``choices=[...]`` list of the ``--engine`` ``add_argument`` call
  (parsed from the CLI module's AST);
* the docs engine table (quoted substring match in the markdown);
* the string constants of the engine-matrix test module.

Missing mirror files are themselves findings -- a deleted mirror must
not silently disable the check.
"""

from __future__ import annotations

import ast
from typing import List, Optional, Set

from tools.reprolint.core import Project, Rule


def _registered_backends(tree: ast.AST) -> List[str]:
    """First-arg string literals of every ``register_backend(...)`` call."""
    names: List[str] = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "register_backend"
            and node.args
            and isinstance(node.args[0], ast.Constant)
            and isinstance(node.args[0].value, str)
        ):
            names.append(node.args[0].value)
    return names


def _engine_choices(tree: ast.AST) -> Optional[Set[str]]:
    """The ``choices`` of the ``--engine`` add_argument, if present."""
    for node in ast.walk(tree):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "add_argument"
            and node.args
            and isinstance(node.args[0], ast.Constant)
            and node.args[0].value == "--engine"
        ):
            continue
        for kw in node.keywords:
            if kw.arg == "choices" and isinstance(kw.value, (ast.List, ast.Tuple)):
                return {
                    elt.value
                    for elt in kw.value.elts
                    if isinstance(elt, ast.Constant) and isinstance(elt.value, str)
                }
    return None


def _string_constants(tree: ast.AST) -> Set[str]:
    """Every string literal in ``tree``."""
    return {
        node.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    }


class RegistrySyncRule(Rule):
    """Registered backends must appear in CLI, docs and the test matrix."""

    rule_id = "RL005"
    title = "engine-registry completeness across CLI / docs / test matrix"
    rationale = (
        "A backend registered but missing from a mirror is uninvocable, "
        "undocumented, or unpinned by the parity suite."
    )
    node_types = ()

    def finish_project(self, project: Project) -> None:
        """Cross-check the registry against its mirrors, if scanned."""
        config = project.config
        registry = project.find_module(config.registry_module)
        if registry is None:
            return
        backends = _registered_backends(registry.tree)
        if not backends:
            return

        # --- CLI --engine choices ------------------------------------
        cli_path = config.repo_root / config.cli_module_path
        if not cli_path.exists():
            self.report_resource(
                config.cli_module_path,
                "CLI module missing; cannot verify --engine choices",
            )
        else:
            choices = _engine_choices(ast.parse(cli_path.read_text(encoding="utf-8")))
            if choices is None:
                self.report_resource(
                    config.cli_module_path,
                    "no `--engine` add_argument with literal `choices=` found",
                )
            else:
                for backend in backends:
                    if backend not in choices:
                        self.report(
                            registry,
                            registry.tree,
                            f"backend `{backend}` is registered but missing "
                            f"from the CLI --engine choices "
                            f"({config.cli_module_path})",
                        )

        # --- docs engine table ---------------------------------------
        docs_path = config.repo_root / config.docs_engine_table_path
        if not docs_path.exists():
            self.report_resource(
                config.docs_engine_table_path,
                "docs engine table missing; cannot verify backend docs",
            )
        else:
            docs_text = docs_path.read_text(encoding="utf-8")
            for backend in backends:
                if f'"{backend}"' not in docs_text:
                    self.report(
                        registry,
                        registry.tree,
                        f"backend `{backend}` is registered but absent from "
                        f"the docs engine table "
                        f"({config.docs_engine_table_path})",
                    )

        # --- cross-engine test matrix --------------------------------
        test_path = config.repo_root / config.engine_matrix_test_path
        if not test_path.exists():
            self.report_resource(
                config.engine_matrix_test_path,
                "engine-matrix test missing; cannot verify parity coverage",
            )
        else:
            constants = _string_constants(
                ast.parse(test_path.read_text(encoding="utf-8"))
            )
            for backend in backends:
                if backend not in constants:
                    self.report(
                        registry,
                        registry.tree,
                        f"backend `{backend}` is registered but never named "
                        f"in the cross-engine parity matrix "
                        f"({config.engine_matrix_test_path})",
                    )
