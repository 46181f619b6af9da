"""Tier-B codebase lint: stdlib-``ast`` rules over ``src/repro``.

Three repo invariants become machine-checked:

* **ACE901** — deterministic modules (``core``, ``perfmodel``,
  ``parallel``, ``ir``) may not call wall-clock time, ``datetime.now``,
  or unseeded RNG constructors/module-level ``random`` functions.
  Monotonic clocks (``time.monotonic``/``perf_counter``) and seeded
  ``random.Random(seed)`` / ``numpy.random.default_rng(seed)`` are
  fine — bit-exact resume and replay (PRs 2–4) depend on exactly this.
* **ACE902/ACE903** — every telemetry emit passes its event name as a
  string literal (or a constant imported from
  :mod:`repro.telemetry.events`), and that name is registered.
* **ACE905** — no bare ``except:`` clauses.

Suppressions: a line ending in ``# lint: allow(ACE902)`` (comma-list
accepted) silences those codes on that line; files in
:data:`DETERMINISM_ALLOWLIST` are exempt from ACE901.  Both mechanisms
are deliberate, greppable opt-outs.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import List, Optional, Union

from .diagnostics import Diagnostic
from .source import (
    ImportMap,
    filter_suppressed,
    module_path_for,
    package_parts_for,
)

#: Top-level ``repro`` subpackages under the determinism contract.
DETERMINISTIC_PACKAGES = ("core", "perfmodel", "parallel", "ir")

#: Repo-relative module paths (posix, below ``repro/``) exempt from
#: ACE901 even though they live in a deterministic package.
DETERMINISM_ALLOWLIST: frozenset = frozenset()

#: Calls banned outright in deterministic modules.
_BANNED_CALLS = {
    "time.time": "wall-clock time",
    "time.time_ns": "wall-clock time",
    "datetime.datetime.now": "wall-clock timestamp",
    "datetime.datetime.utcnow": "wall-clock timestamp",
    "datetime.datetime.today": "wall-clock timestamp",
    "datetime.date.today": "wall-clock date",
}

#: RNG constructors that are fine when (and only when) seeded.
_SEEDED_CONSTRUCTORS = frozenset((
    "random.Random",
    "numpy.random.default_rng",
    "numpy.random.RandomState",
    "numpy.random.SeedSequence",
    "numpy.random.Generator",
    "numpy.random.PCG64",
    "numpy.random.MT19937",
    "numpy.random.Philox",
))

_EVENTS_MODULE_RE = re.compile(r"(?:^|\.)telemetry\.events$")
_EVENTS_CONST_RE = re.compile(r"(?:^|\.)telemetry\.events\.([A-Za-z_0-9]+)$")


class _Analyzer(ast.NodeVisitor):
    def __init__(
        self, filename: str, module_path: str, deterministic: bool
    ) -> None:
        self.filename = filename
        self.module_path = module_path
        self.deterministic = deterministic
        self.diagnostics: List[Diagnostic] = []
        self._imports = ImportMap(package_parts_for(module_path))

    # -- imports -------------------------------------------------------
    def visit_Import(self, node: ast.Import) -> None:
        self._imports.add_import(node)
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        self._imports.add_import_from(node)
        self.generic_visit(node)

    # -- resolution ----------------------------------------------------
    def _resolve(self, node) -> Optional[str]:
        return self._imports.resolve(node)

    def _report(
        self, code: str, message: str, node: ast.AST, hint: str = ""
    ) -> None:
        self.diagnostics.append(Diagnostic(
            code,
            message,
            location=f"{self.filename}:{node.lineno}",
            hint=hint,
        ))

    # -- calls ---------------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        if self.deterministic:
            self._check_determinism(node)
        self._check_emit(node)
        self.generic_visit(node)

    def _check_determinism(self, node: ast.Call) -> None:
        path = self._resolve(node.func)
        if path is None:
            return
        if path in _BANNED_CALLS:
            self._report(
                "ACE901",
                f"{path}() ({_BANNED_CALLS[path]}) in deterministic "
                f"module {self.module_path}",
                node,
                hint="use time.monotonic/perf_counter or thread a seed",
            )
            return
        seeded = bool(node.args) or bool(node.keywords)
        if path in _SEEDED_CONSTRUCTORS:
            if not seeded:
                self._report(
                    "ACE901",
                    f"unseeded {path}() in deterministic module "
                    f"{self.module_path}",
                    node,
                    hint="pass an explicit seed",
                )
            return
        if path == "random.SystemRandom" or path.startswith(
            "random.SystemRandom."
        ):
            self._report(
                "ACE901",
                f"{path} (OS entropy) in deterministic module "
                f"{self.module_path}",
                node,
            )
            return
        for prefix in ("random.", "numpy.random."):
            if path.startswith(prefix):
                self._report(
                    "ACE901",
                    f"module-level {path}() (shared unseeded RNG state) "
                    f"in deterministic module {self.module_path}",
                    node,
                    hint=(
                        "construct a seeded random.Random / "
                        "numpy.random.default_rng instead"
                    ),
                )
                return

    def _check_emit(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute):
            if func.attr != "emit":
                return
        elif isinstance(func, ast.Name):
            if func.id != "emit":
                return
        else:
            return
        name_node = node.args[0] if node.args else None
        if name_node is None:
            for keyword in node.keywords:
                if keyword.arg == "name":
                    name_node = keyword.value
                    break
        if name_node is None:
            return
        if isinstance(name_node, ast.Constant) and isinstance(
            name_node.value, str
        ):
            self._check_registered(name_node.value, name_node)
            return
        constant = self._registry_constant(name_node)
        if constant is not None:
            from ..telemetry import events as registry

            if constant not in registry.CONSTANTS_BY_IDENTIFIER:
                self._report(
                    "ACE903",
                    f"telemetry/events.py has no constant {constant!r}",
                    name_node,
                    hint="add it to repro/telemetry/events.py",
                )
            return
        self._report(
            "ACE902",
            "telemetry emit with a non-literal event name",
            name_node,
            hint=(
                "pass a string literal or a constant imported from "
                "repro.telemetry.events"
            ),
        )

    def _registry_constant(self, node) -> Optional[str]:
        """Identifier when ``node`` reads a registry constant."""
        if isinstance(node, ast.Name):
            dotted = self._imports.names.get(node.id)
            if dotted is not None:
                match = _EVENTS_CONST_RE.search(dotted)
                if match:
                    return match.group(1)
            return None
        if isinstance(node, ast.Attribute):
            base = self._resolve(node.value)
            if base is not None and _EVENTS_MODULE_RE.search(base):
                return node.attr
        return None

    def _check_registered(self, name: str, node: ast.AST) -> None:
        from ..telemetry import events as registry

        if not registry.is_registered(name):
            self._report(
                "ACE903",
                f"event name {name!r} is not in the telemetry registry",
                node,
                hint="register it in repro/telemetry/events.py",
            )

    # -- excepts -------------------------------------------------------
    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if node.type is None:
            self._report(
                "ACE905",
                "bare except clause",
                node,
                hint="catch a concrete exception type (or BaseException)",
            )
        self.generic_visit(node)


def analyze_source(
    source: str,
    filename: str,
    *,
    module_path: Optional[str] = None,
) -> List[Diagnostic]:
    """Run every Tier-B rule over one module's source text.

    ``module_path`` (posix, below ``repro/``) determines which rules
    apply; it is derived from ``filename`` when omitted — tests pass it
    explicitly to lint fixture files as if they lived in the package.
    """
    if module_path is None:
        module_path = module_path_for(filename)
    deterministic = (
        module_path.split("/")[0] in DETERMINISTIC_PACKAGES
        and module_path not in DETERMINISM_ALLOWLIST
    )
    tree = ast.parse(source, filename=filename)
    analyzer = _Analyzer(filename, module_path, deterministic)
    analyzer.visit(tree)
    return filter_suppressed(analyzer.diagnostics, source)


def analyze_file(path: Union[str, Path]) -> List[Diagnostic]:
    """Lint one Python file."""
    path = Path(path)
    return analyze_source(path.read_text(encoding="utf-8"), str(path))


def analyze_tree(root: Union[str, Path]) -> List[Diagnostic]:
    """Lint every ``*.py`` file under ``root`` (or a single file)."""
    root = Path(root)
    if root.is_file():
        return analyze_file(root)
    out: List[Diagnostic] = []
    for path in sorted(root.rglob("*.py")):
        out.extend(analyze_file(path))
    return out
