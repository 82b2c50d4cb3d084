"""Concurrency/shared-state analyzer — rules X101-X106.

:mod:`repro.parallel` promises that parallel design runs are
bit-identical to serial ones.  That promise only holds if the callables
submitted to executors are *effectively pure*: a function that mutates a
module global or a captured instance produces backend-dependent results
(threads interleave, processes silently mutate pickled copies).  This
analyzer makes the contract checkable: it builds a package-wide module
index, finds every ``executor.map(fn, ...)`` submission site, resolves
``fn`` through a name-based interprocedural call graph, and flags shared
mutation anywhere in the reachable code.

Rules:

* ``X101`` — a parallel-submitted function (or anything it calls)
  mutates a module-level global;
* ``X102`` — a parallel-submitted function mutates captured instance or
  closure state (``self.x = ...``, mutating calls on ``self``-rooted
  attribute chains, ``nonlocal`` rebinding);
* ``X103`` — cache write (``CostCache`` / ``BuildSideCache`` /
  ``IndexManager``: ``store`` / ``invalidate`` / ``ensure`` / ``clear``)
  outside the known invalidation-site modules;
* ``X104`` — nondeterministically seeded RNG: ``random.Random()`` with
  no arguments, or an argument-less ``.seed()`` call;
* ``X105`` — ``time.sleep`` outside obs/benchmarks (schedulers run on
  the logical tick clock, never the wall clock);
* ``X106`` — raw ``threading`` / ``multiprocessing`` /
  ``concurrent.futures`` primitives outside :mod:`repro.parallel` and
  :mod:`repro.obs` (all other code must go through the executor API).

The analysis is conservative by construction: names it cannot resolve
are skipped, so every finding points at code that *definitely* matches
the pattern.  Findings in deliberately-shared structures (the
``CostCache`` GIL-sharing contract) are suppressed in place with
justifying ``# lint: ignore[...]`` comments.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.errors import LintError
from repro.lint.code import Suppressions
from repro.lint.diagnostics import (
    Diagnostic,
    LintReport,
    Location,
    Severity,
    fingerprint_of,
    get_rule,
    register_rule,
    rules_for,
)

#: Methods that mutate their receiver in place.
MUTATING_METHODS = {
    "append", "extend", "add", "update", "insert", "remove", "discard",
    "pop", "popitem", "clear", "setdefault", "sort", "reverse",
}

#: Cache-owner attribute names whose write methods X103 guards.
CACHE_ATTRS = {"build_cache", "indexes"}

#: Cache write methods (reads like ``lookup``/``get`` are always fine).
CACHE_WRITE_METHODS = {"store", "invalidate", "ensure", "clear"}

#: Module path suffixes allowed to write caches: the owners themselves
#: plus the documented invalidation sites (docs/lint.md lists them).
CACHE_SITE_SUFFIXES = (
    "repro/executor/physical.py",   # BuildSideCache owner
    "repro/executor/indexes.py",    # IndexManager owner
    "repro/executor/engine.py",     # engine wires its own caches
    "repro/warehouse/warehouse.py", # load / update sites
    "repro/resilience/scheduler.py",  # refresh commit invalidation
    "repro/cdc/streaming.py",       # streaming delta commit invalidation
)

#: Raw concurrency primitives X106 bans outside repro.parallel/repro.obs.
RAW_PRIMITIVES = {
    "Thread", "Lock", "RLock", "Semaphore", "BoundedSemaphore", "Event",
    "Condition", "Barrier", "Timer", "Process", "Pool",
    "ThreadPoolExecutor", "ProcessPoolExecutor",
}

#: Modules whose own internals are exempt from submission analysis and
#: X106 (the executor layer IS the sanctioned primitive user) — and the
#: obs layer, whose thread-local tracing state is synchronization, not
#: shared business state.
PRIMITIVE_EXEMPT_SUFFIXES = ("repro/parallel", "repro/obs")

#: Path fragments exempt from X105 (same contract as C104's exemption).
SLEEP_EXEMPT_PARTS = ("obs", "benchmarks")


def _attr_chain(node: ast.AST) -> Optional[List[str]]:
    """``self.cache.store`` -> ["self", "cache", "store"]; None when the
    chain contains anything but names/attributes."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return list(reversed(parts))
    return None


@dataclass
class FunctionInfo:
    """One function or method in the package index."""

    name: str  # "func" or "Class.method"
    module: "ModuleInfo"
    node: ast.AST  # FunctionDef / AsyncFunctionDef / Lambda
    class_name: Optional[str] = None

    @property
    def qualname(self) -> str:
        return f"{self.module.dotted}:{self.name}"

    @property
    def is_method(self) -> bool:
        return self.class_name is not None


@dataclass
class ModuleInfo:
    """One parsed module: AST plus the name-resolution indexes."""

    path: str  # display path, e.g. "repro/mvpp/cost.py"
    dotted: str  # "repro.mvpp.cost"
    tree: ast.Module
    source_lines: List[str]
    suppressions: Suppressions
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)
    classes: Dict[str, Set[str]] = field(default_factory=dict)
    module_globals: Set[str] = field(default_factory=set)
    imports: Dict[str, str] = field(default_factory=dict)

    def location(self, node: ast.AST) -> Location:
        return Location(
            file=self.path,
            line=getattr(node, "lineno", None),
            column=getattr(node, "col_offset", None),
        )


def _index_module(
    path: str, dotted: str, source: str
) -> ModuleInfo:
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as error:
        raise LintError(f"cannot parse {path}: {error}") from error
    info = ModuleInfo(
        path=path,
        dotted=dotted,
        tree=tree,
        source_lines=source.splitlines(),
        suppressions=Suppressions.parse(source),
    )
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            info.functions[node.name] = FunctionInfo(node.name, info, node)
        elif isinstance(node, ast.ClassDef):
            methods = set()
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    methods.add(item.name)
                    key = f"{node.name}.{item.name}"
                    info.functions[key] = FunctionInfo(
                        key, info, item, class_name=node.name
                    )
            info.classes[node.name] = methods
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for target in targets:
                if isinstance(target, ast.Name):
                    info.module_globals.add(target.id)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                info.imports[alias.asname or alias.name.split(".")[0]] = (
                    alias.name
                )
        elif isinstance(node, ast.ImportFrom):
            if node.module and node.level == 0:
                for alias in node.names:
                    info.imports[alias.asname or alias.name] = (
                        f"{node.module}.{alias.name}"
                    )
    return info


@dataclass
class PackageContext:
    """The package-wide index the concurrency/effect rules analyze."""

    modules: Dict[str, ModuleInfo] = field(default_factory=dict)  # by dotted

    @classmethod
    def build(cls, files: Sequence[Tuple[str, str, str]]) -> "PackageContext":
        """``files`` is (display_path, dotted_module, source) triples."""
        ctx = cls()
        for path, dotted, source in files:
            ctx.modules[dotted] = _index_module(path, dotted, source)
        return ctx

    @classmethod
    def from_package(cls, package_root: Path, base: Path) -> "PackageContext":
        files = []
        for file_path in sorted(package_root.rglob("*.py")):
            display = file_path.relative_to(base)
            dotted = ".".join(display.with_suffix("").parts)
            if dotted.endswith(".__init__"):
                dotted = dotted[: -len(".__init__")]
            files.append(
                (str(display), dotted, file_path.read_text(encoding="utf-8"))
            )
        return cls.build(files)

    # ---------------------------------------------------------- resolution
    def resolve_function(
        self, module: ModuleInfo, name: str
    ) -> Optional[FunctionInfo]:
        """A bare name to a function: local first, then via imports."""
        if name in module.functions:
            return module.functions[name]
        imported = module.imports.get(name)
        if imported and "." in imported:
            target_module, _, attr = imported.rpartition(".")
            info = self.modules.get(target_module)
            if info is not None:
                return info.functions.get(attr)
        return None

    def resolve_method(
        self, module: ModuleInfo, method: str
    ) -> Optional[FunctionInfo]:
        """``obj.method`` for a non-self receiver: resolve through the
        classes visible in ``module`` (defined or imported).  Only an
        *unambiguous* match resolves — two visible classes sharing the
        method name yield None."""
        candidates: List[FunctionInfo] = []
        for class_name, methods in module.classes.items():
            if method in methods:
                candidates.append(module.functions[f"{class_name}.{method}"])
        for local, dotted in module.imports.items():
            target_module, _, attr = dotted.rpartition(".")
            info = self.modules.get(target_module)
            if info is not None and attr in info.classes:
                if method in info.classes[attr]:
                    candidates.append(info.functions[f"{attr}.{method}"])
        if len(candidates) == 1:
            return candidates[0]
        return None

    def reachable(self, start: FunctionInfo) -> List[FunctionInfo]:
        """BFS over the name-resolved call graph from ``start``."""
        seen: Set[str] = {start.qualname}
        queue = [start]
        order = [start]
        while queue:
            current = queue.pop(0)
            module = current.module
            for node in ast.walk(current.node):
                if not isinstance(node, ast.Call):
                    continue
                target: Optional[FunctionInfo] = None
                if isinstance(node.func, ast.Name):
                    target = self.resolve_function(module, node.func.id)
                elif isinstance(node.func, ast.Attribute) and isinstance(
                    node.func.value, ast.Name
                ):
                    receiver = node.func.value.id
                    if receiver == "self" and current.class_name:
                        key = f"{current.class_name}.{node.func.attr}"
                        target = module.functions.get(key)
                if target is not None and target.qualname not in seen:
                    seen.add(target.qualname)
                    queue.append(target)
                    order.append(target)
        return order

    # ---------------------------------------------------------- submissions
    def submissions(self) -> List[Tuple[ModuleInfo, ast.Call, FunctionInfo]]:
        """Every ``executor.map(fn, ...)`` site with a resolved ``fn``.

        Detection is by receiver name: a ``.map()`` call on a name
        containing ``executor`` is a submission.  The executor layer's
        own internal ``pool.map`` plumbing is exempt.
        """
        out = []
        for module in self.modules.values():
            if module.path.startswith("repro/parallel"):
                continue
            for node in ast.walk(module.tree):
                if not (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "map"
                    and isinstance(node.func.value, ast.Name)
                    and "executor" in node.func.value.id.lower()
                    and node.args
                ):
                    continue
                fn = node.args[0]
                target: Optional[FunctionInfo] = None
                if isinstance(fn, ast.Name):
                    target = self.resolve_function(module, fn.id)
                elif isinstance(fn, ast.Attribute) and isinstance(
                    fn.value, ast.Name
                ):
                    if fn.value.id == "self":
                        enclosing = self._enclosing_class(module, node)
                        if enclosing:
                            target = module.functions.get(
                                f"{enclosing}.{fn.attr}"
                            )
                    else:
                        target = self.resolve_method(module, fn.attr)
                elif isinstance(fn, ast.Lambda):
                    target = FunctionInfo("<lambda>", module, fn)
                if target is not None:
                    out.append((module, node, target))
        return out

    @staticmethod
    def _enclosing_class(module: ModuleInfo, node: ast.AST) -> Optional[str]:
        for top in module.tree.body:
            if isinstance(top, ast.ClassDef):
                for descendant in ast.walk(top):
                    if descendant is node:
                        return top.name
        return None


# ---------------------------------------------------------------------------
# mutation detection inside one function
# ---------------------------------------------------------------------------
def _local_names(fn_node: ast.AST) -> Set[str]:
    """Parameters and locally-bound names (which shadow module globals)."""
    out: Set[str] = set()
    args = getattr(fn_node, "args", None)
    if args is not None:
        for arg in (
            list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
        ):
            out.add(arg.arg)
        if args.vararg:
            out.add(args.vararg.arg)
        if args.kwarg:
            out.add(args.kwarg.arg)
    declared_global: Set[str] = set()
    for node in ast.walk(fn_node):
        if isinstance(node, ast.Global):
            declared_global.update(node.names)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            out.add(node.id)
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            for target in ast.walk(node.target):
                if isinstance(target, ast.Name):
                    out.add(target.id)
    return out - declared_global


def _global_mutations(
    fn: FunctionInfo,
) -> Iterator[Tuple[ast.AST, str, str]]:
    """(node, global name, kind) for each module-global mutation in ``fn``."""
    module_globals = fn.module.module_globals
    locals_ = _local_names(fn.node)
    declared_global: Set[str] = set()
    for node in ast.walk(fn.node):
        if isinstance(node, ast.Global):
            declared_global.update(node.names)
    for node in ast.walk(fn.node):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for target in targets:
                if isinstance(target, ast.Name) and target.id in declared_global:
                    yield node, target.id, "rebinds"
                elif isinstance(target, (ast.Subscript, ast.Attribute)):
                    chain = _attr_chain(target)
                    base = None
                    if chain:
                        base = chain[0]
                    elif isinstance(target, ast.Subscript) and isinstance(
                        target.value, ast.Name
                    ):
                        base = target.value.id
                    if (
                        base
                        and base in module_globals
                        and base not in locals_
                    ):
                        yield node, base, "writes into"
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in MUTATING_METHODS
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id in module_globals
            and node.func.value.id not in locals_
        ):
            yield node, node.func.value.id, f".{node.func.attr}() mutates"


def _instance_mutations(fn: FunctionInfo) -> Iterator[Tuple[ast.AST, str]]:
    """(node, description) for captured-state mutations in ``fn``."""
    for node in ast.walk(fn.node):
        if isinstance(node, ast.Nonlocal):
            yield node, f"rebinds closure variable(s) {', '.join(node.names)}"
        if not fn.is_method and fn.name != "<lambda>":
            continue
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for target in targets:
                chain = _attr_chain(
                    target.value if isinstance(target, ast.Subscript) else target
                )
                if chain and chain[0] == "self" and len(chain) > 1:
                    if isinstance(target, ast.Subscript):
                        yield node, f"writes into self.{'.'.join(chain[1:])}"
                    else:
                        yield node, f"assigns self.{'.'.join(chain[1:])}"
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in MUTATING_METHODS
        ):
            chain = _attr_chain(node.func.value)
            if chain and chain[0] == "self":
                yield (
                    node,
                    f".{node.func.attr}() mutates "
                    f"self.{'.'.join(chain[1:])}",
                )


# ---------------------------------------------------------------------------
# rules
# ---------------------------------------------------------------------------
@register_rule(
    "X101",
    scope="concurrency",
    severity=Severity.ERROR,
    summary="parallel-submitted code mutates a module global",
    paper="PR 2 determinism contract: parallel == serial, bit-identical",
)
def check_global_mutation(ctx: PackageContext) -> Iterator[Diagnostic]:
    rule = get_rule("X101")
    for module, site, target in ctx.submissions():
        for fn in ctx.reachable(target):
            for node, name, kind in _global_mutations(fn):
                yield rule.diagnostic(
                    f"{fn.qualname} {kind} module global {name!r} while "
                    f"submitted to an executor at {module.path}:"
                    f"{site.lineno}",
                    location=fn.module.location(node),
                    hint="pass state in through the payload and return "
                    "results instead of mutating shared state",
                )


@register_rule(
    "X102",
    scope="concurrency",
    severity=Severity.ERROR,
    summary="parallel-submitted code mutates captured instance/closure state",
    paper="process executors mutate pickled copies; threads interleave",
)
def check_captured_mutation(ctx: PackageContext) -> Iterator[Diagnostic]:
    rule = get_rule("X102")
    for module, site, target in ctx.submissions():
        for fn in ctx.reachable(target):
            for node, description in _instance_mutations(fn):
                yield rule.diagnostic(
                    f"{fn.qualname} {description} while submitted to an "
                    f"executor at {module.path}:{site.lineno}",
                    location=fn.module.location(node),
                    hint="return the value and apply it on the submitting "
                    "side, or document the GIL-atomicity contract with a "
                    "suppression",
                )


@register_rule(
    "X103",
    scope="concurrency",
    severity=Severity.ERROR,
    summary="cache write outside the known invalidation sites",
    paper="stale CostCache/BuildSideCache entries silently corrupt costs",
)
def check_cache_writes(ctx: PackageContext) -> Iterator[Diagnostic]:
    rule = get_rule("X103")
    for module in ctx.modules.values():
        if module.path.endswith(CACHE_SITE_SUFFIXES):
            continue
        for node in ast.walk(module.tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in CACHE_WRITE_METHODS
            ):
                continue
            chain = _attr_chain(node.func.value)
            if not chain or chain[-1] not in CACHE_ATTRS:
                continue
            yield rule.diagnostic(
                f"{'.'.join(chain)}.{node.func.attr}() writes a shared "
                f"cache outside the registered invalidation sites",
                location=module.location(node),
                hint="route the write through the cache owner "
                "(warehouse/scheduler/engine) or register the module in "
                "CACHE_SITE_SUFFIXES with a review",
            )


@register_rule(
    "X104",
    scope="concurrency",
    severity=Severity.ERROR,
    summary="RNG constructed or re-seeded without an explicit seed",
    paper="DesignConfig.seed must fully determine randomized behavior",
)
def check_unseeded_rng(ctx: PackageContext) -> Iterator[Diagnostic]:
    rule = get_rule("X104")
    for module in ctx.modules.values():
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call) or node.args or node.keywords:
                continue
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr == "Random"
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "random"
            ):
                yield rule.diagnostic(
                    "random.Random() with no arguments seeds from the OS — "
                    "runs become unreproducible",
                    location=module.location(node),
                    hint="thread the config seed: random.Random(seed)",
                )
            elif (
                isinstance(node.func, ast.Attribute)
                and node.func.attr == "seed"
            ):
                yield rule.diagnostic(
                    "argument-less .seed() re-seeds from the OS",
                    location=module.location(node),
                    hint="pass the config seed explicitly",
                )


@register_rule(
    "X105",
    scope="concurrency",
    severity=Severity.ERROR,
    summary="wall-clock sleep on scheduler/adaptive code",
    paper="RefreshScheduler runs on the logical tick clock (PR 4)",
)
def check_wall_sleep(ctx: PackageContext) -> Iterator[Diagnostic]:
    rule = get_rule("X105")
    for module in ctx.modules.values():
        if any(part in SLEEP_EXEMPT_PARTS for part in Path(module.path).parts):
            continue
        for node in ast.walk(module.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "sleep"
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id in ("time", "asyncio")
            ):
                yield rule.diagnostic(
                    f"{node.func.value.id}.sleep() blocks on the wall "
                    f"clock; schedulers advance logical ticks",
                    location=module.location(node),
                    hint="advance the tick clock instead of sleeping",
                )


@register_rule(
    "X106",
    scope="concurrency",
    severity=Severity.ERROR,
    summary="raw threading/multiprocessing primitive outside repro.parallel",
    paper="all fan-out goes through the executor API (PR 2)",
)
def check_raw_primitives(ctx: PackageContext) -> Iterator[Diagnostic]:
    rule = get_rule("X106")
    for module in ctx.modules.values():
        if module.path.startswith(PRIMITIVE_EXEMPT_SUFFIXES):
            continue
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name: Optional[str] = None
            if (
                isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id
                in ("threading", "multiprocessing", "futures", "concurrent")
            ):
                name = node.func.attr
            elif isinstance(node.func, ast.Name):
                imported = module.imports.get(node.func.id, "")
                if imported.startswith(
                    ("threading.", "multiprocessing.", "concurrent.futures.")
                ):
                    name = node.func.id
            if name in RAW_PRIMITIVES:
                yield rule.diagnostic(
                    f"raw concurrency primitive {name} constructed outside "
                    f"repro.parallel",
                    location=module.location(node),
                    hint="use resolve_executor()/Executor.map so backends "
                    "stay swappable and deterministic",
                )


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------
def _attach_fingerprints(
    diagnostics: List[Diagnostic], ctx: PackageContext
) -> List[Diagnostic]:
    lines_by_path = {
        module.path: module.source_lines for module in ctx.modules.values()
    }
    counts: Dict[Tuple[str, str, str], int] = {}
    out = []
    for diagnostic in diagnostics:
        location = diagnostic.location
        context = ""
        if (
            location.file in lines_by_path
            and location.line is not None
            and 1 <= location.line <= len(lines_by_path[location.file])
        ):
            context = " ".join(
                lines_by_path[location.file][location.line - 1].split()
            )
        key = (diagnostic.rule, location.file or "", context)
        index = counts.get(key, 0)
        counts[key] = index + 1
        out.append(
            replace(
                diagnostic,
                fingerprint=fingerprint_of(
                    diagnostic.rule, location.file or "", context, str(index)
                ),
            )
        )
    return out


def lint_package_scope(ctx: PackageContext, scope: str) -> LintReport:
    """Run every rule of a package-level scope over a built context."""
    report = LintReport(target=f"{scope} analysis over {len(ctx.modules)} modules")
    raw: List[Diagnostic] = []
    for rule in rules_for(scope):
        for diagnostic in rule.check(ctx):
            module = next(
                (
                    m
                    for m in ctx.modules.values()
                    if m.path == diagnostic.location.file
                ),
                None,
            )
            if module is not None and module.suppressions.covers(
                diagnostic.location.line, diagnostic.rule
            ):
                report.suppressed += 1
            else:
                raw.append(diagnostic)
    report.diagnostics = _attach_fingerprints(raw, ctx)
    return report


def lint_concurrency(ctx: PackageContext) -> LintReport:
    """Run the X1xx rules over a package context."""
    return lint_package_scope(ctx, "concurrency")
