"""The rule engine: registry, file contexts, pragmas and the runner.

Design
------
* A :class:`Rule` owns one invariant.  It declares which files it applies
  to (via glob patterns resolved against the :class:`LintConfig`) and
  yields :class:`~repro.analysis.diagnostics.Diagnostic` records from one
  parsed file.
* The registry is a module-level dict populated by the
  :func:`register_rule` decorator; :mod:`repro.analysis.rules` imports
  every rule module so ``import repro.analysis`` is enough to get the
  full set.
* Rules never read configuration globals: everything scope- or
  allowlist-shaped lives on the :class:`LintConfig` handed to
  :func:`lint_paths`, so the fixture corpus can run the same rules under
  a corpus-scoped config (see ``tests/analysis/``).

Pragmas
-------
``# reprolint: disable=RL001`` (comma-separated codes, or ``all``) on a
line suppresses matching diagnostics *on that line only*;
``# reprolint: disable-file=RL001`` anywhere in the file suppresses for
the whole file.  Every suppression is counted — ``scripts/lint_gate.py``
ratchets the total against ``scripts/lint_budget.json`` so the escape
hatch cannot silently grow.
"""

from __future__ import annotations

import ast
import io
import json
import re
import tokenize
from dataclasses import dataclass, field
from fnmatch import fnmatchcase
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Sequence, Type

from .callgraph import CallGraph
from .diagnostics import Diagnostic

__all__ = [
    "FileContext",
    "LintConfig",
    "LintResult",
    "PragmaSet",
    "ProjectContext",
    "Rule",
    "all_rules",
    "attach_decorator_pragmas",
    "count_pragmas",
    "get_rule",
    "lint_paths",
    "register_rule",
]

#: matches ``reprolint: disable=RL001,RL002`` and the ``disable-file=``
#: form (always inside a comment token; see :func:`parse_pragmas`)
_PRAGMA_RE = re.compile(
    r"#\s*reprolint:\s*(disable(?:-file)?)\s*=\s*([A-Za-z0-9_,\s]+)"
)


@dataclass(frozen=True)
class LintConfig:
    """Project configuration: per-rule scopes and allowlists.

    All patterns are :mod:`fnmatch` globs matched case-sensitively
    against the file's repo-root-relative posix path (``*`` crosses
    ``/``, so ``src/repro/core/*.py`` covers the whole subtree).
    """

    #: RL001 — kernel-boundary module glob → numpy attributes (dotted,
    #: without the alias: ``"zeros"``, ``"add.at"``) that remain legal
    #: glue there.  Anything else must route through the kernel backend.
    kernel_boundary: dict[str, frozenset[str]] = field(default_factory=dict)
    #: RL002 — globs where direct transport access is *legitimate* (the
    #: machine layer itself plus the recovery transport virtualisation)
    transport_exempt: tuple[str, ...] = ()
    #: RL002 — globs the rule patrols (typically ``src/**``)
    transport_scope: tuple[str, ...] = ()
    #: RL003 — globs holding distribution schemes to protocol-check
    scheme_scope: tuple[str, ...] = ()
    #: RL004 — wire-format / cost-model module globs that must be
    #: bit-deterministic
    determinism_scope: tuple[str, ...] = ()
    #: RL005 — globs the obs-transparency rule patrols
    obs_scope: tuple[str, ...] = ()
    #: RL005 — globs allowed to hold module-level obs state (``obs/``)
    obs_exempt: tuple[str, ...] = ()
    #: RL006 — CLI modules bound to the hardened exit contract
    cli_scope: tuple[str, ...] = ()
    #: RL007/RL008 — globs whose ``async def`` bodies are held to the
    #: event-loop contract (no blocking calls, no spin loops)
    async_scope: tuple[str, ...] = ()
    #: RL007 — dotted names that block the calling thread outright
    #: (matched after import-alias expansion: ``t.sleep`` → ``time.sleep``)
    blocking_calls: frozenset[str] = frozenset()
    #: RL007 — method names assumed blocking on *unresolved* receivers
    #: (the call graph's assume-worst policy: ``conn.recv()`` on an
    #: unknown ``conn`` is treated as a socket read)
    blocking_suspects: frozenset[str] = frozenset()
    #: RL007 — project ``Class.method`` / ``module.func`` suffixes that
    #: are blocking by contract regardless of what their bodies resolve
    #: to (``RunSession.run`` joins rank workers three layers down)
    blocking_roots: frozenset[str] = frozenset()
    #: RL010 — globs patrolled for ``@rank_task`` purity
    task_scope: tuple[str, ...] = ()
    #: RL010 — task registry names exempted after review (each entry
    #: must argue in config.py why charge replay stays byte-identical)
    task_purity_allow: frozenset[str] = frozenset()
    #: RL011 — fork-spawning modules that must stay thread-free
    fork_scope: tuple[str, ...] = ()
    #: files the engine never parses (fixture corpora of seeded
    #: violations, generated trees, …)
    exclude: tuple[str, ...] = ()

    def matches(self, path: str, patterns: Iterable[str]) -> bool:
        """True when ``path`` matches any glob in ``patterns``."""
        return any(fnmatchcase(path, pat) for pat in patterns)


@dataclass(frozen=True)
class PragmaSet:
    """Parsed suppression pragmas of one file."""

    #: line number → codes disabled on that line (``{"ALL"}`` = every rule)
    by_line: dict[int, frozenset[str]]
    #: codes disabled for the whole file
    file_wide: frozenset[str]

    @property
    def count(self) -> int:
        """How many disable pragmas the file carries (the budget unit)."""
        return len(self.by_line) + len(self.file_wide)

    def suppresses(self, diag: Diagnostic) -> bool:
        """True when ``diag`` is silenced by a pragma."""
        if "ALL" in self.file_wide or diag.code in self.file_wide:
            return True
        codes = self.by_line.get(diag.line, frozenset())
        return "ALL" in codes or diag.code in codes


def parse_pragmas(source: str) -> PragmaSet:
    """Scan ``source`` for ``# reprolint:`` pragmas.

    Tokenize-based: only genuine comment tokens carry pragmas, so the
    pragma *syntax* can be quoted in docstrings, test strings and
    documentation without spending budget.  Files that fail to tokenize
    yield whatever pragmas preceded the error (they will separately be
    reported as RL000 parse errors).
    """
    by_line: dict[int, frozenset[str]] = {}
    file_wide: set[str] = set()
    tokens = tokenize.generate_tokens(io.StringIO(source).readline)
    try:
        for tok in tokens:
            if tok.type != tokenize.COMMENT:
                continue
            match = _PRAGMA_RE.search(tok.string)
            if match is None:
                continue
            kind = match.group(1)
            codes = frozenset(
                c.strip().upper()
                for c in match.group(2).split(",")
                if c.strip()
            )
            if not codes:
                continue
            if kind == "disable-file":
                file_wide.update(codes)
            else:
                by_line[tok.start[0]] = codes
    except (tokenize.TokenError, IndentationError, SyntaxError):
        pass
    return PragmaSet(by_line=by_line, file_wide=frozenset(file_wide))


def attach_decorator_pragmas(pragmas: PragmaSet, tree: ast.Module) -> PragmaSet:
    """Extend line pragmas on decorators to cover the decorated ``def``.

    A pragma written on a decorator line (``@rank_task("x")  # reprolint:
    disable=RL010``) used to bind to the decorator's own line, while the
    diagnostic for a decorated ``def``/``class`` is reported at the
    ``def`` line — so the suppression silently missed.  This maps every
    decorator-line pragma onto the definition line it visually annotates.
    The returned set is for *suppression only*: the pragma budget counts
    the original, unexpanded pragmas.
    """
    if not pragmas.by_line:
        return pragmas
    by_line = dict(pragmas.by_line)
    changed = False
    for node in ast.walk(tree):
        if not isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ) or not node.decorator_list:
            continue
        codes: set[str] = set()
        for deco in node.decorator_list:
            for line in range(deco.lineno, (deco.end_lineno or deco.lineno) + 1):
                codes.update(by_line.get(line, frozenset()))
        if codes:
            by_line[node.lineno] = frozenset(
                by_line.get(node.lineno, frozenset()) | codes
            )
            changed = True
    if not changed:
        return pragmas
    return PragmaSet(by_line=by_line, file_wide=pragmas.file_wide)


@dataclass
class FileContext:
    """One parsed file handed to every applicable rule.

    ``path`` is repo-root-relative posix; ``tree`` is the parsed
    :class:`ast.Module`.  The parse is done once per file and shared by
    all rules.
    """

    path: str
    source: str
    tree: ast.Module
    config: LintConfig

    def matches(self, patterns: Iterable[str]) -> bool:
        """Path-scope check against ``patterns`` (fnmatch globs)."""
        return self.config.matches(self.path, patterns)

    def walk(self) -> Iterator[ast.AST]:
        """All nodes of the file's tree (cached ``ast.walk`` order)."""
        return ast.walk(self.tree)


@dataclass
class ProjectContext:
    """Everything an interprocedural rule sees: all files + the graph.

    Built once per :func:`lint_paths` run, only when a selected rule
    declares ``requires_project`` — the per-file tier never pays for the
    index.  ``graph`` spans *every* parsed file (not just one rule's
    scope) so a scoped entry point can follow calls into helper modules
    anywhere in the tree.
    """

    config: LintConfig
    files: list[FileContext]
    graph: CallGraph

    def scoped(self, patterns: Iterable[str]) -> Iterator[FileContext]:
        """The files matching ``patterns`` (a rule's entry-point scope)."""
        pats = tuple(patterns)
        for ctx in self.files:
            if self.config.matches(ctx.path, pats):
                yield ctx


class Rule:
    """Base class for one lint rule.

    Subclasses set the class attributes and implement :meth:`check`;
    :meth:`applies` defaults to True (the rule sees every file) and is
    usually overridden with a :class:`LintConfig` scope test.
    """

    #: stable rule code ("RL001" …); also the pragma handle
    code: str = "RL000"
    #: short kebab name for catalogues ("kernel-boundary")
    name: str = "abstract"
    #: one-line description of the protected invariant
    summary: str = ""
    #: the paper section / PR contract the rule protects
    protects: str = ""
    #: True for interprocedural rules: the engine skips per-file
    #: :meth:`check` and calls :meth:`check_project` once with the
    #: whole-tree :class:`ProjectContext` instead
    requires_project: bool = False

    def applies(self, ctx: FileContext) -> bool:
        """Whether this rule should run over ``ctx`` at all."""
        return True

    def check(self, ctx: FileContext) -> Iterable[Diagnostic]:
        """Yield diagnostics for one file."""
        raise NotImplementedError

    def check_project(self, project: ProjectContext) -> Iterable[Diagnostic]:
        """Yield diagnostics over the whole tree (project rules only)."""
        raise NotImplementedError

    def diag(
        self, ctx: FileContext, node: ast.AST, message: str, hint: str = ""
    ) -> Diagnostic:
        """Build a diagnostic at ``node``'s location."""
        return self.diag_at(ctx.path, node, message, hint)

    def diag_at(
        self, path: str, node: ast.AST, message: str, hint: str = ""
    ) -> Diagnostic:
        """Build a diagnostic at ``node`` in ``path`` (project rules)."""
        return Diagnostic(
            path=path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            code=self.code,
            message=message,
            hint=hint,
        )

    def __repr__(self) -> str:
        return f"<Rule {self.code} {self.name}>"


#: the global rule registry (code → rule instance)
_REGISTRY: dict[str, Rule] = {}


def register_rule(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding one rule to the registry (idempotent)."""
    rule = cls()
    if not re.fullmatch(r"RL\d{3}", rule.code):
        raise ValueError(f"rule code must look like RL001, got {rule.code!r}")
    _REGISTRY[rule.code] = rule
    return cls


def all_rules() -> tuple[Rule, ...]:
    """Every registered rule, sorted by code."""
    return tuple(_REGISTRY[c] for c in sorted(_REGISTRY))


def get_rule(code: str) -> Rule:
    """Look one rule up by code; raise ``KeyError`` with the choices."""
    try:
        return _REGISTRY[code.upper()]
    except KeyError:
        raise KeyError(
            f"unknown rule {code!r} (choose from {', '.join(sorted(_REGISTRY))})"
        ) from None


@dataclass
class LintResult:
    """Outcome of one engine run."""

    diagnostics: list[Diagnostic]
    suppressed: list[Diagnostic]
    files_checked: int
    pragma_count: int
    parse_errors: list[Diagnostic] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        """True when no live diagnostics (suppressed ones don't count)."""
        return not self.diagnostics and not self.parse_errors

    def render(self) -> str:
        """Human text report, one diagnostic per line + a summary line."""
        lines = [d.render() for d in self.parse_errors + self.diagnostics]
        if lines:
            lines.append(
                f"repro lint: {len(self.diagnostics) + len(self.parse_errors)} "
                f"problem(s) in {self.files_checked} files "
                f"({len(self.suppressed)} suppressed by pragma)"
            )
        else:
            lines.append(
                f"repro lint: clean ({self.files_checked} files, "
                f"{len(all_rules())} rules, "
                f"{len(self.suppressed)} suppressed by pragma)"
            )
        return "\n".join(lines)

    def to_dict(self) -> dict[str, Any]:
        """The ``repro lint --json`` payload."""
        return {
            "clean": self.clean,
            "files_checked": self.files_checked,
            "pragma_count": self.pragma_count,
            "rules": [
                {
                    "code": r.code,
                    "name": r.name,
                    "summary": r.summary,
                    "protects": r.protects,
                }
                for r in all_rules()
            ],
            "diagnostics": [d.to_dict() for d in self.diagnostics],
            "suppressed": [d.to_dict() for d in self.suppressed],
            "parse_errors": [d.to_dict() for d in self.parse_errors],
        }

    def to_json(self) -> str:
        """Stable-key JSON text of :meth:`to_dict`."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


def iter_python_files(
    paths: Sequence[Path], root: Path, config: LintConfig
) -> Iterator[tuple[Path, str]]:
    """``(absolute_path, relative_posix)`` for every lintable file.

    Directories are walked recursively in sorted order; files excluded
    by ``config.exclude`` are skipped.
    """
    for base in paths:
        candidates = sorted(base.rglob("*.py")) if base.is_dir() else [base]
        for file in candidates:
            try:
                rel = file.resolve().relative_to(root.resolve()).as_posix()
            except ValueError:
                rel = file.as_posix()
            if config.matches(rel, config.exclude):
                continue
            yield file, rel


def _parse_one(
    file: Path, rel: str, config: LintConfig
) -> tuple[FileContext | None, PragmaSet, int, Diagnostic | None]:
    """Parse one file: ``(ctx, pragmas, pragma_count, parse_error)``.

    ``pragma_count`` is taken *before* decorator expansion — the budget
    counts pragmas as written, not the derived suppression lines.
    """
    source = file.read_text(encoding="utf-8")
    pragmas = parse_pragmas(source)
    count = pragmas.count
    try:
        tree = ast.parse(source, filename=str(file))
    except SyntaxError as exc:
        error = Diagnostic(
            path=rel,
            line=exc.lineno or 1,
            col=(exc.offset or 1) - 1,
            code="RL000",
            message=f"file does not parse: {exc.msg}",
            hint="fix the syntax error before linting",
        )
        return None, pragmas, count, error
    pragmas = attach_decorator_pragmas(pragmas, tree)
    ctx = FileContext(path=rel, source=source, tree=tree, config=config)
    return ctx, pragmas, count, None


def lint_file(
    file: Path,
    rel: str,
    config: LintConfig,
    rules: Sequence[Rule],
) -> tuple[list[Diagnostic], list[Diagnostic], int, Diagnostic | None]:
    """Lint one file: ``(live, suppressed, pragma_count, parse_error)``.

    Per-file rules only — project rules (``requires_project``) need the
    whole tree and run inside :func:`lint_paths`.
    """
    ctx, pragmas, count, error = _parse_one(file, rel, config)
    if ctx is None:
        return [], [], count, error
    live: list[Diagnostic] = []
    suppressed: list[Diagnostic] = []
    for rule in rules:
        if rule.requires_project or not rule.applies(ctx):
            continue
        for diag in rule.check(ctx):
            (suppressed if pragmas.suppresses(diag) else live).append(diag)
    return sorted(live), sorted(suppressed), count, None


def lint_paths(
    paths: Sequence[Path | str],
    config: LintConfig,
    *,
    root: Path | str | None = None,
    select: Sequence[str] | None = None,
    honor_pragmas: bool = True,
) -> LintResult:
    """Run the engine over ``paths`` (files or directories).

    ``select`` restricts to specific rule codes; ``honor_pragmas=False``
    reports suppressed findings as live (used by the fixture corpus to
    prove rules fire regardless of pragmas).
    """
    root_path = Path(root) if root is not None else Path.cwd()
    rules: Sequence[Rule]
    if select is None:
        rules = all_rules()
    else:
        rules = [get_rule(code) for code in select]
    file_rules = [r for r in rules if not r.requires_project]
    project_rules = [r for r in rules if r.requires_project]
    diagnostics: list[Diagnostic] = []
    suppressed: list[Diagnostic] = []
    parse_errors: list[Diagnostic] = []
    contexts: list[FileContext] = []
    pragma_sets: dict[str, PragmaSet] = {}
    files_checked = 0
    pragma_count = 0
    for file, rel in iter_python_files(
        [Path(p) for p in paths], root_path, config
    ):
        ctx, pragmas, n_pragmas, error = _parse_one(file, rel, config)
        files_checked += 1
        pragma_count += n_pragmas
        if ctx is None:
            if error is not None:
                parse_errors.append(error)
            continue
        contexts.append(ctx)
        pragma_sets[ctx.path] = pragmas
        live: list[Diagnostic] = []
        muted: list[Diagnostic] = []
        for rule in file_rules:
            if not rule.applies(ctx):
                continue
            for diag in rule.check(ctx):
                (muted if pragmas.suppresses(diag) else live).append(diag)
        if honor_pragmas:
            diagnostics.extend(live)
            suppressed.extend(muted)
        else:
            diagnostics.extend(live + muted)
    if project_rules:
        project = ProjectContext(
            config=config,
            files=contexts,
            graph=CallGraph([(ctx.path, ctx.tree) for ctx in contexts]),
        )
        empty = PragmaSet(by_line={}, file_wide=frozenset())
        for rule in project_rules:
            for diag in rule.check_project(project):
                muted_by = pragma_sets.get(diag.path, empty).suppresses(diag)
                if muted_by and honor_pragmas:
                    suppressed.append(diag)
                else:
                    diagnostics.append(diag)
    return LintResult(
        diagnostics=sorted(diagnostics),
        suppressed=sorted(suppressed),
        files_checked=files_checked,
        pragma_count=pragma_count,
        parse_errors=sorted(parse_errors),
    )


def count_pragmas(
    paths: Sequence[Path | str],
    config: LintConfig,
    *,
    root: Path | str | None = None,
) -> int:
    """Total ``# reprolint: disable`` pragmas under ``paths``.

    The quantity ``scripts/lint_gate.py`` ratchets: parsing is skipped
    (pragmas are comments), so this stays cheap and total.
    """
    root_path = Path(root) if root is not None else Path.cwd()
    total = 0
    for file, _rel in iter_python_files(
        [Path(p) for p in paths], root_path, config
    ):
        total += parse_pragmas(file.read_text(encoding="utf-8")).count
    return total


def dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else None.

    Shared helper for rules that match calls by their dotted target.
    """
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def call_name(call: ast.Call) -> str | None:
    """Dotted name of a call's target (``machine.send`` → that string)."""
    return dotted_name(call.func)


def iter_function_defs(
    tree: ast.Module,
) -> Iterator[tuple[ast.FunctionDef | ast.AsyncFunctionDef, ast.ClassDef | None]]:
    """Every function definition with its enclosing class (or None)."""

    def visit(
        node: ast.AST, cls: ast.ClassDef | None
    ) -> Iterator[tuple[ast.FunctionDef | ast.AsyncFunctionDef, ast.ClassDef | None]]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield child, cls
                yield from visit(child, cls)
            elif isinstance(child, ast.ClassDef):
                yield from visit(child, child)
            else:
                yield from visit(child, cls)

    yield from visit(tree, None)


#: type of the per-statement event classifiers used by path-sensitive rules
EventClassifier = Callable[[ast.stmt], list[str]]
