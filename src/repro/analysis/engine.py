"""The reprolint engine: walk files, run rules, honour suppressions.

A finding on line *N* is suppressed by a comment on that same line::

    if flo == 0.0:  # reprolint: ignore[RL002] - exact zero is the root itself

or by a standalone comment on the line directly above it::

    # reprolint: ignore[RL002] - exact zero is the root itself
    if flo == 0.0:

``ignore`` with no bracket suppresses every rule on the line; the
bracketed form takes a comma-separated list of codes.  For multi-line
statements the comment belongs on (or above) the line the statement
*starts* on (the line reported in the finding).
"""

from __future__ import annotations

import ast
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from collections.abc import Iterable, Sequence

from repro.analysis.config import LintConfig
from repro.analysis.findings import Finding
from repro.analysis.project import (
    FileIndex,
    ProjectContext,
    extract_file_index,
    find_project_root,
)
from repro.analysis.rules import PROJECT_REGISTRY, REGISTRY, ProjectRule, Rule
from repro.analysis.rules.base import ModuleContext

__all__ = ["LintRun", "iter_python_files", "lint_file", "lint_paths", "lint_project"]

#: finding code used for files that fail to parse
PARSE_ERROR_CODE = "RL000"

_SUPPRESS_RE = re.compile(r"#\s*reprolint:\s*ignore(?:\[(?P<codes>[A-Z0-9,\s]+)\])?")


def iter_python_files(paths: Sequence[str | Path]) -> list[Path]:
    """Expand files/directories into a sorted, deduplicated file list."""
    seen: dict[Path, None] = {}
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            for candidate in sorted(path.rglob("*.py")):
                seen.setdefault(candidate, None)
        elif path.suffix == ".py":
            seen.setdefault(path, None)
    return sorted(seen)


def _suppressions(source: str) -> dict[int, frozenset[str] | None]:
    """Map line number -> suppressed codes (``None`` = all codes).

    Comments are located with :mod:`tokenize` so that a ``reprolint:``
    inside a string literal is never mistaken for a directive.  An
    inline directive suppresses its own line; a standalone comment
    suppresses the line below it (where the guarded statement starts).
    """
    lines = source.splitlines()
    out: dict[int, frozenset[str] | None] = {}

    def record(line: int, codes: str | None) -> None:
        if codes is None:
            out[line] = None
        else:
            parsed = frozenset(c.strip() for c in codes.split(",") if c.strip())
            existing = out.get(line, frozenset())
            out[line] = None if existing is None else existing | parsed

    try:
        tokens = tokenize.generate_tokens(iter(source.splitlines(keepends=True)).__next__)
        for token in tokens:
            if token.type != tokenize.COMMENT:
                continue
            match = _SUPPRESS_RE.search(token.string)
            if not match:
                continue
            line, col = token.start
            before = lines[line - 1][:col] if line - 1 < len(lines) else ""
            standalone = not before.strip()
            record(line + 1 if standalone else line, match.group("codes"))
    except tokenize.TokenizeError:  # parse errors are reported separately
        pass
    return out


def _suppressed(finding: Finding, suppressions: dict[int, frozenset[str] | None]) -> bool:
    codes = suppressions.get(finding.line, frozenset())
    return codes is None or finding.code in codes


def lint_file(
    path: Path,
    rules: Iterable[Rule] | None = None,
    *,
    config: LintConfig | None = None,
) -> list[Finding]:
    """Run all applicable rules over one file."""
    config = config or LintConfig()
    posix = path.as_posix()
    if config.path_excluded(posix):
        return []
    source = path.read_text(encoding="utf-8")
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        return [
            Finding(
                path=str(path),
                line=exc.lineno or 1,
                col=(exc.offset or 1) - 1,
                code=PARSE_ERROR_CODE,
                message=f"file does not parse: {exc.msg}",
            )
        ]
    module = ModuleContext(
        path=str(path),
        posix_path=posix,
        tree=tree,
        source_lines=tuple(source.splitlines()),
    )
    suppressions = _suppressions(source)
    findings: list[Finding] = []
    for rule in rules if rules is not None else REGISTRY:
        if not config.rule_enabled(rule.code, posix) or not rule.applies_to(posix):
            continue
        for finding in rule.check(module):
            if not _suppressed(finding, suppressions):
                findings.append(finding)
    return sorted(findings)


def lint_paths(
    paths: Sequence[str | Path],
    *,
    config: LintConfig | None = None,
    rules: Iterable[Rule] | None = None,
) -> list[Finding]:
    """Lint every Python file under ``paths``; findings in path order.

    Per-file rules only; :func:`lint_project` adds the project passes.
    """
    rule_list = tuple(rules) if rules is not None else REGISTRY
    findings: list[Finding] = []
    for path in iter_python_files(paths):
        findings.extend(lint_file(path, rule_list, config=config))
    return findings


@dataclass
class LintRun:
    """The outcome of one :func:`lint_project` run."""

    findings: list[Finding] = field(default_factory=list)
    files: list[Path] = field(default_factory=list)


def _index_rest_of_src(
    root: Path | None,
    linted: Sequence[Path],
    config: LintConfig,
    indexes: dict[str, FileIndex],
    sources: dict[str, str],
) -> None:
    """Index (but do not lint) the ``src/`` files outside the linted set.

    The contract passes (RL2xx) reconcile code surfaces against project
    documents; when only a subdirectory is linted they must still see
    the full code surface, or every catalogue row backed by an unlinted
    file looks dead.  Per-file rules do not run here -- these files only
    contribute :class:`FileIndex` facts (and their suppression comments,
    so project findings honour them).
    """
    if root is None:
        return
    src_dir = root / "src"
    if not src_dir.is_dir():
        return
    linted_resolved = {path.resolve() for path in linted}
    for extra in sorted(src_dir.rglob("*.py")):
        if extra.resolve() in linted_resolved:
            continue
        try:
            posix = extra.relative_to(Path.cwd()).as_posix()
        except ValueError:
            posix = extra.as_posix()
        if posix in indexes or config.path_excluded(posix):
            continue
        try:
            source = extra.read_text(encoding="utf-8")
            tree = ast.parse(source, filename=str(extra))
        except (OSError, SyntaxError):
            continue  # unlintable out-of-scope files contribute nothing
        sources[posix] = source
        module = ModuleContext(
            path=posix,
            posix_path=posix,
            tree=tree,
            source_lines=tuple(source.splitlines()),
        )
        indexes[posix] = extract_file_index(module)


def lint_project(
    paths: Sequence[str | Path],
    *,
    config: LintConfig | None = None,
    rules: Iterable[Rule] | None = None,
    project_rules: Iterable[ProjectRule] | None = None,
) -> LintRun:
    """Run the full two-tier analysis: per-file rules, then project passes.

    Each linted file is parsed once; its AST feeds both the per-file
    rules and the :class:`FileIndex` the project passes read from the
    assembled :class:`ProjectContext`.
    """
    config = config or LintConfig()
    rule_list = tuple(rules) if rules is not None else REGISTRY
    project_list = (
        tuple(project_rules) if project_rules is not None else PROJECT_REGISTRY
    )
    run = LintRun()
    run.files = [
        path
        for path in iter_python_files(paths)
        if not config.path_excluded(path.as_posix())
    ]
    root = find_project_root([Path(p) for p in paths])
    indexes: dict[str, FileIndex] = {}
    sources: dict[str, str] = {}
    for path in run.files:
        posix = path.as_posix()
        source = path.read_text(encoding="utf-8")
        sources[posix] = source
        try:
            tree = ast.parse(source, filename=str(path))
        except SyntaxError as exc:
            run.findings.append(
                Finding(
                    path=str(path),
                    line=exc.lineno or 1,
                    col=(exc.offset or 1) - 1,
                    code=PARSE_ERROR_CODE,
                    message=f"file does not parse: {exc.msg}",
                )
            )
            continue
        module = ModuleContext(
            path=str(path),
            posix_path=posix,
            tree=tree,
            source_lines=tuple(source.splitlines()),
        )
        suppressions = _suppressions(source)
        for rule in rule_list:
            if not config.rule_enabled(rule.code, posix) or not rule.applies_to(posix):
                continue
            for finding in rule.check(module):
                if not _suppressed(finding, suppressions):
                    run.findings.append(finding)
        indexes[posix] = extract_file_index(module)

    _index_rest_of_src(root, run.files, config, indexes, sources)
    project = ProjectContext(root=root, indexes=indexes)
    suppression_cache: dict[str, dict[int, frozenset[str] | None]] = {}

    def suppressions_for(posix: str) -> dict[int, frozenset[str] | None]:
        if posix not in suppression_cache:
            source = sources.get(posix)
            suppression_cache[posix] = _suppressions(source) if source is not None else {}
        return suppression_cache[posix]

    for project_rule in project_list:
        for finding in project_rule.check_project(project):
            posix = Path(finding.path).as_posix()
            if config.path_excluded(posix):
                continue
            if not config.rule_enabled(project_rule.code, posix):
                continue
            if posix in sources and _suppressed(finding, suppressions_for(posix)):
                continue
            run.findings.append(finding)
    run.findings.sort()
    return run
