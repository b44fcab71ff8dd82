"""repro-lint core: findings, suppressions, rule registry, runner.

The analyzer statically enforces the load-bearing property of this
codebase (see ANALYSIS.md): **determinism** — every run must be
bit-identical and replayable, so wall clocks, unseeded RNGs,
hash-ordered iteration and scheduling-ordered gathers are findings, not
style nits.

Rules come in two families:

==========  ==========================================================
``DET1xx``  per-file AST determinism rules (:mod:`.rules_determinism`)
``LNT0xx``  the analyzer's own hygiene (suppression grammar)
==========  ==========================================================

Suppressions
------------

A finding is silenced in place, never globally::

    x = time.time()  # repro-lint: ignore[DET101] wall-clock timestamp for the report header

    # repro-lint: ignore-file[DET104] fixture tree enumerates a tmpdir it fully controls

``ignore[...]`` acts on its own physical line, ``ignore-file[...]`` on
the whole file; both take a comma list of rule ids and **require** a
reason (an empty reason is finding ``LNT001``). A suppression that
matches no finding is reported as ``LNT002`` so stale ignores cannot
accumulate.
"""

from __future__ import annotations

import ast
import io
import os
import re
import tokenize
from dataclasses import dataclass, field

SEVERITIES = ("info", "warning", "error")

#: Threshold name accepted by ``--fail-on`` meaning "never fail".
NEVER = "never"


def severity_rank(severity: str) -> int:
    return SEVERITIES.index(severity)


@dataclass(frozen=True)
class Finding:
    """One analyzer finding, anchored to a file location."""

    rule: str
    severity: str
    path: str
    line: int
    col: int
    message: str

    def render(self) -> str:
        return (
            f"{self.path}:{self.line}:{self.col}: "
            f"{self.severity} {self.rule} {self.message}"
        )


@dataclass
class Suppression:
    """One parsed ``repro-lint: ignore[...]`` comment."""

    rules: tuple[str, ...]
    reason: str
    line: int
    file_wide: bool
    used: bool = False


_SUPPRESS_RE = re.compile(
    r"#\s*repro-lint:\s*(?P<kind>ignore-file|ignore)"
    r"\[(?P<rules>[A-Za-z0-9_,\s-]*)\]\s*(?P<reason>.*?)\s*$"
)
_MARKER_RE = re.compile(r"#\s*repro-lint:")


@dataclass
class SourceFile:
    """A parsed source file plus its suppression table."""

    path: str
    text: str
    lines: list[str] = field(default_factory=list)
    tree: ast.AST | None = None
    syntax_error: SyntaxError | None = None
    suppressions: list[Suppression] = field(default_factory=list)
    grammar_findings: list[Finding] = field(default_factory=list)

    @classmethod
    def load(cls, path: str) -> "SourceFile":
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        return cls.parse(path, text)

    @classmethod
    def parse(cls, path: str, text: str) -> "SourceFile":
        sf = cls(path=path, text=text, lines=text.splitlines())
        try:
            sf.tree = ast.parse(text)
        except SyntaxError as exc:
            sf.syntax_error = exc
        sf._scan_suppressions()
        return sf

    def _comments(self) -> list[tuple[int, str]]:
        """Real ``#`` comments only — a suppression example inside a
        docstring must not act as a live suppression."""
        try:
            tokens = tokenize.generate_tokens(io.StringIO(self.text).readline)
            return [
                (token.start[0], token.string)
                for token in tokens
                if token.type == tokenize.COMMENT
            ]
        except (tokenize.TokenError, SyntaxError, IndentationError):
            # Unparseable file: fall back to raw lines; LNT003 reports
            # the syntax error itself.
            return list(enumerate(self.lines, start=1))

    def _scan_suppressions(self) -> None:
        for lineno, line in self._comments():
            if not _MARKER_RE.search(line):
                continue
            match = _SUPPRESS_RE.search(line)
            if match is None:
                self.grammar_findings.append(
                    Finding(
                        "LNT001",
                        "error",
                        self.path,
                        lineno,
                        1,
                        "malformed repro-lint comment: expected"
                        " 'repro-lint: ignore[RULE-ID,...] reason' or"
                        " 'repro-lint: ignore-file[RULE-ID,...] reason'",
                    )
                )
                continue
            rules = tuple(
                token.strip()
                for token in match.group("rules").split(",")
                if token.strip()
            )
            reason = match.group("reason")
            if not rules or not reason:
                self.grammar_findings.append(
                    Finding(
                        "LNT001",
                        "error",
                        self.path,
                        lineno,
                        1,
                        "suppression needs at least one rule id and a"
                        " non-empty reason",
                    )
                )
                continue
            self.suppressions.append(
                Suppression(
                    rules=rules,
                    reason=reason,
                    line=lineno,
                    file_wide=match.group("kind") == "ignore-file",
                )
            )

    def suppresses(self, finding: Finding) -> bool:
        """Match ``finding`` against this file's table, marking use."""
        hit = False
        for sup in self.suppressions:
            if finding.rule not in sup.rules:
                continue
            if sup.file_wide or sup.line == finding.line:
                sup.used = True
                hit = True
        return hit

    def unused_suppression_findings(self) -> list[Finding]:
        return [
            Finding(
                "LNT002",
                "warning",
                self.path,
                sup.line,
                1,
                f"suppression of {','.join(sup.rules)} matched no"
                " finding; delete it or fix the rule id",
            )
            for sup in self.suppressions
            if not sup.used
        ]


class Rule:
    """Base class: a rule overrides :meth:`check_file`."""

    id: str = ""
    severity: str = "error"
    summary: str = ""  # one line, shown by --list-rules and in ANALYSIS.md

    def check_file(self, source: SourceFile) -> list[Finding]:
        return []

    def finding(
        self, path: str, line: int, col: int, message: str
    ) -> Finding:
        return Finding(self.id, self.severity, path, line, col, message)


_REGISTRY: dict[str, Rule] = {}


def register(rule_cls: type[Rule]) -> type[Rule]:
    """Class decorator adding a rule to the global registry."""
    rule = rule_cls()
    if not rule.id:
        raise ValueError(f"{rule_cls.__name__} has no rule id")
    if rule.id in _REGISTRY:
        raise ValueError(f"duplicate rule id {rule.id}")
    if rule.severity not in SEVERITIES:
        raise ValueError(f"{rule.id}: unknown severity {rule.severity!r}")
    _REGISTRY[rule.id] = rule
    return rule_cls


def all_rules() -> list[Rule]:
    """Every registered rule, in stable id order."""
    _load_rule_modules()
    return [_REGISTRY[rule_id] for rule_id in sorted(_REGISTRY)]


def _load_rule_modules() -> None:
    # Deferred so `import repro.lintx.core` never cycles with the rule
    # modules (they import `register` from here).
    from repro.lintx import rules_determinism  # noqa: F401


def iter_python_files(paths: list[str]) -> list[str]:
    """Every ``.py`` file under ``paths``, sorted for determinism."""
    found: set[str] = set()
    for path in paths:
        if os.path.isfile(path):
            if path.endswith(".py"):
                found.add(path)
            continue
        for dirpath, dirnames, filenames in os.walk(path):  # repro-lint: ignore[DET104] every walked file lands in one set that is sorted on return
            dirnames[:] = sorted(
                d for d in dirnames if d not in ("__pycache__", ".git")
            )
            for name in filenames:
                if name.endswith(".py"):
                    found.add(os.path.join(dirpath, name))
    return sorted(found)


@dataclass
class LintResult:
    """The outcome of one analyzer run."""

    findings: list[Finding]
    files_scanned: int
    suppressed: int

    def counts(self) -> dict[str, int]:
        counts = {severity: 0 for severity in SEVERITIES}
        for finding in self.findings:
            counts[finding.severity] += 1
        return counts

    def worst_rank(self) -> int:
        if not self.findings:
            return -1
        return max(severity_rank(f.severity) for f in self.findings)

    def exit_code(self, fail_on: str) -> int:
        if fail_on == NEVER:
            return 0
        return 1 if self.worst_rank() >= severity_rank(fail_on) else 0


def run_lint(
    paths: list[str], *, rules: list[Rule] | None = None
) -> LintResult:
    """Scan ``paths`` and return every unsuppressed finding."""
    rules = all_rules() if rules is None else rules
    files = [SourceFile.load(path) for path in iter_python_files(paths)]
    by_path = {source.path: source for source in files}

    raw: list[Finding] = []
    for source in files:
        raw.extend(source.grammar_findings)
        if source.syntax_error is not None:
            exc = source.syntax_error
            raw.append(
                Finding(
                    "LNT003",
                    "error",
                    source.path,
                    exc.lineno or 1,
                    (exc.offset or 0) + 1,
                    f"file does not parse: {exc.msg}",
                )
            )
            continue
        for rule in rules:
            raw.extend(rule.check_file(source))

    kept: list[Finding] = []
    suppressed = 0
    for finding in raw:
        if finding.rule.startswith("DET") and by_path[
            finding.path
        ].suppresses(finding):
            suppressed += 1
            continue
        kept.append(finding)
    for source in files:
        kept.extend(source.unused_suppression_findings())

    kept.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return LintResult(
        findings=kept, files_scanned=len(files), suppressed=suppressed
    )
