"""repro-lint: static enforcement of the determinism rules.

See ANALYSIS.md for the rule catalogue and the suppression grammar.
Public API:

- :func:`repro.lintx.core.run_lint` — scan paths, get a
  :class:`~repro.lintx.core.LintResult`;
- :func:`repro.lintx.core.all_rules` — the registered rule set.
"""

from repro.lintx.core import (
    Finding,
    LintResult,
    Rule,
    all_rules,
    run_lint,
)

__all__ = ["Finding", "LintResult", "Rule", "all_rules", "run_lint"]
