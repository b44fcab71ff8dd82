"""repro-lint: static enforcement of the determinism and contract
rules.

See ANALYSIS.md for the rule catalogue and the suppression grammar.
Public API:

- :func:`repro.lintx.core.run_lint` — scan paths, get a
  :class:`~repro.lintx.core.LintResult`;
- :func:`repro.lintx.core.all_rules` — the registered rule set;
- :data:`repro.lintx.contracts.FLOW_CONTRACTS` — the declared env/CLI
  table every ``REPRO_*``-backed option is checked against.
"""

from repro.lintx.core import (
    Finding,
    LintResult,
    Rule,
    all_rules,
    run_lint,
)

__all__ = ["Finding", "LintResult", "Rule", "all_rules", "run_lint"]
