"""Run every brute-force verifier on small fields and print the reports.

Each verifier recomputes its claim from raw evaluations and enumeration.
One is not independent of the code it audits yet: the arf suite calls
arf_invariant on both sides of its comparison (ROADMAP item 9 removes
that dependency).  Exits nonzero if anything fails.
"""

import sys

from char2conf import report_lines, run_all

reports = run_all(max_degree=2)
print(report_lines(reports))

bad = [r for r in reports if not r.ok]
print("\n%d reports, %d with failures" % (len(reports), len(bad)),
      file=sys.stderr)
sys.exit(1 if bad else 0)
