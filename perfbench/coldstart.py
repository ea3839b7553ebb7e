"""Cold start of the analysis, timed from outside by run.py.

Imports specrig, sympy and the lazily imported splitting module in a
fresh interpreter, analyses the problem text read from stdin once, and
writes the JSON report to stdout.  Usage:

    python3 perfbench/coldstart.py < problem.txt
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import sympy  # noqa: E402,F401
from specrig import splitting  # noqa: E402,F401
from specrig.parsing import parse_problem  # noqa: E402
from specrig.pipeline import run_analysis  # noqa: E402
from specrig.report import serialize  # noqa: E402

if __name__ == "__main__":
    doc, code = run_analysis(parse_problem(sys.stdin.read()))
    sys.stdout.write(serialize(doc))
    sys.exit(code)
