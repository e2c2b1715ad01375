"""Write the cli workload's golden stdout files.

Usage: python3 perfbench/make_golden.py

Run it only at a commit whose CLI output is the reference: the goldens are
the contract the cli workload checks every call against.
"""

import subprocess
import sys

from cliwork import ARGVS, HERE, ROOT, env


def main() -> int:
    for label, argv in ARGVS.items():
        proc = subprocess.run([sys.executable, "-m", "riskchain.cli", *argv],
                              cwd=ROOT, env=env(), capture_output=True, check=True)
        (HERE / "golden" / f"{label}.json").write_bytes(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
