"""Compare the bit-identity fingerprint of this tree with a parent's.

    python tests/fingerprint_diff.py PARENT_CHECKOUT

runs the unchanged ``tests/fingerprint.py`` twice, once with
``PYTHONPATH`` set to ``PARENT_CHECKOUT/src`` and once with it set to
this tree's ``src/``, prints each group's two hashes (parent first) and
exits 1 if any group differs.  It is not collected by pytest and takes
no other options.
"""

import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
FINGERPRINT = HERE / "fingerprint.py"


def fingerprint(src: Path) -> dict:
    """{group: its line's item count and hash} of the package in ``src``."""
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, str(FINGERPRINT)], env=env,
                         check=True, capture_output=True, text=True).stdout
    return {name: rest for name, *rest in map(str.split, out.splitlines())}


def main() -> int:
    if len(sys.argv) != 2:
        print("usage: " + __doc__.splitlines()[2].strip(), file=sys.stderr)
        return 2
    parent = fingerprint(Path(sys.argv[1]).resolve() / "src")
    child = fingerprint(HERE.parent / "src")
    differ = False
    for name in dict.fromkeys([*parent, *child]):
        a, b = parent.get(name), child.get(name)
        same = a == b
        differ |= not same
        print(f"{name:8s} {' '.join(a or ['-'])}  {' '.join(b or ['-'])}  "
              f"{'same' if same else 'DIFFERS'}", flush=True)
    return int(differ)


if __name__ == "__main__":
    sys.exit(main())
