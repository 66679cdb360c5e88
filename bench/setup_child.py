"""One set-up launch: import the CLI and parse every document of a workload.

Run as ``python3 setup_child.py <document directory> <source directory>``.
Prints the seconds from before the import to the last parsed document, and
those seconds divided by the calibration loop timed around them.
The directory holds one JSON document per file; branch documents
become points, everything else becomes an oracle.
"""

import json
import statistics
import sys
from pathlib import Path
from time import perf_counter

from calibration import calibration

BRANCH_KINDS = {"ev_periodic", "stretch", "interleave", "baire"}


def main() -> None:
    folder, source = Path(sys.argv[1]), sys.argv[2]
    texts = [path.read_text(encoding="utf-8") for path in sorted(folder.glob("*.json"))]
    sys.path.insert(0, source)
    before = statistics.median(calibration() for _ in range(5))
    start = perf_counter()
    import cantordensity.cli  # noqa: F401
    from cantordensity import jsonio

    for text in texts:
        doc = json.loads(text)
        if doc.get("kind") in BRANCH_KINDS:
            jsonio.branch_from_spec(doc)
            continue
        try:
            jsonio.oracle_from_spec(doc)
        except RecursionError:
            # The long-word clopen spec; its operation is counted as failed.
            pass
    elapsed = perf_counter() - start
    after = statistics.median(calibration() for _ in range(5))
    print(elapsed, elapsed / ((before + after) / 2))


if __name__ == "__main__":
    main()
