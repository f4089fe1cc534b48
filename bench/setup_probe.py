"""Times the program's set-up in a fresh process and prints it as JSON.

    python3 bench/setup_probe.py SRC CONFIG.json

Set-up is what `autolabel run --config` does before its first round:
import the package, `parse_config`, then `materialize_dataset`, which loads
the dataset file and carves it. Only the standard library is imported
before the clock starts.
"""

import json
import os
import sys
import time


def main() -> int:
    src, config = sys.argv[1], sys.argv[2]
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import autolabel.config
    import autolabel.runner
    cfg = autolabel.config.parse_config(config)
    autolabel.runner.materialize_dataset(cfg)
    elapsed = time.perf_counter() - t0
    here = os.path.dirname(os.path.abspath(autolabel.__file__))
    if here != os.path.join(os.path.abspath(src), "autolabel"):
        print(f"autolabel imported from {here}, not from {src}",
              file=sys.stderr)
        return 3
    print(json.dumps({"setup_s": elapsed}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
