"""One survey worker: python -m scrollres.survey_worker PRIME START STOP STEP

Computes chain.survey_seed(PRIME, seed) for each seed in range(START, STOP,
STEP) and, once the last is done (so a full pipe blocks only finished work),
writes one JSON line per seed in that order; it reads no stdin.  A chain
error is tallied inside survey_seed; any other exception ends the worker
with a traceback on stderr and a non-zero exit status.  It imports only
scrollres.chain, so it loads only the modules a Betti table needs.
"""

from __future__ import annotations

import json
import sys

from .chain import survey_seed


def main() -> int:
    prime, start, stop, step = map(int, sys.argv[1:])
    lines = [json.dumps(survey_seed(prime, seed), separators=(",", ":")) + "\n"
             for seed in range(start, stop, step)]
    sys.stdout.write("".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
