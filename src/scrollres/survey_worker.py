"""One survey worker: python -m scrollres.survey_worker PRIME

Reads one seed per line on stdin and answers each with one JSON line on
stdout, chain.survey_seed(PRIME, seed); it ends when stdin closes.
survey.sample_survey starts these processes and reads their answers.  A
chain error is tallied inside survey_seed; any other exception ends the
worker with a traceback on stderr and a non-zero exit status.  It imports
only scrollres.chain, so it loads only the modules a Betti table needs.
"""

from __future__ import annotations

import json
import sys

from .chain import survey_seed


def main() -> int:
    prime = int(sys.argv[1])
    for line in sys.stdin:
        result = survey_seed(prime, int(line))
        sys.stdout.write(json.dumps(result, separators=(",", ":")) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
