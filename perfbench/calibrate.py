"""Fixed pure-Python work that shows how fast the host runs at the moment.

run.py runs this program between the timed children and scales their times
to a host on which it takes `run.CALIBRATION_S`.  It uses the standard
library only, and does the kinds of work the simulator does: small objects,
dict counting, string formatting and parsing, sorting, and a greedy
min-cost assignment through a key function.  Do not change it:
every end-to-end time depends on it.
"""

import random
import sys


class Rec:
    __slots__ = ("core", "write", "addr")

    def __init__(self, core, write, addr):
        self.core = core
        self.write = write
        self.addr = addr


def main():
    rng = random.Random(5)
    recs = [Rec(rng.randrange(4), rng.random() < 0.5, rng.randrange(1 << 20))
            for _ in range(60_000)]
    counts = {}
    for rec in recs:
        line = rec.addr >> 6
        counts[line] = counts.get(line, 0) + 1
    text = [f"{r.core} {'W' if r.write else 'R'} 0x{r.addr:x}" for r in recs]
    parsed = [int(t.split()[2], 16) for t in text]
    order = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    cost = [rng.randrange(6, 12) for _ in range(2048)]
    free = list(range(len(cost)))
    for _ in range(160):
        free.remove(min(free, key=lambda f: (cost[f], f)))
    if (parsed != [r.addr for r in recs] or sum(n for _, n in order) != len(recs)
            or len(free) != len(cost) - 160):
        sys.exit("calibrate: wrong result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
