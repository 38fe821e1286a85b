"""A fixed pure-Python workload: the yardstick for the host's speed right now.

    python3 -I perfbench/reference.py

It composes permutations of degree 7 and looks them up in a dict, the
kind of work ``isomers`` does, and prints a checksum (``CHECKSUM``).  It
imports nothing from ``isomers``, so no change to the program moves its
time; only the host does.  ``run.py`` times it between requests.
"""

from itertools import permutations

CHECKSUM = 38094840


def work() -> int:
    perms = list(permutations(range(7)))
    index = {p: i for i, p in enumerate(perms)}
    total = 0
    for g in perms[1:4]:
        for p in perms:
            total += index[tuple(p[i] for i in g)]
    return total


if __name__ == "__main__":
    print(work())
