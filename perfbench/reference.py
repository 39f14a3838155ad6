"""Fixed reference loops that measure how fast the machine runs right now.

The benchmark host is a virtual machine whose speed drifts by up to 2x over
minutes, as other tenants load the physical cores; a whole run can fall
into a slow stretch.  Timing a reference loop next to every piece of a
workload measures that drift, so the harness can scale each time to a fixed
speed: the speed at which one loop takes its ``NOMINAL_S``.

There is one loop for each kind of work the workloads spend their time on,
since a slowdown does not hit all kinds alike: ``arith`` does small-integer
arithmetic, ``Fraction`` sums and dict updates, as the search and
``certify`` do; ``cosets`` is a frozen copy of the union-find Todd-Coxeter
coset enumeration, which allocates and links a large table of short lists.
The loops are part of the benchmark, not of the program, so a change to the
program cannot move them.
"""

import json
import os
import time
from fractions import Fraction


def arith():
    total, frac, counts = 0, Fraction(0), {}
    for i in range(1, 40000):
        total += i * i % 7
        if i % 40 == 0:
            frac += Fraction(1, i)
        counts[i % 997] = counts.get(i % 997, 0) + i
    return total, frac, len(counts)


# Two fixed relators in generators 1 and 2 (negative: inverse); the group
# they present is large, so the enumeration below stops at COSETS.
RELATORS = (((1,) * 17 + (2,)) * 25, ((1,) * 13 + (-2,)) * 30)
COSETS = 60000


def cosets():
    """A frozen copy of a union-find Todd-Coxeter enumeration, cut off at
    COSETS cosets."""
    rels = [[2 * (abs(x) - 1) + (x < 0) for x in word] for word in RELATORS]
    labels, rows = [0], [[-1] * 4]

    def find(c):
        while labels[c] != c:
            labels[c] = labels[labels[c]]
            c = labels[c]
        return c

    def follow(c, d):
        c = find(c)
        nxt = rows[c][d]
        if nxt < 0:
            nxt = len(labels)
            labels.append(nxt)
            rows.append([-1] * 4)
            rows[c][d] = nxt
            rows[nxt][d ^ 1] = c
        return find(nxt)

    def unify(c1, c2):
        stack = [(c1, c2)]
        while stack:
            a, b = stack.pop()
            a, b = find(a), find(b)
            if a == b:
                continue
            a, b = min(a, b), max(a, b)
            labels[b] = a
            for d in range(4):
                if rows[b][d] >= 0:
                    if rows[a][d] < 0:
                        rows[a][d] = rows[b][d]
                    else:
                        stack.append((rows[a][d], rows[b][d]))

    cursor = 0
    while cursor < len(labels) < COSETS:
        if find(cursor) == cursor:
            for rel in rels:
                c = cursor
                for d in rel:
                    c = follow(c, d)
                unify(c, cursor)
                if find(cursor) != cursor:
                    break
        cursor += 1
    return len(labels)


LOOPS = {"arith": arith, "cosets": cosets}
NOMINAL_S = {"arith": 0.02, "cosets": 0.04}   # each loop's time at the fixed speed


def timed(kind):
    t0 = time.perf_counter()
    LOOPS[kind]()
    return time.perf_counter() - t0


def sample(kind, procs=1):
    """The time of loop `kind`, run on `procs` processes at once: their mean.

    A workload that keeps `procs` cores busy is slowed by the load on all of
    them, so it is scaled by a loop that runs on as many.  The forked copies
    wait for each other, then start together.
    """
    if procs == 1:
        return timed(kind)
    go_read, go_write = os.pipe()
    children = []
    for _ in range(procs):
        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:   # the child times one loop, reports it and exits
            try:
                os.close(read_fd)
                os.read(go_read, 1)
                os.write(write_fd, json.dumps(timed(kind)).encode())
            finally:
                os._exit(0)
        os.close(write_fd)
        children.append((pid, read_fd))
    os.write(go_write, b"x" * procs)
    os.close(go_read)
    os.close(go_write)
    times = []
    for pid, read_fd in children:
        with os.fdopen(read_fd) as fh:
            times.append(json.loads(fh.read()))
        os.waitpid(pid, 0)
    return sum(times) / len(times)
