"""The polynomial-time constructive partition, step by step.

One representative edge is kept per color.  Hill-climbing reassigns single
representatives while that strictly grows the largest component; the final
largest component is heterochromatic, so any spanning tree of it is one
rainbow tree of the partition.  Its vertices are then marked dead and the
next level climbs again on the vertices that are left.

Run: python demos/04_constructive_partition.py
"""

import random

from rainbowtrees import (
    apply_swap,
    find_swap,
    format_partition,
    generate_canonical,
    initial_representatives,
    partition_complete,
    partition_number,
    random_surjective_coloring,
    solve,
)

c, _ = generate_canonical(5, 3)
print("hill-climb on the canonical K_5 with 3 colors")
s = initial_representatives(c)
print(f"  start: reps={dict(s.rep_edges)} largest={s.largest_size}")
while (move := find_swap(s, c)) is not None:
    print(f"  swap color {move.color}: {move.old_edge} -> {move.new_edge} "
          f"(largest {s.largest_size} -> {move.new_largest_size})")
    s = apply_swap(s, move)
print(f"  locally maximal: components={[sorted(g) for g in s.components]}")

trace = []
partition = partition_complete(c, trace)
print("\nresulting partition:")
print(format_partition(partition), end="")
print(f"trace per level: {trace}")

print("\nrandom instances: constructed count vs exact optimum vs worst case")
rng = random.Random(7)
for _ in range(8):
    n = rng.randint(5, 7)
    r = rng.randint(2, n * (n - 1) // 2)
    cc = random_surjective_coloring(n, r, rng)
    built = partition_complete(cc).count
    exact = solve(cc).count
    print(f"  n={n} r={r:>2}: constructed={built} exact={exact} "
          f"worst-case={partition_number(n, r)}")

print("\nlarger instance, still instant (no exponential search inside):")
big = random_surjective_coloring(12, 9, rng)
trace = []
built = partition_complete(big, trace)
moves = sum(level["moves"] for level in trace)
print(f"  n=12 r=9: {built.count} trees, {len(trace)} levels, {moves} swap moves total")
