"""The canonical extremal coloring and its explicit optimal partition.

The construction: a core clique of t vertices gets all-distinct colors, a hub
vertex absorbs the leftover colors on its edges into the core, and everything
else is painted with a single fill color.  Exactly ceil((n-t)/2) rainbow
trees are then needed: one tree through core+hub+one extra vertex, and a
matching on the monochromatic remainder.

Run: python demos/02_extremal_coloring.py
"""

from rainbowtrees import (
    extremal_partition,
    format_coloring,
    format_partition,
    generate_canonical,
    is_partition_valid,
    partition_number,
    solve,
)

n, r = 8, 5
coloring, layout = generate_canonical(n, r)

print(f"canonical coloring of K_{n} with r={r} colors")
print(f"  threshold t      = {layout.t}")
print(f"  core clique      = {layout.core}")
print(f"  hub vertex       = {layout.hub}")
print(f"  extra vertex     = {layout.extra}")
print(f"  fill color       = {layout.fill_color}")
print(f"  hub edge colors  = {dict(layout.hub_edges)}")

print("\ncoloring file body:")
print(format_coloring(coloring), end="")

partition = extremal_partition(coloring, layout)
ok, why = is_partition_valid(coloring, partition)
print(f"\nexplicit partition ({partition.count} trees, valid={ok}):")
print(format_partition(partition), end="")

predicted = partition_number(n, r)
exact = solve(coloring).count
print(f"\nformula value: {predicted}")
print(f"exact optimum on this coloring: {exact}")
assert partition.count == predicted == exact

print("\nno coloring can be worse: the canonical family attains the maximum.")
