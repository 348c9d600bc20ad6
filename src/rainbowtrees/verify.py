"""Verification campaigns: every structural claim becomes an executable check.

Campaigns are deterministic given their parameters and seed, run on pure
per-cell work, and produce a VerificationReport that serializes to both a
line-oriented text form and a lossless JSON form.  Every failure record
embeds the offending coloring as a self-contained file body, so it can be
replayed with a single CLI command; extremal witnesses re-validate on reload.
"""

from __future__ import annotations

import json
import random
import struct
import time
from dataclasses import asdict, dataclass, field, fields
from itertools import combinations, product
from math import comb

from .canonical import generate_canonical
from .coloring import (
    EdgeColoring,
    _color_buffer,
    _is_int,
    _require_int,
    format_coloring,
    merge_colors,
    parse_coloring,
)
from .constructive import partition_complete
from .errors import ConstructionDefect, SizeGuardError
from .formula import _require_kn_colors, partition_number
from .solver import solve
from .unionfind import mask_component


def _dict_list(x) -> bool:
    return isinstance(x, list) and all(isinstance(d, dict) for d in x)


# what from_json accepts for each report field; to_text prints a failure's
# coloring line by line
_REPORT_TYPES = {
    "campaign": lambda x: isinstance(x, str),
    "params": lambda x: isinstance(x, dict),
    "instances": _is_int,
    "failures": lambda x: _dict_list(x) and all(isinstance(f.get("coloring", ""), str) for f in x),
    "witnesses": _dict_list,
    "cells": _dict_list,
    "elapsed": lambda x: isinstance(x, (int, float)) and not isinstance(x, bool),
}


@dataclass
class VerificationReport:
    campaign: str
    params: dict
    instances: int
    failures: list = field(default_factory=list)
    witnesses: list = field(default_factory=list)
    cells: list = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_text(self) -> str:
        lines = [f"campaign {self.campaign}"]
        for key in sorted(self.params):
            lines.append(f"param {key}={self.params[key]}")
        lines.append(f"instances {self.instances}")
        for cell in self.cells:
            lines.append("cell " + " ".join(f"{k}={cell[k]}" for k in cell))
        for w in self.witnesses:
            lines.append("witness " + " ".join(f"{k}={w[k]}" for k in w if k != "coloring"))
        for f in self.failures:
            lines.append("failure " + " ".join(f"{k}={f[k]}" for k in f if k != "coloring"))
            for body_line in f.get("coloring", "").splitlines():
                lines.append("  | " + body_line)
        lines.append(f"elapsed {self.elapsed:.3f}s")
        lines.append("result " + ("PASS" if self.passed else "FAIL"))
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        # wall-clock is reporting-only; leaving it out keeps identical seeded
        # runs byte-identical in machine-readable form
        data = asdict(self)
        data.pop("elapsed")
        return json.dumps(data, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "VerificationReport":
        """Read what `to_json` writes, `elapsed` optional; ValueError names
        the missing or unknown fields of any other JSON, or the fields of a
        wrong type."""
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError(f"a report is a JSON object, got {type(data).__name__}")
        names = {f.name for f in fields(cls)}
        missing = sorted(names - {"elapsed"} - data.keys())
        unknown = sorted(data.keys() - names)
        if missing or unknown:
            raise ValueError(f"not a report: missing fields {missing}, unknown fields {unknown}")
        wrong = [name for name, ok in _REPORT_TYPES.items() if name in data and not ok(data[name])]
        if wrong:
            raise ValueError(f"not a report: fields {wrong} have the wrong type")
        return cls(**data)

    def revalidate(self) -> bool:
        """Re-check every recorded witness from its serialized form."""
        return all(revalidate_witness(w) for w in self.witnesses)


def revalidate_witness(w: dict) -> bool:
    """Re-check one witness from its serialized fields; malformed input
    (not a dict, a missing or mistyped field, an unreadable coloring)
    returns False.

    An extremal witness must carry a valid coloring of K_n whose n and r
    are the recorded ones, and its recorded value must equal both the
    closed form and the count `solve` (canonical-extremal) or
    `partition_complete` (constructive-extremal) gives; a coloring above
    `solve`'s size guard raises SizeGuardError, as `solve` does.  A
    cut-edge witness must list exactly C(n-1, 2) + 1 distinct pairs
    (u, v), 0 <= u < v < n, that form a connected graph with a bridge, and
    record that bound.
    """
    if not isinstance(w, dict):
        return False
    kind = w.get("kind")
    if kind in ("canonical-extremal", "constructive-extremal"):
        if kind == "canonical-extremal":
            value, partition = w.get("value"), solve
        else:
            value, partition = w.get("count"), partition_complete
        if not (isinstance(w.get("coloring"), str)
                and all(map(_is_int, (w.get("n"), w.get("r"), value)))):
            return False
        try:
            c = parse_coloring(w["coloring"])
        except ValueError:  # a FileFormatError, or a coloring that is not valid
            return False
        if not c.complete or (w.get("n"), w.get("r")) != (c.n, c.r):
            return False
        return value == partition_number(c.n, c.r) and partition(c).count == value
    if kind == "cutedge-tight":
        n, edges, bound = w.get("n"), w.get("edges"), w.get("bound")
        if not (_is_int(n) and n >= 1 and isinstance(edges, list) and _is_int(bound)):
            return False
        if bound != comb(n - 1, 2) + 1 or len(edges) != bound:
            return False
        pairs = set()
        for e in edges:
            if not (isinstance(e, (list, tuple)) and len(e) == 2
                    and all(map(_is_int, e)) and 0 <= e[0] < e[1] < n):
                return False
            pairs.add(tuple(e))
        if len(pairs) != len(edges):
            return False
        adj = _adjacency(n, pairs)
        return _connected_bitadj(n, adj) and _has_bridge(n, adj)
    return False


def _witness(kind: str, c: EdgeColoring, **fields) -> dict:
    return {"kind": kind, "n": c.n, "r": c.r, **fields, "coloring": format_coloring(c)}


def _failure(kind: str, c: EdgeColoring, **fields) -> dict:
    return {"kind": kind, **fields, "coloring": format_coloring(c),
            "repro": "save the coloring block to f.txt, then: rainbowtrees solve f.txt"}


# ---------------------------------------------------------------------------
# instance generators


def _uniform_colors(r: int, m: int, rng: random.Random) -> bytearray | list[int]:
    """m colors uniform on 1..r, the same ones m calls rng.randint(1, r)
    return, leaving rng in the same state, in a _color_buffer.  randint
    draws one 32-bit word per try and keeps its top r.bit_length() bits when
    they are below r, so each round draws one word per color still missing,
    at most 4096, and applies that test to each.  (r <= m, and m above 2^32
    colors would not fit in memory.)"""
    shift = 32 - r.bit_length()
    out = _color_buffer(0, r)
    while len(out) < m:
        need = min(m - len(out), 0x1000)
        words = struct.unpack(f"<{need}I", rng.getrandbits(32 * need).to_bytes(4 * need, "little"))
        out.extend([x + 1 for w in words if (x := w >> shift) < r])
    return out


def random_surjective_coloring(n: int, r: int, rng: random.Random) -> EdgeColoring:
    """A surjective r-coloring of K_n: rejection sampling, then a repair.

    Up to 50 assignments are drawn uniformly from all r^m colorings of the
    m = C(n, 2) edges, and the first surjective one is returned.  Given that
    one is accepted, the result is uniform over the surjective colorings.
    If all 50 miss a color (likely when r is near m), one more uniform draw
    is repaired by writing each missing color over random edges, and as a
    last resort by planting every color once at shuffled positions.  That
    path always returns a surjective coloring, but not a uniform one: it
    favours colorings in which the repaired colors are rare.  The output is
    a mixture of the two, so it is exactly uniform only when every draw is
    surjective (r = 1).  n is an int >= 2 and r an int in 1..m, else
    ValueError.
    """
    _require_int("n", n, 2)
    m = comb(n, 2)
    _require_int("r", r, 1, m)
    assignment = None
    for _ in range(50):
        cand = _uniform_colors(r, m, rng)
        if len(set(cand)) == r:
            assignment = cand
            break
    if assignment is None:
        cand = _uniform_colors(r, m, rng)
        for _ in range(100):
            missing = sorted(set(range(1, r + 1)) - set(cand))
            if not missing:
                break
            for col, idx in zip(missing, rng.sample(range(m), len(missing))):
                cand[idx] = col
        if len(set(cand)) < r:
            # last resort: plant each color once at shuffled positions
            order = list(range(m))
            rng.shuffle(order)
            for col in range(1, r + 1):
                cand[order[col - 1]] = col
        assignment = cand
    return EdgeColoring._stored(n, r, None, assignment)


def iter_surjective_colorings(n: int, r: int):
    """All r-edge-colorings of K_n (every color used); exhaustive, desk scale."""
    _require_kn_colors(n, r)  # as partition_number does, on the call, not at the first next()
    return (EdgeColoring._stored(n, r, None, a)
            for a in product(range(1, r + 1), repeat=comb(n, 2)) if len(set(a)) == r)


# ---------------------------------------------------------------------------
# graph enumeration helpers (adjacency as per-vertex neighbor bitmasks)


def _connected_bitadj(n: int, adj: list[int]) -> bool:
    full = (1 << n) - 1
    return mask_component(0, full, adj) == full


def _adjacency(n: int, edges) -> list[int]:
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


def _has_bridge(n: int, adj: list[int]) -> bool:
    """Whether the connected graph `adj` has a bridge: an edge whose
    deletion disconnects it."""
    for u in range(n):
        for v in range(u + 1, n):
            if adj[u] >> v & 1:
                cut = adj.copy()
                cut[u] ^= 1 << v
                cut[v] ^= 1 << u
                if not _connected_bitadj(n, cut):
                    return True
    return False


def _connected_graph_count(n: int) -> int:
    """Labeled connected graphs on n vertices (OEIS A001187): all graphs on
    j vertices, less those whose vertex 0 lies in a component of k < j."""
    c = [0, 1]
    for j in range(2, n + 1):
        c.append(2 ** comb(j, 2) - sum(
            comb(j - 1, k - 1) * c[k] * 2 ** comb(j - k, 2) for k in range(1, j)
        ))
    return c[n]


# ---------------------------------------------------------------------------
# campaigns: max_n is an int >= 3, samples and samples_per_cell ints >= 0,
# trials an int >= 1 and seed an int, else ValueError; a max_n above the
# campaign's guard raises SizeGuardError


def _max_n_within(max_n: int, guard: int) -> None:
    _require_int("max_n", max_n, 3)
    if max_n > guard:
        raise SizeGuardError(f"campaign guard: max_n={max_n} > {guard}")


def campaign_worstcase(max_n: int = 6, samples_per_cell: int = 100, seed: int = 0) -> VerificationReport:
    """Equality on canonical instances, upper bound on random ones, and the
    exhaustive maximum over all colorings of K_4 (max_n <= 10)."""
    _max_n_within(max_n, 10)
    _require_int("samples_per_cell", samples_per_cell, 0)
    _require_int("seed", seed)
    t0 = time.monotonic()
    rng = random.Random(seed)
    report = VerificationReport(
        "worstcase", {"max_n": max_n, "samples_per_cell": samples_per_cell, "seed": seed}, 0
    )
    for n in range(3, max_n + 1):
        for r in range(2, comb(n, 2) + 1):
            expected = partition_number(n, r)
            instances, failures = report.instances, len(report.failures)
            c, _ = generate_canonical(n, r)
            got = solve(c).count
            report.instances += 1
            max_observed = got
            if got != expected:
                report.failures.append(
                    _failure("canonical-equality", c, n=n, r=r, observed=got, expected=expected)
                )
            else:
                report.witnesses.append(_witness("canonical-extremal", c, value=expected))
            for _ in range(samples_per_cell):
                sample = random_surjective_coloring(n, r, rng)
                value = solve(sample).count
                report.instances += 1
                max_observed = max(max_observed, value)
                if value > expected:
                    report.failures.append(
                        _failure("upper-bound", sample, n=n, r=r, observed=value, expected=expected)
                    )
            if n == 4:
                colorings = list(iter_surjective_colorings(4, r))
                values = [solve(sample).count for sample in colorings]
                report.instances += len(values)
                top = max(values)
                if top != expected:  # recorded with the first coloring that reaches top
                    report.failures.append(_failure("exhaustive-max", colorings[values.index(top)],
                                                    n=4, r=r, observed=top, expected=expected))
            report.cells.append({"n": n, "r": r, "instances": report.instances - instances,
                                 "failures": len(report.failures) - failures,
                                 "max_observed": max_observed, "expected": expected})
    report.elapsed = time.monotonic() - t0
    return report


def campaign_monotonicity(trials: int = 1000, seed: int = 0) -> VerificationReport:
    """Merging two colors never lowers the exact partition number."""
    _require_int("trials", trials, 1)
    _require_int("seed", seed)
    t0 = time.monotonic()
    rng = random.Random(seed)
    report = VerificationReport("monotonicity", {"trials": trials, "seed": seed}, 0)
    for _ in range(trials):
        n = rng.randint(3, 7)
        r = rng.randint(2, comb(n, 2))
        c = random_surjective_coloring(n, r, rng)
        src = rng.randint(1, r)
        dst = rng.randint(1, r - 1)
        if dst >= src:
            dst += 1
        merged = merge_colors(c, src, dst)
        before = solve(c).count
        after = solve(merged).count
        report.instances += 1
        if before > after:
            report.failures.append(
                _failure(
                    "merge-monotonicity", c,
                    n=n, r=r, src=src, dst=dst, before=before, after=after,
                )
            )
    report.cells.append({"trials": trials, "failures": len(report.failures)})
    report.elapsed = time.monotonic() - t0
    return report


def campaign_cutedge(max_n: int = 6) -> VerificationReport:
    """Every connected bridged graph on n vertices has at most C(n-1,2)+1 edges.

    A disconnected graph has at most C(n-1,2) edges, so only graphs with at
    least `bound` = C(n-1,2)+1 edges can break the claim, and only those are
    walked; for the same reason every walked graph is connected.  They are
    walked by edge count, then in the order of
    itertools.combinations(range(m), count), which picks indices into the
    m pairs listed in lexicographic order; a failure's `mask` has bit i set
    for each pair i of its graph.  Those above the
    bound must be bridge-free; at the bound the first bridged graph is
    recorded as the tight witness (it is the complete graph on n-1 vertices
    plus a pendant edge, up to relabeling).  The `connected` count of each
    cell, which is also its number of instances, comes from the recurrence
    for labeled connected graphs (max_n <= 7).
    """
    _max_n_within(max_n, 7)
    t0 = time.monotonic()
    report = VerificationReport("cutedge", {"max_n": max_n}, 0)
    for n in range(3, max_n + 1):
        failures = len(report.failures)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        m = len(pairs)
        bound = comb(n - 1, 2) + 1
        checked_above = 0
        witness_edges = None
        for edge_count in range(bound, m + 1):
            for chosen in combinations(range(m), edge_count):
                edges = [pairs[i] for i in chosen]
                adj = _adjacency(n, edges)
                if edge_count > bound:
                    checked_above += 1
                    if _has_bridge(n, adj):
                        mask = sum(1 << i for i in chosen)
                        report.failures.append({"kind": "cutedge-bound", "n": n,
                                                "edges": edge_count, "bound": bound, "mask": mask})
                elif witness_edges is None and _has_bridge(n, adj):
                    witness_edges = [list(e) for e in edges]
        connected = _connected_graph_count(n)
        report.instances += connected
        if witness_edges is None:
            report.failures.append({"kind": "cutedge-no-witness", "n": n, "bound": bound})
        else:
            report.witnesses.append(
                {"kind": "cutedge-tight", "n": n, "bound": bound, "edges": witness_edges}
            )
        report.cells.append({"n": n, "connected": connected, "bound": bound,
                             "checked_above_bound": checked_above,
                             "failures": len(report.failures) - failures})
    report.elapsed = time.monotonic() - t0
    return report


def campaign_constructive(max_n: int = 8, samples: int = 100, seed: int = 0) -> VerificationReport:
    """The constructive algorithm stays valid, within the closed-form bound,
    within n-2 swap moves per level, and at or above the exact optimum.

    `partition_complete` enforces the first three itself and raises
    ConstructionDefect when one fails (the swap budget as soon as a level
    passes n-2 moves), which is recorded as `construction-defect`; each
    cell's `max_swaps` is the most moves any of its colorings took on one
    level.  Colorings up to n = 7 are also solved exactly (max_n <= 12).
    """
    _max_n_within(max_n, 12)
    _require_int("samples", samples, 0)
    _require_int("seed", seed)
    t0 = time.monotonic()
    rng = random.Random(seed)
    report = VerificationReport(
        "constructive", {"max_n": max_n, "samples": samples, "seed": seed}, 0
    )
    extremal_seen: set = set()

    def check(c: EdgeColoring) -> int:
        """Check one coloring; return its most swap moves on a level, or 0
        when it fails before they are known."""
        report.instances += 1
        bound = partition_number(c.n, c.r)
        trace: list = []
        try:
            part = partition_complete(c, trace)
        except ConstructionDefect as exc:
            report.failures.append(
                _failure("construction-defect", c, n=c.n, r=c.r, detail=str(exc))
            )
            return 0
        swaps = max(level["moves"] for level in trace)
        if c.n <= 7 and part.count < (exact := solve(c).count):
            report.failures.append(
                _failure("below-optimum", c, n=c.n, r=c.r, observed=part.count, exact=exact)
            )
        elif part.count == bound and c.n not in extremal_seen:
            # each n runs in one mode only, so keying by n keeps one witness per (n, mode)
            extremal_seen.add(c.n)
            report.witnesses.append(_witness("constructive-extremal", c, count=part.count))
        return swaps

    def add_cell(head: dict, colorings) -> None:
        instances, failures = report.instances, len(report.failures)
        max_swaps = max(map(check, colorings), default=0)
        report.cells.append({**head, "instances": report.instances - instances,
                             "failures": len(report.failures) - failures, "max_swaps": max_swaps})

    for n in range(3, min(max_n, 4) + 1):
        for r in range(2, comb(n, 2) + 1):
            add_cell({"n": n, "r": r, "mode": "exhaustive"}, iter_surjective_colorings(n, r))
    if max_n >= 5:
        # pinning the first edge to color 1 keeps one coloring per color swap
        add_cell({"n": 5, "r": 2, "mode": "exhaustive-r2"},
                 (c for c in iter_surjective_colorings(5, 2) if c.color_sequence[0] == 1))
    for n in range(6, max_n + 1):
        add_cell({"n": n, "mode": "random"}, (
            random_surjective_coloring(n, rng.randint(2, comb(n, 2)), rng)
            for _ in range(samples)
        ))
    report.elapsed = time.monotonic() - t0
    return report
