"""Every check CI runs beyond the tier-1 suite: `python tests/ci_checks.py`, from any directory, no options.

A row is (name, the child's python arguments, expected exit status, max RSS limit in MiB or
None, test of (stdout, stderr) or None).  The rows run in order with PYTHONPATH=src in one
temporary directory, and os.wait4 gives each child's exit status and max RSS.  A child's max
RSS starts at this process's own, so a test reads at most the last MiB of an output, and
file_checks(), which reads the files the rows wrote, runs after the last row.  Exit 1 on a failure.
"""

import glob
import json
import os
import re
import sys
import tempfile
import time
from itertools import zip_longest
from subprocess import DEVNULL, Popen

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# PYTHONHASHSEED is read only at start-up: the child sets it, then becomes `python -m rainbowtrees ...`
HASH_SEEDED = ("import os, sys; os.environ['PYTHONHASHSEED'] = sys.argv[1]; "
               "os.execv(sys.executable, [sys.executable, '-m', 'rainbowtrees', *sys.argv[2:]])")
# argv: n r canonical|random; the random coloring is drawn with seed n
PARTITION = ("import random, sys\n"
             "from rainbowtrees import generate_canonical, partition_complete, partition_number\n"
             "from rainbowtrees import random_surjective_coloring\n"
             "n, r = int(sys.argv[1]), int(sys.argv[2])\n"
             "c = generate_canonical(n, r)[0] if sys.argv[3] == 'canonical' else "
             "random_surjective_coloring(n, r, random.Random(n))\n"
             "print(f'count={partition_complete(c).count} bound={partition_number(n, r)}')")
# every fallback block is rejected on the dominant color; max_n is raised for this call only
K18 = ("from rainbowtrees import generate_canonical, partition_number, solve\n"
       "res = solve(generate_canonical(18, 80)[0], max_n=18)\n"
       "print(f'count={res.count} bound={partition_number(18, 80)}', dict(res.stats))")
CAMPAIGNS = ("worstcase --max-n 5 --samples 20 --seed 3", "monotonicity --samples 20 --seed 3",
             "cutedge --max-n 7", "constructive --max-n 7 --samples 20 --seed 3")


def last(pattern):
    """Test: the last stdout line matches `pattern` in full."""
    return lambda out, err: re.fullmatch(pattern, (out.splitlines() or [""])[-1])


def at_most(out, err):
    m = last(r"count=(\d+) bound=(\d+)")(out, err)
    return m and int(m[1]) <= int(m[2])


def bench_ok(out, err):
    """The result line reads correct, with no failed op and no null metric (a wrapped name that moved)."""
    result = json.loads(out.splitlines()[-1])
    return result["correct"] is True and result["failed"] == 0 and result["metrics"] and all(
        m["value"] is not None for m in result["metrics"].values())


def cli(cmd, limit=None, test=None, status=0):
    """The row that runs `python -m rainbowtrees CMD`, named CMD."""
    return cmd, ["-m", "rainbowtrees", *cmd.split()], status, limit, test


def readme_blocks(lang):
    with open(os.path.join(ROOT, "README.md")) as fh:
        return "".join(re.findall(rf"^```{lang}\n(.*?)^```$", fh.read(), re.M | re.S))


def rows():
    readme = [(f"README {cmd.strip()}", ["-m", *cmd.split()], 0, None,  # a comment with `=` is the last line
               last(re.escape(said.strip())) if "=" in said else None)
              for cmd, _, said in (line.partition("#") for line in readme_blocks("text").splitlines())]
    if sum(row[4] is not None for row in readme) != 2:
        raise SystemExit("the README command block should state exactly two last output lines")
    run, equal = os.path.join(ROOT, "bench", "run.py"), last(r"count=(\d+) bound=\1")
    return [
        *[(f"verify {c} --format {fmt}, hash seed {seed}",
           ["-c", HASH_SEEDED, seed, "verify", *c.split(), "--format", fmt, "--report", f"{i}-{seed}.{fmt}"],
           0, None, None) for i, c in enumerate(CAMPAIGNS) for seed in "01" for fmt in ("json", "text")],
        ("README python blocks", ["-c", readme_blocks("python")], 0, None, None),
        *readme,
        ("bench selftest", [os.path.join(ROOT, "bench", "selftest.py")], 0, None, None),
        *[(f"bench {w} {opt}", [run, "--workload", w, *opt.split()], 0, None, bench_ok)
          for opt in ("--seconds 1", "--trace 1") for w in ("sweep", "exact", "construct")],
        # the smoke run stops at n = 300; r = 5000 puts many representatives in each swap search
        cli("canonical 1000 12 -o k1000.txt"), cli("construct k1000.txt", test=equal),
        cli("canonical 150 5000 -o k150.txt"), cli("construct k150.txt", test=equal),
        # at r = n every level hill-climbs over about n representatives, past every benchmark cell
        *[(f"partition_complete random K_{n} r={n}", ["-c", PARTITION, n, n, "random"], 0, None, at_most)
          for n in ("400", "600")],
        # memory guards; K_2000 with r = 12 has partition_number(2000, 12) = 998
        cli("canonical 2000 12 -o k2000.txt", 100), cli("canonical 2000 12", 100),
        cli("merge k2000.txt 12 1 -o merged.txt", 100),
        cli("canonical 2000 12 -o k2000.txt --partition k2000-trees.txt", 100),
        ("partition_complete K_2000 r=12", ["-c", PARTITION, "2000", "12", "canonical"], 0, 30, equal),
        cli("construct k2000.txt", 150, equal),
        ("partition_complete random K_2000 r=12", ["-c", PARTITION, "2000", "12", "random"], 0, 30, at_most),
        ("solve K_18 r=80", ["-c", K18], 0, 32, lambda out, err: re.match(r"count=(\d+) bound=\1 ", out)),
        # r = 57 has the longest truncated levels and blocks of up to 15 vertices
        *[row for r, t in ((6, 7), (57, 3)) for row in (
            cli(f"formula 16 {r}", test=last(rf"t=\d+ value={t}")), cli(f"canonical 16 {r} -o k16-{r}.txt"),
            cli(f"solve --max-n 16 k16-{r}.txt", test=last(f"count={t}")))],
        cli("solve --max-n 25 k16-57.txt", test=lambda out, err: "Traceback" not in err, status=1),
        # a single vertex is one tree; canonical K_6 with r = 15 is one rainbow tree
        cli("solve k1.txt", test=last("count=1")), cli("construct k1.txt", test=last("count=1 bound=1")),
        cli("canonical 6 15 -o k6.txt"), cli("solve k6.txt --partition k6-trees.txt", test=last("count=1")),
        *[(f"demo {os.path.basename(p)}", [p], 0, None, None)
          for p in sorted(glob.glob(os.path.join(ROOT, "demos", "*.py")))],
    ]


def lines(path, skip=()):
    with open(path) as fh:
        yield from (line for line in fh if not line.startswith(skip))


def same(a, b):
    return all(x == y for x, y in zip_longest(a, b))


def file_checks(outs):
    for i, c in enumerate(CAMPAIGNS):
        for fmt, skip in (("json", ()), ("text", "elapsed ")):
            yield (f"verify {c} --format {fmt}: equal under hash seeds 0 and 1",
                   same(lines(f"{i}-0.{fmt}", skip), lines(f"{i}-1.{fmt}", skip)))
    printed = lines(outs["canonical 2000 12"], "#")
    yield "canonical 2000 12: stdout less comments is the -o file", same(printed, lines("k2000.txt"))
    yield "merge 12 1: header 2000 11", next(lines("merged.txt"), "").split() == ["2000", "11"]
    for path, trees in (("k2000-trees.txt", 998), ("k6-trees.txt", 1)):
        yield f"{path}: {trees} tree lines", sum(line.startswith("tree ") for line in lines(path)) == trees


def tail(path, size=1 << 20):
    with open(path, "rb") as fh:
        fh.seek(max(0, os.path.getsize(path) - size))
        return fh.read().decode(errors="replace")


def main() -> int:
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    table, failed = rows(), []
    outs = {name: f"{i}.out" for i, (name, *_) in enumerate(table)}
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        with open("k1.txt", "w") as fh:
            fh.write("1 0\n")
        for i, (name, args, status, limit, test) in enumerate(table):
            out, err, start = outs[name], f"{i}.err", time.perf_counter()
            with open(out, "w") as fo, open(err, "w") as fe:
                child = Popen([sys.executable, *args], stdin=DEVNULL, stdout=fo, stderr=fe, env=env)
                _, wait_status, usage = os.wait4(child.pid, 0)
            child.returncode = code = os.waitstatus_to_exitcode(wait_status)
            rss = usage.ru_maxrss / 1024  # KiB on Linux
            secs = time.perf_counter() - start
            print(f"{name:<60} exit {code:>3} {rss:7.1f} MiB {secs:6.1f} s", flush=True)
            why = [f"exit status {code}, expected {status}"] * (code != status)
            why += [f"max RSS above {limit} MiB"] * (limit is not None and rss > limit)
            try:
                why += ["output test failed"] * (test is not None and not test(tail(out), tail(err)))
            except Exception as exc:  # a malformed output fails its row, and the other rows still run
                why.append(f"output test raised {exc!r}")
            if why:
                failed.append(name)
                print(f"    FAILED: {'; '.join(why)}\n{tail(out, 4000)}{tail(err, 4000)}", flush=True)
        for name, ok in file_checks(outs):  # a file a failed row did not write raises OSError
            print(f"{name:<72} {'ok' if ok else 'FAILED'}")
            failed += [name] * (not ok)
        os.chdir(ROOT)
    print(f"{len(table)} rows; {len(failed)} failed" + "".join(f"\n  {name}" for name in failed))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
