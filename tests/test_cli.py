import os
import pathlib
import subprocess
import sys

from rainbowtrees import (
    format_coloring,
    generate_canonical,
    monochromatic_complete,
    parse_coloring,
    read_coloring,
    read_partition,
    is_partition_valid,
    solve,
    write_coloring,
)
from rainbowtrees import solver
from rainbowtrees.cli import main
from test_coloring import reference_violations


def run_cli(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def payload(out):
    """Drop the `#` config/comment lines from CLI stdout."""
    return "\n".join(l for l in out.splitlines() if not l.startswith("#")) + "\n"


def test_formula_command(capsys):
    code, out, _ = run_cli(capsys, "formula", 6, 5)
    assert code == 0
    assert "t=3 value=2" in out


def test_formula_r1(capsys):
    code, out, _ = run_cli(capsys, "formula", 7, 1)
    assert code == 0
    assert "t=0 value=4" in out


def test_formula_bad_input(capsys):
    code, _, err = run_cli(capsys, "formula", 3, 9)
    assert code == 1
    assert "error" in err


def test_canonical_solve_round_trip(tmp_path, capsys):
    cfile = tmp_path / "c.txt"
    code, out, _ = run_cli(capsys, "canonical", 4, 3, "-o", cfile)
    assert code == 0
    code, out, _ = run_cli(capsys, "solve", cfile)
    assert code == 0
    assert "count=1" in out
    # the file round trip matches the in-memory pipeline
    from rainbowtrees import generate_canonical

    c, _ = generate_canonical(4, 3)
    assert read_coloring(cfile) == c
    assert solve(c).count == 1


def test_canonical_stdout_is_a_valid_coloring_file(capsys):
    code, out, _ = run_cli(capsys, "canonical", 5, 4)
    assert code == 0
    c = parse_coloring(out)  # config lines are comments in the format
    assert reference_violations(c.n, c.r, c.colors) == []
    assert c.n == 5 and c.r == 4


def test_canonical_rejects_an_out_of_range_fill_color(capsys):
    for n in (3, 4):
        code, _, err = run_cli(capsys, "canonical", n, 3, "--fill", 99)
        assert code == 1
        assert err == "error: fill_color must be an int in 1..3, got 99\n"


def test_canonical_partition_output(tmp_path, capsys):
    cfile = tmp_path / "c.txt"
    pfile = tmp_path / "p.txt"
    code, _, _ = run_cli(capsys, "canonical", 8, 5, "-o", cfile, "--partition", pfile)
    assert code == 0
    c = read_coloring(cfile)
    p = read_partition(pfile, c)
    ok, why = is_partition_valid(c, p)
    assert ok, why
    assert p.count == 3


def test_solve_writes_partition(tmp_path, capsys):
    cfile = tmp_path / "c.txt"
    write_coloring(monochromatic_complete(5), cfile)
    pfile = tmp_path / "p.txt"
    code, out, _ = run_cli(capsys, "solve", cfile, "--partition", pfile)
    assert code == 0
    assert "count=3" in out
    p = read_partition(pfile, monochromatic_complete(5))
    ok, why = is_partition_valid(monochromatic_complete(5), p)
    assert ok, why


def test_construct_command(tmp_path, capsys):
    cfile = tmp_path / "c.txt"
    run_cli(capsys, "canonical", 6, 5, "-o", cfile)
    pfile = tmp_path / "p.txt"
    code, out, _ = run_cli(capsys, "construct", cfile, "--partition", pfile)
    assert code == 0
    assert "count=2 bound=2" in out


def test_merge_command(tmp_path, capsys):
    cfile = tmp_path / "c.txt"
    run_cli(capsys, "canonical", 5, 4, "-o", cfile)
    ofile = tmp_path / "m.txt"
    code, _, _ = run_cli(capsys, "merge", cfile, 4, 1, "-o", ofile)
    assert code == 0
    merged = read_coloring(ofile)
    assert merged.r == 3
    assert reference_violations(merged.n, merged.r, merged.colors) == []


def test_coloring_stdout_over_several_write_batches_is_the_formatted_text(tmp_path, capsys):
    # K_100 has 4951 file lines, more than one batch of 4096: canonical and
    # merge print, after their comment lines, exactly format_coloring's text
    from rainbowtrees import generate_canonical, merge_colors

    c = generate_canonical(100, 8)[0]
    cfile = tmp_path / "c.txt"
    write_coloring(c, cfile)
    for argv, expected in ((("canonical", 100, 8), c),
                           (("merge", cfile, 8, 1), merge_colors(c, 8, 1))):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        body = "".join(line for line in out.splitlines(keepends=True) if not line.startswith("#"))
        assert body == format_coloring(expected)


def test_merge_without_output_writes_the_coloring_to_stdout(tmp_path, capsys):
    from rainbowtrees import generate_canonical, merge_colors

    cfile = tmp_path / "c.txt"
    run_cli(capsys, "canonical", 5, 4, "-o", cfile)
    code, out, _ = run_cli(capsys, "merge", cfile, 4, 1)
    assert code == 0
    assert out.startswith("# config merge ")
    assert parse_coloring(out) == merge_colors(generate_canonical(5, 4)[0], 4, 1)


def test_solve_guard_exit_code(tmp_path, capsys):
    cfile = tmp_path / "c.txt"
    write_coloring(monochromatic_complete(6), cfile)
    code, _, err = run_cli(capsys, "solve", cfile, "--max-n", 5)
    assert code == 3
    assert "guard" in err


def test_solve_rejects_a_guard_no_input_can_pass(tmp_path, capsys):
    # --max-n 0 is a usage error, as a verify size that runs nothing is,
    # not a guard hit
    cfile = tmp_path / "c.txt"
    write_coloring(monochromatic_complete(4), cfile)
    code, _, err = run_cli(capsys, "solve", cfile, "--max-n", 0)
    assert code == 1
    assert err == "error: max_n must be an int in 1..24, got 0\n"


def test_solve_rejects_a_max_n_above_the_ceiling_before_any_table(tmp_path, capsys, monkeypatch):
    # K_40 would need a 2^40-byte block table: one usage error line, no
    # traceback, and the table is never built
    def no_table(c, cap, stats):
        raise MemoryError("the block table was built")

    monkeypatch.setattr(solver, "_block_table", no_table)
    cfile = tmp_path / "k40.txt"
    write_coloring(generate_canonical(40, 12)[0], cfile)
    code, out, err = run_cli(capsys, "solve", cfile, "--max-n", 40)
    assert code == 1
    assert err == "error: max_n must be an int in 1..24, got 40\n"
    assert out == f"# config solve file={cfile} max_n=40\n"


def test_solve_without_max_n_keeps_the_solvers_own_guard(tmp_path, capsys):
    cfile = tmp_path / "c.txt"
    write_coloring(monochromatic_complete(15), cfile)
    code, out, err = run_cli(capsys, "solve", cfile)
    assert code == 3
    assert err == "error: n=15 exceeds solver guard 14\n"
    assert out == f"# config solve file={cfile}\n"  # max_n left out, as it was not given


def test_malformed_file_reports_line_number(tmp_path, capsys):
    cfile = tmp_path / "bad.txt"
    cfile.write_text("3 2\n0 1 1\n5 9 1\n")
    for argv in (("solve", cfile), ("construct", cfile), ("merge", cfile, 2, 1)):
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (1, "error: line 3: bad edge (5,9); need 0 <= u < v < 3\n")
        assert out.startswith(f"# config {argv[0]} ") and out.count("\n") == 1


def test_invalid_coloring_rejected(tmp_path, capsys):
    cfile = tmp_path / "bad.txt"
    cfile.write_text("3 2\n0 1 1\n0 2 1\n1 2 1\n")  # color 2 never used
    code, _, err = run_cli(capsys, "solve", cfile)
    assert code == 1
    assert f"{cfile}: invalid coloring: MissingColor" in err


def test_color_count_above_the_edge_count_is_one_short_error(tmp_path, capsys):
    cfile = tmp_path / "bad.txt"
    cfile.write_text("3 100000\n0 1 1\n0 2 1\n1 2 1\n")
    code, _, err = run_cli(capsys, "solve", cfile)
    assert code == 1
    assert "BadColorCount(100000,)" in err
    assert len(err) < 1024


def test_usage_error_exit_code(capsys):
    assert run_cli(capsys, "no-such-command")[0] == 1
    assert run_cli(capsys, "formula", "x", "y")[0] == 1


def test_verify_command_writes_report(tmp_path, capsys):
    rfile = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys, "verify", "cutedge", "--max-n", 4, "--report", rfile, "--format", "json"
    )
    assert code == 0
    assert "result PASS" in out
    from rainbowtrees import VerificationReport

    report = VerificationReport.from_json(rfile.read_text())
    assert report.passed and report.campaign == "cutedge"


def test_verify_seeded_json_is_byte_identical(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for path in (a, b):
        code, _, _ = run_cli(
            capsys, "verify", "monotonicity", "--samples", 20, "--seed", 5,
            "--report", path, "--format", "json",
        )
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_verify_monotonicity_rejects_max_n(capsys):
    code, out, err = run_cli(capsys, "verify", "monotonicity", "--max-n", 99)
    assert code == 1
    assert out == ""
    assert "--max-n" in err and "monotonicity" in err


def test_verify_cutedge_rejects_samples(capsys):
    code, out, err = run_cli(capsys, "verify", "cutedge", "--samples", 5)
    assert code == 1
    assert out == ""
    assert "--samples" in err and "cutedge" in err


def test_verify_cutedge_rejects_seed(capsys):
    code, out, err = run_cli(capsys, "verify", "cutedge", "--seed", 5)
    assert code == 1
    assert out == ""
    assert "--seed" in err and "cutedge" in err


def test_verify_rejects_a_size_that_runs_nothing(capsys):
    code, _, err = run_cli(capsys, "verify", "worstcase", "--max-n", 0)
    assert code == 1
    assert err == "error: max_n must be an int >= 3, got 0\n"


def test_verify_guard_exit(capsys):
    code, _, err = run_cli(capsys, "verify", "cutedge", "--max-n", 9)
    assert code == 3


def test_campaign_failure_exit_code(capsys, monkeypatch):
    import rainbowtrees.cli as cli_mod
    from rainbowtrees import VerificationReport

    failing = VerificationReport("monotonicity", {}, 1, failures=[{"kind": "demo"}])
    options = cli_mod._CAMPAIGNS["monotonicity"][1]
    monkeypatch.setitem(cli_mod._CAMPAIGNS, "monotonicity", (lambda **kw: failing, options))
    code, out, _ = run_cli(capsys, "verify", "monotonicity")
    assert code == 2
    assert "result FAIL" in out


def test_construction_defect_exit_code(tmp_path, capsys, monkeypatch):
    import rainbowtrees.cli as cli_mod
    from rainbowtrees import ConstructionDefect

    def boom(c):
        raise ConstructionDefect("forced for the test", instance_text="3 1\n")

    monkeypatch.setattr(cli_mod, "partition_complete", boom)
    cfile = tmp_path / "c.txt"
    write_coloring(monochromatic_complete(4), cfile)
    code, _, err = run_cli(capsys, "construct", cfile)
    assert code == 2
    assert "defect" in err and "3 1" in err


def one_edge_short(module, monkeypatch):
    """Make module's max_rainbow_forest drop the first edge of each forest."""
    real = module.max_rainbow_forest
    monkeypatch.setattr(module, "max_rainbow_forest", lambda c, within: real(c, within)[1:])


def assert_defect(code, err, message, c):
    """Exit 2, `defect:` and the message on stderr, then c's file below it."""
    assert code == 2
    head, body = err.split("\n", 1)
    assert head.startswith(f"defect: {message}")
    assert parse_coloring(body) == c


def test_a_failed_solve_self_check_exits_2_with_its_coloring(tmp_path, capsys, monkeypatch):
    from rainbowtrees import solver

    one_edge_short(solver, monkeypatch)
    cfile = tmp_path / "c.txt"
    write_coloring(monochromatic_complete(4), cfile)
    code, _, err = run_cli(capsys, "solve", cfile)
    assert_defect(code, err, "witness is not a rainbow tree partition", monochromatic_complete(4))


def test_a_failed_canonical_partition_exits_2_with_its_coloring(tmp_path, capsys, monkeypatch):
    from rainbowtrees import canonical

    one_edge_short(canonical, monkeypatch)
    code, _, err = run_cli(capsys, "canonical", 8, 5, "--partition", tmp_path / "p.txt")
    assert_defect(code, err, "canonical partition is invalid: tree 0 has 3 edges for 5 vertices",
                  generate_canonical(8, 5)[0])


def test_a_failed_solve_in_a_campaign_exits_2_with_its_coloring(capsys, monkeypatch):
    from rainbowtrees import solver

    one_edge_short(solver, monkeypatch)
    # K_3 is one tree from the whole-set check; K_4 with r = 2 is the
    # first coloring whose witness trees come from max_rainbow_forest
    code, _, err = run_cli(capsys, "verify", "worstcase", "--max-n", 4, "--samples", 0)
    assert_defect(code, err, "witness is not a rainbow tree partition",
                  generate_canonical(4, 2)[0])


def test_config_echo(capsys):
    _, out, _ = run_cli(capsys, "formula", 6, 5)
    assert out.splitlines()[0].startswith("# config formula")


def test_module_entry_point_subprocess():
    # __main__.py and cli.py's own sys.exit(main()) run only in a child interpreter
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    for module in ("rainbowtrees", "rainbowtrees.cli"):
        proc = subprocess.run(
            [sys.executable, "-m", module, "formula", "6", "5"],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "t=3 value=2"
