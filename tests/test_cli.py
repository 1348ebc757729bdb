import os
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import (
    all_alone,
    count_engine_calls,
    count_named_partitions,
    delete_a_matched_agent,
    delete_an_unknown_agent,
    drop_a_matched_pair,
    fault_the_engine,
    fault_the_witness,
    paired_triangles,
    spurious_odd_party,
)
import stablectl
from stablectl import cli, model
from stablectl.cli import main
from stablectl.generators import random_sr
from stablectl.model import parse_instance, parse_matching, serialize_instance

VALID = "problem: sr\nagent a\nagent b\npref a: b\npref b: a\n"
THREE_CYCLE = (
    "problem: sr\n"
    "agent a\nagent b\nagent c\n"
    "pref a: b > c\npref b: c > a\npref c: a > b\n"
)
TOP_PAIR = (
    "problem: sr\n"
    "agent a\nagent b\nagent c\n"
    "pref a: b > c\npref b: a > c\npref c: a > b\n"
)
ASYMMETRIC = "problem: sr\nagent a\nagent b\npref a: b\npref b:\n"
MALFORMED = "problem: sr\nagent a\nwhat is this\npref a:\n"
EMPTY_ENTRY = "problem: sr\nagent a\nagent b\nagent c\npref a: b > > c\npref b: a\npref c: a\n"
FOUR_AGENTS = (
    "problem: sr\n"
    "agent a\nagent b\nagent c\nagent d\n"
    "pref a: b > c > d\npref b: c > a > d\npref c: a > b > d\npref d: a > b > c\n"
)


@pytest.fixture
def instance_file(tmp_path):
    def write(text, name="inst.sr"):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    return write


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- validate ------------------------------------------------------------------


def test_validate_ok(instance_file, capsys):
    code, out, _ = run(capsys, "validate", instance_file(VALID))
    assert code == 0 and out.strip() == "ok"


def test_validate_reports_violations(instance_file, capsys):
    code, out, _ = run(capsys, "validate", instance_file(ASYMMETRIC))
    assert code == 3 and "asymmetric" in out


def test_validate_prints_every_violation_in_order(instance_file, capsys):
    text = (
        "problem: sr\n"
        "agent a\nagent b\nagent c\n"
        "pref a: a > b > z\npref b: c\npref c: b > b > a\n"
    )
    code, out, err = run(capsys, "validate", instance_file(text))
    assert code == 3 and err == ""
    assert out == (
        "agent a lists itself\n"
        "agent a lists unknown agent z\n"
        "agent c has duplicate preference entries\n"
        "asymmetric acceptability between a and b\n"
        "asymmetric acceptability between c and a\n"
    )


def test_validate_parse_error(instance_file, capsys):
    code, _, err = run(capsys, "validate", instance_file(MALFORMED))
    assert code == 2 and "line 3" in err


def test_validate_rejects_empty_preference_entry(instance_file, capsys):
    code, out, err = run(capsys, "validate", instance_file(EMPTY_ENTRY))
    assert code == 2 and out == ""
    assert "line 5" in err and "empty preference entry" in err


def test_undecodable_file_is_invalid_input(tmp_path, capsys):
    path = tmp_path / "binary.sr"
    path.write_bytes(b"problem: sr\n\xff\n")
    code, out, err = run(capsys, "validate", str(path))
    assert code == 3 and out == "" and err.startswith("invalid input: 'utf-8' codec")


def test_a_repeated_agent_attribute_is_a_parse_error(instance_file, capsys):
    for attrs in ("side=b side=a", "side=a addable addable"):
        text = f"problem: sm\nagent a {attrs}\nagent b side=b\npref a: b\npref b: a\n"
        code, out, err = run(capsys, "validate", instance_file(text))
        assert (code, out) == (2, "") and err.startswith("parse error: line 2: agent a ")


def test_missing_file(capsys):
    code, _, err = run(capsys, "validate", "/nonexistent/path.sr")
    assert code == 2


# -- stable --------------------------------------------------------------------


def test_stable_prints_matching(instance_file, capsys):
    code, out, _ = run(capsys, "stable", instance_file(VALID))
    assert code == 0 and out.strip() == "match a b"


def test_stable_none_and_partition(instance_file, capsys):
    code, out, _ = run(capsys, "stable", instance_file(THREE_CYCLE), "--partition")
    assert code == 0
    assert out.splitlines()[0] == "none"
    assert "party (a b c) odd" in out


def test_stable_partition_runs_the_engine_once(instance_file, capsys, monkeypatch):
    # One interned table and one engine run, whose partition gives both
    # the matching and the printed parties.
    counts = count_engine_calls(monkeypatch)
    for text in (FOUR_AGENTS, VALID):
        path = instance_file(text)
        for flags in ([], ["--partition"], ["--enumerate", "--partition"]):
            counts.update(tables=0, runs=0)
            code, out, _ = run(capsys, "stable", path, *flags)
            assert code == 0 and counts == {"tables": 1, "runs": 1}
    code, out, _ = run(capsys, "stable", instance_file(FOUR_AGENTS), "--partition")
    assert out == "none\nparty (a b c) odd\nparty (d) odd\n"
    code, out, _ = run(capsys, "stable", instance_file(VALID), "--partition")
    assert out == "match a b\nparty (a b)\n"


def test_stable_names_a_partition_only_when_it_prints_one(instance_file, capsys, monkeypatch):
    # The matching is read off the engine's diagnosis; only --partition
    # names the partition, once, from the same single engine run.
    named = count_named_partitions(monkeypatch)
    counts = count_engine_calls(monkeypatch)
    for text in (FOUR_AGENTS, VALID, THREE_CYCLE, serialize_instance(random_sr(12, 0.6, 3))):
        path = instance_file(text)
        for flags, partitions in (([], 0), (["--partition"], 1)):
            named.clear()
            counts.update(tables=0, runs=0)
            code, _, _ = run(capsys, "stable", path, *flags)
            assert code == 0 and len(named) == partitions
            assert counts == {"tables": 1, "runs": 1}


def test_stable_partition_resolves_a_rotation_that_is_not_singular(instance_file, capsys):
    path = instance_file(serialize_instance(paired_triangles()))
    assert run(capsys, "stable", path, "--partition") == (
        0,
        "match u01 u05\nmatch u02 u03\nmatch u04 u06\n"
        "party (u00) odd\nparty (u01 u05)\nparty (u02 u03)\nparty (u04 u06)\n",
        "",
    )
    path = instance_file(serialize_instance(random_sr(16, 0.85, 129376)))
    code, out, err = run(capsys, "stable", path, "--partition")
    lines = out.splitlines()
    assert (code, err, len(lines)) == (0, "", 16)
    assert all(line.startswith("match ") for line in lines[:8])
    assert not any(line.endswith(" odd") for line in lines)


def test_stable_enumerate(instance_file, capsys):
    code, out, _ = run(capsys, "stable", instance_file(THREE_CYCLE), "--enumerate")
    assert code == 0 and "stable matchings: 0" in out


def test_stable_enumerate_cap(instance_file, capsys, monkeypatch):
    code, _, err = run(capsys, "stable", instance_file(THREE_CYCLE), "--enumerate", "--cap", "2")
    assert code == 4 and "cap" in err
    monkeypatch.setenv("STABLECTL_CAP", "2")
    code, _, err = run(capsys, "stable", instance_file(THREE_CYCLE), "--enumerate")
    assert code == 4


# -- solve ---------------------------------------------------------------------


def test_solve_delag_mp(instance_file, capsys):
    code, out, _ = run(
        capsys,
        "solve",
        instance_file(THREE_CYCLE),
        "--problem",
        "delag-mp",
        "--target-pair",
        "a,b",
        "--budget",
        "1",
    )
    assert code == 0
    assert "verdict: yes" in out and "optimum: 1" in out and "actions: c" in out


def test_solve_methods_agree(instance_file, capsys):
    args = (
        "solve",
        instance_file(THREE_CYCLE),
        "--problem",
        "delag-mp",
        "--target-pair",
        "a,b",
        "--budget",
        "0",
    )
    code, fast, _ = run(capsys, *args, "--method", "poly")
    code2, slow, _ = run(capsys, *args, "--method", "exact")
    assert code == code2 == 0
    assert fast == slow
    assert "verdict: no" in fast


def test_solve_delacc_ms(instance_file, capsys, tmp_path):
    matching = tmp_path / "target.matching"
    matching.write_text("match a b\n", encoding="utf-8")
    code, out, _ = run(
        capsys,
        "solve",
        instance_file(VALID),
        "--problem",
        "delacc-ms",
        "--target-matching",
        str(matching),
        "--budget",
        "0",
    )
    assert code == 0 and "verdict: yes" in out and "optimum: 0" in out


def test_solve_addag_esm_on_reduced_gadget(instance_file, capsys, tmp_path):
    graph = tmp_path / "g.graph"
    graph.write_text("vertices u v\nedge u v\n", encoding="utf-8")
    out_path = tmp_path / "reduced.sr"
    code, out, _ = run(
        capsys,
        "reduce",
        str(graph),
        "--from",
        "is",
        "--to",
        "csr-addag-esm",
        "--k",
        "1",
        "--out",
        str(out_path),
    )
    assert code == 0
    sidecar = (tmp_path / "reduced.sr.query").read_text(encoding="utf-8")
    assert "problem: addag-esm" in sidecar
    assert "budget: 1" in sidecar
    code, out, _ = run(
        capsys,
        "solve",
        str(out_path),
        "--problem",
        "addag-esm",
        "--budget",
        "1",
    )
    assert code == 0 and "verdict: yes" in out and "actions: u" in out


def test_solve_rejects_poly_on_exact_only_problem(instance_file, capsys):
    code, _, err = run(
        capsys,
        "solve",
        instance_file(THREE_CYCLE),
        "--problem",
        "delag-esm",
        "--budget",
        "1",
        "--method",
        "poly",
    )
    assert code == 3 and "polynomial" in err


def test_solve_rejects_bad_problem_and_targets(instance_file, capsys):
    path = instance_file(THREE_CYCLE)
    code, _, err = run(capsys, "solve", path, "--problem", "delag-zz", "--budget", "1")
    assert code == 3
    code, _, err = run(capsys, "solve", path, "--problem", "delag-mp", "--budget", "1")
    assert code == 3 and "target-pair" in err
    code, _, err = run(
        capsys, "solve", path, "--problem", "delag-mp", "--target-pair", "a", "--budget", "1"
    )
    assert code == 3


def test_solve_cap_exceeded(capsys, instance_file, tmp_path):
    # Complete graph on 10 agents: 45 candidate pairs > default cap 20.
    from stablectl.generators import random_sr
    from stablectl.model import serialize_instance

    path = instance_file(serialize_instance(random_sr(10, 1.0, 1)), "big.sr")
    code, _, err = run(
        capsys, "solve", path, "--problem", "delacc-esm", "--budget", "1"
    )
    assert code == 4 and "cap" in err


@pytest.mark.parametrize(
    "command",
    [
        ["stable", "{path}", "--enumerate"],
        ["solve", "{path}", "--problem", "delacc-esm", "--budget", "1"],
    ],
)
def test_a_negative_cap_is_invalid_input(instance_file, capsys, monkeypatch, command):
    argv = [a.format(path=instance_file(THREE_CYCLE)) for a in command]
    code, out, err = run(capsys, *argv, "--cap", "-1")
    assert (code, out, err) == (3, "", "invalid input: --cap must not be negative, got -1\n")
    monkeypatch.setenv("STABLECTL_CAP", "-1")
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (3, "", "invalid input: STABLECTL_CAP must not be negative, got -1\n")
    # The flag wins over the environment, and a cap of 0 is a cap.
    code, _, err = run(capsys, *argv, "--cap", "0")
    assert code == 4 and "cap" in err
    code, _, _ = run(capsys, *argv, "--cap", "3")
    assert code == 0


def test_a_non_integer_cap_in_the_environment_is_invalid_input(instance_file, capsys, monkeypatch):
    monkeypatch.setenv("STABLECTL_CAP", "abc")
    code, out, err = run(capsys, "stable", instance_file(VALID), "--enumerate")
    assert code == 3 and out == "" and "STABLECTL_CAP" in err


def test_stable_reads_the_cap_only_when_it_enumerates(instance_file, capsys, monkeypatch):
    path = instance_file(FOUR_AGENTS)
    plain = {flags: run(capsys, "stable", path, *flags) for flags in ((), ("--partition",))}
    monkeypatch.setenv("STABLECTL_CAP", "abc")
    for flags, expected in plain.items():
        assert expected[0] == 0 and run(capsys, "stable", path, *flags) == expected
    code, out, err = run(capsys, "stable", path, "--enumerate")
    assert code == 3 and out == "" and "STABLECTL_CAP" in err


@pytest.mark.parametrize("problem,flag", [("delag-ma", "--target-agent"), ("delacc-ms", "--target-matching")])
def test_solve_names_the_missing_target_flag(instance_file, capsys, problem, flag):
    code, out, err = run(capsys, "solve", instance_file(THREE_CYCLE), "--problem", problem, "--budget", "1")
    assert code == 3 and out == "" and flag in err


def test_solve_rejects_a_target_flag_that_the_goal_does_not_take(instance_file, capsys):
    path = instance_file(THREE_CYCLE)
    matching = instance_file("match a b\n", "target.matching")
    cases = [
        ("delag-esm", [], ["--target-agent", "zz"], "esm takes no --target-agent"),
        ("delag-ma", ["--target-agent", "a"], ["--target-pair", "b,c"], "ma takes no --target-pair"),
        ("delacc-ms", ["--target-matching", matching], ["--target-agent", "a"], "ms takes no --target-agent"),
    ]
    for problem, own, stray, message in cases:
        argv = ["solve", path, "--problem", problem, "--budget", "1", *own]
        assert run(capsys, *argv)[0] == 0
        assert run(capsys, *argv, *stray) == (3, "", f"invalid input: goal {message}\n")


@pytest.mark.parametrize(
    "text",
    [
        "problem: sr\nagent\n",
        "problem: sr\nagent a hidden\npref a:\n",
        "problem: sr\nagent a\npref a\n",
        "# only a comment\n\n# and another\n",
    ],
    ids=["agent-without-id", "unknown-attribute", "pref-without-colon", "only-comments"],
)
def test_malformed_instance_text_is_a_parse_error(instance_file, capsys, text):
    code, out, err = run(capsys, "validate", instance_file(text))
    assert code == 2 and out == "" and err.startswith("parse error:")


# -- reduce --------------------------------------------------------------------


def test_reduce_clique_budget_formula(capsys, tmp_path):
    graph = tmp_path / "k3.graph"
    graph.write_text(
        "vertices v1 v2 v3\nedge v1 v2\nedge v1 v3\nedge v2 v3\n", encoding="utf-8"
    )
    out_path = tmp_path / "k3.sm"
    code, out, _ = run(
        capsys,
        "reduce",
        str(graph),
        "--from",
        "clique",
        "--to",
        "csm-addag-ma",
        "--k",
        "2",
        "--out",
        str(out_path),
    )
    assert code == 0
    sidecar = (tmp_path / "k3.sm.query").read_text(encoding="utf-8")
    assert "budget: 3" in sidecar
    assert "target-agent: wstar" in sidecar
    assert "# name" in sidecar
    parse_instance(out_path.read_text(encoding="utf-8"))


def test_reduce_is_ms_writes_matching_file_and_solves(capsys, tmp_path):
    graph = tmp_path / "v.graph"
    graph.write_text("vertices v\n", encoding="utf-8")
    out_path = tmp_path / "v.sr"
    code, out, _ = run(
        capsys,
        "reduce",
        str(graph),
        "--from",
        "is",
        "--to",
        "csr-addag-ms",
        "--k",
        "1",
        "--out",
        str(out_path),
    )
    assert code == 0
    sidecar = (tmp_path / "v.sr.query").read_text(encoding="utf-8")
    assert "budget: 1" in sidecar
    matching = parse_matching((tmp_path / "v.sr.matching").read_text(encoding="utf-8"))
    assert len(matching) == 3
    code, out, _ = run(
        capsys,
        "solve",
        str(out_path),
        "--problem",
        "addag-ms",
        "--target-matching",
        str(tmp_path / "v.sr.matching"),
        "--budget",
        "1",
    )
    assert code == 0
    assert "verdict: yes" in out and "optimum: 1" in out and "actions: a'_v" in out


def test_reduce_rejects_mismatched_source(capsys, tmp_path):
    graph = tmp_path / "g.graph"
    graph.write_text("vertices a b\n", encoding="utf-8")
    code, _, err = run(
        capsys,
        "reduce",
        str(graph),
        "--from",
        "clique",
        "--to",
        "csr-addag-ms",
        "--k",
        "1",
        "--out",
        str(tmp_path / "x.sr"),
    )
    assert code == 3
    code, _, err = run(
        capsys,
        "reduce",
        str(graph),
        "--from",
        "is",
        "--to",
        "csr-addag-ms",
        "--k",
        "5",
        "--out",
        str(tmp_path / "x.sr"),
    )
    assert code == 3 and "k" in err


def test_reduce_refuses_a_gadget_that_names_an_agent_twice(capsys, tmp_path):
    # Both edges read "a-b-c" as an edge token.
    graph = tmp_path / "g.graph"
    graph.write_text("vertices a b-c a-b c\nedge a b-c\nedge a-b c\n", encoding="utf-8")
    out_path = tmp_path / "x.sm"
    code, out, err = run(
        capsys,
        "reduce",
        str(graph),
        "--from",
        "clique",
        "--to",
        "csm-addag-ma",
        "--k",
        "2",
        "--out",
        str(out_path),
    )
    assert code == 3 and out == "" and "collide" in err
    assert not out_path.exists()


# -- gen -----------------------------------------------------------------------


def test_gen_writes_parseable_instance(capsys, tmp_path):
    out_path = tmp_path / "gen.sr"
    code, _, _ = run(
        capsys, "gen", "--n", "6", "--density", "0.5", "--seed", "9", "--out", str(out_path)
    )
    assert code == 0
    inst = parse_instance(out_path.read_text(encoding="utf-8"))
    assert len(inst.agents) == 6


def test_an_unwritable_out_path_is_invalid_input(capsys, tmp_path):
    missing = tmp_path / "missing" / "x.sr"
    code, out, err = run(
        capsys, "gen", "--n", "3", "--density", "0.5", "--seed", "1", "--out", str(missing)
    )
    assert (code, out) == (3, "") and err.startswith(f"invalid input: cannot write {missing}: ")
    # ``reduce`` writes the instance, then the target matching, then the query.
    graph = tmp_path / "v.graph"
    graph.write_text("vertices v\n", encoding="utf-8")
    argv = ["reduce", str(graph), "--from", "is", "--to", "csr-addag-ms", "--k", "1", "--out"]
    code, out, err = run(capsys, *argv, str(missing))
    assert (code, out) == (3, "") and err.startswith(f"invalid input: cannot write {missing}: ")
    for blocked in ("v.sr.matching", "v.sr.query"):
        (tmp_path / blocked).mkdir()  # a directory cannot be written as a file
        code, out, err = run(capsys, *argv, str(tmp_path / "v.sr"))
        assert (code, out) == (3, "")
        assert err.startswith(f"invalid input: cannot write {tmp_path / blocked}: ")
        (tmp_path / blocked).rmdir()
        # A failed write removes what the call already wrote.
        assert not (tmp_path / "v.sr").exists() and not (tmp_path / "v.sr.matching").exists()


def test_gen_bipartite_to_stdout(capsys):
    code, out, _ = run(
        capsys, "gen", "--bipartite", "--na", "2", "--nb", "3", "--density", "1.0", "--seed", "4"
    )
    assert code == 0
    inst = parse_instance(out)
    assert inst.kind == "sm" and len(inst.agents) == 5


def test_gen_needs_sizes(capsys):
    code, _, err = run(capsys, "gen", "--density", "0.5", "--seed", "1")
    assert code == 3


@pytest.mark.parametrize("sizes", [[], ["--na", "2"], ["--nb", "2"]])
def test_gen_bipartite_needs_both_sides(capsys, sizes):
    code, out, err = run(capsys, "gen", "--bipartite", *sizes, "--density", "0.5", "--seed", "1")
    assert code == 3 and out == "" and "--na and --nb" in err


def test_gen_rejects_out_of_range_density(capsys):
    code, out, err = run(capsys, "gen", "--n", "4", "--density", "2", "--seed", "1")
    assert code == 3 and out == "" and "density" in err


@pytest.mark.parametrize(
    "sizes", [["--n", "-3"], ["--bipartite", "--na", "-1", "--nb", "2"]]
)
def test_gen_rejects_negative_sizes(capsys, sizes):
    code, out, err = run(capsys, "gen", *sizes, "--density", "0.5", "--seed", "1")
    assert code == 3 and out == "" and "non-negative" in err


def test_internal_value_error_is_not_reported_as_invalid_input(
    instance_file, capsys, monkeypatch
):
    import stablectl.poly

    def faulty(*args):
        raise ValueError("solver fault")

    monkeypatch.setattr(stablectl.poly, "solve_delag_mp", faulty)
    path = instance_file(THREE_CYCLE)
    with pytest.raises(ValueError, match="solver fault"):
        main(["solve", path, "--problem", "delag-mp", "--target-pair", "a,b", "--budget", "1"])


def test_a_list_rule_that_validate_does_not_see_exits_1(instance_file, capsys, monkeypatch):
    monkeypatch.setattr(model, "validate", lambda inst: [])
    for command in ("validate", "stable"):
        assert run(capsys, command, instance_file(ASYMMETRIC)) == (
            1,
            "",
            "error: a list rule failed on an sr market that validate accepts\n",
        )


def test_stable_reports_an_engine_fault_as_an_error(instance_file, capsys, monkeypatch):
    fault_the_engine(monkeypatch, all_alone)
    code, out, err = run(capsys, "stable", instance_file(THREE_CYCLE))
    assert (code, out) == (1, "")
    assert err == (
        "error: invalid partition: pair a,b blocks the partition; "
        "pair a,c blocks the partition; pair b,c blocks the partition\n"
    )


def test_stable_certifies_a_none_answer(instance_file, capsys, monkeypatch):
    path = instance_file(TOP_PAIR)
    assert run(capsys, "stable", path, "--partition") == (
        0,
        "match a b\nparty (a b)\nparty (c) odd\n",
        "",
    )
    fault_the_engine(monkeypatch, spurious_odd_party)
    for flags in ([], ["--partition"]):
        code, out, err = run(capsys, "stable", path, *flags)
        assert (code, out) == (1, "")
        assert err == "error: invalid partition: b prefers its predecessor a to its successor c\n"


def test_engine_fault_prints_an_error_and_exits_1(instance_file, capsys, monkeypatch):
    # The pair solvers run the engine on their own table, not through
    # ``tan_stable_partition``; the stand-in inside the run reaches both.
    fault_the_engine(monkeypatch, all_alone)
    path = instance_file(THREE_CYCLE)
    for query in (["delag-mp", "--target-pair", "a,b"], ["delag-ma", "--target-agent", "a"]):
        code, out, err = run(capsys, "solve", path, "--problem", *query, "--budget", "1")
        assert (code, out) == (1, "")
        assert err.startswith("error: invalid partition: ")


@pytest.mark.parametrize(
    "fault, message",
    [
        (drop_a_matched_pair, "witness matching is unstable in the controlled instance"),
        (delete_a_matched_agent, "witness matching is unstable in the controlled instance"),
        (delete_an_unknown_agent, "malformed deletion witness"),
    ],
)
def test_a_faulty_witness_prints_an_error_and_exits_1(fault, message, instance_file, capsys, monkeypatch):
    path = instance_file(serialize_instance(random_sr(5, 0.8, 0)))
    fault_the_witness(monkeypatch, "u00", fault)
    for query in (["delag-mp", "--target-pair", "u00,u02"], ["delag-ma", "--target-agent", "u00"]):
        code, out, err = run(capsys, "solve", path, "--problem", *query, "--budget", "5")
        assert (code, out) == (1, "")
        assert err == f"error: {message}\n"


def test_a_market_command_builds_one_core_in_the_parse(instance_file, capsys, monkeypatch, tmp_path):
    counts = count_engine_calls(monkeypatch)
    parsed = []

    def parse(text):
        inst = parse_instance(text)
        parsed.append("core" in vars(inst))
        return inst

    monkeypatch.setattr(cli, "parse_instance", parse)
    matching = tmp_path / "target.matching"
    matching.write_text("match u00 u01\n", encoding="utf-8")
    path = instance_file(serialize_instance(random_sr(12, 0.6, 3)))
    commands = [
        ["stable", path],
        ["stable", path, "--partition"],
        ["solve", path, "--problem", "delag-mp", "--target-pair", "u00,u01", "--budget", "3"],
        ["solve", path, "--problem", "delag-ma", "--target-agent", "u00", "--budget", "3"],
        ["solve", path, "--problem", "delacc-ms", "--target-matching", str(matching), "--budget", "9"],
    ]
    for argv in commands:
        counts["tables"] = 0
        parsed.clear()
        code, _, err = run(capsys, *argv)
        assert (code, err, parsed, counts["tables"]) == (0, "", [True], 1), argv


def test_repeated_commands_in_one_process_print_what_the_first_printed(instance_file, capsys):
    good, bad = instance_file(THREE_CYCLE), instance_file(ASYMMETRIC, "bad.sr")
    commands = [
        ["validate", good],
        ["stable", good, "--partition"],
        ["solve", good, "--problem", "delag-mp", "--target-pair", "a,b", "--budget", "1"],
        ["solve", good, "--budget", "1"],  # usage error: --problem is missing
        ["validate", bad],
        ["stable", good, "--cap"],  # usage error: --cap needs a value
        ["solve", good, "--problem", "delag-mp", "--budget", "1"],
        ["validate", instance_file(MALFORMED, "malformed.sr")],
    ]

    def call(argv):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = ("exit", exc.code)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    cli.build_parser.cache_clear()
    first = [call(argv) for argv in commands]
    assert [code for code, _, _ in first] == [0, 0, 0, ("exit", 2), 3, ("exit", 2), 3, 2]
    assert first[3][2].startswith("usage: stablectl solve ")
    for argv, expected in [*zip(commands, first), *zip(commands[::-1], first[::-1])]:
        assert call(argv) == expected, argv
    assert cli.build_parser() is cli.build_parser()


# -- module entry point ----------------------------------------------------------


def test_python_dash_m_entry(tmp_path):
    path = tmp_path / "inst.sr"
    path.write_text(VALID, encoding="utf-8")
    # The child imports the package under test, not an installed copy.
    env = {**os.environ, "PYTHONPATH": str(Path(stablectl.__file__).resolve().parent.parent)}
    proc = subprocess.run(
        [sys.executable, "-m", "stablectl", "validate", str(path)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0 and proc.stdout.strip() == "ok"
