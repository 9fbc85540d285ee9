"""Command line interface: round trips, exit codes, formats, config files."""

import csv
import io
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import eoflab
from eoflab import eof_wootters_2q, load_ensemble, load_state, werner_state
from eoflab.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), err


class TestZoo:
    def test_case1_uniform_is_two_bell_pairs(self, tmp_path, capsys):
        path = str(tmp_path / "state.json")
        code, out, _ = run_json(capsys, "zoo", "case1", "--uniform", "--out", path)
        assert code == 0
        assert out == {"written": path, "family": "case1",
                       "dims": [2, 2, 2, 2], "kind": "pure"}
        code, out, _ = run_json(capsys, "compute", path, "--cut", "0,2")
        assert code == 0
        assert out["value"] == pytest.approx(2.0, abs=1e-9)

    def test_case1_seeded_draw_is_deterministic(self, tmp_path, capsys):
        p1, p2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        assert run(capsys, "zoo", "case1", "--seed", "7", "--out", p1)[0] == 0
        assert run(capsys, "zoo", "case1", "--seed", "7", "--out", p2)[0] == 0
        s1, s2 = load_state(p1), load_state(p2)
        assert np.array_equal(s1.vec, s2.vec)

    def test_case2_factor_file(self, tmp_path, capsys):
        path = str(tmp_path / "f.json")
        code, out, _ = run_json(capsys, "zoo", "case2", "--product-weight", "0.3",
                                "--out", path)
        assert code == 0
        assert out["dims"] == [3, 3]
        assert out["kind"] == "density"

    def test_werner_two_pair_flag(self, tmp_path, capsys):
        path = str(tmp_path / "w4.json")
        code, out, _ = run_json(capsys, "zoo", "werner", "--phi", "-0.6",
                                "--two-pair", "--out", path)
        assert code == 0
        assert out["dims"] == [2, 2, 2, 2]

    def test_random_pure_with_dims(self, tmp_path, capsys):
        path = str(tmp_path / "r.json")
        code, out, _ = run_json(capsys, "zoo", "random", "--dims", "2,3",
                                "--pure", "--seed", "4", "--out", path)
        assert code == 0
        assert out["kind"] == "pure"
        assert load_state(path).dims == (2, 3)

    def test_option_the_family_does_not_read_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "f.json"
        code, out, err = run(capsys, "zoo", "werner", "--shape", "2,3", "--pure",
                             "--out", str(path))
        assert code == 2
        assert out == ""
        assert "'eof zoo werner' does not read --pure, --shape" in err
        assert not path.exists()

    @pytest.mark.parametrize("argv, message", [
        (("random", "--pure", "--rank", "3"), "'eof zoo random --pure' does not read --rank"),
        (("werner", "--two-pair", "--d", "3"), "'eof zoo werner --two-pair' does not read --d"),
        (("case1", "--uniform", "--seed", "7"), "'eof zoo case1 --uniform' does not read --seed"),
    ], ids=["random-pure", "werner-two-pair", "case1-uniform"])
    def test_option_the_variant_does_not_read_is_usage_error(self, tmp_path, capsys,
                                                             argv, message):
        path = tmp_path / "f.json"
        code, out, err = run(capsys, "zoo", *argv, "--out", str(path))
        assert code == 2
        assert out == ""
        assert message in err
        assert not path.exists()

    def test_config_option_the_family_does_not_read_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "eof.cfg"
        cfg.write_text("rank=3\n")
        path = tmp_path / "f.json"
        code, out, err = run(capsys, "zoo", "case2", "--out", str(path), "--config", str(cfg))
        assert code == 2
        assert out == ""
        assert "'eof zoo case2' does not read --rank" in err
        assert not path.exists()


class TestCompute:
    def test_werner_against_closed_form(self, tmp_path, capsys):
        path = str(tmp_path / "w.json")
        run(capsys, "zoo", "werner", "--out", path)
        code, out, _ = run_json(capsys, "compute", path,
                                "--restarts", "4", "--seed", "3")
        assert code == 0
        assert out["converged"] is True
        assert out["closed_form"] == pytest.approx(
            eof_wootters_2q(werner_state(2, -0.85)), abs=1e-12)
        assert abs(out["value"] - out["closed_form"]) < 1e-3
        assert out["value"] >= out["closed_form"] - 1e-9

    def test_pure_state_needs_no_options(self, tmp_path, capsys):
        path = str(tmp_path / "p.json")
        run(capsys, "zoo", "random", "--dims", "3,4", "--pure", "--out", path)
        code, out, _ = run_json(capsys, "compute", path)
        assert code == 0
        assert out["kind"] == "pure"
        assert 0.0 <= out["value"] <= math.log2(3.0) + 1e-9

    def test_pure_state_refuses_search_options(self, tmp_path, capsys):
        path = str(tmp_path / "p.json")
        dump = tmp_path / "best.json"
        run(capsys, "zoo", "random", "--dims", "2,3", "--pure", "--out", path)
        code, out, err = run(capsys, "compute", path, "--restarts", "3", "--seed", "1",
                             "--ensemble-size", "8", "--max-iterations", "5",
                             "--dump-ensemble", str(dump))
        assert code == 2
        assert out == ""
        assert ("'eof compute' on a pure state does not read --dump-ensemble, "
                "--ensemble-size, --max-iterations, --restarts, --seed") in err
        assert not dump.exists()

    def test_cut_required_beyond_two_subsystems(self, tmp_path, capsys):
        path = str(tmp_path / "p4.json")
        run(capsys, "zoo", "case1", "--uniform", "--out", path)
        code, out, err = run(capsys, "compute", path)
        assert code == 2
        assert "--cut" in err

    def test_dump_ensemble_reloads(self, tmp_path, capsys):
        path = str(tmp_path / "w.json")
        dump = str(tmp_path / "best.json")
        run(capsys, "zoo", "werner", "--out", path)
        code, out, _ = run_json(capsys, "compute", path, "--restarts", "2",
                                "--seed", "1", "--ensemble-size", "8",
                                "--dump-ensemble", dump)
        assert code == 0
        assert "restart_runs" not in out        # the run records stay off stdout
        ens = load_ensemble(dump)
        assert len(ens) == out["ensemble_members"]
        assert float(ens.weights.sum()) == pytest.approx(1.0)

    def test_csv_payload(self, tmp_path, capsys):
        path = str(tmp_path / "w.json")
        run(capsys, "zoo", "werner", "--out", path)
        code, out, _ = run(capsys, "compute", path, "--restarts", "2",
                           "--seed", "1", "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["field", "value"]
        table = dict((r[0], r[1]) for r in rows[1:])
        assert table["kind"] == "density"
        assert json.loads(table["dims"]) == [2, 2]

    def test_missing_file_is_usage_error(self, capsys):
        code, _, err = run(capsys, "compute", "/nonexistent/state.json")
        assert code == 2
        assert "error:" in err


class TestVerify:
    def test_flagged_passes(self, capsys):
        code, out, err = run_json(capsys, "verify", "flagged", "--samples", "8")
        assert code == 0
        assert out["passed"] is True
        assert out["name"] == "flagged-identity"
        assert "PASS" in err

    def test_impossible_tolerance_fails(self, capsys):
        code, out, err = run_json(capsys, "verify", "flagged", "--samples", "8",
                                  "--tol", "0")
        assert code == 1
        assert out["passed"] is False
        assert "FAIL" in err

    def test_case2_runs_example_and_analogue(self, capsys):
        code, out, _ = run_json(capsys, "verify", "case2",
                                "--decomposition-samples", "3",
                                "--restarts", "2", "--ensemble-size", "8")
        assert code == 0
        assert isinstance(out, list) and len(out) == 2
        assert all(rep["passed"] for rep in out)

    def test_csv_format_merges_reports(self, capsys):
        code, out, _ = run(capsys, "verify", "case2", "--format", "csv",
                           "--decomposition-samples", "3",
                           "--restarts", "2", "--ensemble-size", "8")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["name", "index", "field", "value"]
        # one merged table, header not repeated
        assert sum(r == rows[0] for r in rows) == 1

    def test_ssa_with_dims(self, capsys):
        code, out, _ = run_json(capsys, "verify", "ssa", "--samples", "6",
                                "--dims", "2,3,2")
        assert code == 0
        assert out["passed"] is True

    def test_ssa_with_two_dims_is_usage_error(self, capsys):
        code, out, err = run(capsys, "verify", "ssa", "--samples", "2", "--dims", "2,2")
        assert code == 2
        assert out == ""
        assert "3 subsystem dims" in err

    def test_unknown_check_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "does-not-exist"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("check", [("relation-chain",), ("weak-additivity", "--pairs", "2")],
                             ids=lambda check: check[0])
    def test_seed_seeds_the_check_not_its_search(self, capsys, check):
        # 0 is the check's default seed, so naming it changes nothing: the
        # check keeps its own search options rather than EofOptions()'s
        bare = run(capsys, "verify", *check)
        assert run(capsys, "verify", *check, "--seed", "0") == bare

    def test_search_flag_changes_only_its_own_field(self, capsys):
        from eoflab.checks import WEAK_ADDITIVITY_SEARCH, check_weak_additivity
        from eoflab.probes import RELATION_CHAIN_SEARCH

        code, out, _ = run_json(capsys, "verify", "relation-chain", "--restarts", "2")
        assert code == 0
        assert out["seed"] == RELATION_CHAIN_SEARCH.seed == 6

        code, out, _ = run(capsys, "verify", "weak-additivity", "--pairs", "2",
                           "--seed", "3", "--restarts", "2")
        want = check_weak_additivity(pairs=2, seed=3, opts=eoflab.EofOptions(
            restarts=2, seed=WEAK_ADDITIVITY_SEARCH.seed))
        assert json.loads(out) == want.to_dict()


@pytest.mark.parametrize("argv", [
    ("verify", "ssa", "--samples", "0"),
    ("verify", "flagged", "--samples", "-3"),
    ("verify", "strong-concavity", "--samples", "0"),
    ("verify", "case1", "--samples", "0"),
    ("verify", "case2", "--decomposition-samples", "0"),
    ("verify", "weak-additivity", "--pairs", "0"),
    ("verify", "all", "--samples", "0"),
    ("probe", "question1", "--trials", "0"),
    ("probe", "question2", "--trials", "0"),
    ("probe", "superadditivity", "--trials", "0"),
    ("probe", "question1", "--trials", "2", "--members", "-5"),
    ("probe", "question2", "--members", "0"),
], ids=" ".join)
def test_count_below_one_is_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "must be >= 1" in err


UNREAD = [
    (("verify", "relation-chain", "--tol", "5", "--dims", "3,3", "--samples", "99"),
     "--dims, --samples, --tol"),
    (("verify", "flagged", "--samples", "2", "--restarts", "5", "--slack", "3"),
     "--restarts, --slack"),
    (("verify", "ssa", "--samples", "2", "--member-slack", "0.1"), "--member-slack"),
    (("verify", "weak-additivity", "--pairs", "1", "--dims", "2,3"), "--dims"),
    (("probe", "superadditivity", "--trials", "2", "--members", "3", "--rank", "9",
      "--dims", "5,5"), "--dims, --members, --rank"),
    (("probe", "question1", "--trials", "2", "--phi", "0.5"), "--phi"),
    (("probe", "question2", "--trials", "2", "--source", "case1"), "--source"),
]


@pytest.mark.parametrize("argv, unread", UNREAD, ids=[" ".join(a) for a, _ in UNREAD])
def test_option_the_check_does_not_read_is_usage_error(capsys, argv, unread):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert f"'eof {argv[0]} {argv[1]}' does not read {unread}" in err


def test_config_option_the_check_does_not_read_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "eof.cfg"
    cfg.write_text("restarts=3\n")
    code, out, err = run(capsys, "verify", "ssa", "--samples", "2", "--config", str(cfg))
    assert code == 2
    assert out == ""
    assert "does not read --restarts" in err


def test_verify_all_takes_an_option_one_check_reads(capsys):
    # --pairs (weak-additivity) and --d (case2) pass the option check, so the
    # run gets as far as the first check, which refuses --samples 0
    code, out, err = run(capsys, "verify", "all", "--pairs", "1", "--d", "2",
                         "--samples", "0")
    assert code == 2
    assert out == ""
    assert "does not read" not in err
    assert "samples must be >= 1" in err


@pytest.mark.parametrize("argv", [
    ("verify", "all", "--dims", "2,2"),
    ("verify", "all", "--dims", "2,3,4"),
    ("verify", "all", "--samples", "2", "--dims", "3"),
], ids=" ".join)
def test_verify_all_refuses_dims(capsys, argv):
    # --dims is a pool of system dimensions for flagged and strong-concavity
    # and the three subsystem dimensions for ssa, so `all` cannot take it
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    assert "'eof verify all' does not take --dims" in err


def test_verify_all_refuses_dims_from_config(tmp_path, capsys):
    cfg = tmp_path / "eof.cfg"
    cfg.write_text("dims=2,2\n")
    code, out, err = run(capsys, "verify", "all", "--config", str(cfg))
    assert code == 2
    assert out == ""
    assert "'eof verify all' does not take --dims" in err


def test_probe_leaves_the_optimizer_unloaded():
    # eoflab.eof imports scipy alone; scipy.optimize loads at the first
    # search, and no probe runs one
    script = ("import sys\n"
              "from eoflab.cli import main\n"
              "code = main(['probe', 'question1', '--trials', '2'])\n"
              "print('exit', code, 'optimize loaded:', 'scipy.optimize' in sys.modules,"
              " file=sys.stderr)\n")
    src = os.path.dirname(os.path.dirname(eoflab.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    res = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env=env, timeout=120)
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout)["trials"] == 2
    assert "optimize loaded: False" in res.stderr


class TestProbe:
    def test_structured_superadditivity_clean(self, capsys):
        code, out, err = run_json(capsys, "probe", "superadditivity",
                                  "--source", "case1", "--trials", "10")
        assert code == 0
        assert out["violation_found"] is False
        assert "no violation" in err

    def test_question2_violation_sets_exit_code(self, capsys):
        code, out, err = run_json(capsys, "probe", "question2", "--trials", "10")
        assert code == 1
        assert out["violation_found"] is True
        assert out["argmin"]["relation"] == "question2"
        assert "VIOLATION" in err

    def test_rank_above_dimension_is_usage_error(self, capsys):
        code, out, err = run(capsys, "probe", "question1", "--dims", "2,2", "--rank", "5")
        assert code == 2
        assert out == ""
        assert "rank 5 outside 1..4" in err

    @pytest.mark.parametrize("flag", ["--restarts", "--ensemble-size", "--max-iterations"])
    def test_search_flags_are_usage_errors(self, flag):
        # no probe runs the decomposition search, so it takes no search options
        with pytest.raises(SystemExit) as exc:
            main(["probe", "superadditivity", flag, "4"])
        assert exc.value.code == 2

    def test_members_is_a_floor(self, capsys):
        # rank-2 factors need 4 members; --members asks for fewer and is raised
        code, out, _ = run_json(capsys, "probe", "question1", "--members", "2",
                                "--trials", "3")
        assert code in (0, 1)
        assert out["extra"]["members"] == 2
        assert [e["members"] for e in out["per_trial"]] == [4, 4, 4]

    def test_seeded_runs_are_identical(self, capsys):
        _, out1, _ = run(capsys, "probe", "question1", "--trials", "5",
                         "--seed", "9")
        _, out2, _ = run(capsys, "probe", "question1", "--trials", "5",
                         "--seed", "9")
        assert out1 == out2


@pytest.mark.parametrize("argv, option", [
    (("probe", "superadditivity", "--source", "werner", "--trials", "2", "--slack", "-1"),
     "slack"),
    (("probe", "question1", "--trials", "2", "--slack", "nan"), "slack"),
    (("verify", "weak-additivity", "--pairs", "1", "--slack", "inf"), "slack"),
    (("verify", "case2", "--decomposition-samples", "1", "--member-slack", "-0.5"),
     "member_slack"),
    (("verify", "ssa", "--samples", "2", "--tol", "nan"), "tol"),
], ids=["negative-slack", "nan-slack", "infinite-slack", "member-slack", "nan-tol"])
def test_bad_tolerance_is_usage_error(capsys, argv, option):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert f"error: {option} must be finite and >= 0" in err


class TestConfig:
    def test_config_fills_defaults(self, tmp_path, capsys):
        cfg = tmp_path / "eof.cfg"
        cfg.write_text("# defaults\nsamples = 6\nformat = csv\n")
        code, out, _ = run(capsys, "verify", "flagged", "--config", str(cfg))
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        table = {r[2]: r[3] for r in rows[1:] if r[1] == ""}
        assert table["samples"] == "6"

    def test_flags_beat_config(self, tmp_path, capsys):
        cfg = tmp_path / "eof.cfg"
        cfg.write_text("samples=50\n")
        code, out, _ = run_json(capsys, "verify", "flagged", "--samples", "4",
                                "--config", str(cfg))
        assert code == 0
        assert out["samples"] == 4

    def test_config_before_subcommand(self, tmp_path, capsys):
        cfg = tmp_path / "eof.cfg"
        cfg.write_text("samples=5\n")
        code, out, _ = run_json(capsys, "--config", str(cfg), "verify", "flagged")
        assert code == 0
        assert out["samples"] == 5

    def test_malformed_config_line(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("samples 5\n")
        code, _, err = run(capsys, "verify", "flagged", "--config", str(cfg))
        assert code == 2
        assert "key=value" in err

    @pytest.mark.parametrize("argv, line", [
        (("verify", "ssa", "--samples", "2"), "trails=7"),
        (("probe", "question1", "--trials", "2"), "restarts=3"),
    ], ids=["typo", "option-of-another-command"])
    def test_unknown_key_is_an_error(self, tmp_path, capsys, argv, line):
        cfg = tmp_path / "eof.cfg"
        cfg.write_text(f"samples=3\n{line}\n")
        code, out, err = run(capsys, *argv, "--config", str(cfg))
        assert code == 2
        assert out == ""
        assert repr(line.partition("=")[0]) in err

    @pytest.mark.parametrize("argv, line", [
        (("verify", "flagged", "--samples", "1"), "format=xml"),
        (("probe", "superadditivity", "--trials", "1"), "source=haar"),
    ], ids=["format", "source"])
    def test_value_outside_choices_is_an_error(self, tmp_path, capsys, argv, line):
        # argparse checks choices on command-line values only
        cfg = tmp_path / "eof.cfg"
        cfg.write_text(f"{line}\n")
        code, out, err = run(capsys, *argv, "--config", str(cfg))
        assert code == 2
        assert out == ""
        key, _, value = line.partition("=")
        assert f"{key}={value!r}" in err

    def test_config_value_uses_the_option_type(self, tmp_path, capsys):
        cfg = tmp_path / "eof.cfg"
        cfg.write_text("samples=six\n")
        with pytest.raises(SystemExit) as exc:
            main(["verify", "flagged", "--config", str(cfg)])
        assert exc.value.code == 2
        assert "--samples" in capsys.readouterr().err

    def test_missing_config_file(self, capsys):
        code, _, err = run(capsys, "verify", "flagged", "--config",
                           "/nonexistent.cfg")
        assert code == 2
        assert "error:" in err
