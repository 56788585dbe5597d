import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from twistflag.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_order_defaults_to_A2(capsys):
    code, out, _ = run(capsys, "order", "2", "1", "--J", "2")
    assert code == 0
    data = json.loads(out)
    assert data["comparable"] is True
    assert data["witness_c"] == []
    assert data["v"]["jlength"] == -1
    assert data["w"]["jlength"] == 1


def test_order_not_comparable(capsys):
    code, out, _ = run(capsys, "order", "1", "")
    assert code == 0
    data = json.loads(out)
    assert data["comparable"] is False
    assert "witness_c" not in data


def test_order_bad_label(capsys):
    code, _, err = run(capsys, "order", "7", "1")
    assert code == 4
    assert "usage error" in err


def test_interval_checks(capsys):
    code, out, _ = run(capsys, "interval", "", "1 2 1",
                       "--checks", "pure,thin,el,homology")
    assert code == 0
    data = json.loads(out)
    assert data["checks"] == {"pure": True, "thin": True, "el": True, "sphere": 1}
    assert len(data["poset"]["elements"]) == 6
    assert sorted(data["poset"]["rank"]) == [0, 1, 1, 2, 2, 3]


def test_interval_usage_errors(capsys):
    code, _, err = run(capsys, "interval", "1", "", "--checks", "pure")
    assert code == 4 and "x <=J y fails" in err
    code, _, err = run(capsys, "interval", "", "1", "--checks", "bogus")
    assert code == 4


def test_interval_dot_output(capsys):
    code, out, _ = run(capsys, "--format", "dot", "interval", "", "1")
    assert code == 0
    assert out.startswith("digraph")


def test_dot_format_is_for_interval_only(capsys):
    """Only interval has a DOT rendering; the other verbs refuse --format dot
    before doing any work, instead of printing JSON."""
    for argv in (["order", "2", "1"], ["sample", "2", "1", "--J", "2"],
                 ["verify", "--suite", "flags"]):
        for placed in (["--format", "dot", *argv], [*argv, "--format", "dot"]):
            code, out, err = run(capsys, *placed)
            assert code == 4 and out == ""
            assert err.startswith("usage error: --format dot is for interval only")


def test_options_before_or_after_the_verb(capsys, tmp_path):
    """A shared option gives the same report, stderr and exit code on either
    side of the verb, and one call's options do not leak into the next."""
    cfg = tmp_path / "b2.json"
    cfg.write_text(json.dumps({"cartan": [[2, -2], [-1, 2]], "labels": ["a", "b"]}))
    for opts, verb in ((["--J", "2"], ["order", "2", "1"]),
                       (["--format", "text", "--J", "1"], ["interval", "", "1 2 1"]),
                       (["--seed", "3", "--J", "2"], ["sample", "2", "1", "--count", "2"]),
                       (["--config", str(cfg)], ["order", "a", "a b a b"]),
                       (["--J", "9"], ["interval", "", "1"]),
                       (["--budget-elems", "5"], ["verify", "--suite", "flags"])):
        before = run(capsys, *opts, *verb)
        assert run(capsys, *verb, *opts) == before
    assert run(capsys, "--J", "1", "order", "2", "1", "--J", "2") == \
        run(capsys, "order", "2", "1", "--J", "2")
    default = run(capsys, "sample", "2", "1", "--J", "2")
    run(capsys, "--seed", "5", "sample", "2", "1", "--J", "2")
    assert run(capsys, "sample", "2", "1", "--J", "2") == default


def test_interval_inconclusive_budget(capsys, tmp_path):
    cfg = tmp_path / "affine.json"
    cfg.write_text(json.dumps({"cartan": [[2, -2], [-2, 2]], "labels": ["1", "2"]}))
    code, out, _ = run(capsys, "--config", str(cfg), "--budget-elems", "4",
                       "interval", "", "1 2 1 2")
    assert code == 3
    assert "inconclusive" in json.loads(out)


def test_interval_inconclusive_dot(capsys, tmp_path):
    """An inconclusive interval has no poset to draw: under --format dot it
    says so on stderr and leaves stdout and --out empty."""
    cfg = tmp_path / "affine.json"
    cfg.write_text(json.dumps({"cartan": [[2, -2], [-2, 2]], "labels": ["1", "2"]}))
    target = tmp_path / "report.dot"
    for extra in ([], ["--out", str(target)]):
        code, out, err = run(capsys, "--config", str(cfg), "--budget-elems", "4",
                             "--format", "dot", *extra, "interval", "", "1 2 1 2")
        assert code == 3 and out == ""
        assert err == "inconclusive: ball enumeration exceeded budget of 4 elements\n"
    assert not target.exists()


def test_config_file_and_out(capsys, tmp_path):
    cfg = tmp_path / "b2.json"
    cfg.write_text(json.dumps({"cartan": [[2, -2], [-1, 2]], "labels": ["a", "b"]}))
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, "--config", str(cfg), "--out", str(target),
                       "order", "a", "a b a b")
    assert code == 0 and out == ""
    data = json.loads(target.read_text())
    assert data["comparable"] is True


def test_bad_config_is_usage_error(capsys, tmp_path):
    cfg = tmp_path / "broken.json"
    cfg.write_text(json.dumps({"cartan": [[2, -1], [0, 2]], "labels": ["a", "b"]}))
    for path in (cfg, tmp_path / "missing.json"):
        for verb in (["order", "a", "b"], ["interval", "", "a"], ["sample", "a", ""]):
            code, out, err = run(capsys, "--config", str(path), *verb)
            assert code == 4 and out == "" and err.startswith("usage error: config")


def test_verify_suite_deterministic(capsys):
    code1, out1, _ = run(capsys, "verify", "--suite", "flags", "--seed", "7")
    code2, out2, _ = run(capsys, "verify", "--suite", "flags", "--seed", "7")
    assert code1 == code2 == 0
    assert out1 == out2  # byte-identical for identical (config, seed)
    data = json.loads(out1)
    assert all(c["status"] == "pass" for c in data["checks"])
    assert "elapsed_seconds" not in data


_PADDED_MAIN = """
import sys
pad = [tuple(range(k % 16)) for k in range(int(sys.argv[1]))]
from twistflag.cli import main
sys.exit(main(sys.argv[2:]))
"""


def test_output_independent_of_hash_seed(tmp_path):
    """Processes with different PYTHONHASHSEED, and different heap padding
    before the import, print the same bytes.  Padding moves every element to
    another address, which reorders any set of elements (they hash by
    identity), so this catches a result that follows such an order: the
    affine interval's reflection order is fitted around the set of its cover
    labels.  An in-process rerun cannot, since its addresses repeat."""
    cfg = tmp_path / "affine.json"
    cfg.write_text(json.dumps({"cartan": [[2, -2], [-2, 2]], "labels": ["1", "2"]}))
    src = str(Path(__file__).resolve().parent.parent / "src")
    for argv in (["--config", str(cfg), "--J", "1", "interval", "", "1 2 1 2 1 2"],
                 ["verify", "--suite", "doubleflag", "--seed", "0"]):
        outs = set()
        for seed, pad in (("1", 0), ("2", 7), ("2", 333)):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
            proc = subprocess.run([sys.executable, "-c", _PADDED_MAIN, str(pad), *argv],
                                  env=env, capture_output=True, timeout=300)
            assert proc.returncode == 0, proc.stderr
            outs.add(proc.stdout)
        assert len(outs) == 1, argv


def test_verify_bad_suite(capsys):
    code, _, err = run(capsys, "verify", "--suite", "nope")
    assert code == 4


def test_no_command_prints_help(capsys):
    code, out, _ = run(capsys)
    assert code == 4
    assert "usage" in out


def test_text_format(capsys):
    code, out, _ = run(capsys, "--format", "text", "order", "", "1")
    assert code == 0
    assert "comparable: True" in out


def test_affine_interval(capsys, tmp_path):
    cfg = tmp_path / "affine.json"
    cfg.write_text(json.dumps({"cartan": [[2, -2], [-2, 2]], "labels": ["1", "2"]}))
    code, out, _ = run(capsys, "--config", str(cfg), "--J", "2",
                       "interval", "", "1 2 1", "--checks", "pure,thin,el")
    assert code == 0
    data = json.loads(out)
    assert data["checks"] == {"pure": True, "thin": True, "el": True}


def test_exit_code_on_check_failure(capsys, monkeypatch):
    import twistflag.cli as cli
    monkeypatch.setattr(cli, "run_suite",
                        lambda suite, seed: [{"name": "x", "status": "fail",
                                              "detail": ""}])
    code, out, _ = run(capsys, "verify", "--suite", "all")
    assert code == 2
    monkeypatch.setattr(cli, "run_suite",
                        lambda suite, seed: [{"name": "x", "status": "inconclusive",
                                              "detail": ""}])
    code, out, _ = run(capsys, "verify", "--suite", "all")
    assert code == 3


def test_sample_verb(capsys, tmp_path):
    code, out, _ = run(capsys, "sample", "2", "1", "--J", "2",
                       "--count", "2", "--seed", "3")
    assert code == 0
    data = json.loads(out)
    assert data["cell"]["dimension"] == 2
    assert len(data["samples"]) == 2
    sample = data["samples"][0]
    assert sample["kind"] == "twisted"
    assert len(sample["params"]) == 2
    assert len(sample["matrix"]) == 3
    # emitted matrices parse back exactly
    from twistflag import matrix_from_json
    matrix_from_json(sample["matrix"])
    code, _, err = run(capsys, "sample", "1", "", "--J", "")
    assert code == 4 and "empty" in err
    # the SL_n pinning is type A only: a B2 config is a usage error
    cfg = tmp_path / "b2.json"
    cfg.write_text(json.dumps({"cartan": [[2, -2], [-1, 2]], "labels": ["a", "b"]}))
    code, out, err = run(capsys, "--config", str(cfg), "sample", "a", "b a")
    assert code == 4 and out == "" and "type A" in err


def test_sample_output_bytes_pinned(capsys, tmp_path):
    """The sampled matrices themselves, byte for byte: sha256 of the stdout
    of two seeded sample queries (A2 by default, and an A3 config)."""
    cfg = tmp_path / "a3.json"
    cfg.write_text(json.dumps({"cartan": [[2, -1, 0], [-1, 2, -1], [0, -1, 2]],
                               "labels": ["1", "2", "3"]}))
    for argv, digest in (
            (["sample", "2", "1", "--J", "2", "--count", "2", "--seed", "3"],
             "f3484fcdf02096ad0106c8afd97a56c5975f5fc19aa138a6df01c58685d41eaf"),
            (["--config", str(cfg), "sample", "", "1 2 3", "--J", "1,2",
              "--count", "3", "--seed", "5"],
             "04b82dc23458d2225a7d5b9c81896fa3cccb021ca8062845fa58d86c84d647e6")):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, argv


def test_verify_report_pinned(capsys):
    """The full verify report, byte for byte: sha256 of its stdout."""
    code, out, _ = run(capsys, "verify", "--suite", "all", "--seed", "0")
    assert code == 0
    assert (hashlib.sha256(out.encode()).hexdigest()
            == "bfa57dc9139d2c468b5a7875a731475088544d33294adb0226c633a8ed394a80")


def test_sample_negative_count_is_usage_error(capsys):
    code, out, err = run(capsys, "sample", "2", "1", "--J", "2", "--count", "-1")
    assert code == 4 and out == "" and err == "usage error: --count must be >= 0, got -1\n"
    code, out, _ = run(capsys, "sample", "2", "1", "--J", "2", "--count", "0")
    assert code == 0 and json.loads(out)["samples"] == []


def test_unknown_J_label_is_usage_error(capsys):
    for verb in (["order", "1", "2"], ["interval", "", "1"], ["sample", "1", "1 2"]):
        code, out, err = run(capsys, *verb, "--J", "9")
        assert code == 4 and out == ""
        assert err.startswith("usage error: unknown node label '9'")


def test_verify_rejects_config(capsys, tmp_path):
    cfg = tmp_path / "b2.json"
    cfg.write_text(json.dumps({"cartan": [[2, -2], [-1, 2]], "labels": ["a", "b"]}))
    for path in (cfg, tmp_path / "missing.json"):
        code, out, err = run(capsys, "--config", str(path), "verify", "--suite", "flags")
        assert code == 4 and out == ""
        assert err.startswith("usage error: verify runs its suites on their built-in groups")


def test_verify_rejects_budget_elems(capsys):
    """--budget-elems has no effect on the built-in suites, so verify refuses
    it, given before or after the verb, even at the default value."""
    for argv in (["--budget-elems", "1", "verify", "--suite", "flags"],
                 ["verify", "--suite", "flags", "--budget-elems", "20000"]):
        code, out, err = run(capsys, *argv)
        assert code == 4 and out == ""
        assert err.startswith("usage error: verify runs its suites on their built-in groups; "
                              "--budget-elems is not used")


def test_sample_honours_budget(capsys, tmp_path):
    cfg = tmp_path / "a3.json"
    cfg.write_text(json.dumps({"cartan": [[2, -1, 0], [-1, 2, -1], [0, -1, 2]],
                               "labels": ["1", "2", "3"]}))
    argv = ("--config", str(cfg), "sample", "", "1 2 3", "--J", "1,2")
    code, out, _ = run(capsys, *argv)
    assert code == 0 and len(json.loads(out)["samples"]) == 1
    code, out, _ = run(capsys, "--budget-elems", "3", *argv)
    assert code == 3
    assert json.loads(out) == {"inconclusive": "ball enumeration exceeded budget of 3 elements"}
