import json

import pytest

from cywps.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_json(capsys):
    code, out, _ = run(capsys, "verify", "1,2,3,4,5")
    assert code == 0
    payload = json.loads(out)
    assert payload["chi_orb_formula"] == "-126"
    assert payload["chi_str_mirror"] == "126"
    assert payload["methods_agree"] is True


def test_verify_json_round_trip(capsys):
    code, out, _ = run(capsys, "verify", "1,1,2,4,5")
    payload = json.loads(out)
    assert json.dumps(payload) == out.strip()
    assert payload["chi_str_mirror"] == "1032/5"


def test_euler_both_methods(capsys):
    code, out, _ = run(capsys, "euler", "1,2,3,4,5", "--method", "both")
    assert code == 0
    payload = json.loads(out)
    assert payload["chi_orb_double_sum"] == "-126"
    assert payload["chi_orb_subset_sum"] == "-126"
    assert payload["subset_partials"] == ["225", "-585/4", "3375/8", "-19125/8"]


def test_check_text_format(capsys):
    code, out, _ = run(capsys, "check", "1,1,6,14,21", "--format", "text")
    assert code == 0
    assert "transverse: False" in out
    assert "ip: True" in out


def test_stringy_both(capsys):
    code, out, _ = run(capsys, "stringy", "1,1,1,1,1")
    assert code == 0
    payload = json.loads(out)
    assert payload["chi_str_closed_form"] == "200"
    assert payload["chi_str_polytope"] == "200"


def test_mirror_text(capsys):
    code, out, _ = run(capsys, "mirror", "1,1,6,14,21", "--format", "text")
    assert code == 0
    assert out.strip() == "1/(t1*t2^6*t3^14*t4^21) + t1 + t2 + t3 + t4"


def test_mirror_json(capsys):
    code, out, _ = run(capsys, "mirror", "1,1,1", "--format", "json")
    payload = json.loads(out)
    assert payload[0] == {"coeff": "1", "exponents": [-1, -1]}


def test_census_tsv(capsys):
    code, out, _ = run(capsys, "census", "--dim", "2", "--max-degree", "60",
                       "--filter", "transverse")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("#")
    rows = [line.split("\t") for line in lines[1:]]
    assert [r[1] for r in rows] == ["1,1,1", "1,1,2", "1,2,3"]


def test_census_jobs_deterministic(capsys):
    _, serial, _ = run(capsys, "census", "--dim", "2", "--max-degree", "40",
                       "--filter", "all", "--jobs", "1")
    _, parallel, _ = run(capsys, "census", "--dim", "2", "--max-degree", "40",
                         "--filter", "all", "--jobs", "4")
    assert serial == parallel


def test_census_jobs_from_environment(capsys, monkeypatch):
    import cywps.quasismooth as qs

    sizes = []

    def spy_pool(processes):
        sizes.append(processes)
        return real_pool(processes)

    real_pool = qs.Pool
    monkeypatch.setattr(qs, "Pool", spy_pool)
    argv = ("census", "--dim", "2", "--max-degree", "30", "--filter", "all")
    _, serial, _ = run(capsys, *argv, "--jobs", "1")
    monkeypatch.setenv("CYWPS_JOBS", "2")
    _, from_env, _ = run(capsys, *argv)
    assert from_env == serial
    assert sizes == [2]


def test_census_out_file(tmp_path, capsys):
    path = tmp_path / "census.tsv"
    code, out, _ = run(capsys, "census", "--dim", "2", "--max-degree", "20",
                       "--filter", "all", "--out", str(path))
    assert code == 0
    assert out == ""
    assert path.read_text().startswith("# dim=2")


def test_exit_code_parse_error(capsys):
    code, _, err = run(capsys, "euler", "0,1,2")
    assert code == 2
    assert "positive" in err


def test_exit_code_usage_error(capsys):
    code = main(["euler"])  # missing weights argument
    capsys.readouterr()
    assert code == 2


def test_exit_code_unknown_choice(capsys):
    code = main(["census", "--dim", "2", "--max-degree", "10", "--filter", "bogus"])
    capsys.readouterr()
    assert code == 2


def test_exit_code_domain_error(capsys):
    code, _, err = run(capsys, "stringy", "1,1,4")
    assert code == 3
    assert "IP" in err


def test_verify_dump_polytope(tmp_path, capsys):
    path = tmp_path / "simplex.txt"
    code, _, _ = run(capsys, "verify", "1,1,1", "--dump-polytope", str(path))
    assert code == 0
    assert path.read_text().splitlines() == ["-1 -1", "0 1", "1 0"]
