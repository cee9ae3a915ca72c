import errno
import json
import multiprocessing
import os
import subprocess
import sys
from types import SimpleNamespace

import pytest

from cywps import cli
from cywps.cli import main
from conftest import fake_mirror_generators


SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def python(*argv, **kwargs):
    """A fresh interpreter that imports cywps from this checkout."""
    env = {**os.environ, "PYTHONPATH": SRC}
    return subprocess.Popen([sys.executable, *argv], env=env, **kwargs)


def test_verify_json(capsys):
    code, out, _ = run(capsys, "verify", "1,2,3,4,5")
    assert code == 0
    payload = json.loads(out)
    assert payload["chi_orb_formula"] == "-126"
    assert payload["chi_str_mirror"] == "126"
    assert payload["methods_agree"] is True


@pytest.mark.parametrize("n", range(3, 13))
def test_verify_fermat_closed_form(capsys, n):
    # the degree-n Fermat hypersurface in P^(n-1): chi = n + ((1 - n)^n - 1) / n;
    # at d = n - 1 = 11 the stringy route measures faces of an 11-simplex
    code, out, _ = run(capsys, "verify", ",".join(["1"] * n))
    payload = json.loads(out)
    assert code == 0 and payload["methods_agree"] is True
    assert payload["chi_orb_formula"] == str(n + ((1 - n) ** n - 1) // n)


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


def test_verify_text_format(capsys):
    # weights print as every other command prints them; notes stay one per "; "
    code, out, _ = run(capsys, "verify", "1,1,6,14,21", "--format", "text")
    lines = out.splitlines()
    assert code == 0
    assert lines[:2] == ["weights: 1,1,6,14,21", "degree: 43"]
    assert lines[-1].startswith("notes: newton polytope hypersurface is a Calabi-Yau with chi_str = -504; ")


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


def test_census_workers_come_from_jobs_alone(capsys, monkeypatch):
    # --jobs is the only worker setting: the environment variable it replaced starts no pool
    def no_pool(processes):
        raise AssertionError(f"a pool of {processes} workers started")

    monkeypatch.setattr(multiprocessing, "Pool", no_pool)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)  # the worker cap must not bind here
    monkeypatch.setenv("CYWPS_JOBS", "2")
    argv = ("census", "--dim", "2", "--max-degree", "30", "--filter", "all")
    _, serial, _ = run(capsys, *argv, "--jobs", "1")
    assert run(capsys, *argv) == (0, serial, "")


@pytest.mark.parametrize("cpus, sizes", [(8, [8]), (64, [28]), (None, [])])
def test_census_workers_are_bounded(capsys, monkeypatch, cpus, sizes):
    # min(jobs, degrees, CPUs) workers; the fake pool starts no process
    asked = []

    class SerialPool:
        def __init__(self, processes):
            asked.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            return [fn(t) for t in tasks]

    monkeypatch.setattr(multiprocessing, "Pool", SerialPool)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    argv = ("census", "--dim", "2", "--max-degree", "30", "--filter", "all")  # 28 degrees
    _, serial, _ = run(capsys, *argv, "--jobs", "1")
    code, many, _ = run(capsys, *argv, "--jobs", "1000")
    assert (code, many) == (0, serial)
    assert asked == sizes


def test_census_out_file(tmp_path, capsys):
    path = tmp_path / "census.tsv"
    for _ in range(2):  # writes a new file, then replaces it
        code, out, _ = run(capsys, "census", "--dim", "2", "--max-degree", "20",
                           "--filter", "all", "--out", str(path))
        assert code == 0
        assert out == ""
        assert path.read_text().startswith("# dim=2")
        assert [p.name for p in tmp_path.iterdir()] == ["census.tsv"]  # no temporary file left


@pytest.mark.parametrize(
    "argv",
    [
        ("--dim", "5", "--max-degree", "10"),
        ("--dim", "3", "--max-degree", "12", "--jobs", "-3"),
    ],
)
def test_census_refusal_writes_nothing(tmp_path, capsys, argv):
    code, out, err = run(capsys, "census", *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error:")
    path = tmp_path / "census.tsv"
    code, out, _ = run(capsys, "census", *argv, "--out", str(path))
    assert (code, out) == (2, "")
    assert not path.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ("--dim", "5", "--max-degree", "10"),
        ("--dim", "3", "--max-degree", "12", "--jobs", "0"),
    ],
)
def test_census_refusal_keeps_existing_output(tmp_path, capsys, argv):
    path = tmp_path / "census.tsv"
    path.write_text("kept\n")
    code, out, _ = run(capsys, "census", *argv, "--out", str(path))
    assert (code, out) == (2, "")
    assert path.read_text() == "kept\n"


def test_unwritable_census_output_is_refused_before_enumeration(tmp_path, capsys, monkeypatch):
    import cywps.quasismooth as qs

    def fail(args):
        raise AssertionError("the census ran before its output was opened")

    monkeypatch.setattr(qs, "_census_degree", fail)
    for target in (tmp_path / "missing" / "x", tmp_path):  # a missing directory, a directory
        code, out, err = run(capsys, "census", "--dim", "3", "--max-degree", "12",
                             "--out", str(target))
        assert (code, out) == (2, "")
        assert err.startswith("error: cannot write")
        assert list(tmp_path.iterdir()) == []


def test_interrupted_census_keeps_previous_output(tmp_path, capsys, monkeypatch):
    import cywps.quasismooth as qs

    path = tmp_path / "keep.tsv"
    run(capsys, "census", "--dim", "2", "--max-degree", "20", "--out", str(path))
    before = path.read_bytes()

    def interrupt(args):
        raise KeyboardInterrupt

    monkeypatch.setattr(qs, "_census_degree", interrupt)
    with pytest.raises(KeyboardInterrupt):
        main(["census", "--dim", "2", "--max-degree", "30", "--out", str(path)])
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["keep.tsv"]


def test_exit_code_parse_error(capsys):
    code, _, err = run(capsys, "euler", "0,1,2")
    assert code == 2
    assert "positive" in err


def test_exit_code_usage_error(capsys):
    code = main(["euler"])  # missing weights argument
    capsys.readouterr()
    assert code == 2


def test_parser_built_once_per_process(capsys, monkeypatch):
    built = []

    class Spy(cli.argparse.ArgumentParser):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            if self.prog == "cywps":
                built.append(self)

    monkeypatch.setattr(cli, "argparse", SimpleNamespace(ArgumentParser=Spy))
    cli.build_parser.cache_clear()
    try:
        assert main(["euler"]) == 2
        assert main(["euler", "1,1,1"]) == 0
        assert main(["check", "1,1,1"]) == 0
    finally:
        # leave no parser of the spy class behind for later tests
        cli.build_parser.cache_clear()
    capsys.readouterr()
    assert len(built) == 1


def test_exit_code_unknown_choice(capsys):
    code = main(["census", "--dim", "2", "--max-degree", "10", "--filter", "bogus"])
    capsys.readouterr()
    assert code == 2


def test_exit_code_domain_error(capsys):
    code, _, err = run(capsys, "stringy", "1,1,4")
    assert code == 3
    assert "IP" in err


def test_exit_code_enumeration_limit(capsys, monkeypatch):
    import cywps.wps

    # (1,1,2,4,5) is IP but not transverse, so verify lists its Newton points
    monkeypatch.setattr(cywps.wps, "NEWTON_POINT_LIMIT", 10)
    code, out, err = run(capsys, "verify", "1,1,2,4,5")
    assert (code, out) == (4, "")
    assert err.startswith("error:") and "limit" in err


def test_exit_code_internal_error(capsys, monkeypatch):
    # (1,1,2) is IP, so verify builds its mirror lattice; a non-primitive
    # generator is a fault of the code, not of the input
    fake_mirror_generators(monkeypatch, ((0, 2), (1, 0), (-1, -1)))
    code, out, err = run(capsys, "verify", "1,1,2")
    assert (code, out) == (5, "")
    assert err.startswith("internal error:") and "primitive" in err


def test_verify_dump_polytope(tmp_path, capsys):
    path = tmp_path / "simplex.txt"
    code, _, _ = run(capsys, "verify", "1,1,1", "--dump-polytope", str(path))
    assert code == 0
    assert path.read_text().splitlines() == ["-1 -1", "0 1", "1 0"]


def test_failed_dump_keeps_previous_file(tmp_path, capsys, monkeypatch):
    from cywps.errors import InternalError
    from cywps.polytope import Polytope

    path = tmp_path / "simplex.txt"
    path.write_bytes(b"kept\n")

    def fail(self):
        raise InternalError("dump failed")

    monkeypatch.setattr(Polytope, "dump", fail)  # raises after the file is opened
    code, out, err = run(capsys, "verify", "1,1,1", "--dump-polytope", str(path))
    assert (code, out) == (5, "")
    assert "dump failed" in err
    assert path.read_bytes() == b"kept\n"
    assert [p.name for p in tmp_path.iterdir()] == ["simplex.txt"]  # no temporary file left


def test_dump_polytope_to_a_directory_is_a_usage_error(tmp_path, capsys):
    code, out, err = run(capsys, "verify", "1,1,1", "--dump-polytope", str(tmp_path))
    assert (code, out) == (2, "")
    assert err.startswith("error: cannot write")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["euler", "check", "verify"])
def test_too_many_weights_exit_4_before_any_table(capsys, monkeypatch, command):
    def fail(*args):
        raise AssertionError("a table was built")

    for name in ("vafa_double_sum", "vafa_subset_sum", "has_ip_property", "is_transverse",
                 "mirror_test", "weight_flags"):
        monkeypatch.setattr(cli, name, fail)
    code, out, err = run(capsys, command, ",".join(["1"] * 17))
    assert (code, out) == (4, "")
    assert err.startswith("error:") and "limit" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "1,1,1", "--dump-polytope"),
        ("census", "--dim", "2", "--max-degree", "10", "--out"),
    ],
)
def test_unwritable_output_path_is_a_usage_error(tmp_path, capsys, argv):
    code, out, err = run(capsys, *argv, str(tmp_path / "missing" / "x"))
    assert (code, out) == (2, "")
    assert err.startswith("error: cannot write")


def test_other_os_errors_are_not_usage_errors(monkeypatch):
    # e.g. a worker pool that cannot start: an environment failure
    # propagates instead of exiting 2
    def fail(*args):
        raise OSError(errno.EMFILE, "Too many open files")

    monkeypatch.setattr(cli, "census_tsv", fail)
    with pytest.raises(OSError, match="Too many open files"):
        main(["census", "--dim", "2", "--max-degree", "10"])


def test_closed_stdout_is_a_quiet_exit_141():
    # 79 KB of TSV, more than a pipe holds: the writer meets the closed end
    argv = ("census", "--dim", "3", "--max-degree", "40", "--filter", "all")
    proc = python("-m", "cywps.cli", *argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline().startswith(b"# dim=3 max_degree=40")
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 141
    assert b"Traceback" not in err


def test_cli_start_loads_no_pool_or_dataclass_machinery():
    # every cywps call is a fresh process, so what the CLI imports is paid per
    # call: the pool loads only when census workers start, and no record is a
    # dataclass (dataclasses imports inspect, ast, dis and tokenize)
    probe = (
        "import sys, cywps.cli; cywps.cli.build_parser(); "
        "print(sorted({'multiprocessing', 'dataclasses', 'inspect'} & sys.modules.keys()))"
    )
    proc = python("-c", probe, stdout=subprocess.PIPE, text=True)
    out, _ = proc.communicate(timeout=60)
    assert (proc.returncode, out) == (0, "[]\n")
