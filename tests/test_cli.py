import json

import pytest

import qinw
from qinw import qsim
from qinw.cli import main


def run_cli(capsys, *argv):
    assert main(list(argv)) == 0
    return capsys.readouterr().out


def test_gf_commands(capsys):
    assert run_cli(capsys, "gf", "mul", "--i", "0", "--a", "2", "--b", "2").strip() == "3"
    assert run_cli(capsys, "gf", "add", "--i", "0", "--a", "3", "--b", "1").strip() == "2"
    assert run_cli(capsys, "gf", "pow", "--i", "1", "--a", "2", "--k", "63").strip() == "01"


def test_gf_cli_matches_library(capsys):
    f = qinw.field_new(1)
    out = run_cli(capsys, "gf", "mul", "--i", "1", "--a", "2b", "--b", "1f")
    assert int(out, 16) == f.mul(0x2B, 0x1F)


def test_bias_audit_json(capsys):
    out = json.loads(run_cli(capsys, "bias", "audit", "--n", "4", "--m", "2", "--delta", "1.0"))
    assert out["pass"] is True
    assert out["seeds_enumerated"] == 16
    assert out["max_bias"] <= 0.5


def test_ext_apply_involution(capsys):
    once = run_cli(capsys, "ext", "apply", "--n", "8", "--m", "2",
                   "--seed-hex", "b", "--input-hex", "a5").strip()
    twice = run_cli(capsys, "ext", "apply", "--n", "8", "--m", "2",
                    "--seed-hex", "b", "--input-hex", once).strip()
    assert int(twice, 16) == 0xA5


def test_ext_params(capsys):
    out = json.loads(run_cli(capsys, "ext", "params", "--n", "16", "--t", "12", "--eps", "0.25"))
    assert out["m"] == 18 and out["d"] == 36


def test_prg_expand_matches_library(capsys):
    params = qinw.inw_params_raw(4, 3, 2)
    seed = 0xBEEF
    out = run_cli(capsys, "prg", "expand", "--S", "2", "--raw-N", "4", "--raw-M", "3",
                  "--seed-hex", "beef")
    assert int(out, 16) == qinw.inw_expand(params, seed)
    bits = run_cli(capsys, "prg", "expand", "--S", "2", "--raw-N", "4", "--raw-M", "3",
                   "--seed-hex", "beef", "--format", "bits").strip()
    assert bits == "".join(str((qinw.inw_expand(params, seed) >> j) & 1) for j in range(8))


def test_prg_coord_and_cost(capsys):
    params = qinw.inw_params_raw(4, 3, 2)
    out = run_cli(capsys, "prg", "coord", "--S", "2", "--raw-N", "4", "--raw-M", "3",
                  "--seed-hex", "beef", "--j", "5")
    assert int(out) == qinw.inw_coord(params, 0xBEEF, 5)
    cost = json.loads(run_cli(capsys, "prg", "cost", "--S", "2", "--raw-N", "4", "--raw-M", "3"))
    assert cost["seed_bits"] == 16


def test_prg_stream_to_file(tmp_path, capsys):
    out_file = tmp_path / "bits.txt"
    run_cli(capsys, "prg", "stream", "--S", "2", "--raw-N", "4", "--raw-M", "3",
            "--seed-hex", "1234", "--out", str(out_file))
    params = qinw.inw_params_raw(4, 3, 2)
    expect = "".join(str(b) for b in qinw.inw_stream(params, 0x1234))
    assert out_file.read_text().strip() == expect


def test_sim_run_quantum_program(tmp_path, capsys):
    qp = qsim.QuantumProgram(1, (qsim.hadamard(1), qsim.measure(1)))
    path = tmp_path / "prog.json"
    path.write_text(json.dumps(qsim.program_to_dict(qp)))
    out = json.loads(run_cli(capsys, "sim", "run", "--program", str(path)))
    assert out == {"p0": 0.5, "p1": 0.5}


def test_sim_run_branching_program(tmp_path, capsys):
    bp = qsim.BranchingProgram(1, (((), qsim.bitflip_ops(1)),))
    path = tmp_path / "bp.json"
    path.write_text(json.dumps(qsim.bp_to_dict(bp)))
    out = json.loads(run_cli(capsys, "sim", "run", "--program", str(path), "--coins", "1"))
    assert out == {"p0": 0.0, "p1": 1.0}
    out = json.loads(run_cli(capsys, "sim", "run", "--program", str(path), "--uniform"))
    assert out == {"p0": 0.5, "p1": 0.5}
    dump = tmp_path / "state.csv"
    run_cli(capsys, "sim", "run", "--program", str(path), "--uniform", "--dump", str(dump))
    lines = dump.read_text().strip().splitlines()
    assert lines[0] == "row,col,re,im" and len(lines) == 5
    state = qsim.bp_run_avg(bp, qsim.dm_new(1), "uniform").mat
    for line in lines[1:]:
        i, j, re, im = line.split(",")
        assert float(re) == state[int(i), int(j)] and float(im) == 0.0


def test_sim_run_rejects_non_binary_coins(tmp_path, capsys):
    flip = qsim.bitflip_ops(1)
    bp = qsim.BranchingProgram(1, (((), flip),) * 3)
    path = tmp_path / "bp.json"
    path.write_text(json.dumps(qsim.bp_to_dict(bp)))
    with pytest.raises(SystemExit) as exc:
        main(["sim", "run", "--program", str(path), "--coins", "1x0"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "--coins" in captured.err


def assert_clean_failure(capsys, *argv):
    """Bad input exits with code 2 and one stderr line, no traceback."""
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith("qinw: error: ")
    return captured.err


def test_gf_bad_input_is_a_clean_error(capsys):
    assert "--b" in assert_clean_failure(capsys, "gf", "mul", "--i", "1", "--a", "3")
    assert_clean_failure(capsys, "gf", "add", "--i", "1", "--a", "-3", "--b", "1")


def test_program_without_steps_or_ops_is_a_clean_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"qubits": 1}))
    params = ("--S", "2", "--raw-N", "4", "--raw-M", "2")
    for argv in (("sim", "run", "--program", str(path), "--uniform"),
                 ("fool", "run", "--program", str(path)) + params,
                 ("fool", "level", "--program", str(path), "--i", "0") + params):
        assert "steps" in assert_clean_failure(capsys, *argv)


def test_fool_run_exhaustive(tmp_path, capsys):
    bp = qinw.random_branching_program(2, 4, rng_seed=3)
    path = tmp_path / "bp.json"
    path.write_text(json.dumps(qsim.bp_to_dict(bp)))
    out = json.loads(run_cli(capsys, "fool", "run", "--program", str(path),
                             "--S", "2", "--raw-N", "4", "--raw-M", "2"))
    assert out["mode"] == {"kind": "exhaustive"}
    report = qinw.fool_experiment(bp, qinw.inw_params_raw(4, 2, 2))
    assert out["d1"] == report.d1


def test_fool_level_and_classical(tmp_path, capsys):
    bp = qsim.BranchingProgram(1, (((), qsim.bitflip_ops(1)),))
    path = tmp_path / "bp.json"
    path.write_text(json.dumps(qsim.bp_to_dict(bp)))
    out = json.loads(run_cli(capsys, "fool", "level", "--program", str(path), "--i", "0",
                             "--S", "2", "--raw-N", "4", "--raw-M", "2"))
    assert out["trace_norm"] == 0.0
    out = json.loads(run_cli(capsys, "fool", "classical", "--width", "2", "--steps", "4",
                             "--S", "2", "--raw-N", "4", "--raw-M", "2"))
    assert out["width"] == 2 and "d1" in out


def test_bench_cli(capsys):
    out = json.loads(run_cli(capsys, "bench", "sim"))
    assert out["suite"] == "sim"


def test_bad_m_rejected(capsys):
    with pytest.raises(SystemExit):
        main(["bias", "audit", "--n", "4", "--m", "5", "--delta", "1.0"])
