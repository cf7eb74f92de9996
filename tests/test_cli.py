import contextlib
import copy
import io
import json
import os
import resource
import stat
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from contract_forge import cli
from contract_forge.generators import gen_gap, gen_random
from contract_forge.model import (
    dumps,
    product_to_explicit,
    ic_slack,
    load_contract,
    load_setting,
    setting_from_dict,
)

DIMACS = """c tiny satisfiable formula
p cnf 3 2
1 -2 3 0
-1 2 0
"""


def run(capsys, argv):
    code = cli.main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def result_of(out):
    return json.loads(out)["result"]


def test_gen_roundtrip_file(tmp_path, capsys):
    path = tmp_path / "gap.json"
    code, out, _ = run(capsys, ["gen", "gap", "--c", "2", "--gamma", "0.1", "-o", str(path)])
    assert code == 0 and out == ""
    assert load_setting(str(path)) == gen_gap(2, 0.1)


def test_gen_roundtrip_stdout(capsys):
    code, out, _ = run(capsys, ["gen", "random", "--n", "3", "--m", "4", "--seed", "5"])
    assert code == 0
    assert setting_from_dict(json.loads(out)) == gen_random(3, 4, seed=5)


def test_gen_deterministic_bytes(capsys):
    _, first, _ = run(capsys, ["gen", "random", "--n", "3", "--m", "4", "--seed", "9"])
    _, second, _ = run(capsys, ["gen", "random", "--n", "3", "--m", "4", "--seed", "9"])
    assert first == second


def test_gen_sat_kinds(tmp_path, capsys):
    cnf = tmp_path / "f.cnf"
    cnf.write_text(DIMACS)
    code, out, _ = run(capsys, ["gen", "sat", "--cnf", str(cnf)])
    assert code == 0
    setting = setting_from_dict(json.loads(out))
    assert setting.n == 2 and setting.m == 3
    code, out, _ = run(
        capsys, ["gen", "product2", "--cnf", str(cnf), "--epsilon", "0.1"]
    )
    assert code == 0
    setting = setting_from_dict(json.loads(out))
    assert setting.n == 3 and setting.m == 4
    code, out, _ = run(
        capsys,
        ["gen", "productc", "--cnf", str(cnf), "--c", "3", "--epsilon", "0.1"],
    )
    assert code == 0
    setting = setting_from_dict(json.loads(out))
    assert setting.n == 7 and setting.m == 4


def test_gen_minmax_diagnostics_on_stderr(capsys):
    code, out, err = run(capsys, ["gen", "minmax", "--a", "3", "3"])
    assert code == 0
    setting_from_dict(json.loads(out))  # stdout is pure instance JSON
    assert "minmax:" in err


def test_pipe_gen_solve(capsys, monkeypatch):
    _, instance, _ = run(capsys, ["gen", "gap", "--c", "2", "--gamma", "0.1"])
    monkeypatch.setattr("sys.stdin", io.StringIO(instance))
    code, out, _ = run(capsys, ["solve"])
    assert code == 0
    res = result_of(out)
    assert res["payoff"] == pytest.approx(1.0)
    assert res["action"] == 0
    assert res["first_best"] == pytest.approx(1.9)


def test_solve_deterministic_bytes(tmp_path, capsys):
    path = tmp_path / "inst.json"
    run(capsys, ["gen", "random", "--n", "3", "--m", "3", "--seed", "2", "-o", str(path)])
    _, first, _ = run(capsys, ["solve", "--instance", str(path)])
    _, second, _ = run(capsys, ["solve", "--instance", str(path)])
    assert first == second


@pytest.mark.parametrize(
    "argv",
    [
        ["delta-solve", "--delta", "0.1", "--trace", "TRACE"],
        ["linear"],
        ["linear", "--separable"],
        ["linear", "--delta", "0.05", "--gamma", "0.1"],
        ["oracle", "--eps", "0.1"],
        ["transform", "--contract", "CONTRACT", "--delta", "0.25", "--to", "ic"],
        ["transform", "--contract", "CONTRACT", "--delta", "0.25", "--to", "ir"],
        ["verify", "--contract", "CONTRACT", "--action", "ACTION", "--delta", "0.25", "--notion", "mult"],
        ["blackbox", "--eps", "0.2", "--gamma", "0.1", "--trials", "2"],
    ],
    ids=["delta-solve", "linear", "linear-separable", "linear-gamma", "oracle", "transform-ic",
         "transform-ir", "verify", "blackbox"],
)
def test_deterministic_bytes(tmp_path, capsys, argv):
    # the same command twice in one process: the same stdout and trace bytes
    setting = gen_random(3, 4, 2)
    inst, sep = tmp_path / "inst.json", tmp_path / "sep.json"
    inst.write_text(dumps(setting))
    sep.write_text(json.dumps(_separation_json(setting.probs[:2].tolist())))
    con, trace = tmp_path / "con.json", tmp_path / "trace.csv"
    _, out, _ = run(capsys, ["delta-solve", "--instance", str(inst), "--delta", "0.25", "--contract-out", str(con)])
    fill = {"TRACE": str(trace), "CONTRACT": str(con), "ACTION": str(result_of(out)["action"])}
    argv = [fill.get(arg, arg) for arg in argv]
    source = sep if argv[0] == "oracle" else inst
    outputs = []
    for _ in range(2):
        code, out, _ = run(capsys, [argv[0], "--instance", str(source), *argv[1:]])
        assert code == 0
        outputs.append((out, trace.read_bytes() if trace.exists() else None))
    assert outputs[0] == outputs[1]


def test_verify_a3_documented_contract(tmp_path, capsys):
    inst = tmp_path / "a3.json"
    con = tmp_path / "a3c.json"
    code, _, _ = run(
        capsys,
        [
            "gen", "a3", "--epsilon", "0.3", "--delta", "0.5",
            "-o", str(inst), "--contract-out", str(con),
        ],
    )
    assert code == 0
    code, out, _ = run(
        capsys,
        [
            "verify", "--instance", str(inst), "--contract", str(con),
            "--action", "1", "--delta", "0.5", "--notion", "mult",
        ],
    )
    assert code == 0
    res = result_of(out)
    assert res["ok"] is True and res["slack"] >= 0
    expected = ic_slack(load_setting(str(inst)), load_contract(str(con)), 1, 0.5, "mult")
    assert res["slack"] == pytest.approx(expected)


def test_verify_failure_exits_3(tmp_path, capsys):
    inst = tmp_path / "a3.json"
    con = tmp_path / "zero.json"
    run(capsys, ["gen", "a3", "--epsilon", "0.3", "--delta", "0.5", "-o", str(inst)])
    con.write_text('{"kind": "sparse", "base": 0.0, "payments": []}\n')
    code, out, err = run(
        capsys,
        ["verify", "--instance", str(inst), "--contract", str(con), "--action", "1"],
    )
    assert code == 3
    assert result_of(out)["ok"] is False
    assert "verify:" in err


def test_verify_delta_needs_a_notion(tmp_path, capsys):
    # solve makes multiplicative contracts, linear additive ones: at delta > 0
    # verify checks only the notion it is told, and names it when the check fails
    inst, con = tmp_path / "gap.json", tmp_path / "c.json"
    run(capsys, ["gen", "gap", "--c", "3", "--gamma", "0.1", "-o", str(inst)])
    code, _, _ = run(capsys, ["solve", "--instance", str(inst), "--delta", "0.1", "--contract-out", str(con)])
    assert code == 0
    argv = ["verify", "--instance", str(inst), "--contract", str(con), "--action", "2", "--delta", "0.1"]
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert "additive" in err and "multiplicative" in err
    code, _, _ = run(capsys, argv + ["--notion", "mult"])
    assert code == 0
    code, _, err = run(capsys, argv + ["--notion", "add"])
    assert code == 3 and "additive 0.1-IC" in err


@pytest.mark.parametrize("tol", ["nan", "-1"])
def test_verify_bad_tol_exits_2(tmp_path, capsys, tol):
    inst = tmp_path / "inst.json"
    inst.write_text(dumps(gen_random(3, 4, 0)))
    con = tmp_path / "con.json"
    con.write_text('{"kind": "linear", "alpha": 0.3}')
    argv = ["verify", "--instance", str(inst), "--contract", str(con), "--action", "0"]
    code, _, _ = run(capsys, argv)
    assert code == 0
    code, out, err = run(capsys, argv + ["--tol", tol])
    assert code == 2 and out == "" and "--tol" in err


def test_tol_only_on_verify(tmp_path, capsys):
    # --tol tunes verify's slack check; no other subcommand accepts it
    inst = tmp_path / "inst.json"
    inst.write_text(dumps(gen_random(3, 4, 0)))
    code, out, err = run(capsys, ["solve", "--instance", str(inst), "--tol", "1e-3"])
    assert code == 2 and out == "" and "--tol" in err


def test_delta_solve_trace(tmp_path, capsys):
    inst = tmp_path / "gap.json"
    trace = tmp_path / "trace.csv"
    run(capsys, ["gen", "gap", "--c", "2", "--gamma", "0.1", "-o", str(inst)])
    code, out, _ = run(
        capsys,
        [
            "delta-solve", "--instance", str(inst), "--delta", "0.1",
            "--action", "1", "--trace", str(trace),
        ],
    )
    assert code == 0
    res = result_of(out)
    assert res["expected_payment"] <= 9.0 + 1e-6
    lines = trace.read_text().splitlines()
    assert lines[0].startswith("action,iteration,restricted_value")
    assert len(lines) >= 2
    assert lines[-1].endswith(",feasible")
    assert "nan" not in trace.read_text()


def test_delta_solve_requires_positive_delta(tmp_path, capsys):
    inst = tmp_path / "gap.json"
    run(capsys, ["gen", "gap", "--c", "2", "--gamma", "0.1", "-o", str(inst)])
    code, _, err = run(
        capsys, ["delta-solve", "--instance", str(inst), "--delta", "0.0"]
    )
    assert code == 2
    assert "error:" in err


def test_linear_contract_out_roundtrip(tmp_path, capsys):
    inst = tmp_path / "gap.json"
    con = tmp_path / "lin.json"
    run(capsys, ["gen", "gap", "--c", "2", "--gamma", "0.1", "-o", str(inst)])
    code, out, _ = run(
        capsys, ["linear", "--instance", str(inst), "--contract-out", str(con)]
    )
    assert code == 0
    res = result_of(out)
    reloaded = load_contract(str(con))
    assert reloaded.alpha == pytest.approx(res["alpha"])
    assert json.loads(dumps(reloaded)) == res["contract"]


def test_linear_separable_and_gamma_exclusive(tmp_path, capsys):
    inst = tmp_path / "gap.json"
    run(capsys, ["gen", "gap", "--c", "2", "--gamma", "0.1", "-o", str(inst)])
    code, out, err = run(
        capsys, ["linear", "--instance", str(inst), "--separable", "--gamma", "0.1"]
    )
    assert code == 2 and out == "" and "not allowed with" in err


def test_linear_gamma_keeps_the_cheaper_of_tied_rewards(tmp_path, capsys):
    # actions 1 and 2 have expected reward 0.8; action 2 costs more, so only 1 is bought
    inst = tmp_path / "tied.json"
    inst.write_text(
        '{"kind": "product", "costs": [0.0, 0.1, 0.2], "rewards": [1.0, 1.0],'
        ' "probs": [[0.1, 0.1], [0.4, 0.4], [0.4, 0.4]]}'
    )
    for extra in ([], ["--delta", "0.05", "--gamma", "0.1"]):
        code, out, err = run(capsys, ["linear", "--instance", str(inst), *extra])
        assert code == 0, err
        assert result_of(out)["action"] == 1


def test_transform_ir_contract_roundtrip(tmp_path, capsys):
    inst = tmp_path / "a3.json"
    con = tmp_path / "a3c.json"
    out_c = tmp_path / "lifted.json"
    run(
        capsys,
        [
            "gen", "a3", "--epsilon", "0.3", "--delta", "0.5",
            "-o", str(inst), "--contract-out", str(con),
        ],
    )
    code, out, _ = run(
        capsys,
        [
            "transform", "--instance", str(inst), "--contract", str(con),
            "--delta", "0.1", "--to", "ir", "--contract-out", str(out_c),
        ],
    )
    assert code == 0
    res = result_of(out)
    assert json.loads(dumps(load_contract(str(out_c)))) == res["contract"]


def test_oracle_fptas(tmp_path, capsys):
    sep = tmp_path / "sep.json"
    sep.write_text(
        json.dumps(
            {
                "kind": "separation",
                "weights": [1.0],
                "mixtures": [[0.25, 0.75]],
                "reference": [0.5, 0.5],
            }
        )
    )
    code, out, _ = run(capsys, ["oracle", "--instance", str(sep), "--eps", "0.5"])
    assert code == 0
    envelope = json.loads(out)
    assert envelope["params"] == {"eps": 0.5}
    assert envelope["result"]["method"] == "fptas"
    # the exact minimum is 0.25, on the empty outcome
    assert envelope["result"]["ratio"] <= 0.25 * 1.5 + 1e-12
    # q_min = 0.25 and m = 2 give t = ceil(2 * 4 * 2 / 0.5) + 2 = 34 parts per distribution
    assert envelope["result"]["family_budget"] == 34.0**2


def test_oracle_family_budget_past_float64_is_null(tmp_path, capsys):
    # t^d with t in the thousands and 1,101 distributions has over 4,300 digits,
    # more than float64 holds and more than Python turns into a JSON integer
    rng = np.random.default_rng(0)
    probs = rng.uniform(0.01, 0.99, (1101, 10))
    sep = tmp_path / "sep.json"
    sep.write_text(json.dumps({"kind": "separation", "weights": [1 / 1100] * 1100,
                               "mixtures": probs[:-1].tolist(), "reference": probs[-1].tolist()}))
    code, out, err = run(capsys, ["oracle", "--instance", str(sep)])
    assert code == 0, err
    result = result_of(out)
    assert result["family_budget"] is None
    assert len(result["family_counts"]) == 10


@pytest.mark.parametrize("argv", [["bench", "--instances"], ["oracle", "--brute", "--instance"]],
                         ids=["bench", "oracle-brute"])
def test_removed_modes_exit_2(tmp_path, capsys, argv):
    # perfbench/ is the one timing harness; brute force is only a test reference
    setting = gen_random(2, 3, 0)
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps(_separation_json(setting.probs.tolist())) if argv[0] == "oracle" else dumps(setting))
    code, out, err = run(capsys, [*argv, str(inst)])
    assert code == 2 and out == ""
    assert "invalid choice" in err or "unrecognized arguments" in err


def test_blackbox_csv_shape(tmp_path, capsys):
    inst = tmp_path / "bb.json"
    inst.write_text(
        json.dumps(
            {
                "kind": "product",
                "costs": [0.0, 0.1],
                "rewards": [0.8, 0.7],
                "probs": [[0.3, 0.6], [0.7, 0.2]],
            }
        )
    )
    code, out, _ = run(
        capsys,
        [
            "blackbox", "--instance", str(inst), "--eps", "0.2", "--gamma", "0.2",
            "--seed", "7", "--trials", "2",
        ],
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("# {")
    assert lines[1] == "seed,s,ic_slack,payoff,opt"
    assert len(lines) == 4
    assert lines[2].split(",")[0] == "7" and lines[3].split(",")[0] == "8"


def test_exit_codes(tmp_path, capsys):
    code, _, _ = run(capsys, ["solve", "--bogus"])
    assert code == 2
    code, _, err = run(capsys, ["solve", "--instance", str(tmp_path / "missing.json")])
    assert code == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, ["solve", "--instance", str(bad)])
    assert code == 2 and "malformed JSON" in err
    # rival ratios (1 +- eps_j)-products whose logs sum to a constant: all
    # 2^21 outcomes of action 0 sit on its likelihood-ratio front, past its
    # cap, and m=21 is too many items to enumerate instead
    eps = [0.3 * (j + 1) / 22 for j in range(21)]
    big = tmp_path / "big.json"
    big.write_text(
        json.dumps(
            {
                "kind": "product",
                "costs": [0.0, 0.001, 0.001],
                "rewards": [0.01] * 21,
                "probs": [[0.5] * 21, [0.5 + e / 2 for e in eps], [0.5 - e / 2 for e in eps]],
            }
        )
    )
    code, _, err = run(capsys, ["solve", "--instance", str(big)])
    assert code == 4 and "resource limit" in err
    # action 1's cheapest contract pays on the all-in outcome, whose
    # probability 1e-330 underflows to 0
    tiny = tmp_path / "tiny.json"
    tiny.write_text(
        json.dumps(
            {
                "kind": "product",
                "costs": [0.0, 0.01],
                "rewards": [1.0] * 110,
                "probs": [[1e-6] * 110, [1e-3] * 110],
            }
        )
    )
    code, out, err = run(capsys, ["solve", "--instance", str(tiny)])
    assert code == 4 and out == "" and "Traceback" not in err
    code, out, _ = run(capsys, ["gen", "gap", "--c", "2", "--gamma", "0.1", "--contract-out", str(tmp_path / "x.json")])
    assert code == 2 and out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--instance", "INST", "--contract-out", "NODIR"],
        ["gen", "gap", "--c", "2", "--gamma", "0.1", "--contract-out", "OUT"],
        ["solve", "--instance", "DIR"],
        ["solve", "--instance", "INST", "--contract-out", "DIR"],
        ["delta-solve", "--instance", "INST", "--delta", "0.1", "--trace", "DIR", "--contract-out", "OUT"],
        ["delta-solve", "--instance", "INST", "--delta", "0.1", "--trace", "OUT", "--contract-out", "NODIR"],
        ["verify", "--instance", "INST", "--contract", "DIR", "--action", "0"],
        ["gen", "gap", "--c", "2", "--gamma", "0.1", "-o", "DIR"],
        ["gen", "sat", "--cnf", "DIR"],
        ["solve", "--instance", "INST", "--seed", "3"],
    ],
    ids=["contract-out-no-dir", "gen-gap-contract-out", "instance-dir", "contract-out-dir",
         "trace-dir", "trace-then-contract-out-no-dir", "contract-dir", "output-dir", "cnf-dir",
         "solve-seed"],
)
def test_failed_run_writes_nothing(tmp_path, capsys, argv):
    # exit 2 with nothing on stdout and no file written, whether the path or the option is wrong
    inst = tmp_path / "inst.json"
    inst.write_text(dumps(gen_gap(2, 0.1)))
    fill = {"INST": str(inst), "DIR": str(tmp_path), "NODIR": str(tmp_path / "no" / "x.json"),
            "OUT": str(tmp_path / "x.json")}
    code, out, err = run(capsys, [fill.get(arg, arg) for arg in argv])
    assert code == 2 and out == ""
    assert "Traceback" not in err
    assert os.listdir(tmp_path) == ["inst.json"]


def test_output_to_a_device_pipe_or_symlink_is_written_through(tmp_path, capsys):
    # only a regular or missing target is renamed onto; others are opened as they are
    inst = tmp_path / "inst.json"
    inst.write_text(dumps(gen_gap(2, 0.1)))
    code, out, _ = run(capsys, ["solve", "--instance", str(inst), "--contract-out", os.devnull])
    assert code == 0 and out
    assert stat.S_ISCHR(os.stat(os.devnull).st_mode)
    read_fd, write_fd = os.pipe()
    try:
        code, _, _ = run(capsys, ["solve", "--instance", str(inst), "--contract-out", f"/dev/fd/{write_fd}"])
        os.close(write_fd)
        with os.fdopen(read_fd) as fh:
            piped = fh.read()
    finally:
        with contextlib.suppress(OSError):
            os.close(write_fd)
    assert code == 0 and json.loads(piped)
    target, link = tmp_path / "target.json", tmp_path / "link.json"
    target.write_text("old")
    link.symlink_to(target)
    code, _, _ = run(capsys, ["solve", "--instance", str(inst), "--contract-out", str(link)])
    assert code == 0 and link.is_symlink() and target.read_text() == piped
    assert sorted(os.listdir(tmp_path)) == ["inst.json", "link.json", "target.json"]


_NORMALIZED = dumps(gen_random(2, 3, 0))


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "gap", "--c", "600", "--gamma", "0.25"],
        ["gen", "random", "--n", "2", "--m", "3", "--seed", "-1"],
        ["gen", "minmax", "--a", str(10**200), str(10**200)],
        ["gen", "minmax", "--a", str(10**310), "3"],
        ["blackbox", "--instance", "INST", "--eps", "0.2", "--gamma", "0.1", "--seed", "-1"],
        ["blackbox", "--instance", "INST", "--eps", "0.2", "--gamma", "0.1", "--trials", "0"],
        ["blackbox", "--instance", "INST", "--eps", "0.2", "--gamma", "0.1", "--trials", "-3"],
        ["linear", "--instance", "INST", "--delta", "0.1", "--gamma", "5e-324"],
        ["gen", "f", "--delta", "5e-324"],
    ],
    ids=["gap-overflow", "random-negative-seed", "minmax-overflow", "minmax-one-odds-overflow",
         "blackbox-negative-seed", "blackbox-no-trials", "blackbox-negative-trials",
         "linear-gamma-reciprocal-overflow", "f-half-delta-underflow"],
)
def test_parameter_out_of_range_exits_2(tmp_path, capsys, argv):
    inst = tmp_path / "inst.json"
    inst.write_text(_NORMALIZED)
    code, out, err = run(capsys, [str(inst) if arg == "INST" else arg for arg in argv])
    assert code == 2 and out == "" and "Traceback" not in err
    if "--gamma" in argv and argv[0] == "linear":
        assert "gamma=" in err


def test_table_past_the_address_space_exits_4(capsys):
    # numpy cannot index 10^20 rows; the generator says so before it asks
    code, out, err = run(capsys, ["gen", "random", "--n", "99999999999999999999", "--m", "3"])
    assert code == 4 and out == "" and "resource limit" in err
    assert "Traceback" not in err


def test_delta_solve_reads_probabilities_within_validation_slack(tmp_path, capsys):
    # validation lets a probability lie TOL_VALID outside [0, 1]; the separation
    # oracle then sees the clipped value, so the answer is the clipped setting's
    outputs = []
    for low, high in ((-1e-10, 1.0000000001), (0.0, 1.0)):
        inst = tmp_path / "inst.json"
        inst.write_text(json.dumps({"kind": "product", "costs": [0, 0.2], "rewards": [1, 0.5],
                                    "probs": [[0.2, low], [0.7, high]]}))
        code, out, _ = run(capsys, ["delta-solve", "--instance", str(inst), "--delta", "0.1"])
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]


def test_verify_sign_tolerance_is_in_money_units(tmp_path, capsys):
    # a payment of -2e-18 in units of 1, or -2e-9 in units of 1e9, reads as 0;
    # the free contract then misses action 1's IC condition by its cost
    results = []
    for unit in (1.0, 1e9):
        inst, con = tmp_path / "inst.json", tmp_path / "con.json"
        inst.write_text(json.dumps({"kind": "product", "costs": [0.0, 0.2 * unit], "rewards": [1.0 * unit, 0.5 * unit],
                                    "probs": [[0.2, 0.3], [0.7, 0.9]]}))
        con.write_text(json.dumps({"kind": "sparse", "payments": [{"outcome": [1], "pay": -2e-18 * unit}]}))
        code, out, err = run(capsys, ["verify", "--instance", str(inst), "--contract", str(con), "--action", "1"])
        results.append((code, result_of(out)["slack"]))
    assert results[0][0] == results[1][0] == 3
    assert results[1][1] == pytest.approx(1e9 * results[0][1], rel=1e-15)


def test_out_of_memory_exits_4():
    # within 1 GB of address space, as perfbench/worker.py runs, the 74.5 GiB draw fails at once
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1]), "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run(
        [sys.executable, "-m", "contract_forge.cli", "gen", "random", "--n", "100000", "--m", "100000"],
        preexec_fn=limit, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 4 and proc.stdout == ""
    assert "resource limit" in proc.stderr and "Traceback" not in proc.stderr


def _separation_json(probs):
    """The separation instance of a two-action product: action 0 against action 1."""
    return {"kind": "separation", "weights": [1.0], "mixtures": [probs[0]], "reference": probs[1]}


_RANDOM_22 = json.loads(dumps(gen_random(2, 22, 0)))


@pytest.mark.parametrize(
    "command,data",
    [
        # every partial of 0.5/0.5 items shares one bucket: one representative, 70 items
        (["oracle"], _separation_json([[0.5] * 70, [0.5] * 70])),
        (["delta-solve", "--delta", "0.1"],
         {"kind": "product", "costs": [0.0, 0.1], "rewards": [1.0] * 70, "probs": [[0.5] * 70, [0.6] * 70]}),
        # random rows merge almost no partials: past 2^20 representatives at item 20
        (["oracle"], _separation_json(_RANDOM_22["probs"])),
        (["delta-solve", "--delta", "0.1"], _RANDOM_22),
    ],
    ids=["oracle-70-items", "delta-solve-70-items", "oracle-random-m22", "delta-solve-random-m22"],
)
def test_oracle_capacity_exits_4(tmp_path, capsys, command, data):
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps(data))
    code, out, err = run(capsys, [command[0], "--instance", str(inst), *command[1:]])
    assert code == 4 and out == "" and "resource limit" in err
    assert "Traceback" not in err


_SUBNORMAL = 2.2e-313


@pytest.mark.parametrize(
    "command,data",
    [
        # 1/q_min overflows in the oracle's bucket bound
        (["delta-solve", "--delta", "0.1"],
         {"kind": "product", "costs": [0.0, 0.1], "rewards": [1.0, 0.5],
          "probs": [[0.5, _SUBNORMAL], [0.6, 0.3]]}),
        (["oracle", "--eps", "0.1"], _separation_json([[0.5, 0.25], [0.5, _SUBNORMAL]])),
        # eta * gamma underflows to 0 in the sample count; below, the count
        # overflows, and neither failure may leave the provenance line or
        # the CSV header on stdout
        (["blackbox", "--eps", "0.2", "--gamma", "0.1"],
         {"kind": "product", "costs": [0.0], "rewards": [0.0], "probs": [[5e-324]]}),
        (["blackbox", "--eps", "0.2", "--gamma", "0.1", "--trials", "2"],
         {"kind": "product", "costs": [0.0], "rewards": [0.0], "probs": [[_SUBNORMAL]]}),
    ],
    ids=["delta-solve", "oracle", "blackbox-underflow", "blackbox-overflow"],
)
def test_subnormal_probability_keeps_exit_code_contract(tmp_path, capsys, command, data):
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps(data))
    code, out, err = run(capsys, [command[0], "--instance", str(inst), *command[1:]])
    assert code in (0, 4) and "Traceback" not in err
    if code == 4:
        assert out == "" and "resource limit" in err


# the paid outcome's payment y / q overflows float64 in both solvers' read-off
_HUGE_PAYMENT = {"kind": "product", "costs": [0.0, 0.01], "rewards": [1e154, 1e154],
                 "probs": [[1e-160, 1e-160], [1e-156, 1e-156]]}


@pytest.mark.parametrize("command", [["solve"], ["delta-solve", "--delta", "0.1"]],
                         ids=["solve", "delta-solve"])
def test_payment_past_float64_exits_4(tmp_path, capsys, command):
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps(_HUGE_PAYMENT))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, [command[0], "--instance", str(inst), *command[1:]])
    assert code == 4 and out == "" and "float64" in err
    assert caught == []


_PRODUCT = '{"kind": "product", "costs": [0.0, 0.1], "rewards": [1.0], "probs": [[0.1], [0.9]]}'


@pytest.mark.parametrize(
    "argv,instance",
    [
        (["oracle", "--eps", "5e-324"], _separation_json([[0.5, 0.25], [0.5, 0.3]])),
        (["oracle", "--eps", "1e-17"], _separation_json([[0.5, 0.25], [0.5, 0.3]])),
        (["delta-solve", "--delta", "1e-17"], json.loads(_PRODUCT)),
        (["linear", "--delta", "1e-17", "--gamma", "0.5"], json.loads(_PRODUCT)),
    ],
    ids=["oracle-5e-324", "oracle-1e-17", "delta-solve-1e-17", "linear-gamma-1e-17"],
)
def test_eps_below_float_resolution_exits_2(tmp_path, capsys, argv, instance):
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps(instance))
    code, out, err = run(capsys, argv + ["--instance", str(inst)])
    assert code == 2 and out == "" and "Traceback" not in err
    assert argv[1][2:] + "=" in err


def test_version_flag(capsys):
    code, out, _ = run(capsys, ["--version"])
    assert code == 0
    assert "contract-forge" in out


@pytest.mark.parametrize(
    "instance,contract",
    [
        ('{"kind": "product", "costs": [0.0, NaN], "rewards": [1.0], "probs": [[0.1], [0.9]]}', None),
        ('{"kind": "product", "costs": [0.0], "rewards": [Infinity], "probs": [[0.5]]}', None),
        ('{"kind": "product", "costs": [0.0], "rewards": [1e999], "probs": [[0.5]]}', None),
        ('{"kind": "explicit", "costs": [0.0], "outcome_rewards": [0.0, 1.0], "dist": [[NaN, 1.0]]}', None),
        (_PRODUCT, '{"kind": "sparse", "base": NaN, "payments": []}'),
        (_PRODUCT, '{"kind": "sparse", "base": 1e999, "payments": []}'),
        (_PRODUCT, '{"kind": "sparse", "base": 0.0, "payments": [{"outcome": [0], "pay": NaN}]}'),
        (_PRODUCT, '{"kind": "separable", "item_payments": [1e999]}'),
    ],
    ids=["nan-cost", "inf-reward", "overflow-reward", "nan-dist", "nan-base", "overflow-base",
         "nan-sparse-pay", "overflow-separable-pay"],
)
def test_non_finite_input_exits_2(tmp_path, capsys, instance, contract):
    inst = tmp_path / "inst.json"
    inst.write_text(instance)
    con = tmp_path / "con.json"
    con.write_text(contract or '{"kind": "sparse", "base": 0.0, "payments": []}')
    code, out, err = run(capsys, ["verify", "--instance", str(inst), "--contract", str(con), "--action", "0"])
    assert code == 2 and out == ""
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "contract",
    [
        '{"kind": "sparse", "base": 0.0, "payments": [{"outcome": [0], "pay": "abc"}]}',
        '{"kind": "sparse", "base": "x", "payments": []}',
        '{"kind": "linear", "alpha": "y"}',
        '{"kind": "mixed", "sparse": {"kind": "sparse"}, "alpha": "y"}',
        '{"kind": "separable", "item_payments": ["z"]}',
        '{"kind": "separable", "item_payments": 5}',
        '{"kind": "sparse", "payments": [{"outcome": ["a"], "pay": 1.0}]}',
        '{"kind": "sparse", "payments": [[0, 1.0]]}',
    ],
    ids=["pay", "base", "alpha", "mixed-alpha", "separable-pay", "separable-not-list",
         "outcome-item", "payment-not-object"],
)
def test_non_numeric_contract_exits_2(tmp_path, capsys, contract):
    inst = tmp_path / "inst.json"
    inst.write_text(_PRODUCT)
    con = tmp_path / "con.json"
    con.write_text(contract)
    code, out, err = run(capsys, ["verify", "--instance", str(inst), "--contract", str(con), "--action", "0"])
    assert code == 2 and out == ""
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "payments",
    [[{"outcome": [0], "pay": 1.0}, {"outcome": [0], "pay": 2.0}], [{"outcome": [0, 0], "pay": 1.0}]],
    ids=["repeated-outcome", "repeated-item"],
)
def test_sparse_contract_repeats_exit_2(tmp_path, capsys, payments):
    # neither the last entry nor the union of the items is the one reading of a repeat
    inst = tmp_path / "inst.json"
    inst.write_text(_PRODUCT)
    con = tmp_path / "con.json"
    con.write_text(json.dumps({"kind": "sparse", "payments": payments}))
    code, out, err = run(capsys, ["verify", "--instance", str(inst), "--contract", str(con), "--action", "0"])
    assert code == 2 and out == "" and "twice" in err


_INVALID = ["nan", "inf", "-inf", "-1"]


@pytest.mark.parametrize("value", _INVALID + ["5e-324", "1e-17"])
@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--instance", "INST", "--delta=X"],
        ["solve", "--instance", "INST", "--delta=X", "--notion", "add"],
        ["delta-solve", "--instance", "INST", "--delta=X"],
        ["linear", "--instance", "INST", "--delta=X"],
        ["linear", "--instance", "INST", "--delta=X", "--gamma", "0.1"],
        ["linear", "--instance", "INST", "--delta=X", "--separable"],
        ["linear", "--instance", "INST", "--delta", "0.05", "--gamma=X"],
        ["transform", "--instance", "INST", "--contract", "CON", "--to", "ic", "--delta=X"],
        ["transform", "--instance", "INST", "--contract", "CON", "--to", "ir", "--delta=X"],
        ["verify", "--instance", "INST", "--contract", "CON", "--action", "0", "--delta=X", "--notion", "add"],
        ["verify", "--instance", "INST", "--contract", "CON", "--action", "0", "--tol=X"],
        ["oracle", "--instance", "SEP", "--eps=X"],
        ["blackbox", "--instance", "INST", "--eps=X", "--gamma", "0.3"],
        ["blackbox", "--instance", "INST", "--eps", "0.3", "--gamma=X"],
        ["gen", "gap", "--c", "2", "--gamma=X"],
        ["gen", "product2", "--cnf", "CNF", "--epsilon=X"],
        ["gen", "productc", "--cnf", "CNF", "--c", "2", "--epsilon=X"],
        ["gen", "a3", "--epsilon=X", "--delta", "0.25"],
        ["gen", "a3", "--epsilon", "0.1", "--delta=X"],
        ["gen", "f", "--delta=X"],
    ],
    ids=["solve-delta", "solve-add-delta", "delta-solve-delta", "linear-delta", "linear-gamma-delta",
         "linear-separable-delta", "linear-gamma", "transform-ic-delta", "transform-ir-delta",
         "verify-delta", "verify-tol", "oracle-eps", "blackbox-eps", "blackbox-gamma", "gen-gap-gamma",
         "gen-product2-epsilon", "gen-productc-epsilon", "gen-a3-epsilon", "gen-a3-delta", "gen-f-delta"],
)
def test_float_flags_keep_exit_code_contract(tmp_path, capsys, argv, value):
    # each value reaches the program (no argparse error); an invalid delta is bad input, and
    # whatever is printed is JSON without NaN or Infinity
    files = {
        "INST": _NORMALIZED,
        "CON": '{"kind": "linear", "alpha": 0.3}',
        "SEP": '{"kind": "separation", "weights": [1.0], "mixtures": [[0.2, 0.6]], "reference": [0.5, 0.5]}',
        "CNF": DIMACS,
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    argv = [str(tmp_path / arg) if arg in files else arg.replace("=X", "=" + value) for arg in argv]
    code, out, err = run(capsys, argv)
    assert code in (0, 2, 3, 4) and "Traceback" not in err and "usage:" not in err
    if code in (2, 4):
        assert out == ""
    if value in _INVALID and any(arg.startswith("--delta=") for arg in argv):
        assert code == 2

    def reject(name):
        raise AssertionError(f"output holds {name}")

    if out:
        json.loads(out[2:].splitlines()[0] if out.startswith("# ") else out, parse_constant=reject)


def test_verify_single_action_prints_valid_json(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    inst.write_text('{"kind": "product", "costs": [0.0], "rewards": [1.0], "probs": [[0.5]]}')
    con = tmp_path / "con.json"
    con.write_text('{"kind": "sparse", "base": 0.0, "payments": []}')
    code, out, _ = run(capsys, ["verify", "--instance", str(inst), "--contract", str(con), "--action", "0"])
    assert code == 0

    def reject(name):
        raise AssertionError(f"output holds {name}")

    result = json.loads(out, parse_constant=reject)["result"]
    assert result["slack"] is None and result["ok"] is True


@pytest.mark.parametrize("command", ["verify", "transform"])
@pytest.mark.parametrize("item", [10**11, 10**6, 5])
def test_item_index_past_item_count_exits_2(tmp_path, capsys, command, item):
    # a 5-item setting: item 5 and beyond name no item; 1 << 10**11 would not fit in memory
    inst = tmp_path / "inst.json"
    inst.write_text(dumps(gen_random(3, 5, 0)))
    con = tmp_path / "con.json"
    con.write_text(json.dumps({"kind": "sparse", "payments": [{"outcome": [0, item], "pay": 0.1}]}))
    args = {"verify": ["--action", "0"], "transform": ["--delta", "0.1", "--to", "ir"]}[command]
    code, out, err = run(capsys, [command, "--instance", str(inst), "--contract", str(con), *args])
    assert code == 2 and out == ""
    assert "Traceback" not in err


def _paths(node, prefix=()):
    """Every place in a JSON value that a mutation may overwrite."""
    yield prefix
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from _paths(child, prefix + (key,))


def _replace(node, path, value):
    if not path:
        return value
    node[path[0]] = _replace(node[path[0]], path[1:], value)
    return node


_ODD_VALUES = st.one_of(
    st.text(max_size=3),
    st.sampled_from(
        [10**400, 10**11, 2**63, -1, -(10**400), 1e308, -1e308, 5e-324, 2.2e-313, -0.5, True, None]
    ),
    st.sampled_from([float("nan"), float("inf"), -float("inf")]),
    st.lists(st.integers(-3, 10), max_size=3),
    st.just([[0.5, 0.5], [0.1]]),
    st.dictionaries(st.sampled_from(["kind", "a"]), st.integers(0, 2), max_size=2),
)


@st.composite
def _instances(draw):
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 8))
    unit = draw(st.sampled_from([1e-9, 1.0, 1e9]))
    setting = gen_random(n, m, draw(st.integers(0, 50)))
    data = json.loads(dumps(setting))
    data["costs"] = [unit * c for c in data["costs"]]
    data["rewards"] = [unit * r for r in data["rewards"]]
    if draw(st.booleans()) and m <= 4:
        data = json.loads(dumps(product_to_explicit(setting_from_dict(data))))
    return data


@st.composite
def _contracts(draw):
    m = 8
    sparse = {
        "kind": "sparse",
        "base": draw(st.floats(0, 2)),
        "payments": [
            {"outcome": draw(st.lists(st.integers(0, m), max_size=3, unique=True)), "pay": draw(st.floats(0, 2))}
            for _ in range(draw(st.integers(0, 3)))
        ],
    }
    return draw(st.sampled_from([
        sparse,
        {"kind": "linear", "alpha": draw(st.floats(0, 1))},
        {"kind": "separable", "item_payments": draw(st.lists(st.floats(0, 1), min_size=1, max_size=m))},
        {"kind": "mixed", "sparse": sparse, "alpha": draw(st.floats(0, 1))},
    ]))


def _mutate(draw, data):
    for _ in range(draw(st.integers(0, 2))):
        path = draw(st.sampled_from(list(_paths(data))))
        data = _replace(data, path, copy.deepcopy(draw(_ODD_VALUES)))
    return data


_COMMANDS = [
    ["solve"],
    ["solve", "--delta", "0.1", "--notion", "add"],
    ["delta-solve", "--delta", "0.2"],
    ["linear"],
    ["linear", "--separable"],
    ["linear", "--delta", "0.05", "--gamma", "0.1"],
    ["verify", "--action", "1", "--delta", "0.1", "--notion", "add"],
    ["transform", "--delta", "0.1", "--to", "ir"],
    ["transform", "--delta", "0.25", "--to", "ic"],
    ["blackbox", "--eps", "0.2", "--gamma", "0.1"],
]


def _assert_exit_code_contract(argv):
    """exit 0, 2, 3 or 4, never an uncaught exception, and no stdout on 2 or 4."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = cli.main(argv)
    assert code in (0, 2, 3, 4), err.getvalue()
    assert "Traceback" not in err.getvalue()
    if code in (2, 4):
        assert out.getvalue() == ""


@settings(max_examples=200)
@given(data=st.data())
def test_fuzzed_json_keeps_exit_code_contract(data):
    instance = _mutate(data.draw, data.draw(_instances()))
    contract = _mutate(data.draw, data.draw(_contracts()))
    command = data.draw(st.sampled_from(_COMMANDS))
    with tempfile.TemporaryDirectory() as tmp:
        inst, con = os.path.join(tmp, "inst.json"), os.path.join(tmp, "con.json")
        with open(inst, "w") as fh:
            fh.write(json.dumps(instance))
        with open(con, "w") as fh:
            fh.write(json.dumps(contract))
        argv = [command[0], "--instance", inst, *command[1:]]
        if command[0] in ("verify", "transform"):
            argv += ["--contract", con]
        _assert_exit_code_contract(argv)


@st.composite
def _separations(draw):
    n, m = draw(st.integers(2, 4)), draw(st.integers(1, 8))
    probs = gen_random(n, m, draw(st.integers(0, 50))).probs.tolist()
    shares = draw(st.lists(st.integers(1, 5), min_size=n - 1, max_size=n - 1))
    weights = [share / sum(shares) for share in shares]
    return {"kind": "separation", "weights": weights, "mixtures": probs[1:], "reference": probs[0]}


@settings(max_examples=100)
@given(data=st.data())
def test_fuzzed_separation_keeps_exit_code_contract(data):
    instance = _mutate(data.draw, data.draw(_separations()))
    with tempfile.TemporaryDirectory() as tmp:
        inst = os.path.join(tmp, "sep.json")
        with open(inst, "w") as fh:
            fh.write(json.dumps(instance))
        _assert_exit_code_contract(["oracle", "--instance", inst, "--eps", "0.1"])


def _main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(2, 4),
    m=st.integers(3, 8),
    seed=st.integers(0, 50),
    delta=st.sampled_from(["0", "1e-6", "0.1", "10", "1e6", "1e12", "1e50", "1e300"]),
)
@example(n=4, m=5, seed=1, delta="1e12")
def test_every_delta_gives_a_contract_verify_accepts(n, m, seed, delta):
    # the multiplicative LP pays about c_a / (1 + delta), so a read-off that
    # dropped payments below a fixed number of money units returned, from
    # delta = 1e12 on, an empty contract that missed IC
    runs = [("solve", "add"), ("solve", "mult")]
    if float(delta) > 0.0:
        runs.append(("delta-solve", "mult"))
    with tempfile.TemporaryDirectory() as tmp:
        inst, con = os.path.join(tmp, "inst.json"), os.path.join(tmp, "con.json")
        with open(inst, "w") as fh:
            fh.write(dumps(gen_random(n, m, seed)))
        for command, notion in runs:
            argv = [command, "--instance", inst, "--delta", delta, "--contract-out", con]
            if command == "solve":
                argv += ["--notion", notion]
            code, out, err = _main(argv)
            assert code == 0, (argv, err)
            action = str(result_of(out)["action"])
            verify = ["verify", "--instance", inst, "--contract", con, "--action", action]
            code, _, err = _main(verify + ["--delta", delta, "--notion", notion])
            assert code == 0, (argv, err)
