"""CLI surface: parsing, round trips, exit codes, CSV shape.

Runs everything in-process through cli.main so that coverage and tracebacks
stay usable; one test goes through a real subprocess to prove the module is
executable as installed.
"""

import json
import os
import random
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import pytest

import approxcount
from approxcount import cli, contingency, oracles, stagewise, stepfunc
from approxcount.errors import MonotonicityViolation
from approxcount.oracles import KnapsackInstance, MTuplesInstance
from approxcount.stepfunc import FnOracle
from closed_forms import knapsack_by_distinct_weights

GOLDEN_LINE = json.dumps(
    {
        "problem": "mtuples",
        "payload": {"sets": [["1", "3", "7"], ["2", "5"], ["3", "9"]], "bound": "17"},
    }
)


@pytest.fixture
def golden_file(tmp_path):
    path = tmp_path / "golden.ndjson"
    path.write_text(GOLDEN_LINE + "\n")
    return str(path)


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def json_lines(text):
    return [json.loads(line) for line in text.splitlines() if line.strip()]


def test_count_fptas_on_golden(golden_file, capsys):
    code, out, _ = run(capsys, ["count", "--input", golden_file, "--mode", "fptas", "--epsilon", "7"])
    assert code == 0
    (rec,) = json_lines(out)
    assert rec["count"] == "12"
    assert rec["epsilon"] == "7"
    assert rec["set_sizes"] == [4, 4, 2]


def test_count_exact_dp_on_golden(golden_file, capsys):
    code, out, _ = run(capsys, ["count", "--input", golden_file, "--mode", "exact-dp"])
    assert code == 0
    (rec,) = json_lines(out)
    assert rec["count"] == "3"
    assert "epsilon" not in rec


def test_count_brute_single_item(tmp_path, capsys):
    path = tmp_path / "one.ndjson"
    path.write_text(
        json.dumps({"problem": "knapsack", "payload": {"weights": ["5"], "capacity": "4"}})
        + "\n"
    )
    code, out, _ = run(capsys, ["count", "--input", str(path), "--mode", "exact-brute"])
    assert code == 0
    assert json_lines(out)[0]["count"] == "1"


def test_count_processes_every_line(tmp_path, capsys):
    path = tmp_path / "many.ndjson"
    path.write_text(GOLDEN_LINE + "\n" + GOLDEN_LINE + "\n")
    code, out, _ = run(capsys, ["count", "--input", str(path), "--mode", "exact-dp"])
    assert code == 0
    assert len(json_lines(out)) == 2


def test_gen_is_deterministic(capsys):
    argv = ["gen", "--problem", "knapsack", "--n", "5", "--wmax", "20", "--seed", "42", "--trials", "4"]
    _, first, _ = run(capsys, argv)
    _, second, _ = run(capsys, argv)
    assert first == second


def test_gen_round_trips(tmp_path, capsys):
    out_path = tmp_path / "gen.ndjson"
    code, _, _ = run(
        capsys,
        ["gen", "--problem", "mtuples", "--m", "3", "--setmax", "4", "--valmax", "30",
         "--seed", "1", "--trials", "5", "--out", str(out_path)],
    )
    assert code == 0
    loaded = list(cli.load_instances(str(out_path), "mtuples"))
    assert len(loaded) == 5
    for lineno, (line, problem, inst) in enumerate(loaded, start=1):
        assert line == lineno
        assert problem == "mtuples"
        assert isinstance(inst, MTuplesInstance)
    # serialize again: identical text
    text = out_path.read_text()
    relines = [
        json.dumps({"problem": p, "payload": cli.payload_from_instance(i)}, separators=(", ", ": "))
        for _, p, i in loaded
    ]
    assert text == "".join(line + "\n" for line in relines)


def test_gen_contingency_margins_are_consistent(capsys):
    code, out, _ = run(
        capsys, ["gen", "--problem", "contingency2", "--n", "4", "--cellmax", "5", "--seed", "7"]
    )
    assert code == 0
    (rec,) = json_lines(out)
    rows = [int(v) for v in rec["payload"]["row_sums"]]
    cols = [int(v) for v in rec["payload"]["col_sums"]]
    assert sum(rows) == sum(cols)
    assert all(c >= 1 for c in cols)


def test_gen_bumps_every_zero_column_to_one(capsys):
    # --cellmax 0, its least value, draws only zero cells
    code, out, _ = run(
        capsys, ["gen", "--problem", "contingency2", "--n", "4", "--cellmax", "0", "--seed", "7"]
    )
    assert code == 0
    (rec,) = json_lines(out)
    assert rec["payload"]["col_sums"] == ["1"] * 4


# Where valmax + 1 is past random.sample's set-size threshold (21 for up to 5
# picks), the generator's sets are the ones random.sample draws on the same seed.
MTUPLES_DRAWS = {
    "--seed 1 --trials 5": (
        '{"problem": "mtuples", "payload": {"sets": [["18", "27"], ["8"], ["15"]], "bound": "48"}}',
        '{"problem": "mtuples", "payload": {"sets": [["12", "15", "20", "25"], ["3", "15"], ["28"]], "bound": "49"}}',
        '{"problem": "mtuples", "payload": {"sets": [["0", "19", "22", "24"], ["7", "8", "23", "25"], ["0", "3", "10", "28", "30"]], "bound": "2"}}',
        '{"problem": "mtuples", "payload": {"sets": [["20"], ["0", "12", "21", "28", "30"], ["13", "23"]], "bound": "3"}}',
        '{"problem": "mtuples", "payload": {"sets": [["7", "14", "15", "24", "30"], ["7", "11", "14", "21", "24"], ["0", "13", "29"]], "bound": "71"}}',
    ),
    "--seed 7 --trials 5 --m 6 --setmax 4 --valmax 100": (
        '{"problem": "mtuples", "payload": {"sets": [["19", "50", "83"], ["9"], ["46"], ["64"], ["4", "11"], ["8", "11", "30", "53"]], "bound": "217"}}',
        '{"problem": "mtuples", "payload": {"sets": [["72"], ["28"], ["73"], ["5", "6", "28", "71"], ["37", "53"], ["15", "69"]], "bound": "292"}}',
        '{"problem": "mtuples", "payload": {"sets": [["23", "71", "87"], ["74"], ["12", "47"], ["72"], ["79"], ["63", "87"]], "bound": "272"}}',
        '{"problem": "mtuples", "payload": {"sets": [["40", "59", "74", "99"], ["23", "31", "38", "46"], ["10", "73"], ["43", "63", "67"], ["9", "15", "36", "77"], ["19", "21", "43", "96"]], "bound": "250"}}',
        '{"problem": "mtuples", "payload": {"sets": [["5", "9", "85", "97"], ["43", "44", "88"], ["8", "11", "58", "74"], ["60", "85", "89"], ["7"], ["73", "82", "87"]], "bound": "420"}}',
    ),
}


@pytest.mark.parametrize("flags", MTUPLES_DRAWS)
def test_gen_mtuples_draws_are_pinned(capsys, flags):
    code, out, _ = run(capsys, ["gen", "--problem", "mtuples", *flags.split()])
    assert (code, out.splitlines()) == (0, list(MTUPLES_DRAWS[flags]))


@pytest.mark.parametrize("valmax", [2**63 - 1, 10**40], ids=["2**63-1", "10**40"])
def test_mtuples_values_past_a_machine_word_are_drawn(capsys, valmax):
    flags = ["--problem", "mtuples", "--valmax", str(valmax), "--seed", "1"]
    code, out, _ = run(capsys, ["gen", *flags, "--trials", "5"])
    assert code == 0
    for rec in json_lines(out):
        for values in rec["payload"]["sets"]:
            values = [int(v) for v in values]
            assert values == sorted(set(values)) and 0 <= values[0] and values[-1] <= valmax
    code, out, _ = run(capsys, ["bench", *flags, "--epsilon", "1/2", "--scales", "0"])
    assert (code, len(out.splitlines())) == (0, 3)
    code, _, err = run(capsys, ["verify", *flags, "--epsilon", "1/2", "--trials", "2"])
    assert (code, err) == (3, "error: table size exceeds cap\n")


def test_verify_reports_ratio_on_golden(golden_file, capsys):
    code, out, _ = run(capsys, ["verify", "--input", golden_file, "--epsilon", "7"])
    assert code == 0
    records = json_lines(out)
    assert records[0]["ratio_vs_exact"] == "4"
    summary = records[-1]
    assert summary["violations"] == 0
    assert summary["max_ratio"] == "4"
    assert summary["bound"] == "8"


@pytest.mark.parametrize("mode", ["fptas", "strong-fptas"])
def test_verify_when_no_tuple_reaches_the_bound(tmp_path, capsys, mode):
    path = tmp_path / "none.ndjson"
    payload = {"sets": [["1"], ["2"]], "bound": "10"}
    path.write_text(json.dumps({"problem": "mtuples", "payload": payload}) + "\n")
    argv = ["verify", "--input", str(path), "--mode", mode, "--epsilon", "1/2"]
    code, out, _ = run(capsys, argv)
    assert code == 0
    rec, summary = json_lines(out)
    assert (rec["count"], rec["exact"], rec["ok"]) == ("0", "0", True)
    assert "ratio_vs_exact" not in rec and "payload" not in rec
    assert (summary["trials"], summary["violations"], summary["max_ratio"]) == (1, 0, "0")


def test_verify_generated_knapsack(capsys):
    code, out, _ = run(
        capsys,
        ["verify", "--problem", "knapsack", "--epsilon", "0.5", "--trials", "25",
         "--seed", "6", "--n", "8", "--wmax", "40"],
    )
    assert code == 0
    assert json_lines(out)[-1]["violations"] == 0


def test_verify_reaches_wide_contingency_cells(capsys):
    # 16 columns with cells up to 800: the exact DP's table is O(n * R), so
    # verify runs instead of stopping at the table-size cap (exit 3).
    code, out, _ = run(
        capsys,
        ["verify", "--problem", "contingency2", "--n", "16", "--cellmax", "800",
         "--seed", "1", "--trials", "1", "--epsilon", "1"],
    )
    assert code == 0
    assert json_lines(out)[-1]["violations"] == 0


def test_verify_exit_one_on_violation(golden_file, capsys, monkeypatch):
    real = cli.run_mode

    def inflated(problem, inst, mode, eps):
        count, calls, sizes, elapsed = real(problem, inst, mode, eps)
        return count * 100, calls, sizes, elapsed

    monkeypatch.setattr(cli, "run_mode", inflated)
    code, out, _ = run(capsys, ["verify", "--input", golden_file, "--epsilon", "0.5"])
    assert code == 1
    records = json_lines(out)
    assert records[0]["ok"] is False
    assert "payload" in records[0]  # offending instance is reproduced
    assert records[-1]["violations"] == 1


def test_verify_epsilon_is_exact_rational(golden_file, capsys, monkeypatch):
    # Pin the approximate count to 12 so the check itself is what's on trial:
    # exact is 3, so 12 violates a 39/10 bound (11.7) but sits exactly on a
    # bound of 4. Both comparisons must be exact, no float rounding.
    monkeypatch.setattr(cli, "run_mode", lambda *a: (12, 0, [], 0.0))
    code, out, _ = run(capsys, ["verify", "--input", golden_file, "--epsilon", "2.9"])
    assert code == 1
    assert json_lines(out)[-1]["bound"] == "39/10"
    code, out, _ = run(capsys, ["verify", "--input", golden_file, "--epsilon", "3"])
    assert code == 0
    assert json_lines(out)[0]["ok"] is True


def test_bench_csv_shape(capsys):
    code, out, _ = run(
        capsys,
        ["bench", "--problem", "knapsack", "--n", "6", "--wmax", "20", "--cap", "60",
         "--seed", "3", "--epsilon", "0.25", "--scales", "0,2"],
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "algorithm,size,scale,epsilon,oracle_calls,elapsed_ms,set_size_max"
    rows = [line.split(",") for line in lines[1:] if line]
    assert len(rows) == 4  # 2 scales x (fptas, strong-fptas)
    assert {r[0] for r in rows} == {"fptas", "strong-fptas"}
    assert {r[2] for r in rows} == {"1", "100"}
    assert out.count("\r\n") >= len(rows)  # RFC 4180 line endings


README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def without_timing(command, lines):
    """The sample's CSV rows or JSON records, with ``elapsed_ms`` left out."""
    lines = [line for line in lines if line]
    if command == "bench":
        rows = [line.split(",") for line in lines]
        column = rows[0].index("elapsed_ms")
        return [row[:column] + row[column + 1 :] for row in rows]
    records = [json.loads(line) for line in lines]
    for record in records:
        record.pop("elapsed_ms", None)
    return records


def assert_readme_samples_match_a_fresh_run(capsys, command):
    """Rerun every README sample of ``approxcount command`` and compare its
    output, all but ``elapsed_ms``."""
    blocks = README.split(f"$ approxcount {command} ")[1:]
    assert blocks
    for block in blocks:
        args, *sample = block.split("```", 1)[0].splitlines()
        code, out, _ = run(capsys, [command, *shlex.split(args)])
        assert code == 0
        assert without_timing(command, out.splitlines()) == without_timing(command, sample)


def test_readme_bench_sample_matches_a_fresh_run(capsys):
    assert_readme_samples_match_a_fresh_run(capsys, "bench")


@pytest.mark.parametrize("command", ["gen", "count"])
def test_readme_gen_and_count_samples_match_a_fresh_run(capsys, tmp_path, monkeypatch, command):
    # the count samples read demo.ndjson: README's m-tuples payload line
    mtuples = [line for line in README.splitlines() if line.startswith('{"problem": "mtuples"')]
    payload = next(line for line in mtuples if '"payload"' in line)
    (tmp_path / "demo.ndjson").write_text(payload + "\n")
    monkeypatch.chdir(tmp_path)
    assert_readme_samples_match_a_fresh_run(capsys, command)


def test_bench_exact_only_when_no_epsilon(capsys):
    for epsilon in ([], ["--epsilon", ""]):  # absent or empty
        code, out, _ = run(
            capsys,
            ["bench", "--problem", "mtuples", "--m", "2", "--valmax", "12", "--seed", "5",
             "--scales", "0", *epsilon],
        )
        assert code == 0
        rows = [line for line in out.splitlines()[1:] if line]
        assert len(rows) == 1
        assert rows[0].startswith("exact-dp,")


@pytest.mark.parametrize("problem", cli.PROBLEMS)
def test_bench_runs_on_its_defaults(capsys, problem):
    code, out, err = run(capsys, ["bench", "--problem", problem])
    assert (code, err) == (0, "")
    assert [row.split(",")[2] for row in out.splitlines()[1:]] == ["1", "1000"]


TINY = Fraction(1, 10**4400)


@pytest.mark.parametrize(
    "text, eps",
    [
        ("1e-4400", TINY),
        ("0." + "0" * 4399 + "1", TINY),
        ("1/1" + "0" * 4400, TINY),
        ("1" + "0" * 4400, Fraction(10**4400)),
    ],
    ids=["tiny-exponent", "tiny-decimal", "tiny-fraction", "huge-integer"],
)
def test_epsilon_of_any_length_in_and_out(golden_file, capsys, text, eps):
    # Python's int/str conversions refuse more than 4300 digits by default.
    code, out, _ = run(capsys, ["count", "--input", golden_file, "--epsilon", text])
    assert code == 0
    assert json_lines(out)[0]["epsilon"] == cli.decimal_text(eps)
    code, out, _ = run(capsys, ["verify", "--input", golden_file, "--epsilon", text])
    assert code == 0
    rec, summary = json_lines(out)
    assert (rec["epsilon"], summary["bound"]) == (cli.decimal_text(eps), cli.decimal_text(1 + eps))
    argv = ["bench", "--problem", "knapsack", "--n", "3", "--scales", "0", "--epsilon", text]
    code, out, _ = run(capsys, argv)
    assert code == 0
    assert {row.split(",")[3] for row in out.splitlines()[1:]} == {cli.decimal_text(eps)}


def test_each_epsilon_is_written_out_once_per_command(tmp_path, capsys, monkeypatch):
    # Writing out an epsilon of many digits takes seconds, so a command
    # writes each epsilon once, however many records or rows carry it.
    eps, text, written = Fraction(1, 4), cli.decimal_text, []

    def counting(q):
        written.extend([q] if q == eps else [])
        return text(q)

    monkeypatch.setattr(cli, "decimal_text", counting)
    path = tmp_path / "three.ndjson"
    path.write_text((GOLDEN_LINE + "\n") * 3)
    argv = ["count", "--input", str(path), "--mode", "fptas", "--epsilon", "1/4"]
    code, out, _ = run(capsys, argv)
    assert code == 0
    assert [r["epsilon"] for r in json_lines(out)] == ["1/4"] * 3
    assert len(written) == 1
    written.clear()
    argv = ["bench", "--problem", "knapsack", "--n", "3", "--scales", "0,1", "--epsilon", "1/4"]
    code, out, _ = run(capsys, argv)
    assert code == 0
    assert [row.split(",")[3] for row in out.splitlines()[1:]] == ["1/4"] * 4  # 2 scales x 2 modes
    assert len(written) == 1


def test_k_is_chosen_once_per_epsilon_and_stage_count(tmp_path, capsys, monkeypatch):
    # Choosing k for a long epsilon takes seconds, so a command over many
    # instances of one stage count takes each root once. Each choice makes
    # one top-level root call, of an integer larger than any of its
    # recursive calls take.
    root, roots = stepfunc._root, []

    def counting(n, s):
        roots.append(n)
        return root(n, s)

    monkeypatch.setattr(stepfunc, "_root", counting)
    path = tmp_path / "four.ndjson"
    path.write_text((GOLDEN_LINE + "\n") * 4)
    argv = ["count", "--input", str(path), "--mode", "fptas", "--epsilon", "1/997"]
    code, out, _ = run(capsys, argv)
    assert code == 0
    assert len(json_lines(out)) == 4
    assert roots.count(max(roots)) == 1


@pytest.mark.parametrize("command", [["count", "--mode", "exact-dp"], ["verify", "--epsilon", "1"]])
def test_out_naming_the_input_is_refused(golden_file, capsys, command):
    before = Path(golden_file).read_text()
    code, out, err = run(capsys, [*command, "--input", golden_file, "--out", golden_file])
    assert (code, out) == (2, "")
    assert "--input" in err
    assert Path(golden_file).read_text() == before


def test_exit_two_on_bad_epsilon(golden_file, capsys):
    code, _, err = run(capsys, ["count", "--input", golden_file, "--mode", "fptas", "--epsilon", "zebra"])
    assert code == 2
    assert "epsilon" in err


def test_exit_two_on_missing_epsilon(golden_file, capsys):
    code, _, _ = run(capsys, ["count", "--input", golden_file, "--mode", "strong-fptas"])
    assert code == 2


def test_exit_two_on_contingency_brute(tmp_path, capsys):
    path = tmp_path / "c.ndjson"
    path.write_text(
        json.dumps(
            {"problem": "contingency2", "payload": {"row_sums": ["2", "2"], "col_sums": ["2", "1", "1"]}}
        )
        + "\n"
    )
    code, _, err = run(capsys, ["count", "--input", str(path), "--mode", "exact-brute"])
    assert code == 2
    assert "exact-dp" in err
    code, _, _ = run(
        capsys, ["count", "--input", str(path), "--mode", "strong-fptas", "--epsilon", "0.5"]
    )
    assert code == 2


def test_exit_two_on_malformed_line(tmp_path, capsys):
    path = tmp_path / "bad.ndjson"
    path.write_text("this is not json\n")
    code, _, err = run(capsys, ["count", "--input", str(path), "--mode", "exact-dp"])
    assert code == 2
    assert "bad.ndjson:1" in err


def test_exit_two_on_json_nested_too_deeply_to_decode(tmp_path, capsys):
    path = tmp_path / "deep.ndjson"
    path.write_text("[" * 100_000 + "\n")
    code, out, err = run(capsys, ["count", "--input", str(path), "--mode", "exact-dp"])
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {path}:1: not valid JSON: maximum recursion depth exceeded")


def test_exit_two_on_problem_mismatch(golden_file, capsys):
    code, _, err = run(
        capsys, ["count", "--input", golden_file, "--problem", "knapsack", "--mode", "exact-dp"]
    )
    assert code == 2
    assert "mtuples" in err


@pytest.mark.parametrize(
    "line, message",
    [
        ({"problem": "frob", "payload": {}}, "unknown problem 'frob'"),
        ({"problem": 7, "payload": {}}, "unknown problem int"),
        ({"problem": "knapsack", "payload": {"weights": ["1"], "capacity": "1"}},
         "instance is 'knapsack' but --problem says 'mtuples'"),
        # the name is checked first, then the payload, then the --problem match
        ({"problem": "knapsack", "payload": []}, "payload must be a JSON object"),
    ],
    ids=["unknown", "not-a-string", "mismatch", "mismatch-and-bad-payload"],
)
def test_exit_two_names_the_first_fault_of_a_line_under_problem(tmp_path, capsys, line, message):
    path = tmp_path / "one.ndjson"
    path.write_text(json.dumps(line) + "\n")
    argv = ["count", "--input", str(path), "--problem", "mtuples", "--mode", "exact-dp"]
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    assert err == f"error: {path}:1: {message}\n"


def test_exit_three_on_blown_cap(tmp_path, capsys):
    inst = KnapsackInstance(weights=(1,) * 40, capacity=40)
    path = tmp_path / "big.ndjson"
    path.write_text(
        json.dumps({"problem": "knapsack", "payload": cli.payload_from_instance(inst)}) + "\n"
    )
    code, _, err = run(capsys, ["count", "--input", str(path), "--mode", "exact-brute"])
    assert code == 3
    assert "cap" in err


@pytest.mark.parametrize("mode", ["fptas", "strong-fptas"])
def test_exit_three_at_once_on_an_epsilon_past_the_ratio_cap(tmp_path, capsys, mode):
    # k needs about a million bits of precision here; without the cap,
    # choosing it took 48 s and the count exited 0
    code, out, _ = run(capsys, ["gen", "--problem", "knapsack", "--n", "3", "--seed", "1"])
    path = tmp_path / "three.ndjson"
    path.write_text(out)
    t0 = perf_counter()
    argv = ["count", "--input", str(path), "--mode", mode, "--epsilon", "1e-300000"]
    code, out, err = run(capsys, argv)
    assert (code, out) == (3, "")
    assert err.startswith(f"error: {path}:1: ") and "cap" in err
    assert perf_counter() - t0 < 1


CAP_TEXT = f"passes the {stepfunc.RATIO_BIT_CAP}-bit cap"


@pytest.mark.parametrize(
    "argv, message",
    [
        *(
            pytest.param(
                [*command, "--epsilon", eps],
                f"epsilon {CAP_TEXT}",
                id=f"{name}-{eps}",
            )
            for eps in ("1e-999999999", "1e999999999", "1e-30000000")
            for name, command in (
                ("count-golden", ["count", "GOLDEN"]),
                ("count-empty", ["count", "EMPTY"]),
                ("verify", ["verify", "--problem", "knapsack"]),
                ("bench", ["bench", "--problem", "knapsack"]),
            )
        ),
        pytest.param(
            ["bench", "--problem", "knapsack", "--scales", "999999999"],
            f"--scales: 10**999999999 {CAP_TEXT}",
            id="bench-scales-999999999",
        ),
    ],
)
def test_exit_three_at_once_as_a_process_on_a_power_of_ten_past_the_ratio_cap(
    tmp_path, golden_file, argv, message
):
    # a read that builds the power of ten first takes 8-9 s to exit at
    # 1e-10000000 and runs past 20 s at 1e-30000000
    empty = tmp_path / "empty.ndjson"
    empty.write_text("")
    files = {"GOLDEN": ["--input", golden_file], "EMPTY": ["--input", str(empty)]}
    argv = [b for a in argv for b in files.get(a, [a])]
    env = {**os.environ, "PYTHONPATH": str(Path(approxcount.__file__).parent.parent)}
    t0 = perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "approxcount.cli", *argv],
        capture_output=True, text=True, timeout=10, env=env,
    )
    assert perf_counter() - t0 < 1
    assert (proc.returncode, proc.stdout, proc.stderr) == (3, "", f"error: {message}\n")


def test_exit_three_at_once_as_a_process_on_an_epsilon_of_more_digits_than_the_cap(golden_file):
    # Reading 1000...0e-400000 (400,001 digits) built its Fraction in 5.5 s.
    # Linux passes no single argument past 128 KiB to a new process, so the
    # process builds its own command line and runs it through cli.main.
    eps = "'1' + '0' * 400000 + 'e-400000'"
    argv = f"['count', '--input', {golden_file!r}, '--epsilon', {eps}]"
    code = f"import sys; from approxcount.cli import main; sys.exit(main({argv}))"
    env = {**os.environ, "PYTHONPATH": str(Path(approxcount.__file__).parent.parent)}
    t0 = perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=10, env=env
    )
    assert perf_counter() - t0 < 1
    assert (proc.returncode, proc.stdout, proc.stderr) == (3, "", f"error: epsilon {CAP_TEXT}\n")


def test_bench_writes_a_scale_at_the_cap_out_at_once_as_a_process():
    # 10**301029 written out through Decimal(n) alone took 1.6 s before the
    # exact DP refused the instance; stepfunc.decimal_text splits it by bits
    env = {**os.environ, "PYTHONPATH": str(Path(approxcount.__file__).parent.parent)}
    argv = ["bench", "--problem", "knapsack", "--n", "1", "--scales", "301029"]
    t0 = perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "approxcount.cli", *argv],
        capture_output=True, text=True, timeout=10, env=env,
    )
    assert perf_counter() - t0 < 1
    header = "algorithm,size,scale,epsilon,oracle_calls,elapsed_ms,set_size_max\n"
    assert (proc.returncode, proc.stdout, proc.stderr) == (3, header, "error: table size exceeds cap\n")


def test_bench_refuses_a_scale_past_the_ratio_cap_before_drawing(capsys):
    # stepfunc's tests pin 301,029 as the largest power of ten under the cap;
    # --n 0 would exit 2 when the instance is drawn, after the scales are read
    argv = ["bench", "--problem", "knapsack", "--n", "0", "--scales", "0,301030"]
    code, out, err = run(capsys, argv)
    assert (code, out, err) == (3, "", f"error: --scales: 10**301030 {CAP_TEXT}\n")


def assert_cap_exits_three(tmp_path, capsys, monkeypatch, problem, payload, mode):
    """Count once within the cap, then again with the cap one below the run's kept total."""
    path = tmp_path / "inst.ndjson"
    path.write_text(json.dumps({"problem": problem, "payload": payload}) + "\n")
    argv = ["count", "--input", str(path), "--mode", mode, "--epsilon", "1/2"]
    code, out, _ = run(capsys, argv)
    assert code == 0
    kept = sum(json_lines(out)[0]["set_sizes"])
    monkeypatch.setattr(stagewise, "KEPT_BREAKPOINT_CAP", kept - 1)
    code, out, err = run(capsys, argv)
    assert code == 3
    assert out == ""
    assert "cap" in err
    return kept


def test_exit_three_when_contingency_keeps_too_many_breakpoints(tmp_path, capsys, monkeypatch):
    payload = {"row_sums": ["9", "12"], "col_sums": ["5", "6", "4", "6"]}
    kept = assert_cap_exits_three(tmp_path, capsys, monkeypatch, "contingency2", payload, "fptas")
    assert kept == 5 + 4 + 1  # windows {0..5}, {3..7} and {9}


@pytest.mark.parametrize(
    "problem, payload, mode",
    [
        ("knapsack", {"weights": ["3", "5", "8", "9"], "capacity": "17"}, "strong-fptas"),
        ("mtuples", json.loads(GOLDEN_LINE)["payload"], "fptas"),
    ],
    ids=["knapsack-strong", "mtuples-plain"],
)
def test_exit_three_when_any_counter_keeps_too_many_breakpoints(
    tmp_path, capsys, monkeypatch, problem, payload, mode
):
    assert assert_cap_exits_three(tmp_path, capsys, monkeypatch, problem, payload, mode) > 1


@pytest.mark.parametrize(
    "problem, payload, cells",
    [
        ("mtuples", json.loads(GOLDEN_LINE)["payload"], 18 * 7),
        ("contingency2", {"row_sums": ["9", "12"], "col_sums": ["5", "6", "4", "6"]}, 5 * 10),
    ],
    ids=["mtuples", "contingency2"],
)
def test_exit_three_when_an_exact_dp_passes_its_cell_cap(
    tmp_path, capsys, monkeypatch, problem, payload, cells
):
    """Count within the cap, then again with the cap one below the DP's cells."""
    path = tmp_path / "inst.ndjson"
    path.write_text(json.dumps({"problem": problem, "payload": payload}) + "\n")
    argv = ["count", "--input", str(path), "--mode", "exact-dp"]
    monkeypatch.setattr(oracles, "DP_CELL_CAP", cells)
    assert run(capsys, argv)[0] == 0
    monkeypatch.setattr(oracles, "DP_CELL_CAP", cells - 1)
    code, out, err = run(capsys, argv)
    assert (code, out) == (3, "")
    assert err.startswith(f"error: {path}:1: ") and "cap" in err


def test_count_failure_names_the_line_and_keeps_earlier_records(tmp_path, capsys):
    big = KnapsackInstance(weights=tuple(range(1, 26)), capacity=30)
    path = tmp_path / "two.ndjson"
    path.write_text(
        json.dumps({"problem": "knapsack", "payload": {"weights": ["5"], "capacity": "4"}})
        + "\n"
        + json.dumps({"problem": "knapsack", "payload": cli.payload_from_instance(big)})
        + "\n"
    )
    code, out, err = run(capsys, ["count", "--input", str(path), "--mode", "exact-brute"])
    assert code == 3
    assert f"{path}:2:" in err
    (rec,) = json_lines(out)
    assert rec["count"] == "1"


@pytest.mark.parametrize(
    "bad, message",
    [
        ({"problem": "mtuples", "payload": {"sets": "1", "bound": "0"}}, "sets: expected a list"),
        ({"problem": "mtuples", "payload": {"sets": [["1"], 2], "bound": "0"}}, "sets: expected a list"),
        ({"problem": "contingency2", "payload": {"row_sums": ["1"], "col_sums": ["1"]}},
         "exactly two row sums"),
        ({"problem": "contingency2", "payload": {"row_sums": ["0", "0"], "col_sums": ["0"]}},
         "column sums must be positive"),
        ({"problem": ["knapsack"], "payload": {}}, "unknown problem"),
        # LONG is written as a JSON integer of 5000 digits, past what repr() writes
        ({"problem": "LONG", "payload": {}}, "unknown problem int"),
        ({"problem": "knapsack", "payload": {"weights": [["LONG"]], "capacity": "1"}},
         "weights: expected an integer or decimal string, got list"),
    ],
    ids=[
        "sets-not-a-list",
        "set-not-a-list",
        "one-row-sum",
        "zero-column-sum",
        "unhashable-problem",
        "long-int-problem",
        "long-int-in-a-list",
    ],
)
def test_payload_error_names_its_line_and_keeps_earlier_records(tmp_path, capsys, bad, message):
    path = tmp_path / "two.ndjson"
    path.write_text(GOLDEN_LINE + "\n" + json.dumps(bad).replace('"LONG"', "9" * 5000) + "\n")
    code, out, err = run(capsys, ["count", "--input", str(path), "--mode", "exact-dp"])
    assert code == 2
    assert err.startswith(f"error: {path}:2: {message}")
    (rec,) = json_lines(out)
    assert rec["count"] == "3"


def test_exit_two_on_an_input_file_that_is_not_utf8(tmp_path, capsys):
    path = tmp_path / "latin1.ndjson"
    path.write_bytes(GOLDEN_LINE.replace("mtuples", "mtupl\xe9s").encode("latin-1") + b"\n")
    code, out, err = run(capsys, ["count", "--input", str(path), "--mode", "exact-dp"])
    assert (code, out) == (2, "")
    assert err.startswith("error: 'utf-8' codec can't decode byte 0xe9")


def test_verify_streams_and_keeps_records_before_a_failing_line(tmp_path, capsys):
    path = tmp_path / "two.ndjson"
    path.write_text(GOLDEN_LINE + "\nthis is not json\n")
    code, out, err = run(capsys, ["verify", "--input", str(path), "--epsilon", "7"])
    assert code == 2
    assert f"{path}:2: not valid JSON" in err
    (rec,) = json_lines(out)
    assert (rec["count"], rec["ok"]) == ("12", True)


def test_numbers_of_any_length_in_and_out(tmp_path, capsys, monkeypatch):
    # 4400 sets {0..9} with bound 0: every one of the 10**4400 tuples counts.
    # Python's int/str conversions refuse more than 4300 digits by default.
    big = "1" + "0" * 4400
    path = tmp_path / "wide.ndjson"
    sets = [[str(x) for x in range(10)]] * 4400
    path.write_text(json.dumps({"problem": "mtuples", "payload": {"sets": sets, "bound": "0"}}) + "\n")
    code, out, _ = run(capsys, ["count", "--input", str(path), "--mode", "exact-dp"])
    assert code == 0
    assert json_lines(out)[0]["count"] == big

    # The approximate count pinned one above exact, so the ratio's terms are long too.
    monkeypatch.setattr(cli, "run_mode", lambda *a: (10**4400 + 1, 0, [], 0.0))
    code, out, _ = run(capsys, ["verify", "--input", str(path), "--epsilon", "1"])
    assert code == 0
    rec, summary = json_lines(out)
    assert (rec["count"], rec["exact"]) == (big[:-1] + "1", big)
    assert rec["ratio_vs_exact"] == summary["max_ratio"] == f"{big[:-1]}1/{big}"


def test_long_numbers_parse_as_strings_and_plain_integers(tmp_path, capsys):
    w = "1" + "0" * 5000
    path = tmp_path / "long.ndjson"
    path.write_text(
        '{"problem": "knapsack", "payload": {"weights": ["%s", "%s"], "capacity": %s}}\n' % (w, w, w)
    )
    code, out, _ = run(capsys, ["count", "--input", str(path), "--mode", "exact-brute"])
    assert code == 0
    assert json_lines(out)[0]["count"] == "3"
    ((_, _, inst),) = cli.load_instances(str(path), "knapsack")
    assert inst.weights == (10**5000, 10**5000)
    assert cli.payload_from_instance(inst) == {"weights": [w, w], "capacity": w}


@pytest.mark.parametrize("where", ["payload-string", "plain-json-integer", "flag", "written"])
def test_a_number_of_400005_digits_reads_at_once(tmp_path, where):
    # Every number read goes through stepfunc._digits_int; int(Decimal(text))
    # took about 5 s on each. Every number written goes through
    # stepfunc.decimal_text; Decimal(value) took about 3.2 s. The repeated
    # digits give the value without a reader.
    text = "123456789" * 44445
    value = 123456789 * (10 ** len(text) - 1) // (10**9 - 1)
    if where == "written":
        start = perf_counter()
        payload = cli.payload_from_instance(KnapsackInstance((value,), 1))
        assert perf_counter() - start < 1.5
        assert payload == {"weights": [text], "capacity": "1"}
        return
    if where == "flag":
        start = perf_counter()
        read = cli.build_parser().parse_args(["gen", "--problem", "knapsack", "--wmax", text]).wmax
    else:
        weight = f'"{text}"' if where == "payload-string" else text
        path = tmp_path / "long.ndjson"
        line = '{"problem": "knapsack", "payload": {"weights": [%s], "capacity": "1"}}\n'
        path.write_text(line % weight)
        start = perf_counter()
        ((_, _, inst),) = cli.load_instances(str(path), None)
        read = inst.weights[0]
    assert perf_counter() - start < 1.5
    assert read == value


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_strong_knapsack_runs_alike_on_a_copy_scaled_by_ten_to_the_100000(tmp_path, capsys, seed):
    # The strong counter's work does not depend on the numbers' magnitude, so
    # the copy makes the same calls and keeps the same sets; it took about 5 s
    # when each number was read through int(Decimal(text)).
    rng = random.Random(seed)
    values = [rng.randint(10**8, 10**9) for _ in range(3)]
    weights = [rng.choice(values) for _ in range(12)]
    capacity = sum(weights) // 2
    runs = []
    for zeros in ("", "0" * 100000):  # each number times 10**100000, never str() of a long int
        payload = {"weights": [f"{w}{zeros}" for w in weights], "capacity": f"{capacity}{zeros}"}
        path = tmp_path / f"scaled-{len(zeros)}.ndjson"
        path.write_text(json.dumps({"problem": "knapsack", "payload": payload}) + "\n")
        argv = ["count", "--input", str(path), "--mode", "strong-fptas", "--epsilon", "1/2"]
        start = perf_counter()
        code, out, _ = run(capsys, argv)
        elapsed = perf_counter() - start
        assert code == 0
        (rec,) = json_lines(out)
        runs.append((rec["count"], rec["oracle_calls"], rec["set_sizes"]))
    assert elapsed < 2
    assert runs[0] == runs[1]
    exact = knapsack_by_distinct_weights(weights, capacity)
    assert exact <= int(runs[0][0]) <= Fraction(3, 2) * exact


def test_exit_four_on_internal_error(golden_file, capsys, monkeypatch):
    # a counter's own ValueError or an oracle out of order is not bad input
    for exc in (
        RecursionError("maximum recursion depth exceeded"),
        ValueError("negative shift count"),
        MonotonicityViolation("oracle value 3 at 2 is not between 0 and 1"),
    ):

        def failing(inst, eps, exc=exc):
            raise exc

        monkeypatch.setattr(cli, "fptas_mtuples", failing)
        argv = ["count", "--input", golden_file, "--mode", "fptas", "--epsilon", "1/2"]
        code, out, err = run(capsys, argv)
        assert code == 4
        assert out == ""
        assert err == f"error: {golden_file}:1: internal: {type(exc).__name__}: {exc}\n"
        code, _, err = run(capsys, ["verify", "--input", golden_file, "--epsilon", "1/2"])
        assert code == 4
        assert f"{golden_file}:1: internal: {type(exc).__name__}" in err


def test_exit_four_when_a_walked_oracle_breaks_its_direction(tmp_path, capsys, monkeypatch):
    # a window sum that is 0 at the low end of its window, where it is
    # largest, is the oracle's fault
    window_sum = contingency.window_sum

    def dipping(half, pivot, width, window):
        phi = window_sum(half, pivot, width, window)
        low = window.lo if window.lo < window.hi else None
        return FnOracle(window, lambda j: 0 if j == low else phi(j), phi.starts, phi.below)

    monkeypatch.setattr(contingency, "window_sum", dipping)
    path = tmp_path / "table.ndjson"
    payload = {"row_sums": ["9", "12"], "col_sums": ["5", "6", "4", "6"]}
    path.write_text(json.dumps({"problem": "contingency2", "payload": payload}) + "\n")
    argv = ["count", "--input", str(path), "--mode", "fptas", "--epsilon", "1/2"]
    code, out, err = run(capsys, argv)
    assert (code, out) == (4, "")
    assert err.startswith(f"error: {path}:1: internal: MonotonicityViolation: not nonincreasing")


def test_huge_numbers_round_trip(tmp_path, capsys):
    w = str(2**500)
    path = tmp_path / "huge.ndjson"
    path.write_text(
        json.dumps(
            {"problem": "knapsack", "payload": {"weights": [w, w], "capacity": str(2**501)}}
        )
        + "\n"
    )
    code, out, _ = run(
        capsys, ["count", "--input", str(path), "--mode", "strong-fptas", "--epsilon", "0.5"]
    )
    assert code == 0
    assert json_lines(out)[0]["count"] == "4"


def test_plain_integers_accepted_on_input(tmp_path, capsys):
    path = tmp_path / "ints.ndjson"
    path.write_text(
        json.dumps({"problem": "knapsack", "payload": {"weights": [1, 2, 3], "capacity": 3}}) + "\n"
    )
    code, out, _ = run(capsys, ["count", "--input", str(path), "--mode", "exact-dp"])
    assert code == 0
    assert json_lines(out)[0]["count"] == "5"


@pytest.mark.parametrize("text", ["1_000", " 5 ", "5 ", "+5", "\u0663", "", "0x10", "5.0"])
def test_exit_two_on_numbers_that_are_not_ascii_decimal(tmp_path, capsys, text):
    path = tmp_path / "odd.ndjson"
    payload = {"weights": ["1", "2"], "capacity": text}
    path.write_text(json.dumps({"problem": "knapsack", "payload": payload}) + "\n")
    code, out, err = run(capsys, ["count", "--input", str(path), "--mode", "exact-dp"])
    assert (code, out) == (2, "")
    assert "capacity" in err and "not a decimal integer" in err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["gen", "--problem", "mtuples", "--setmax", "0"], "--setmax"),
        (["gen", "--problem", "mtuples", "--valmax", "-1"], "--valmax"),
        (["gen", "--problem", "knapsack", "--wmax", "0"], "--wmax"),
        (["gen", "--problem", "knapsack", "--cap", "-1"], "--cap"),
        (["gen", "--problem", "contingency2", "--cellmax", "-1"], "--cellmax"),
        (["verify", "--problem", "knapsack", "--n", "0", "--epsilon", "1"], "--n"),
        (["bench", "--problem", "mtuples", "--m", "0", "--epsilon", "1"], "--m"),
        (["gen", "--problem", "knapsack", "--trials", "-1"], "--trials"),
        (["verify", "--problem", "knapsack", "--epsilon", "1", "--trials", "-1"], "--trials"),
        # checked once per command, before the first draw, so also with no draws
        (["gen", "--problem", "knapsack", "--n", "0", "--trials", "0"], "--n"),
        (["verify", "--problem", "knapsack", "--n", "0", "--trials", "0", "--epsilon", "1"], "--n"),
        # longer than str() writes; the message still names it
        (["gen", "--problem", "knapsack", "--n", "-" + "9" * 5000], "--n"),
        (["gen", "--problem", "knapsack", "--trials", "-" + "9" * 5000], "--trials"),
        # every size flag is checked, also one the problem does not read
        (["gen", "--problem", "contingency2", "--wmax", "0"], "--wmax"),
        (["bench", "--problem", "contingency2", "--setmax", "-5"], "--setmax"),
    ],
)
def test_exit_two_names_an_out_of_range_size_flag(capsys, argv, flag):
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    assert f"error: {flag} must be at least" in err


@pytest.mark.parametrize("instances", [0, 1], ids=["no-instance", "one-instance"])
@pytest.mark.parametrize("command", ["count", "verify"])
def test_exit_two_on_a_missing_mode_whether_or_not_an_instance_arrives(
    tmp_path, capsys, command, instances
):
    # the (problem, mode) pair is checked once, before any instance is read or drawn
    path = tmp_path / "tables.ndjson"
    line = {"problem": "contingency2", "payload": {"row_sums": ["2", "2"], "col_sums": ["2", "1", "1"]}}
    path.write_text((json.dumps(line) + "\n") * instances)
    argv = [command, "--problem", "contingency2", "--mode", "strong-fptas", "--epsilon", "1/2"]
    argv += ["--input", str(path)] if command == "count" else ["--trials", str(instances)]
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    assert "contingency2 has no strong-fptas mode; use fptas" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "--problem", "knapsack", "--n", "1_0"],
        ["gen", "--problem", "knapsack", "--n", "\u0663"],
        ["gen", "--problem", "knapsack", "--n", " 5"],
        ["gen", "--problem", "knapsack", "--seed", "+1"],
        ["verify", "--problem", "knapsack", "--epsilon", "1", "--trials", "1_0"],
        ["bench", "--problem", "mtuples", "--scales", "1_0,1"],
        ["bench", "--problem", "mtuples", "--scales", "0, 3"],
    ],
)
def test_exit_two_on_integer_flags_that_are_not_ascii_decimal(capsys, argv):
    assert (cli.main(argv), capsys.readouterr().out) == (2, "")


@pytest.mark.parametrize(
    "argv, code",
    [
        (["verify", "--problem", "knapsack"], 2),
        (["count"], 2),
        (["frobnicate"], 2),
        (["--help"], 0),
        (["count", "--help"], 0),
    ],
    ids=["verify-without-epsilon", "count-without-input", "unknown-command", "help", "count-help"],
)
def test_main_returns_argparse_exit_codes(capsys, argv, code):
    assert cli.main(argv) == code
    out, err = capsys.readouterr()
    assert ("usage:" in out) == (code == 0) and ("usage:" in err) == (code == 2)


def test_main_reuses_its_parser_as_if_built_fresh(golden_file, tmp_path, capsys, monkeypatch):
    # Every flag set, then the same subcommand with none: the defaults must come
    # back. Usage errors and --help at two widths sit in between.
    monkeypatch.setattr(cli, "perf_counter", lambda: 0.0)  # elapsed_ms reads 0 on both sides
    out = tmp_path / "out"
    sizes = [arg for name in cli.SIZE_FLAGS for arg in (f"--{name}", "3")]
    calls = [
        ("120", ["count", "--input", golden_file, "--problem", "mtuples", "--mode",
                 "strong-fptas", "--epsilon", "1/2", "--out", str(out)]),
        ("120", ["gen", "--problem", "knapsack", "--seed", "5", "--trials", "2",
                 "--out", str(out), *sizes]),
        ("40", ["verify", "--help"]),
        ("120", ["verify", "--problem", "knapsack", "--mode", "strong-fptas", "--epsilon", "1",
                 "--seed", "5", "--trials", "2", "--out", str(out), *sizes]),
        ("120", ["verify", "--problem", "knapsack"]),
        ("120", ["bench", "--problem", "contingency2", "--epsilon", "1,1/2", "--scales", "0,1",
                 "--seed", "5", "--out", str(out), *sizes]),
        ("40", ["--help"]),
        ("120", ["count", "--input", golden_file]),
        ("120", ["verify", "--problem", "knapsack", "--epsilon", "1"]),
        ("120", ["verify", "--help"]),
        ("120", ["gen", "--problem", "knapsack"]),
        ("120", ["--help"]),
        ("40", ["gen", "--problem", "knapsack", "--n", "x"]),
        ("120", ["bench", "--problem", "contingency2"]),
    ]

    def outcome(columns, argv):
        monkeypatch.setenv("COLUMNS", columns)
        code = cli.main(argv)
        written = out.read_text() if out.exists() else None
        out.unlink(missing_ok=True)
        return (code, *capsys.readouterr(), written)

    fresh = []
    for columns, argv in calls:
        cli.build_parser.cache_clear()
        fresh.append(outcome(columns, argv))
    cli.build_parser.cache_clear()
    assert [outcome(columns, argv) for columns, argv in calls] == fresh
    assert [got[0] for got in fresh] == [0, 0, 0, 0, 2, 0, 0, 2, 0, 0, 0, 0, 2, 0]
    assert "--epsilon is required for mode fptas" in fresh[7][2]  # --mode is back to fptas
    assert fresh[8][1].splitlines()[-1].startswith('{"summary": "verify", "trials": 100,')
    assert fresh[2][1] != fresh[9][1] and fresh[6][1] != fresh[11][1]  # help follows COLUMNS


def test_parser_is_built_on_the_first_main_call_only(golden_file):
    # counts every ArgumentParser constructed, subparsers included, in a fresh process
    script = f"""
import argparse, json
built = []
init = argparse.ArgumentParser.__init__
def counting(self, *args, **kwargs):
    built.append(kwargs.get("prog"))
    init(self, *args, **kwargs)
argparse.ArgumentParser.__init__ = counting
from approxcount import cli
on_import = list(built)
for argv in [["count", "--input", {golden_file!r}, "--mode", "exact-dp"], ["--help"], ["count"]] * 3:
    cli.main(argv)
print(json.dumps([on_import, built]))
"""
    env = {**os.environ, "PYTHONPATH": str(Path(approxcount.__file__).parent.parent)}
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=60, env=env
    )
    on_import, built = json.loads(proc.stdout.splitlines()[-1])
    assert on_import == []
    assert built == ["approxcount", *(f"approxcount {c}" for c in ("count", "verify", "gen", "bench"))]


@pytest.mark.parametrize(
    "argv, text, code, counts, err",
    [
        (["count", "--mode", "exact-dp"], "\n  \n" + GOLDEN_LINE + "\n\t\n", 0, ["3"], ""),
        (["verify", "--epsilon", "7"], "\n  \n" + GOLDEN_LINE + "\n\t\n", 0, ["12", None], ""),
        (["count", "--mode", "exact-dp"], '["mtuples"]\n', 2, [], "FILE:1: expected a JSON object"),
        (["count", "--mode", "exact-dp"], '{"problem": "mtuples", "payload": [1]}\n', 2, [],
         "FILE:1: payload must be a JSON object"),
        (["count", "--mode", "fptas", "--epsilon", "0"], GOLDEN_LINE + "\n", 2, [],
         "epsilon must be positive"),
        (["verify", "--epsilon", "1"], None, 2, [], "verify needs --input or --problem"),
        (["bench", "--problem", "mtuples", "--scales", "0,-1"], None, 2, [],
         "scale exponents must be nonnegative"),
        (["bench", "--problem", "knapsack", "--scales", ""], None, 2, [],
         "--scales: '' is not a decimal integer"),
        (["bench", "--problem", "knapsack", "--scales", ","], None, 2, [],
         "--scales: '' is not a decimal integer"),
        # --epsilon is read entry by entry, as --scales is
        (["bench", "--problem", "knapsack", "--epsilon", ","], None, 2, [],
         "epsilon '' is not a rational number"),
        (["bench", "--problem", "knapsack", "--epsilon", "1,,1/2"], None, 2, [],
         "epsilon '' is not a rational number"),
        (["bench", "--problem", "knapsack", "--epsilon", "1, 1/2"], None, 2, [],
         "epsilon ' 1/2' is not a rational number"),
    ],
    ids=["count-skips-blank-lines", "verify-skips-blank-lines", "array-line", "list-payload",
         "zero-epsilon", "verify-without-input-or-problem", "negative-scale", "empty-scales",
         "comma-scales", "comma-epsilon", "empty-epsilon-entry", "spaced-epsilon-entry"],
)
def test_input_paths(tmp_path, capsys, argv, text, code, counts, err):
    path = tmp_path / "in.ndjson"
    if text is not None:
        path.write_text(text)
        argv = [*argv, "--input", str(path)]
    got, out, stderr = run(capsys, argv)
    assert got == code
    assert [rec.get("count") for rec in json_lines(out)] == counts
    assert err.replace("FILE", str(path)) in stderr and (stderr == "") == (code == 0)


def test_module_is_runnable_as_subprocess(golden_file):
    # the subprocess imports approxcount from where this process did
    env = {**os.environ, "PYTHONPATH": str(Path(approxcount.__file__).parent.parent)}
    proc = subprocess.run(
        [sys.executable, "-m", "approxcount.cli", "count", "--input", golden_file,
         "--mode", "exact-dp"],
        capture_output=True,
        text=True,
        timeout=60,
        env=env,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout.splitlines()[0])["count"] == "3"


def test_epsilon_accepts_fraction_syntax(golden_file, capsys):
    code, out, _ = run(capsys, ["count", "--input", golden_file, "--mode", "fptas", "--epsilon", "1/2"])
    assert code == 0
    rec = json_lines(out)[0]
    exact = 3
    assert exact <= int(rec["count"]) <= (1 + Fraction(1, 2)) * exact
