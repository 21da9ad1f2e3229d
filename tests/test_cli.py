import ast
import contextlib
import gc
import io
import json
import math
import os
import pathlib
import random
import subprocess
import sys
import tempfile
import time

import pytest
from hypothesis import given, settings, strategies as st

from splitpack import cli, gen_random, pack_75
from splitpack import io as spio
from splitpack.cli import main
from splitpack.core import MAX_NUMERAL_DIGITS, MAX_PARTS


def run_cli(*argv, capsys):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def nf_worst_files(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    cert = tmp_path / "cert.json"
    code, _, _ = run_cli(
        "gen", "nf-worst", "--k", "2", "--m", "2",
        "--output", str(inst), "--certified-output", str(cert),
        capsys=capsys,
    )
    assert code == 0
    return inst, cert


def test_solve_nf_prints_bins_and_bound(nf_worst_files, tmp_path, capsys):
    inst, _ = nf_worst_files
    out_file = tmp_path / "packing.json"
    trace_file = tmp_path / "trace.json"
    code, out, _ = run_cli(
        "solve", "--algo", "nf", "--input", str(inst),
        "--output", str(out_file), "--trace", str(trace_file),
        capsys=capsys,
    )
    assert code == 0
    assert "bins=5 lower_bound=4" in out
    packing = spio.load_packing(str(out_file))
    assert packing.n_bins == 5
    trace = json.loads(trace_file.read_text())
    assert trace["blocks"] == [[0, 4], [4, 1]]


def test_solve_exact_finds_optimum(nf_worst_files, tmp_path, capsys):
    inst, _ = nf_worst_files
    out_file = tmp_path / "packing.json"
    code, out, _ = run_cli(
        "solve", "--algo", "exact", "--input", str(inst),
        "--output", str(out_file),
        capsys=capsys,
    )
    assert code == 0
    assert "bins=4" in out
    assert spio.load_packing(str(out_file)).n_bins == 4


def test_solve_a75_wrong_k_is_usage_error(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    inst.write_text('{"k": 3, "items": ["1/2", "1/2"]}')
    out_file = tmp_path / "packing.json"
    code, _, err = run_cli(
        "solve", "--algo", "a75", "--input", str(inst),
        "--output", str(out_file),
        capsys=capsys,
    )
    assert code == 2
    assert "k=2" in err
    assert not out_file.exists()


def test_solve_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    code, _, err = run_cli(
        "solve", "--algo", "nf", "--input", str(bad), capsys=capsys
    )
    assert code == 3


_UNREADABLE = {
    "missing": None,
    "not-utf8": b"\xff\xfe",
    "deep": b"[" * 200000,
    "long-int": b'{"k": 1' + b"0" * 5000,
}


@pytest.mark.parametrize("content", _UNREADABLE, ids=list(_UNREADABLE))
@pytest.mark.parametrize(
    "argv, what",
    [
        (("solve", "--algo", "nf", "--input", "BAD"), "instance"),
        (("bounds", "--input", "BAD"), "instance"),
        (("verify", "--instance", "BAD", "--packing", "CERT"), "instance"),
        (("verify", "--instance", "INST", "--packing", "BAD"), "packing"),
        (("normalize", "--instance", "INST", "--input", "BAD"), "packing"),
    ],
    ids=["solve", "bounds", "verify-instance", "verify-packing", "normalize"],
)
def test_an_unreadable_input_file_is_a_parse_error(
    nf_worst_files, tmp_path, capsys, argv, what, content
):
    inst, cert = nf_worst_files
    bad = tmp_path / "bad.json"
    if _UNREADABLE[content] is not None:
        bad.write_bytes(_UNREADABLE[content])
    paths = {"BAD": str(bad), "INST": str(inst), "CERT": str(cert)}
    code, out, err = run_cli(*(paths.get(a, a) for a in argv), capsys=capsys)
    assert (code, out) == (3, "")
    reason = f"cannot read {what}: " if content == "missing" else f"bad {what} file: "
    assert err.startswith(reason)


_HUGE = [0] * 300000

# Documents whose offending value is about 900 KB long.
_HOSTILE = {
    "k": ("instance", {"k": _HUGE, "items": ["1/2"]}),
    "size-not-a-string": ("instance", {"k": 2, "items": [_HUGE]}),
    "size-not-a-rational": ("instance", {"k": 2, "items": ["x" * 900000]}),
    "size-exponent": ("instance", {"k": 2, "items": ["x" * 900000 + "e5000"]}),
    "item-id": ("packing", {"bins": [[{"item": _HUGE, "part": "1/2"}]]}),
    "part-not-a-string": ("packing", {"bins": [[{"item": 0, "part": _HUGE}]]}),
    # 1000 digits, as many as a numeral may have: the Instance's own checks
    "k-below-two": ("instance", {"k": -int("9" * 1000), "items": ["1/2"]}),
    "size-non-positive": ("instance", {"k": 2, "items": [f"-{'9' * 500}/{'7' * 499}"]}),
}


@pytest.mark.parametrize("shape", _HOSTILE, ids=list(_HOSTILE))
def test_a_huge_offending_value_gives_a_short_message(
    nf_worst_files, tmp_path, capsys, shape
):
    inst, _ = nf_worst_files
    what, doc = _HOSTILE[shape]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    if what == "instance":
        argv = ("bounds", "--input", str(bad))
    else:
        argv = ("verify", "--instance", str(inst), "--packing", str(bad))
    code, out, err = run_cli(*argv, capsys=capsys)
    assert (code, out) == (3, "")
    assert err.startswith(f"bad {what} file: ") and len(err.encode()) < 1024


@pytest.mark.parametrize("size", ["1e1000000", "1" * 4000])
def test_solve_rejects_huge_numerals_fast(tmp_path, capsys, size):
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps({"k": 2, "items": ["1/2", size]}))
    start = time.perf_counter()
    code, _, err = run_cli("solve", "--algo", "nf", "--input", str(inst), capsys=capsys)
    assert code == 3
    assert "bad instance file" in err
    assert time.perf_counter() - start < 0.25


@pytest.mark.parametrize("size", ["1e9", str(MAX_PARTS + 1)])
def test_solve_rejects_instances_needing_too_many_parts_fast(tmp_path, capsys, size):
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps({"k": 2, "items": [size]}))
    start = time.perf_counter()
    code, _, err = run_cli("solve", "--algo", "nf", "--input", str(inst), capsys=capsys)
    assert code == 3
    assert f"more than {MAX_PARTS} parts" in err
    assert time.perf_counter() - start < 0.25


def _coprime_30_digit_instance(n, seed):
    """n sizes up to 2 over pairwise coprime denominators of about 30 digits
    (a power of each of the first n primes); each numeral stays short."""
    primes = []
    candidate = 2
    while len(primes) < n:
        if all(candidate % p for p in primes):
            primes.append(candidate)
        candidate += 1
    rng = random.Random(seed)
    dens = [q ** math.ceil(29 / math.log10(q)) for q in primes]
    return {"k": 2, "items": [f"{rng.randint(1, 2 * d)}/{d}" for d in dens]}


def test_solve_refuses_a_packing_the_reader_would_refuse(tmp_path, capsys):
    # The lcm of the sizes is past core.UNIT_BITS, and a75's next-fit chain
    # multiplies denominators into a part of more than MAX_NUMERAL_DIGITS
    # digits, which verify would refuse to read: exit 3, nothing written.
    inst = tmp_path / "inst.json"
    out_file = tmp_path / "packing.json"
    doc = _coprime_30_digit_instance(200, 1)
    assert max(map(len, doc["items"])) < 70
    inst.write_text(json.dumps(doc))
    code, out, err = run_cli(
        "solve", "--algo", "a75", "--input", str(inst), "--output", str(out_file),
        capsys=capsys,
    )
    assert code == 3
    assert err == (
        f"bad instance file: its packing needs a part of more than "
        f"{MAX_NUMERAL_DIGITS} digits (bin 84)\n"
    )
    assert out == "" and not out_file.exists()
    # the library's writer refuses the same part, before opening the file
    packing = pack_75(spio.load_instance(str(inst))).packing
    with pytest.raises(ValueError, match=r"\(bin 84\)$"):
        spio.save_packing(str(out_file), packing)
    assert not out_file.exists()
    # next fit's packing of the same instance stays readable, and is written
    code, _, _ = run_cli(
        "solve", "--algo", "nf", "--input", str(inst), "--output", str(out_file),
        capsys=capsys,
    )
    assert code == 0
    code, out, _ = run_cli(
        "verify", "--instance", str(inst), "--packing", str(out_file), capsys=capsys
    )
    assert code == 0 and out.startswith("ok: ")


def test_instance_at_the_part_limit_is_accepted(tmp_path, capsys):
    # the limit counts ceil(size) over all items, not items or digits
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps({"k": 2, "items": [str(MAX_PARTS - 2), "1/3", "1/2"]}))
    code, out, _ = run_cli("bounds", "--input", str(inst), capsys=capsys)
    assert code == 0 and f"weight_bound={MAX_PARTS // 2}" in out


@pytest.mark.parametrize(
    "argv",
    [
        ("solve", "--algo", "exact"),
        ("experiment", "--suite", "nf-ratio", "--trials", "2"),
        ("experiment", "--suite", "reduction-check", "--k", "3", "--trials", "2"),
    ],
    ids=["solve-exact", "experiment-nf-ratio", "experiment-reduction-check"],
)
def test_malformed_budget_env_is_usage_error(tmp_path, capsys, monkeypatch, argv):
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps({"k": 2, "items": ["1/2", "3/4"]}))
    if argv[0] == "solve":
        argv += ("--input", str(inst))
    monkeypatch.setenv("SPLITPACK_BUDGET", "bogus=3")
    code, out, err = run_cli(*argv, capsys=capsys)
    assert code == 2
    assert out == ""
    assert err == "bad SPLITPACK_BUDGET: bad budget component: 'bogus=3'\n"


@pytest.mark.parametrize(
    "spec",
    ["items=" + "1" * 100_000, "items=²"],
    ids=["100k-digits", "superscript-digit"],
)
def test_bad_budget_env_message_is_short(tmp_path, capsys, monkeypatch, spec):
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps({"k": 2, "items": ["1/2", "3/4"]}))
    monkeypatch.setenv("SPLITPACK_BUDGET", spec)
    code, out, err = run_cli(
        "solve", "--algo", "exact", "--input", str(inst), capsys=capsys
    )
    assert code == 2
    assert out == ""
    assert err.startswith("bad SPLITPACK_BUDGET: bad budget component: ")
    assert len(err.encode()) < 1024


@pytest.mark.parametrize(
    "argv,message",
    [
        (("solve", "--algo", "exact", "--budget-nodes", "-5"),
         "--budget-nodes must be at least 0, got -5"),
        (("solve", "--algo", "exact", "--max-bins", "-1"),
         "--max-bins must be at least 0, got -1"),
        (("experiment", "--suite", "nf-ratio", "--budget-nodes", "-1"),
         "--budget-nodes must be at least 0, got -1"),
        (("experiment", "--suite", "normalize-check", "--max-bins", "-2"),
         "--max-bins must be at least 0, got -2"),
    ],
    ids=["solve-nodes", "solve-bins", "experiment-nodes", "experiment-bins"],
)
def test_negative_oracle_budget_is_usage_error(tmp_path, capsys, argv, message):
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps({"k": 2, "items": ["51/100"] * 5}))
    output = tmp_path / "out"
    if argv[0] == "solve":
        argv += ("--input", str(inst))
    code, out, err = run_cli(*argv, "--output", str(output), capsys=capsys)
    assert code == 2
    assert out == ""
    assert err == message + "\n"
    assert not output.exists()


def test_experiment_reduction_check_needs_k3(capsys):
    code, out, err = run_cli(
        "experiment", "--suite", "reduction-check", "--trials", "2", capsys=capsys
    )
    assert code == 2 and out == ""
    assert err == "reduction-check requires k >= 3, got k=2\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (("--suite", "nf-ratio", "--max-n", "0"), "--max-n must be at least 1, got 0"),
        (
            ("--suite", "a75-ratio", "--max-n", "-3"),
            "--max-n must be at least 1, got -3",
        ),
        (
            ("--suite", "normalize-check", "--max-n", "0"),
            "--max-n must be at least 1, got 0",
        ),
        (("--suite", "nf-ratio", "--k", "1"), "--k must be at least 2, got 1"),
        (
            ("--suite", "reduction-check", "--k", "3", "--trials", "-1"),
            "--trials must be at least 0, got -1",
        ),
    ],
)
def test_experiment_rejects_out_of_range_numbers(tmp_path, capsys, argv, message):
    out_file = tmp_path / "out.csv"
    code, out, err = run_cli(
        "experiment", *argv, "--output", str(out_file), capsys=capsys
    )
    assert code == 2 and out == ""
    assert err == message + "\n"
    assert not out_file.exists()


@pytest.mark.parametrize(
    "argv, parts",
    [
        (("--suite", "nf-ratio", "--k", "1000000000", "--dist", "heavy"), 6 * 10**9),
        (("--suite", "a75-ratio", "--max-n", "1000000000"), 2 * 10**9),
        (("--suite", "reduction-check", "--k", "1000000000"), 6 + 2 * (10**9 - 3)),
    ],
    ids=["nf-heavy-k", "a75-max-n", "reduction-k"],
)
def test_experiment_rejects_draws_past_max_parts_fast(tmp_path, capsys, argv, parts):
    # heavy sizes reach k, the others 2; the reduction pads with 2(k - 3)
    # items: such a draw would need about 10^9 parts
    out_file = tmp_path / "out.csv"
    start = time.perf_counter()
    code, out, err = run_cli(
        "experiment", *argv, "--output", str(out_file), capsys=capsys
    )
    assert code == 2 and out == ""
    assert err == (
        f"experiment {argv[1]} would make {parts} parts in a draw, "
        f"more than {MAX_PARTS}\n"
    )
    assert not out_file.exists()
    assert time.perf_counter() - start < 0.25


def test_experiment_draw_bound_is_tight(capsys):
    for max_n, want in ((MAX_PARTS // 2, 0), (MAX_PARTS // 2 + 1, 2)):
        code, _, _ = run_cli(
            "experiment", "--suite", "normalize-check", "--trials", "0",
            "--max-n", str(max_n), capsys=capsys,
        )
        assert code == want, max_n


def _run_quietly(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(
        io.StringIO()
    ):
        return main(argv)


# The suites that read each suite flag; the others reject it.
EXPERIMENT_FLAG_SUITES = {
    "--max-n": ("nf-ratio", "a75-ratio", "normalize-check"),
    "--k": ("nf-ratio", "reduction-check"),
    "--dist": ("nf-ratio", "normalize-check"),
}


@settings(max_examples=60, deadline=None)
@given(
    suite=st.sampled_from(
        ["nf-ratio", "a75-ratio", "reduction-check", "normalize-check"]
    ),
    trials=st.integers(-2, 3),
    max_n=st.one_of(st.none(), st.integers(-2, 8)),
    k=st.one_of(st.none(), st.integers(-1, 5)),
    dist=st.one_of(st.none(), st.sampled_from(["uniform", "mixed", "heavy"])),
    seed=st.integers(0, 2**16),
    budget_nodes=st.sampled_from([-3, -1, 0, 1, 20000]),
    max_bins=st.one_of(st.none(), st.integers(-2, 12)),
)
def test_experiment_fuzz_exits_with_documented_codes(
    suite, trials, max_n, k, dist, seed, budget_nodes, max_bins
):
    # A small node budget bounds each oracle call; running out of it only
    # skips a trial. A suite flag the suite does not read is a usage error.
    argv = [
        "experiment", "--suite", suite, "--trials", str(trials),
        "--seed", str(seed), "--budget-nodes", str(budget_nodes),
    ]
    misapplied = False
    for flag, value in (("--max-n", max_n), ("--k", k), ("--dist", dist)):
        if value is not None:
            argv += [flag, str(value)]
            misapplied |= suite not in EXPERIMENT_FLAG_SUITES[flag]
    if max_bins is not None:
        argv += ["--max-bins", str(max_bins)]
    code = _run_quietly(argv)
    k = 2 if k is None else k
    invalid = (
        misapplied or trials < 0 or (max_n is not None and max_n < 1) or k < 2
        or (suite == "reduction-check" and k < 3)
        or budget_nodes < 0 or (max_bins is not None and max_bins < 0)
    )
    assert code == (cli.EXIT_USAGE if invalid else cli.EXIT_OK)


_SIZES = ["1/2", "1/3", "3/4", "1", "2", "5/3", "0.25", "1e1"]
_NUMERALS = st.sampled_from(_SIZES + ["0", "-1/2", "x", ""])
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5)
    | _NUMERALS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["k", "items", "bins", "item", "part",
                                       "labels"]) | st.text(max_size=3),
                      inner, max_size=3),
    max_leaves=10,
)
# Well-formed documents, and documents of the right shape with any field
# replaced by arbitrary JSON.
_INSTANCE_DOCS = st.fixed_dictionaries(
    {"k": st.integers(2, 4), "items": st.lists(st.sampled_from(_SIZES), max_size=6)}
) | st.fixed_dictionaries(
    {"k": st.integers(0, 4) | _JSON_VALUES,
     "items": st.lists(_NUMERALS | _JSON_VALUES, max_size=6) | _JSON_VALUES}
)
_PACKING_DOCS = st.fixed_dictionaries(
    {"bins": st.lists(
        st.lists(
            st.fixed_dictionaries(
                {"item": st.integers(-1, 6) | _JSON_VALUES,
                 "part": _NUMERALS | _JSON_VALUES}
            ) | _JSON_VALUES,
            max_size=3,
        ) | _JSON_VALUES,
        max_size=5,
    ) | _JSON_VALUES},
    optional={"labels": st.lists(st.text(max_size=3), max_size=5) | _JSON_VALUES},
)


def _file_bytes(docs):
    """Arbitrary bytes, arbitrary JSON or a document near the format."""
    return st.one_of(
        st.binary(max_size=30),
        _JSON_VALUES.map(lambda doc: json.dumps(doc).encode()),
        docs.map(lambda doc: json.dumps(doc).encode()),
    )


@settings(max_examples=150, deadline=None)
@given(instance=_file_bytes(_INSTANCE_DOCS), packing=_file_bytes(_PACKING_DOCS))
def test_file_fuzz_exits_with_documented_codes(instance, packing):
    # Every command that reads an instance or a packing file ends with a
    # documented exit code and raises nothing, whatever the files hold. The
    # packing is the fuzzed file and then next fit's own output.
    with tempfile.TemporaryDirectory() as tmp:
        inst, fuzzed, nf, out = (
            os.path.join(tmp, name) for name in ("i.json", "p.json", "nf.json", "o.json")
        )
        with open(inst, "wb") as fh:
            fh.write(instance)
        with open(fuzzed, "wb") as fh:
            fh.write(packing)
        for argv in (
            ["bounds", "--input", inst],
            ["solve", "--algo", "nf", "--input", inst, "--output", nf],
            ["solve", "--algo", "a75", "--input", inst, "--output", out],
            ["solve", "--algo", "exact", "--input", inst, "--budget-nodes", "2000",
             "--output", out],
            ["verify", "--instance", inst, "--packing", fuzzed],
            ["verify", "--instance", inst, "--packing", nf],
            ["normalize", "--check", "--instance", inst, "--input", fuzzed,
             "--output", out],
            ["normalize", "--check", "--instance", inst, "--input", nf,
             "--output", out],
        ):
            assert _run_quietly(argv) in (0, 2, 3, 4, 5)


@pytest.mark.parametrize(
    "argv, flag",
    [
        (("--suite", "a75-ratio", "--k", "5"), "--k"),
        (("--suite", "a75-ratio", "--dist", "heavy"), "--dist"),
        (("--suite", "reduction-check", "--k", "3", "--dist", "heavy"), "--dist"),
        (("--suite", "reduction-check", "--k", "3", "--max-n", "99"), "--max-n"),
        (("--suite", "normalize-check", "--k", "2"), "--k"),
    ],
    ids=["a75-k", "a75-dist", "reduction-dist", "reduction-max-n", "normalize-k"],
)
def test_experiment_rejects_a_flag_its_suite_ignores(tmp_path, capsys, argv, flag):
    out_file = tmp_path / "out.csv"
    code, out, err = run_cli(
        "experiment", *argv, "--trials", "1", "--output", str(out_file),
        capsys=capsys,
    )
    suites = ", ".join(EXPERIMENT_FLAG_SUITES[flag])
    assert (code, out) == (2, "")
    assert err == f"{flag} only applies to --suite {suites}\n"
    assert not out_file.exists()


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(-2, 8),
    k=st.integers(-1, 5),
    dist=st.sampled_from(["uniform", "mixed", "heavy"]),
    seed=st.integers(-5, 2**16),
)
def test_gen_random_fuzz_exits_with_documented_codes(n, k, dist, seed):
    code = _run_quietly(
        ["gen", "random", "--n", str(n), "--k", str(k), "--dist", dist,
         "--seed", str(seed)]
    )
    assert code == (cli.EXIT_USAGE if n < 0 or k < 2 else cli.EXIT_OK)


def _searched_instance(tmp_path):
    """An instance file the oracle must search: LB = OPT = 4, the
    heuristics need 5, and the partition bound does not rule out level 4."""
    inst = tmp_path / "inst.json"
    spio.save_instance(str(inst), gen_random(8, 3, "mixed", 8))
    return inst


def test_solve_budget_exhaustion(tmp_path, capsys):
    inst = _searched_instance(tmp_path)
    for nodes in ("0", "1"):
        code, _, err = run_cli(
            "solve", "--algo", "exact", "--input", str(inst),
            "--budget-nodes", nodes,
            capsys=capsys,
        )
        assert code == 4 and err.startswith("oracle budget exhausted"), nodes


def test_solve_over_half_needs_no_search_nodes(tmp_path, capsys):
    # five items of 51/100: LB 3, but the partition bound rules out level 3,
    # so the heuristics' 4 bins are certified with a zero node budget
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps({"k": 2, "items": ["51/100"] * 5}))
    code, out, _ = run_cli(
        "solve", "--algo", "exact", "--input", str(inst),
        "--budget-nodes", "0",
        capsys=capsys,
    )
    assert code == 0 and out.startswith("bins=4 ")


def test_verify_accepts_certificate(nf_worst_files, capsys):
    inst, cert = nf_worst_files
    code, out, _ = run_cli(
        "verify", "--instance", str(inst), "--packing", str(cert),
        capsys=capsys,
    )
    assert code == 0
    assert "ok" in out


def test_verify_rejects_tampered_part(nf_worst_files, tmp_path, capsys):
    inst, cert = nf_worst_files
    doc = json.loads(cert.read_text())
    doc["bins"][0][0]["part"] = "1/2"
    bad = tmp_path / "tampered.json"
    bad.write_text(json.dumps(doc))
    code, out, _ = run_cli(
        "verify", "--instance", str(inst), "--packing", str(bad),
        capsys=capsys,
    )
    assert code == 5
    assert "coverage" in out


def test_verify_rejects_unknown_item(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    inst.write_text('{"k": 2, "items": ["1/2"]}')
    packing = tmp_path / "packing.json"
    packing.write_text(
        '{"bins": [[{"item": 0, "part": "1/2"}, {"item": 3, "part": "1/4"}]]}'
    )
    code, out, _ = run_cli(
        "verify", "--instance", str(inst), "--packing", str(packing),
        capsys=capsys,
    )
    assert code == 5
    assert "unknown item" in out


def test_bounds_output(nf_worst_files, capsys):
    inst, _ = nf_worst_files
    code, out, _ = run_cli("bounds", "--input", str(inst), capsys=capsys)
    assert code == 0
    assert "size_bound=4 weight_bound=4 count_bound=3 best=4" in out


def test_gen_reduce3p_and_errors(tmp_path, capsys):
    out_file = tmp_path / "inst.json"
    code, _, _ = run_cli(
        "gen", "reduce3p", "--b", "20", "--numbers", "7,7,6,7,7,6",
        "--k", "3", "--output", str(out_file),
        capsys=capsys,
    )
    assert code == 0
    inst = spio.load_instance(str(out_file))
    assert inst.n == 6
    code, _, err = run_cli(
        "gen", "reduce3p", "--b", "20", "--numbers", "6,6,8,9,6,5",
        "--k", "3",
        capsys=capsys,
    )
    assert code == 2


def test_gen_random_deterministic_bytes(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for target in (a, b):
        code, _, _ = run_cli(
            "gen", "random", "--n", "6", "--k", "2", "--dist", "mixed",
            "--seed", "11", "--output", str(target),
            capsys=capsys,
        )
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_normalize_command(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    packing = tmp_path / "packing.json"
    out_file = tmp_path / "out.json"
    inst.write_text('{"k": 2, "items": ["2/3", "2/3", "2/3"]}')
    packing.write_text(
        json.dumps(
            {
                "bins": [
                    [{"item": 0, "part": "1/3"}, {"item": 1, "part": "1/3"}],
                    [{"item": 1, "part": "1/3"}, {"item": 2, "part": "1/3"}],
                    [{"item": 2, "part": "1/3"}, {"item": 0, "part": "1/3"}],
                ]
            }
        )
    )
    code, out, _ = run_cli(
        "normalize", "--input", str(packing), "--instance", str(inst),
        "--output", str(out_file), "--check",
        capsys=capsys,
    )
    assert code == 0
    assert "bins=2 (from 3)" in out
    assert spio.load_packing(str(out_file)).n_bins == 2


def test_normalize_check_reports_what_normalize_left(tmp_path, capsys, monkeypatch):
    # a normalize that returns its input keeps the 3-cycle of
    # test_normalize_command: --check prints the violation, exits 5 and
    # writes nothing
    inst = tmp_path / "inst.json"
    packing = tmp_path / "packing.json"
    out_file = tmp_path / "out.json"
    inst.write_text('{"k": 2, "items": ["2/3", "2/3", "2/3"]}')
    packing.write_text(
        json.dumps(
            {
                "bins": [
                    [{"item": i, "part": "1/3"}, {"item": (i + 1) % 3, "part": "1/3"}]
                    for i in range(3)
                ]
            }
        )
    )
    monkeypatch.setattr(cli, "normalize", lambda inst, packing: packing)
    code, out, err = run_cli(
        "normalize", "--input", str(packing), "--instance", str(inst),
        "--output", str(out_file), "--check",
        capsys=capsys,
    )
    assert (code, out, err) == (5, "graph has a cycle\n", "")
    assert not out_file.exists()


def test_normalize_refuses_an_unreadable_part_before_writing(
    tmp_path, capsys, monkeypatch
):
    # the check of solve, on the rewritten packing: a part that the reader
    # would refuse is exit 3, and nothing is written
    inst = tmp_path / "inst.json"
    packing = tmp_path / "packing.json"
    out_file = tmp_path / "out.json"
    inst.write_text('{"k": 2, "items": ["2/3", "2/3", "2/3"]}')
    packing.write_text(
        '{"bins": [[{"item": 0, "part": "2/3"}], [{"item": 1, "part": "2/3"}],'
        ' [{"item": 2, "part": "2/3"}]]}'
    )
    monkeypatch.setattr(spio, "too_many_digits", lambda text: True)
    code, out, err = run_cli(
        "normalize", "--input", str(packing), "--instance", str(inst),
        "--output", str(out_file),
        capsys=capsys,
    )
    assert code == 3
    assert err.endswith("digits (bin 0)\n")
    assert out == "" and not out_file.exists()


@pytest.mark.parametrize("collecting", [True, False])
def test_normalize_leaves_the_collector_as_it_found_it(tmp_path, capsys, collecting):
    # normalize runs with the cyclic collector paused; after an exit 0, an
    # exit 5 (invalid input) and an exit 3 (an output part the reader
    # refuses) it is on again only if it was on before
    inst = tmp_path / "inst.json"
    good = tmp_path / "good.json"
    bad = tmp_path / "bad.json"
    inst.write_text('{"k": 2, "items": ["2/3", "2/3", "2/3"]}')
    good.write_text(
        '{"bins": [[{"item": 0, "part": "2/3"}], [{"item": 1, "part": "2/3"}],'
        ' [{"item": 2, "part": "2/3"}]]}'
    )
    bad.write_text('{"bins": [[{"item": 0, "part": "2/3"}]]}')
    argv = ("normalize", "--check", "--instance", str(inst))
    out_file = str(tmp_path / "out.json")
    was = gc.isenabled()
    try:
        (gc.enable if collecting else gc.disable)()
        assert run_cli(*argv, "--input", str(good), capsys=capsys)[0] == 0
        assert gc.isenabled() == collecting
        assert run_cli(*argv, "--input", str(bad), capsys=capsys)[0] == 5
        assert gc.isenabled() == collecting
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(spio, "too_many_digits", lambda text: True)
            code = run_cli(*argv, "--input", str(good), "--output", out_file, capsys=capsys)[0]
        assert code == 3
        assert gc.isenabled() == collecting
    finally:
        (gc.enable if was else gc.disable)()


def test_normalize_reports_every_violation_of_an_invalid_input(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    packing = tmp_path / "packing.json"
    inst.write_text('{"k": 2, "items": ["2/3", "2/3", "1/2"]}')
    packing.write_text(
        json.dumps(
            {
                "bins": [
                    [{"item": 0, "part": "2/3"}, {"item": 1, "part": "1/2"}],
                    [{"item": 1, "part": "1/3"}],
                ]
            }
        )
    )
    code, out, err = run_cli(
        "normalize", "--input", str(packing), "--instance", str(inst),
        "--output", str(tmp_path / "out.json"), "--check",
        capsys=capsys,
    )
    assert code == 5
    assert out == (
        "capacity: bin 0 holds 7/6 > 1\n"
        "coverage: item 1 covered 5/6 of 2/3\n"
        "coverage: item 2 covered 0 of 1/2\n"
    )
    assert err == ""
    assert not (tmp_path / "out.json").exists()


def test_experiment_nf_ratio_deterministic(tmp_path, capsys):
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    for target in (first, second):
        code, _, _ = run_cli(
            "experiment", "--suite", "nf-ratio", "--trials", "25",
            "--seed", "3", "--max-n", "5", "--k", "2",
            "--output", str(target),
            capsys=capsys,
        )
        assert code == 0
    assert first.read_bytes() == second.read_bytes()
    lines = first.read_text().splitlines()
    assert lines[0].startswith("trial,")
    assert lines[-1].startswith("summary,")
    # worst next-fit ratio stays within 2 - 1/k
    summary = lines[-1].split(",")
    num, _, den = summary[7].partition("/")
    ratio = int(num) / int(den or "1")
    assert ratio <= 1.5


@pytest.mark.parametrize(
    "argv, written",
    [
        (("solve", "--algo", "nf", "--input", "{inst}"), None),
        (
            ("experiment", "--suite", "nf-ratio", "--trials", "3"),
            "trial,n,k,dist,sizes,alg_bins,opt_bins,ratio,ratio_decimal,status\n",
        ),
    ],
)
def test_failed_block_inequality_is_an_internal_error(tmp_path, monkeypatch, argv, written):
    # solve and the nf-ratio experiment run one next-fit self-check: a trace
    # that fails the block weight inequality ends the command in
    # InternalError before solve writes anything or the experiment writes a
    # row past its header
    inst = tmp_path / "inst.json"
    out = tmp_path / "out"
    assert main(["gen", "random", "--n", "6", "--k", "2", "--seed", "1", "--output", str(inst)]) == 0
    monkeypatch.setattr(cli, "check_block_inequality", lambda inst, trace: False)
    with pytest.raises(cli.InternalError, match="^block weight inequality failed on a trace$"):
        main([arg.format(inst=inst) for arg in argv] + ["--output", str(out)])
    assert (out.read_text() if out.exists() else None) == written


def test_experiment_a75_ratio(tmp_path, capsys):
    out_file = tmp_path / "a75.csv"
    code, _, _ = run_cli(
        "experiment", "--suite", "a75-ratio", "--trials", "25",
        "--seed", "5", "--max-n", "6",
        "--output", str(out_file),
        capsys=capsys,
    )
    assert code == 0
    summary = out_file.read_text().splitlines()[-1].split(",")
    num, _, den = summary[7].partition("/")
    assert int(num) / int(den or "1") <= 1.4


def test_experiment_reduction_check(tmp_path, capsys):
    out_file = tmp_path / "red.csv"
    code, _, _ = run_cli(
        "experiment", "--suite", "reduction-check", "--trials", "10",
        "--seed", "2", "--k", "3",
        "--output", str(out_file),
        capsys=capsys,
    )
    assert code == 0
    assert out_file.read_text().splitlines()[-1].endswith("10/10")


def test_experiment_normalize_check(tmp_path, capsys):
    out_file = tmp_path / "norm.csv"
    code, _, _ = run_cli(
        "experiment", "--suite", "normalize-check", "--trials", "15",
        "--seed", "4", "--max-n", "6",
        "--output", str(out_file),
        capsys=capsys,
    )
    assert code == 0
    assert out_file.read_text().splitlines()[-1].endswith("15/15")


NF_RATIO_SKIPS = """\
trial,n,k,dist,sizes,alg_bins,opt_bins,ratio,ratio_decimal,status
0,3,2,mixed,2|1/12|1/3,3,3,1,1.000000,ok
1,5,2,mixed,1|2|1|1/3|7/6,6,6,1,1.000000,ok
2,8,2,mixed,11/12|1|1|4/11|1/2|4/11|1/2|1/3,6,6,1,1.000000,ok
3,8,2,mixed,2|5/4|2/11|2/3|1/5|9/8|1/2|3/7,8,,,,skipped
4,4,2,mixed,1/12|1/2|1/2|2/5,2,2,1,1.000000,ok
5,8,2,mixed,1/3|9/10|2/3|3/4|3/7|1/3|1/4|4/5,6,5,6/5,1.200000,ok
6,7,2,mixed,5/6|11/9|1/3|1|8/9|1/2|2/3,7,6,7/6,1.166667,ok
7,1,2,mixed,3/4,1,1,1,1.000000,ok
8,5,2,mixed,9/8|1/11|1|1|4/3,6,,,,skipped
9,2,2,mixed,1/3|1/6,1,1,1,1.000000,ok
10,1,2,mixed,1,1,1,1,1.000000,ok
11,1,2,mixed,2/5,1,1,1,1.000000,ok
summary,,2,mixed,,,,6/5,1.200000,ok=10;skipped=2
"""

# The partition bound decides every "no" reduction with no search; a "yes"
# whose heuristics miss two bins is skipped (trial 5).
REDUCTION_SKIPS = """\
trial,k,target,numbers,brute,packed,agree
0,3,20,6 6 6 6 9 7,0,0,1
1,3,20,7 7 7 6 7 6,1,1,1
2,3,20,7 7 6 8 6 6,1,1,1
3,3,20,6 6 6 9 6 7,0,0,1
4,3,20,6 8 6 6 8 6,1,1,1
5,3,20,7 6 6 6 7 8,1,,skipped
summary,3,20,,,,5/5
"""

# trial 3's oracle call runs out of nodes, so it keeps next fit's packing
NORMALIZE_FALLBACK = """\
trial,n,source,bins_in,bins_out,ok
0,3,nf,3,3,1
1,5,exact,6,6,1
2,8,nf,6,6,1
3,8,nf,8,8,1
4,4,nf,2,2,1
5,8,exact,5,5,1
6,7,nf,7,7,1
7,1,exact,1,1,1
summary,,,,,8/8
"""


@pytest.mark.parametrize(
    "argv, expected",
    [
        (("--suite", "nf-ratio", "--dist", "mixed", "--trials", "12", "--max-n", "8"),
         NF_RATIO_SKIPS),
        (("--suite", "reduction-check", "--k", "3", "--trials", "6"), REDUCTION_SKIPS),
        (
            ("--suite", "normalize-check", "--dist", "mixed", "--trials", "8",
             "--max-n", "8"),
            NORMALIZE_FALLBACK,
        ),
    ],
    ids=["nf-ratio", "reduction-check", "normalize-check"],
)
def test_experiment_rows_without_oracle_answer(capsys, argv, expected):
    # A zero node budget leaves only the oracle's cheap answers.
    code, out, err = run_cli(
        "experiment", *argv, "--seed", "1", "--budget-nodes", "0", capsys=capsys
    )
    assert (code, err) == (0, "")
    assert out == expected


def test_solve_nf_presort(tmp_path, capsys):
    from splitpack import Instance, Packing, next_fit

    inst_file = tmp_path / "inst.json"
    code, _, _ = run_cli(
        "gen", "random", "--n", "8", "--k", "2", "--dist", "mixed",
        "--seed", "3", "--output", str(inst_file), capsys=capsys,
    )
    assert code == 0
    inst = spio.load_instance(str(inst_file))
    out_file = tmp_path / "packing.json"
    for presort in ("increasing", "decreasing"):
        code, _, _ = run_cli(
            "solve", "--algo", "nf", "--input", str(inst_file),
            "--output", str(out_file), "--presort", presort,
            capsys=capsys,
        )
        assert code == 0
        code, _, _ = run_cli(
            "verify", "--instance", str(inst_file), "--packing", str(out_file),
            capsys=capsys,
        )
        assert code == 0, presort
        # next fit over the size-sorted instance, items named by input position
        order = sorted(
            range(inst.n), key=inst.sizes.__getitem__, reverse=presort == "decreasing"
        )
        run, _ = next_fit(Instance(k=2, sizes=tuple(inst.sizes[i] for i in order)))
        expected = Packing.build(
            [[(order[i], part) for i, part in entries] for entries in run.bins]
        )
        assert spio.load_packing(str(out_file)).bins == expected.bins


def test_solve_a75_report(tmp_path, capsys):
    inst_file = tmp_path / "inst.json"
    inst_file.write_text(json.dumps(
        {"k": 2, "items": ["1/50"] * 5 + ["99/100"] * 2 + ["11/20", "401/100"]}
    ))
    out_file = tmp_path / "packing.json"
    report_file = tmp_path / "report.json"
    code, out, _ = run_cli(
        "solve", "--algo", "a75", "--input", str(inst_file),
        "--output", str(out_file), "--report", str(report_file),
        capsys=capsys,
    )
    assert code == 0
    assert "bins=7 " in out
    assert json.loads(report_file.read_text()) == {
        "bins": 7,
        "label_counts": {"Repacked": 7},
        "reclassified_small": False,
        "fallback_triggered": "SevenBinSearch",
    }
    code, _, _ = run_cli(
        "verify", "--instance", str(inst_file), "--packing", str(out_file),
        capsys=capsys,
    )
    assert code == 0


def test_solve_budget_env_under_flags(tmp_path, capsys, monkeypatch):
    inst = _searched_instance(tmp_path)
    argv = ("solve", "--algo", "exact", "--input", str(inst))
    monkeypatch.setenv("SPLITPACK_BUDGET", "structures=1")
    code, _, err = run_cli(*argv, capsys=capsys)
    assert code == 4 and err.startswith("oracle budget exhausted")
    # a flag overrides its field and keeps the environment's others
    code, out, _ = run_cli(*argv, "--budget-nodes", "100000", capsys=capsys)
    assert code == 0 and "bins=4" in out
    monkeypatch.setenv("SPLITPACK_BUDGET", "items=4,structures=1")
    code, _, err = run_cli(*argv, "--budget-nodes", "100000", capsys=capsys)
    assert code == 4 and "8 items exceed the budget of 4" in err


def test_solve_exact_max_bins_flag(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    inst.write_text(
        '{"k": 2, "items": ["51/100", "51/100", "51/100", "51/100", "51/100"]}'
    )
    # the bound sits at 3, heuristics certify 4: two allowed bins cannot
    # settle the range in between, so the oracle refuses
    code, _, _ = run_cli(
        "solve", "--algo", "exact", "--input", str(inst),
        "--max-bins", "2",
        capsys=capsys,
    )
    assert code == 4
    code, out, _ = run_cli(
        "solve", "--algo", "exact", "--input", str(inst),
        "--max-bins", "3",
        capsys=capsys,
    )
    assert code == 0 and "bins=4" in out


def test_solve_trace_requires_nf(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    inst.write_text('{"k": 2, "items": ["1/2"]}')
    code, _, err = run_cli(
        "solve", "--algo", "exact", "--input", str(inst),
        "--trace", str(tmp_path / "t.json"),
        capsys=capsys,
    )
    assert code == 2


@pytest.mark.parametrize(
    "algo, flags, message",
    [
        ("a75", ("--presort", "increasing"), "--presort only applies to --algo nf"),
        ("exact", ("--presort", "decreasing"), "--presort only applies to --algo nf"),
        ("a75", ("--trace", "t.json"), "--trace only applies to --algo nf"),
        ("nf", ("--report", "r.json"), "--report only applies to --algo a75"),
        ("exact", ("--report", "r.json"), "--report only applies to --algo a75"),
        ("nf", ("--max-bins", "3"), "--max-bins only applies to --algo exact"),
        ("a75", ("--max-bins", "3"), "--max-bins only applies to --algo exact"),
        ("nf", ("--budget-nodes", "5"), "--budget-nodes only applies to --algo exact"),
        ("a75", ("--budget-nodes", "0"), "--budget-nodes only applies to --algo exact"),
        (
            "nf",
            ("--budget-nodes", "-5", "--max-bins", "-1"),
            "--budget-nodes only applies to --algo exact",
        ),
    ],
)
def test_solve_flag_of_another_algo_is_usage_error(
    tmp_path, capsys, monkeypatch, algo, flags, message
):
    monkeypatch.chdir(tmp_path)
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps({"k": 2, "items": ["1/2", "3/4", "5/4"]}))
    code, out, err = run_cli(
        "solve", "--algo", algo, "--input", "inst.json", "--output", "p.json",
        *flags, capsys=capsys,
    )
    assert code == 2 and out == ""
    assert err == message + "\n"
    assert list(tmp_path.iterdir()) == [inst]


def test_gen_a75_worst_certified(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    cert = tmp_path / "cert.json"
    code, _, _ = run_cli(
        "gen", "a75-worst", "--n", "10",
        "--output", str(inst), "--certified-output", str(cert),
        capsys=capsys,
    )
    assert code == 0
    code, _, _ = run_cli(
        "verify", "--instance", str(inst), "--packing", str(cert),
        capsys=capsys,
    )
    assert code == 0


def test_gen_random_has_no_certificate(tmp_path, capsys):
    # rejected before the instance reaches its file or stdout
    instance = tmp_path / "a.json"
    for argv in (
        ("random", "--n", "3", "--k", "2"),
        ("random", "--n", "3", "--k", "2", "--output", str(instance)),
        ("reduce3p", "--b", "20", "--numbers", "7,7,6", "--k", "3"),
        ("reduce3p", "--b", "20", "--numbers", "7,7,6", "--k", "3",
         "--output", str(instance)),
    ):
        code, out, err = run_cli(
            "gen", *argv, "--certified-output", str(tmp_path / "c.json"),
            capsys=capsys,
        )
        assert code == 2 and out == ""
        assert err == f"{argv[0]} has no certified packing\n"
        assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv, items",
    [
        (("nf-worst", "--k", "2", "--m", str(MAX_PARTS // 2)), MAX_PARTS + 1),
        (("nf-worst", "--k", "1001", "--m", "1"), 1 + 1001 * 1000),
        (("a75-worst", "--n", str(MAX_PARTS // 9 + 1)), 9 * (MAX_PARTS // 9 + 1)),
        (("random", "--n", str(MAX_PARTS + 1), "--k", "2"), MAX_PARTS + 1),
        (
            ("reduce3p", "--b", "20", "--numbers", "7,7,6", "--k", str(MAX_PARTS + 1)),
            MAX_PARTS + 1,
        ),
    ],
    ids=["nf-worst-m", "nf-worst-k", "a75-worst", "random", "reduce3p"],
)
def test_gen_rejects_more_items_than_max_parts_fast(tmp_path, capsys, argv, items):
    output = tmp_path / "inst.json"
    start = time.perf_counter()
    code, out, err = run_cli("gen", *argv, "--output", str(output), capsys=capsys)
    assert code == 2 and out == ""
    assert err == f"gen {argv[0]} would make {items} items, more than {MAX_PARTS}\n"
    assert not output.exists()
    assert time.perf_counter() - start < 0.25


def test_gen_reports_a_bad_k_before_the_item_count(capsys):
    code, _, err = run_cli(
        "gen", "nf-worst", "--k", "-1", "--m", str(MAX_PARTS), capsys=capsys
    )
    assert code == 2 and err == "k must be at least 2, got -1\n"


_NINES = "9" * 4000
_TRIPLE = 3 * 10**3999


@pytest.mark.parametrize(
    "argv",
    [
        ("gen", "random", "--n", _NINES, "--k", "2"),
        ("gen", "random", "--n", "-" + _NINES, "--k", "2"),
        ("gen", "random", "--n", "3", "--k", "-" + _NINES),
        ("gen", "nf-worst", "--k", "2", "--m", _NINES),
        ("gen", "nf-worst", "--k", "2", "--m", "-" + _NINES),
        ("gen", "a75-worst", "--n", _NINES),
        ("gen", "a75-worst", "--n", "-" + _NINES),
        ("gen", "reduce3p", "--k", _NINES, "--b", "4", "--numbers", "1,1,2"),
        ("gen", "reduce3p", "--k", "-" + _NINES, "--b", "4", "--numbers", "1,1,2"),
        ("gen", "reduce3p", "--k", "3", "--b", _NINES, "--numbers", "1,1,2"),
        ("gen", "reduce3p", "--k", "3", "--b", "4", "--numbers", _NINES + ",1,2"),
        (
            "gen", "reduce3p", "--k", "3", "--b", str(_TRIPLE),
            "--numbers", f"1,{_TRIPLE - 2},1",
        ),
        ("experiment", "--suite", "nf-ratio", "--max-n", _NINES),
        ("experiment", "--suite", "nf-ratio", "--max-n", "-" + _NINES),
        ("experiment", "--suite", "nf-ratio", "--k", "-" + _NINES),
        ("experiment", "--suite", "reduction-check", "--k", _NINES),
        (
            "experiment", "--suite", "nf-ratio", "--dist", "heavy",
            "--max-n", _NINES[:3000], "--k", _NINES[:3000],
        ),
    ],
)
def test_huge_flag_integers_are_quoted_briefly(tmp_path, capsys, argv):
    # a 4000-digit flag, or a part count past the interpreter's digit limit,
    # is a usage error whose message stays under 1 KB
    output = tmp_path / "out"
    code, out, err = run_cli(*argv, "--output", str(output), capsys=capsys)
    assert code == 2 and out == ""
    assert 0 < len(err.encode()) < 1024
    assert not output.exists()


@pytest.mark.parametrize(
    "command, instance, packing, expected",
    [
        ("solve", {"k": int(_NINES), "items": ["1/2"]}, None, 2),
        ("normalize", {"k": int(_NINES), "items": ["1/2"]}, [[(0, "1/2")]], 2),
        ("verify", {"k": 2, "items": ["1/2"]}, [[(int(_NINES), "1/2")]], 5),
    ],
    ids=["solve-a75", "normalize", "verify"],
)
def test_huge_input_values_are_quoted_briefly(
    tmp_path, capsys, command, instance, packing, expected
):
    # a 4000-digit k, or a 4000-digit item id, is quoted in at most 60
    # characters by the k checks and the validator
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps(instance))
    if packing is None:
        argv = ("solve", "--algo", "a75", "--input", str(inst))
    else:
        bins = [[{"item": i, "part": p} for i, p in entries] for entries in packing]
        doc = tmp_path / "packing.json"
        doc.write_text(json.dumps({"bins": bins}))
        flag = "--packing" if command == "verify" else "--input"
        argv = (command, "--instance", str(inst), flag, str(doc))
    code, out, err = run_cli(*argv, capsys=capsys)
    assert code == expected
    assert out + err
    assert all(len(line) < 200 for line in (out + err).splitlines())


def test_gen_output_that_cannot_be_opened_is_usage_error(tmp_path, capsys):
    ok = tmp_path / "ok.json"
    kept = tmp_path / "kept.json"
    kept.write_text("old\n")
    for argv, what, path in (
        (("random", "--n", "3", "--k", "2", "--output", str(tmp_path / "missing" / "x.json")),
         "instance", tmp_path / "missing" / "x.json"),
        # both files are opened before either is written
        (("nf-worst", "--k", "2", "--m", "2", "--output", str(ok),
          "--certified-output", str(tmp_path / "missing" / "c.json")),
         "certified packing", tmp_path / "missing" / "c.json"),
        (("nf-worst", "--k", "2", "--m", "2", "--output", str(kept),
          "--certified-output", str(tmp_path)),
         "certified packing", tmp_path),
        # two outputs naming one file: refused before either is opened
        (("a75-worst", "--n", "5", "--output", str(kept),
          "--certified-output", f"{tmp_path}/./kept.json"),
         "certified packing", f"{tmp_path}/./kept.json"),
    ):
        code, out, err = run_cli("gen", *argv, capsys=capsys)
        assert code == 2 and out == ""
        assert err.startswith(f"cannot write {what}: ") and str(path) in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["kept.json"]
        assert kept.read_text() == "old\n"


def test_solve_output_that_cannot_be_opened_is_usage_error(nf_worst_files, tmp_path, capsys):
    inst, _ = nf_worst_files
    missing = tmp_path / "missing"
    before = sorted(tmp_path.iterdir())
    for argv, what in (
        (("--algo", "nf", "--output", str(missing / "p.json")), "packing"),
        (("--algo", "nf", "--output", str(tmp_path / "p.json"),
          "--trace", str(missing / "t.json")), "trace"),
        (("--algo", "a75", "--report", str(missing / "r.json")), "report"),
        (("--algo", "nf", "--output", str(tmp_path / "p.json"),
          "--trace", str(tmp_path / "p.json")), "trace"),
    ):
        code, out, err = run_cli("solve", "--input", str(inst), *argv, capsys=capsys)
        assert code == 2 and out == ""
        assert err.startswith(f"cannot write {what}: ")
        assert sorted(tmp_path.iterdir()) == before


def test_normalize_and_experiment_output_that_cannot_be_opened(
    nf_worst_files, tmp_path, capsys
):
    inst, cert = nf_worst_files
    missing = tmp_path / "missing"
    for argv, what in (
        (("normalize", "--input", str(cert), "--instance", str(inst),
          "--output", str(missing / "n.json")), "packing"),
        (("experiment", "--suite", "nf-ratio", "--trials", "1",
          "--output", str(missing / "r.csv")), "CSV"),
    ):
        code, _, err = run_cli(*argv, capsys=capsys)
        assert code == 2 and err.startswith(f"cannot write {what}: ")
        assert not missing.exists()


_SMALL_OR_HUGE = st.one_of(st.integers(-2, 6), st.integers(MAX_PARTS, 10**12))


@settings(max_examples=80, deadline=None)
@given(
    family=st.sampled_from(["nf-worst", "a75-worst", "reduce3p"]),
    k=_SMALL_OR_HUGE,
    m=_SMALL_OR_HUGE,
    n=st.one_of(st.integers(-2, 12), st.integers(MAX_PARTS // 9 + 1, 10**12)),
    b=st.one_of(st.just(20), st.integers(-2, 30)),
    numbers=st.one_of(
        st.sampled_from([[7, 7, 6], [7, 7, 6, 7, 7, 6]]),
        st.lists(st.integers(-3, 15), max_size=7),
    ),
    certified=st.booleans(),
)
def test_gen_families_fuzz_exit_with_documented_codes(
    family, k, m, n, b, numbers, certified
):
    # Every draw is tiny or over the item bound, so each run is quick.
    with tempfile.TemporaryDirectory() as tmp:
        argv = ["gen", family]
        if family == "nf-worst":
            argv += ["--k", str(k), "--m", str(m)]
        elif family == "a75-worst":
            argv += ["--n", str(n)]
        else:
            argv += ["--b", str(b), f"--numbers={','.join(map(str, numbers))}"]
            argv += ["--k", str(k)]
        argv += ["--output", os.path.join(tmp, "inst.json")]
        if certified:
            argv += ["--certified-output", os.path.join(tmp, "cert.json")]
        code = _run_quietly(argv)
        written = sorted(os.listdir(tmp))
    assert code in (cli.EXIT_OK, cli.EXIT_USAGE)
    if code == cli.EXIT_USAGE:
        assert written == []
    else:
        assert written == (["cert.json", "inst.json"] if certified else ["inst.json"])


def test_normalize_rejects_other_k(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    packing = tmp_path / "packing.json"
    inst.write_text('{"k": 3, "items": ["1/2"]}')
    packing.write_text('{"bins": [[{"item": 0, "part": "1/2"}]]}')
    code, _, err = run_cli(
        "normalize", "--input", str(packing), "--instance", str(inst),
        capsys=capsys,
    )
    assert code == 2


def test_usage_error_exit_code(capsys):
    assert main(["solve", "--algo", "bogus", "--input", "x"]) == 2


def test_module_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "splitpack.cli", "--help"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert "solve" in result.stdout


def test_solve_rejects_invalid_output_under_optimize(nf_worst_files, tmp_path):
    # The output check must be a real check, not an assert that -O strips.
    inst, _ = nf_worst_files
    script = (
        "import sys\n"
        "from fractions import Fraction\n"
        "from splitpack import Packing, cli\n"
        "assert False, 'asserts are live'\n"
        "real = cli.next_fit\n"
        "def broken(inst):\n"
        "    _, trace = real(inst)\n"
        "    return Packing.build([[(0, Fraction(1, 2))]]), trace\n"
        "cli.next_fit = broken\n"
        "sys.exit(cli.main(sys.argv[1:]))\n"
    )
    result = subprocess.run(
        [sys.executable, "-O", "-c", script, "solve", "--algo", "nf",
         "--input", str(inst), "--output", str(tmp_path / "out.json")],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 5, result.stderr
    assert "solver output is not valid: coverage" in result.stderr
    assert not (tmp_path / "out.json").exists()


def test_cli_has_no_assert_statements():
    # python -O strips assert statements, so the CLI and every module it
    # drives gate with explicit checks that raise instead.
    package = pathlib.Path(cli.__file__).parent
    modules = sorted(package.glob("*.py"))
    assert len(modules) >= 9
    asserts = []
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        asserts += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert asserts == []
