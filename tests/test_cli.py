import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from resatlas import cli, complexes, exact, formats, kacmoody, rings
from resatlas.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def record_rings(monkeypatch):
    """The names of every ring `exact.ring` makes from now on, in order."""
    made = []
    ring = exact.ring

    def recording(names):
        made.append(tuple(names))
        return ring(made[-1])

    monkeypatch.setattr(exact, "ring", recording)
    return made


def test_analyze_d4(capsys):
    code, out = run(capsys, "analyze", "1", "4", "4", "1")
    assert code == 0
    assert "D4" in out and "noetherian generic ring: True" in out
    assert "[6, 0, 0, 0]" in out


def test_analyze_invalid_exits_2(capsys):
    assert main(["analyze", "1", "1", "1", "1"]) == 2
    assert capsys.readouterr().err == "invalid format (1, 1, 1, 1): r_2 = 0 < 1\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("analyze", "1", "2", "2", "1"),
        ("rspec", "1", "2", "2", "1"),
        ("kstar-check", "1", "2", "2", "1", "--count", "1"),
    ],
    ids=["analyze", "rspec", "kstar-check"],
)
def test_a_format_without_a_graph_exits_2(capsys, argv):
    # r_2 = 1 gives q = 0: no T_{p,q,r} exists, and every command says so.
    assert main(list(argv)) == 2
    assert capsys.readouterr() == ("", "require p >= 2, q >= 1, r >= 2, got (2, 0, 2)\n")


def test_analyze_indefinite(capsys):
    code, out = run(capsys, "analyze", "2", "6", "7", "3", "--max-height", "8")
    assert code == 0
    assert "T_{3,3,4}" in out and "indefinite" in out
    assert "noetherian generic ring: False" in out


def test_json_output_and_determinism(capsys):
    code1, out1 = run(capsys, "roots", "--pqr", "3", "3", "2", "--json")
    code2, out2 = run(capsys, "roots", "--pqr", "3", "3", "2", "--json")
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["count"] == 36 and payload["dim"] == 78


@pytest.mark.parametrize(
    "argv, signatures",
    [
        (("analyze", "1", "9", "10", "2"), 1),
        (("roots", "--pqr", "2", "3", "7", "--max-height", "8"), 1),
        (("defect", "--pqr", "2", "3", "7", "--max-height", "8"), 0),
    ],
    ids=["analyze", "roots", "defect"],
)
def test_a_command_classifies_its_graph_at_most_once(capsys, monkeypatch, argv, signatures):
    # Only a printed class pays for the signature; every finite-type
    # decision reads the case list.
    calls = []
    signature = formats.symmetric_signature

    def counting(rows):
        calls.append(len(rows))
        return signature(rows)

    monkeypatch.setattr(formats, "symmetric_signature", counting)
    assert run(capsys, *argv)[0] == 0
    assert calls == [10] * signatures


def test_defect_command(capsys):
    code, out = run(capsys, "defect", "--pqr", "2", "2", "3", "--json")
    payload = json.loads(out)
    assert code == 0 and payload["dims"] == [12, 1, 0, 0]


def test_kostant_command(capsys):
    code, out = run(capsys, "kostant", "--pqr", "3", "3", "4", "--length", "2")
    assert code == 0
    assert "'z1': -3" in out


def test_bgg_check_pass_and_fail_codes(capsys):
    code, out = run(capsys, "bgg-check", "--pqr", "2", "2", "2", "--lam", "w:z1")
    assert code == 0 and "PASS" in out
    code2 = main(["bgg-check", "--pqr", "2", "2", "2", "--lam", "w:bogus"])
    assert code2 == 2
    assert capsys.readouterr().err == "unknown vertex 'bogus'; choices: ['u', 'x1', 'y1', 'z1']\n"


def test_ra_decompose(capsys):
    code, out = run(capsys, "ra-decompose", "1", "4", "4", "1", "--cutoff", "4", "--json")
    payload = json.loads(out)
    assert code == 0 and payload["count"] == 67
    # All four weights, by hand from `rings.ra_component` on r = (1, 3, 1),
    # r0 = 0: mu c = 1 has A = 1, B = -1, so w3 = (1), w2 = (-1^4),
    # w1 = (1^4), w0 = (-1).
    code, out = run(capsys, "ra-decompose", "1", "4", "4", "1", "--cutoff", "1")
    assert code == 0 and out == (
        "R_a components of format (1, 4, 4, 1) up to degree 1: 4\n"
        "  mu=(a=0,b=0,c=0,alpha=(),beta=(),gamma=())  F3..F0: (0,) (0, 0, 0, 0) (0, 0, 0, 0) (0,)\n"
        "  mu=(a=0,b=0,c=0,alpha=(),beta=(1,),gamma=())  F3..F0: (0,) (1, 0, 0, 0) (0, 0, 0, -1) (0,)\n"
        "  mu=(a=0,b=0,c=1,alpha=(),beta=(),gamma=())  F3..F0: (1,) (-1, -1, -1, -1) (1, 1, 1, 1) (-1,)\n"
        "  mu=(a=1,b=0,c=0,alpha=(),beta=(),gamma=())  F3..F0: (1,) (0, 0, 0, -1) (0, 0, 0, 0) (0,)\n"
    )


def test_rspec(capsys):
    code, out = run(capsys, "rspec", "1", "4", "4", "1", "--cutoff", "1", "--json")
    payload = json.loads(out)
    assert code == 0 and payload["count"] == 5


def test_generators(capsys):
    code, out = run(capsys, "generators", "1", "4", "4", "1")
    assert code == 0 and "absent" in out


def test_kstar_check(capsys):
    code, out = run(capsys, "kstar-check", "1", "4", "4", "1", "--count", "3", "--seed", "4")
    assert code == 0 and "PASS" in out


def test_verify_commands(capsys):
    assert run(capsys, "verify-thm112", "--r3", "1")[0] == 0
    assert run(capsys, "verify-monomial", "--t", "2")[0] == 0
    code, out = run(capsys, "verify-d4")
    assert code == 0 and "eps_split" in out


D4_RELATION = complexes.d4_relation_sides
RANK_CHECK = complexes.be_rank_check


def d4_relation_with_rhs_negated():
    rep = D4_RELATION()
    return rep._replace(rhs=-rep.rhs)


@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
@pytest.mark.parametrize(
    "argv, module, name, fake, line, key",
    [
        (
            ("bgg-check", "--pqr", "2", "2", "2", "--lam", "w:z1"),
            kacmoody, "bgg_euler_check",
            lambda graph, lam, cutoff: kacmoody.Difference(drop=(1, 0, 1, 2), lhs=1, rhs=0),
            "Euler characteristic check (S-height <= 4): FAIL at level 2", "euler_ok",
        ),
        (
            ("kstar-check", "1", "4", "4", "1", "--count", "1"),
            rings, "dictionary_crosscheck",
            lambda sigma, tau, t, fmt: "middle maps to {'u': 1}, BGG term {'u': 0}",
            "dictionary crosscheck on (1, 4, 4, 1), 1 random (sigma,tau,t), seed 0: FAIL", "ok",
        ),
        (
            ("verify-thm112", "--r3", "1"),
            complexes, "thm112_certificate",
            lambda res: "fact (c) Delta.d_3 fails: entry (1, 0) is x", "FAIL", "ok",
        ),
        (
            ("verify-monomial", "--t", "2"),
            complexes, "verify_complex", lambda complex_: ((1, 0, 0, "x"),), "FAIL", "ok",
        ),
        (
            ("verify-monomial", "--t", "2"),
            complexes, "be_rank_check",
            lambda complex_, seed: RANK_CHECK(complex_, seed)._replace(ranks=(1, 2, 1)),
            "  seeded ranks (1, 2, 1) (expected (1, 3, 1)): False", "ranks_ok",
        ),
        (
            ("verify-d4",),
            complexes, "d4_relation_sides", d4_relation_with_rhs_negated, "FAIL", "ok",
        ),
    ],
    ids=["bgg-check", "kstar-check", "verify-thm112", "verify-monomial", "verify-monomial-ranks", "verify-d4"],
)
def test_a_false_verdict_exits_1(capsys, monkeypatch, argv, module, name, fake, line, key, as_json):
    monkeypatch.setattr(module, name, fake)
    code, out = run(capsys, *argv, *(["--json"] if as_json else []))
    assert code == 1
    if as_json:
        assert json.loads(out)[key] is False
    else:
        assert line in out.splitlines()
        assert "PASS" not in out


def test_q1_command(capsys):
    code, out = run(capsys, "q1", "--format", "1", "4", "4", "1", "--I", "1,2", "--J", "3", "--K", "4")
    assert code == 0 and "D2_3_1*D2_4_2" in out


def test_q1_command_bad_indices(capsys):
    code = main(["q1", "--format", "1", "4", "4", "1", "--I", "1", "--J", "3", "--K", "4"])
    assert code == 2
    assert capsys.readouterr().err == "index sets have wrong sizes\n"


@pytest.mark.parametrize(
    "fmt, message",
    [
        (("1", "4", "3", "1", "--I", "1,2,3"), "invalid format (1, 4, 3, 1): r_0 = -1 < 0\n"),
        (("1", "1", "1", "1", "--I", "1,1"), "invalid format (1, 1, 1, 1): r_2 = 0 < 1\n"),
    ],
    ids=["r0-negative", "r2-zero"],
)
def test_q1_refuses_an_invalid_format(capsys, monkeypatch, fmt, message):
    made = record_rings(monkeypatch)
    assert main(["q1", "--format", *fmt, "--J", "1", "--K", "2"]) == 2
    assert capsys.readouterr() == ("", message)
    assert made == []  # refused before any variable was made
    assert main(["q1", "--format", "1", "4", "4", "1", "--I", "1,2", "--J", "3", "--K", "4"]) == 0
    assert len(made) == 1


@pytest.mark.parametrize(
    "argv, message",
    [
        (["bgg-check", "--pqr", "2", "2", "2", "--lam", "u"], "--lam entry 'u' is not <vertex>=<int>\n"),
        (["q1", "--format", "1", "4", "4", "1", "--I", "1,x", "--J", "3", "--K", "4"],
         "--I entry 'x' is not an int\n"),
        (["bgg-check", "--pqr", "2", "2", "2", "--lam", "u=1,,z1=1"],
         "--lam has a blank entry in 'u=1,,z1=1'\n"),
        (["q1", "--format", "1", "4", "4", "1", "--I", "1,,2", "--J", "3", "--K", "4"],
         "--I has a blank entry in '1,,2'\n"),
        (["q1", "--format", "1", "4", "4", "1", "--I", "1,2", "--J", "3", "--K", "4, "],
         "--K has a blank entry in '4, '\n"),
        (["bgg-check", "--pqr", "2", "2", "2", "--lam", "u=1,u=0", "--cutoff", "2"],
         "--lam gives vertex 'u' twice in 'u=1,u=0'\n"),
    ],
    ids=["lam", "q1", "lam-blank", "q1-blank", "q1-whitespace", "lam-repeated"],
)
def test_a_malformed_entry_is_named_and_exits_2(capsys, argv, message):
    assert main(argv) == 2
    assert capsys.readouterr() == ("", message)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["verify-monomial", "--t", "129"],
         "monomial complex t = 129: d_1 . d_2 has total degree 257, but exact packs only "
         "degrees below 256; t <= 128 required\n"),
        (["verify-thm112", "--r3", "9"],
         "thm112(r3=9): Delta's entries are 9x9 minors, but exact expands symbolic "
         "determinants only up to 8x8; r3 <= 8 required\n"),
    ],
)
def test_a_family_past_the_degree_ceiling_exits_2(capsys, monkeypatch, argv, message):
    made = record_rings(monkeypatch)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", message)
    assert made == []  # refused before any variable was made


def test_suite_json(capsys):
    code, out = run(capsys, "suite", "paper-checks", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert len(payload["results"]) == 14
    assert all(r["ok"] for r in payload["results"])


def test_suite_unknown_name(capsys):
    assert main(["suite", "nonsense"]) == 2


def test_budget_cap(capsys, monkeypatch):
    monkeypatch.setenv("RESATLAS_BUDGET_MS", "0")
    code, out = run(capsys, "suite", "paper-checks")
    assert code == 1
    assert "budget exceeded" in out


@pytest.mark.parametrize(
    "argv",
    [
        ("bgg-check", "--pqr", "2", "2", "2", "--cutoff", "-1"),
        ("kstar-check", "1", "4", "4", "1", "--count", "-1"),
        ("kostant", "--pqr", "3", "3", "4", "--length", "-1"),
        ("roots", "--pqr", "2", "3", "7", "--max-height", "-1"),
        ("analyze", "1", "4", "4", "1", "--cutoff", "x"),
    ],
)
def test_negative_or_non_integer_counts_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert "argument --" in capsys.readouterr().err


@pytest.mark.parametrize("raw", ["abc", "-5"])
def test_a_malformed_budget_names_the_variable_and_exits_2(capsys, monkeypatch, raw):
    monkeypatch.setenv("RESATLAS_BUDGET_MS", raw)
    assert main(["suite", "paper-checks"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"RESATLAS_BUDGET_MS must be a non-negative integer, got {raw!r}\n"


def test_a_count_of_zero_is_refused(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["kstar-check", "1", "4", "4", "1", "--count", "0"])
    assert exc.value.code == 2
    assert "argument --count: must be >= 1, got 0" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ("suite", "--seed", "1"),
        ("verify-d4", "--cutoff", "2"),
        ("generators", "1", "4", "4", "1", "--max-height", "5"),
        ("kostant", "--pqr", "3", "3", "4", "--seed", "1"),
        ("roots", "--pqr", "2", "2", "2", "--cutoff", "3"),
    ],
)
def test_unread_options_are_not_accepted(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_verify_d4_json_golden(capsys):
    code, out = run(capsys, "verify-d4", "--json")
    assert code == 0
    assert out == (
        '{"lhs": "b12*b34 - b13*b24 + b14*b23", '
        '"normalization": {"eps_c": 1, "eps_p": 1, "eps_split": -1, "eps_v": 1}, '
        '"ok": true, "pfaffian": "b12*b34 - b13*b24 + b14*b23", '
        '"rhs": "b12*b34 - b13*b24 + b14*b23"}\n'
    )


def test_roots_and_defect_json_goldens_at_height_16(capsys):
    code, out = run(capsys, "roots", "--pqr", "2", "3", "7", "--max-height", "16", "--json")
    assert code == 0
    assert out == (
        '{"by_height": {"1": 10, "10": 10, "11": 11, "12": 11, "13": 12, "14": 12, '
        '"15": 13, "16": 13, "2": 9, "3": 9, "4": 9, "5": 9, "6": 9, "7": 10, '
        '"8": 10, "9": 10}, "class": "indefinite", "count": 167, "dim": null, '
        '"max_mult": 1, "pqr": [2, 3, 7], "total_mult": 167}\n'
    )
    code, out = run(capsys, "defect", "--pqr", "2", "3", "7", "--max-height", "16", "--json")
    assert code == 0
    assert out == (
        '{"dims": [60, 68, 14, 0], "exhaustive": false, "pqr": [2, 3, 7], "total": null}\n'
    )


# Fresh-process stdout recorded before a kernel changed: the symbolic commands
# before monomials were packed into ints (printed term order must not change
# with the kernel), the E6 `bgg-check` and `kostant` before the Weyl BFS
# dropped its per-element inverse images, the README's text-mode
# `kostant` and `bgg-check` before S became fixed to the graph's, and
# `roots`, `defect` and `analyze` on affine and indefinite graphs before
# Peterson's pair sum became a convolution, and `verify-thm112 --r3 3` and
# `verify-monomial --t 8` (the first goldens of large printed polynomials)
# before monomial fields narrowed to 8 bits and points were evaluated
# fraction-free, `verify-thm112 --r3 4` before the exact kernel's sums
# of products were split into residue classes, and the text-mode
# `verify-thm112 --r3 3` and `verify-thm112 --r3 5 --json` while the
# generic family's d.d = 0 was still checked by expanding its
# compositions, `kostant` on T_{2,3,7} (z_1 has two neighbours) and on
# E7 before `enumerate_WS` read W^S off the end of each length, and `roots`
# on E8 below ht(theta) = 29 and `defect` on E6 (the finite branch of the
# root supply, which ignores the height cap) before every engine took its
# roots from one supply.  `generators 2 6 5 1 --json` was recorded after
# family 5 moved to c = 0.
GOLDENS = json.loads(Path(__file__).with_name("cli_goldens.json").read_text())


@pytest.mark.parametrize("command", sorted(GOLDENS))
def test_fresh_process_stdout_matches_golden(command):
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "resatlas.cli", *command.split()],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0, proc.stderr
    assert_same_text(proc.stdout, GOLDENS[command])


def test_fresh_process_suite_json_matches_golden_without_seconds():
    # `suite_golden.json` holds `suite paper-checks --json` with each
    # result's `seconds`, which varies run to run, removed: every check's
    # name, verdict and detail line, in order.
    src = Path(__file__).resolve().parents[1] / "src"
    env = {k: v for k, v in os.environ.items() if k != "RESATLAS_BUDGET_MS"}
    proc = subprocess.run(
        [sys.executable, "-m", "resatlas.cli", "suite", "paper-checks", "--json"],
        capture_output=True,
        text=True,
        env={**env, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    for result in payload["results"]:
        del result["seconds"]
    assert payload == json.loads(Path(__file__).with_name("suite_golden.json").read_text())


def test_verify_thm112_r3_5_peaks_under_64_mb():
    # The certificate's products stay small: 23 MB on a 2-core x86-64
    # machine under CPython 3.11, where expanding d_1 . d_2 took 37 MB.  The
    # child reads its own VmHWM: on Linux its ru_maxrss also counts the
    # peak of the process that started it, here pytest's.
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import contextlib, io\n"
        "from resatlas.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = main(['verify-thm112', '--r3', '5'])\n"
        "with open('/proc/self/status') as status:\n"
        "    print(code, next(line.split()[1] for line in status if line.startswith('VmHWM:')))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    code, peak_kb = proc.stdout.split()
    assert (proc.returncode, code) == (0, "0"), proc.stderr
    assert int(peak_kb) < 64 * 1024


def assert_same_text(got, want):
    """Exact comparison that fails at once, naming the first differing
    offset and about 80 characters around it on each side: pytest's own
    explanation of two unequal single-line JSON goldens (up to 134,752
    bytes) is a character diff that can run for minutes."""
    if got == want:
        return
    at = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
    lo, hi = max(0, at - 40), at + 40
    pytest.fail(
        f"stdout differs from the golden at offset {at} (lengths {len(got)} and {len(want)}): "
        f"got {got[lo:hi]!r}, want {want[lo:hi]!r}",
        pytrace=False,
    )


def test_importing_the_cli_loads_no_dataclasses_inspect_or_ast():
    # Each CLI answer is one process, which pays for the package's import.
    # Records are NamedTuples: `dataclasses` would generate and exec each
    # record class's methods and bring in `inspect` and `ast`.  Under -S no
    # site hook can load them first.
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import resatlas.cli; "
        "print(sorted({'dataclasses', 'inspect', 'ast'} & set(sys.modules)))"
    )
    proc = subprocess.run([sys.executable, "-S", "-c", code, str(src)], capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


@pytest.mark.parametrize(
    "got, offset",
    [("abcXef", 3), ("abc", 3), ("abcdefg", 6)],
    ids=["changed", "shorter", "longer"],
)
def test_a_golden_mismatch_names_the_first_differing_offset(got, offset):
    assert_same_text("abcdef", "abcdef")
    with pytest.raises(pytest.fail.Exception, match=rf"at offset {offset} \(lengths {len(got)} and 6\)"):
        assert_same_text(got, "abcdef")


# The goldens rerun in one process, forwards and then reversed: no output
# may depend on what ran before it.  The symbolic commands (`verify-*`,
# `q1`) print terms in the order of their builder's own ring, whichever
# rings earlier commands made.  The E6 `bgg-check` (0.45 s) is left to the
# fresh-process test.
IN_PROCESS = [
    "verify-thm112 --r3 2 --json",
    "verify-monomial --t 4 --json",
    "q1 --format 2 5 5 2 --I 1,2,3 --J 1,2 --K 3,4 --json",
    "verify-thm112 --r3 3 --json",
    "verify-monomial --t 8 --json",
    "verify-thm112 --r3 4 --json",
    "verify-thm112 --r3 5 --json",
    "verify-thm112 --r3 3",
    "roots --pqr 2 3 7 --max-height 16",
    "roots --pqr 3 3 3 --max-height 12 --json",
    "defect --pqr 2 4 5 --max-height 8 --cutoff 5 --json",
    "analyze 1 9 10 2 --max-height 8 --cutoff 4",
    "kostant --pqr 3 3 2 --length 4 --json",
    "kostant --pqr 3 3 4 --length 2",
    "bgg-check --pqr 2 2 2 --lam w:z1 --cutoff 4",
]


def test_repeated_calls_print_what_a_fresh_process_prints(capsys):
    def check(command):
        assert run(capsys, *command.split()) == (0, GOLDENS[command]), command

    for command in IN_PROCESS:
        check(command)
    with pytest.raises(SystemExit) as exc:
        main(["roots", "--pqr", "2", "3"])
    assert exc.value.code == 2 and capsys.readouterr().out == ""
    # An option given in one call must not become the default of the next.
    check("defect --pqr 2 4 5 --max-height 8 --cutoff 5 --json")
    code, out = run(capsys, "defect", "--pqr", "2", "4", "5", "--max-height", "8", "--json")
    assert code == 0 and len(json.loads(out)["dims"]) == 4
    for command in reversed(IN_PROCESS):
        check(command)


def test_the_grammar_is_built_once(capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    cli.build_parser.cache_clear()  # as in a fresh process
    run(capsys, "roots", "--pqr", "2", "2", "2")
    assert built[0] == "resatlas" and len(built) == 15  # the parser and its 14 subcommands
    built.clear()
    run(capsys, "defect", "--pqr", "2", "2", "3")
    run(capsys, "generators", "1", "4", "4", "1")
    assert built == []
