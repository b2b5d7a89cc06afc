import hashlib
import json
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from posetalg import poset as poset_module
from posetalg.graphmon import parse_quiver
from posetalg.poset import Quiver, make_poset, parse_poset
from posetalg.cli import main
from posetalg.primon import CongruenceOracle

pytestmark = pytest.mark.hashseed

FIG2_DSL = "elems p a b; covers a<p b<p; labels p:[a,b]\n"
SINGLETON_DSL = "elems x\n"
E1_DSL = "vertices v0 v1; arrows a1:v1->v1 b1:v1->v0\n"
E3_DSL = "vertices v0 v1 v2 v3; arrows a1:v1->v1 b1:v1->v0 a2:v2->v2 b2:v2->v1 a3:v3->v3 b3:v3->v2\n"
DIAMOND_DSL = "elems b q1 q2 p; covers b<q1 b<q2 q1<p q2<p\n"
W_DSL = "elems b p1 p2; covers b<p1 b<p2\n"
GOLDEN = Path(__file__).parent / "golden"
INPUTS = Path(__file__).parent / "inputs"


@pytest.fixture
def fig2_file(tmp_path):
    f = tmp_path / "fig2.poset"
    f.write_text(FIG2_DSL)
    return f


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_info_fig2(fig2_file, capsys):
    code, rep = run_json(capsys, ["info", str(fig2_file)])
    assert code == 0
    assert rep["schema"] == 1 and rep["tool"] == "posetalg"
    assert rep["lower_set_count"] == 5
    assert rep["forest"] is False
    assert rep["apw_graph_shape"] is False
    assert rep["maximal_chains"] == {"p": 2}
    assert set(rep["inputs"]) == {str(fig2_file)}


def test_info_counts_maximal_chains_without_listing_them(tmp_path, capsys, monkeypatch):
    # 10 layers of width 3, each element covered by the whole layer above
    rows = [[f"l{i}_{j}" for j in range(3)] for i in range(10)]
    covers = [f"{q}<{p}" for low, high in zip(rows, rows[1:]) for q in low for p in high]
    f = tmp_path / "layered.poset"
    f.write_text(f"elems {' '.join(x for row in rows for x in row)}; covers {' '.join(covers)}\n")

    def listed(*args):
        raise AssertionError("info listed the descents")

    def too_slow(signum, frame):
        raise TooSlow("info on the 10-layer poset took over 10 s")

    monkeypatch.setattr(poset_module, "_descents", listed)
    previous = signal.signal(signal.SIGALRM, too_slow)
    signal.alarm(10)
    try:
        code, rep = run_json(capsys, ["info", str(f)])
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert code == 0
    assert rep["maximal_chains"] == {top: 3**9 for top in rows[-1]}


def test_info_singleton(tmp_path, capsys):
    f = tmp_path / "one.poset"
    f.write_text(SINGLETON_DSL)
    code, rep = run_json(capsys, ["info", str(f)])
    assert code == 0
    assert rep["monoid"]["primes"] == ["x"]
    assert rep["monoid"]["free"] == {"x": True}
    assert rep["forest"] is True


def test_pipeline_fig2(fig2_file, capsys):
    code, rep = run_json(capsys, ["pipeline", str(fig2_file)])
    assert code == 0
    assert rep["verdict"] == "iso"
    assert rep["witness"]
    assert "p" in rep["per_maximal"]
    stages = rep["per_maximal"]["p"]["stages"]
    assert stages[0]["primes"] == ["a", "b", "p"]


def test_verify_algebra_fig2(fig2_file, capsys):
    code, rep = run_json(
        capsys, ["verify-algebra", str(fig2_file), "--samples", "15", "--seed", "3"]
    )
    assert code == 0
    assert rep["relations_ok"] and rep["oracle_mismatches"] == 0 and rep["lemma26_ok"]
    assert rep["relation_count"] > 40


def test_graphmon_e1(tmp_path, capsys):
    f = tmp_path / "e1.quiver"
    f.write_text(E1_DSL)
    code, rep = run_json(capsys, ["graphmon", str(f)])
    assert code == 0
    assert rep["hereditary_saturated"] == [[], ["v0"], ["v0", "v1"]]
    assert rep["loop_chain_r"] == 1 and rep["loop_chain_check"] is True


def test_graphmon_builds_each_oracle_once(tmp_path, capsys, monkeypatch):
    built = []
    init = CongruenceOracle.__init__

    def counted(self, gens, *args):
        built.append(tuple(gens))
        init(self, gens, *args)

    monkeypatch.setattr(CongruenceOracle, "__init__", counted)
    f = tmp_path / "e3.quiver"
    f.write_text(E3_DSL)
    code, rep = run_json(capsys, ["graphmon", str(f)])
    assert code == 0 and rep["loop_chain_r"] == 3 and rep["loop_chain_check"] is True
    assert built == [("v0", "v1", "v2", "v3")]


def test_graphmon_checks_a_renamed_loop_chain(tmp_path, capsys):
    # v0..v3 as d, b, c, a: name order is not the chain's order
    f = tmp_path / "renamed.quiver"
    f.write_text(E3_DSL.replace("v0", "d").replace("v1", "b").replace("v2", "c").replace("v3", "a"))
    code, rep = run_json(capsys, ["graphmon", str(f)])
    assert code == 0 and rep["loop_chain_r"] == 3 and rep["loop_chain_check"] is True


def test_export(fig2_file, tmp_path, capsys):
    outdir = tmp_path / "dots"
    assert main(["export", str(fig2_file), "--what", "hasse", "--out", str(outdir)]) == 0
    capsys.readouterr()
    assert (outdir / "hasse.dot").read_text().startswith("digraph")
    assert main(["export", str(fig2_file), "--what", "quiver", "--out", str(outdir)]) == 0
    capsys.readouterr()
    assert '"p" -> "a"' in (outdir / "quiver.dot").read_text()
    assert main(["export", str(fig2_file), "--what", "stages", "--out", str(outdir)]) == 0
    capsys.readouterr()
    assert (outdir / "stage_p_0.dot").exists()


def test_determinism_byte_identical(fig2_file, capsys):
    argv = ["verify-algebra", str(fig2_file), "--samples", "10", "--seed", "7"]
    main(argv)
    first = capsys.readouterr().out
    main(argv)
    second = capsys.readouterr().out
    assert first == second


def test_out_dir_writes_report(fig2_file, tmp_path, capsys):
    outdir = tmp_path / "reports"
    code = main(["info", str(fig2_file), "--out", str(outdir)])
    capsys.readouterr()
    assert code == 0
    rep = json.loads((outdir / "report.json").read_text())
    assert rep["command"] == "info"


def test_config_file_defaults_and_flag_precedence(fig2_file, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"samples": 5, "seed": 11}))
    code, rep = run_json(capsys, ["--config", str(cfg), "verify-algebra", str(fig2_file)])
    assert code == 0 and rep["oracle_samples"] == 5 and rep["seed"] == 11
    code, rep = run_json(
        capsys,
        ["--config", str(cfg), "verify-algebra", str(fig2_file), "--samples", "3"],
    )
    assert rep["oracle_samples"] == 3  # flags win


def test_exit_code_nonzero_on_failed_verification(fig2_file, capsys, monkeypatch):
    import posetalg.cli as cli_mod

    def failing_suite(poset, maxdeg=3):
        return [{"relation": "A.13c[p,a]", "ok": False}]

    monkeypatch.setattr(cli_mod.tp, "run_relation_suite", failing_suite)
    code = main(["verify-algebra", str(fig2_file), "--samples", "2"])
    out = json.loads(capsys.readouterr().out)
    assert code == 1 and out["ok"] is False


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "posetalg.cli", "--help"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "pipeline" in proc.stdout


def test_reports_match_golden(tmp_path, monkeypatch, capsys):
    # relative input names keep the reports' "inputs" field fixed
    (tmp_path / "fig2.poset").write_text(FIG2_DSL)
    (tmp_path / "e1.quiver").write_text(E1_DSL)
    # the diamond unfolds b into fibre copies b~0, b~1; the W glues in assemble
    (tmp_path / "diamond.poset").write_text(DIAMOND_DSL)
    (tmp_path / "w.poset").write_text(W_DSL)
    monkeypatch.chdir(tmp_path)
    cases = {
        "info_fig2": ["info", "fig2.poset"],
        "pipeline_fig2": ["pipeline", "fig2.poset"],
        "pipeline_diamond": ["pipeline", "diamond.poset"],
        "pipeline_w": ["pipeline", "w.poset"],
        "verify_algebra_fig2": ["verify-algebra", "fig2.poset", "--samples", "10", "--seed", "7"],
        "graphmon_e1": ["graphmon", "e1.quiver"],
    }
    for name, argv in cases.items():
        assert main(argv) == 0
        assert capsys.readouterr().out.encode() == (GOLDEN / f"{name}.json").read_bytes(), name


class TooSlow(Exception):
    """Not an OSError, which main would report as a usage error."""


def test_verify_algebra_report_on_a_layered_poset_is_pinned(tmp_path, monkeypatch, capsys):
    # 4 layers of width 3, each element covered by the whole layer above:
    # 12 elements, 810 relations over 1,038 samples
    name = "layered_w3_4.poset"
    (tmp_path / name).write_bytes((INPUTS / name).read_bytes())
    monkeypatch.chdir(tmp_path)

    def too_slow(signum, frame):
        raise TooSlow("verify-algebra on the 4-layer poset took over 60 s")

    previous = signal.signal(signal.SIGALRM, too_slow)
    signal.alarm(60)
    try:
        code = main(["verify-algebra", name])
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert code == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == "1da90bc02f3afee69e4ef250143de2ecb199eb0ed871328235d231b9cb0ce1c6"


def test_golden_inputs_parse_as_before():
    # the DSL inputs of the goldens, against the objects built directly
    assert parse_poset(FIG2_DSL) == make_poset(["p", "a", "b"], [("a", "p"), ("b", "p")], {"p": ("a", "b")})
    assert parse_poset(SINGLETON_DSL) == make_poset(["x"])
    assert parse_poset(DIAMOND_DSL) == make_poset(
        ["b", "q1", "q2", "p"], [("b", "q1"), ("b", "q2"), ("q1", "p"), ("q2", "p")]
    )
    assert parse_poset(W_DSL) == make_poset(["b", "p1", "p2"], [("b", "p1"), ("b", "p2")])
    assert parse_quiver(E1_DSL) == Quiver(("v0", "v1"), (("a1", "v1", "v1"), ("b1", "v1", "v0")))
    e3 = [(f"{k}{i}", f"v{i}", f"v{i - (k == 'b')}") for i in range(1, 4) for k in "ab"]
    assert parse_quiver(E3_DSL) == Quiver(("v0", "v1", "v2", "v3"), tuple(e3))


def test_export_requires_out(fig2_file, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["export", str(fig2_file), "--what", "hasse"])
    assert exc.value.code == 2
    assert "--out" in capsys.readouterr().err


def test_commands_reject_flags_they_do_not_read(fig2_file, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["info", str(fig2_file), "--depth", "3"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --depth 3" in capsys.readouterr().err


@pytest.mark.parametrize("config", [{"bound": 9, "smaples": 3}, {"samples": "3"}, {"seed": True}, [1]])
def test_config_rejects_unknown_keys_and_non_integer_values(config, fig2_file, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    with pytest.raises(SystemExit) as exc:
        main(["--config", str(cfg), "verify-algebra", str(fig2_file)])
    assert exc.value.code == 2
    assert "--config" in capsys.readouterr().err


BAD_INPUTS = {
    "config_not_json": (
        {"bad.json": "{bad", "fig2.poset": FIG2_DSL},
        ["--config", "bad.json", "info", "fig2.poset"],
        "--config bad.json: Expecting property name",
    ),
    "unknown_element_in_covers": (
        {"u.poset": "elems a p; covers a<p z<p\n"},
        ["info", "u.poset"],
        "unknown element 'z'",
    ),
    "labels_miss_a_cover": (
        {"w.poset": "elems a b p; covers a<p b<p; labels p:[a]\n"},
        ["pipeline", "w.poset"],
        "label map of 'p' is not a bijection",
    ),
    "word_over_oracle_bound": (
        {"fan.quiver": "vertices u v; arrows u->v u->v u->v u->v u->v\n"},
        ["graphmon", "fan.quiver", "--bound", "4"],
        "word exceeds oracle bound 4",
    ),
    "missing_input_file": ({}, ["info", "missing.poset"], "No such file or directory: 'missing.poset'"),
    "negative_samples": (
        {"fig2.poset": FIG2_DSL},
        ["verify-algebra", "fig2.poset", "--samples", "-3"],
        "--samples -3 is not a non-negative int",
    ),
    "negative_depth": (
        {"fig2.poset": FIG2_DSL},
        ["verify-algebra", "fig2.poset", "--depth", "-2"],
        "--depth -2 is not a non-negative int",
    ),
    "negative_depth_in_config": (
        {"cfg.json": '{"depth": -1}', "fig2.poset": FIG2_DSL},
        ["--config", "cfg.json", "verify-algebra", "fig2.poset"],
        "--depth -1 is not a non-negative int",
    ),
}


@pytest.mark.parametrize("case", BAD_INPUTS)
def test_bad_input_is_a_usage_error(case, tmp_path, monkeypatch, capsys):
    files, argv, message = BAD_INPUTS[case]
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err.splitlines()
    assert err[-1].startswith("posetalg: error: ") and message in err[-1]
