"""Command-line behavior: files, exit codes, determinism."""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from ridgecomb import RidgeAtom, RidgeCombination, build_from_config, cli, make_affine
from ridgecomb.cli import main
from ridgecomb.errors import BuilderError, UsageError
from ridgecomb.metrics import CSV_HEADER, lower_bound_floor, measure_report, measure_reports
from ridgecomb.targets import resolve_target

TWO_FREQUENCY = {"dim": 2, "atoms": [{"omega": [1.0, 0.5], "mag": 0.8, "phase": 0.4},
                                     {"omega": [-0.7, 1.3], "mag": 0.5, "phase": -1.1}]}
FOUR_DIM = {"dim": 4, "atoms": [{"omega": [1.0, 0.5, -0.8, 0.3], "mag": 0.8, "phase": 0.4},
                                {"omega": [-0.7, 1.3, 0.6, 0.2], "mag": 0.5, "phase": -1.1}]}


def _src_env() -> dict:
    """The environment of a fresh process that imports ridgecomb from this checkout."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


class TwoArgumentError(Exception):
    """Pickles, but does not unpickle: its __init__ takes two arguments."""

    def __init__(self, what, where):
        super().__init__(f"{what} at {where}")


def _running(pid: int) -> bool:
    """Whether pid is a process that has not ended: an ended one that its
    parent has not reaped yet (a zombie) counts as ended."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:  # no /proc here, or it just ended
        return True
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def read_bytes_map(out: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


def per_term_json_dict(c: RidgeCombination) -> dict:
    """Schema version 1 written one (b, atom) term at a time: the reference serializer."""
    doc = {
        "version": 1,
        "dim": c.d,
        "order": c.s,
        "b0": c.b0,
        "a0": [float(v) for v in c.a0],
    }
    if c.s == 3:
        doc["A0"] = None if c.A0 is None else [[float(v) for v in row] for row in c.A0]
    doc["v"] = c.v
    doc["terms"] = [
        {"b": b, "sign": atom.sign, "a": [float(v) for v in atom.a], "t": atom.t}
        for b, atom in c.terms
    ]
    return doc


class TestCatalog:
    def test_lists_known_target_kinds(self, capsys):
        assert main(["catalog"]) == 0
        text = capsys.readouterr().out
        assert "sine-ridge" in text and "cosine-sum" in text


class TestBuild:
    def test_produces_the_three_files(self, tmp_path):
        out = tmp_path / "o"
        rc = main(["build", "--target", "sine-ridge:(1,)", "--m", "16",
                   "--seed", "1", "--out", str(out)])
        assert rc == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "combination.json", "manifest.json", "report.csv"]
        header, row = (out / "report.csv").read_text().splitlines()
        assert header == CSV_HEADER
        fields = row.split(",")
        assert fields[0] == "16" and fields[1] == "iid" and fields[5] == "16"

    def test_manifest_contents(self, tmp_path):
        out = tmp_path / "o"
        main(["build", "--target", "sine-ridge:1", "--m", "8", "--out", str(out)])
        doc = json.loads((out / "manifest.json").read_text())
        assert doc["tool"] == "ridgecomb"
        assert len(doc["config_hash"]) == 64
        assert doc["outputs"] == sorted(doc["outputs"])
        assert doc["config"]["m"] == 8

    def test_grid_sizes_are_part_of_the_config_hash(self, tmp_path, monkeypatch):
        # the two --l2-nodes runs write different report.csv rows, so their
        # manifests must differ too; without grid flags no grid key is recorded
        monkeypatch.chdir(tmp_path)
        docs = []
        for flags in ([], ["--l2-nodes", "32"], ["--l2-nodes", "64"]):
            assert main(["build", "--target", "sine-ridge:1,1", "--m", "8", "--out", "o"]
                        + flags) == 0
            docs.append(json.loads((tmp_path / "o" / "manifest.json").read_text()))
        assert "l2_nodes" not in docs[0]["config"]
        assert [doc["config"]["l2_nodes"] for doc in docs[1:]] == [32, 64]
        assert len({doc["config_hash"] for doc in docs}) == 3

    def test_rerun_is_byte_identical(self, tmp_path):
        out = tmp_path / "o"
        args = ["build", "--target", "sine-ridge:1,1", "--method", "stratified",
                "--m", "32", "--seed", "4", "--out", str(out)]
        assert main(args) == 0
        first = read_bytes_map(out)
        assert main(args) == 0
        assert read_bytes_map(out) == first

    def test_flags_override_config_file(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"target": "sine-ridge:1", "m": 32, "seed": 7}))
        out = tmp_path / "o"
        assert main(["build", "--config", str(cfg), "--m", "16",
                     "--out", str(out)]) == 0
        doc = json.loads((out / "manifest.json").read_text())
        assert doc["config"]["m"] == 16
        assert doc["config"]["seed"] == 7

    def test_env_seed_fills_the_default_only(self, tmp_path, monkeypatch):
        monkeypatch.setenv("RIDGE_SEED", "11")
        out = tmp_path / "a"
        main(["build", "--target", "sine-ridge:1", "--m", "8", "--out", str(out)])
        assert json.loads((out / "manifest.json").read_text())["config"]["seed"] == 11
        out2 = tmp_path / "b"
        main(["build", "--target", "sine-ridge:1", "--m", "8", "--seed", "3",
              "--out", str(out2)])
        assert json.loads((out2 / "manifest.json").read_text())["config"]["seed"] == 3

    def test_sparse_method_with_auto_inner_budget(self, tmp_path):
        out = tmp_path / "o"
        assert main(["build", "--target", "sine-ridge:1,1", "--method", "sparse",
                     "--m", "64", "--out", str(out)]) == 0
        doc = json.loads((out / "combination.json").read_text())
        assert len(doc["terms"]) == 64

    def test_largest_guarded_build_at_d3(self, tmp_path):
        # l2 over 64^3 nodes and 4096 terms once needed an 8 GiB matrix
        out = tmp_path / "o"
        assert main(["build", "--target", "sine-ridge:1,1,1", "--m", "4096",
                     "--out", str(out)]) == 0

    def test_stratified_build_with_a_sliver_cell(self, tmp_path):
        # the |cos| zero at t = 3/4 falls 3% of a bin before a bin edge
        out = tmp_path / "o"
        assert main(["build", "--target", "sine-ridge:1,1", "--s", "3", "--method",
                     "stratified", "--m", "8", "--seed", "50877", "--out", str(out)]) == 0

    def test_largest_guarded_stratified_build_at_d3(self, tmp_path):
        # the auto epsilon 1/16 once meant a full partition of 5,484,544 cells
        out = tmp_path / "o"
        assert main(["build", "--target", "sine-ridge:1,1,1", "--method", "stratified",
                     "--m", "4096", "--out", str(out)]) == 0


class TestCombinationTerms:
    def test_cli_paths_build_no_atom_objects(self, tmp_path, monkeypatch):
        def refuse(atom):
            raise AssertionError("a RidgeAtom was built")

        monkeypatch.setattr(RidgeAtom, "__post_init__", refuse)
        for method in ("iid", "sparse", "stratified"):
            assert main(["build", "--target", "sine-ridge:1,1", "--s", "3", "--method", method,
                         "--m", "64", "--m0", "2", "--out", str(tmp_path / method)]) == 0
        assert main(["rate-sweep", "--target", "sine-ridge:1", "--methods",
                     "iid,sparse,stratified", "--m", "4,8,16", "--seeds", "10",
                     "--out", str(tmp_path / "sweep")]) == 0
        with pytest.raises(AssertionError):
            RidgeCombination.load(tmp_path / "iid" / "combination.json").terms

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("s", [2, 3])
    @pytest.mark.parametrize("method", ["iid", "sparse", "stratified"])
    def test_terms_round_trip_and_match_the_per_term_serializer(self, method, s, d, tmp_path):
        target, rep = resolve_target("sine-ridge:" + ",".join(["1"] * d), s)
        c = build_from_config(rep, target, {"method": method, "m": 32, "seed": 10 * d + s})
        back = RidgeCombination(d=c.d, s=c.s, b0=c.b0, a0=c.a0, A0=c.A0, v=c.v, terms=c.terms)
        for name in ("coef", "sign", "A", "t"):
            ours, theirs = getattr(c, name), getattr(back, name)
            assert ours.dtype == theirs.dtype and np.array_equal(ours, theirs)
            assert not ours.flags.writeable and ours.flags.owndata
        assert isinstance(c.terms, tuple) and c.terms is c.terms
        with pytest.raises(AttributeError):
            c.terms = ()
        with pytest.raises(ValueError):
            c.terms[0][1].a[0] = 0.0
        text = json.dumps(c.to_json_dict())
        assert text == json.dumps(per_term_json_dict(c))
        c.save(tmp_path / "combination.json")
        assert (tmp_path / "combination.json").read_text() == text + "\n"
        loaded = RidgeCombination.load(tmp_path / "combination.json")
        assert json.dumps(loaded.to_json_dict()) == text
        assert json.dumps(per_term_json_dict(loaded)) == text


class TestExitCodes:
    def test_unknown_target_kind(self, tmp_path):
        assert main(["build", "--target", "nope:1", "--m", "8",
                     "--out", str(tmp_path)]) == 2

    def test_missing_required_pieces(self, tmp_path):
        assert main(["build", "--m", "8", "--out", str(tmp_path)]) == 2
        assert main(["build", "--target", "sine-ridge:1",
                     "--out", str(tmp_path)]) == 2

    def test_desk_guard_and_force(self, tmp_path):
        base = ["build", "--target", "sine-ridge:1", "--m", "5000",
                "--out", str(tmp_path / "o")]
        assert main(base) == 2
        assert main(base + ["--force"]) == 0

    def test_workers_above_the_desk_guard_exit_2_before_the_target(self, tmp_path, monkeypatch,
                                                                    capsys):
        def resolving(*args):
            raise AssertionError("the target was resolved")

        monkeypatch.setattr(cli, "_resolve", resolving)
        out = tmp_path / "o"
        assert main(["rate-sweep", "--target", "sine-ridge:1", "--m", "4,8,16", "--seeds", "10",
                     "--workers", str(cli.DESK_MAX_WORKERS + 1), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (f"config error: more than {cli.DESK_MAX_WORKERS} "
                                           f"workers exceeds the desk guard; pass --force\n")
        assert not out.exists()

    def test_unknown_config_key(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"target": "sine-ridge:1", "m": 8, "mm": 2}))
        assert main(["build", "--config", str(cfg), "--out", str(tmp_path)]) == 2

    def test_malformed_config_json(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json")
        assert main(["build", "--config", str(cfg)]) == 2

    def test_bad_env_seed(self, tmp_path, monkeypatch):
        monkeypatch.setenv("RIDGE_SEED", "eleven")
        assert main(["build", "--target", "sine-ridge:1", "--m", "8",
                     "--out", str(tmp_path)]) == 2

    def test_missing_measure_file(self, tmp_path):
        assert main(["build", "--target", f"cosine-sum:{tmp_path}/absent.json",
                     "--m", "8", "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("argv, cfg, key", [
        (["build", "--m", "4", "--method", "sparse", "--m0", "abc"], None, "m0"),
        (["build", "--m", "4", "--method", "sparse", "--m0", str(2**63)], None, "m0"),
        (["rate-sweep", "--m", "4,8,16", "--seeds", "abc"], None, "seeds"),
        (["rate-sweep", "--m", "4,8,16", "--seeds", "10", "--workers", "0"], None, "workers"),
        (["build"], {"m": "x"}, "m"),
        (["build", "--m", "4"], {"s": "x"}, "s"),
        (["build", "--m", "4"], {"seed": "x"}, "seed"),
        (["build", "--m", "4"], {"l2_nodes": "x"}, "l2_nodes"),
        (["rate-sweep", "--seeds", "10"], {"m": [4, "x", 16]}, "m"),
        (["rate-sweep", "--m", "4,8,16", "--seeds", "10"], {"workers": "x"}, "workers"),
        (["rate-sweep", "--m", "4,8,16", "--seeds", "10"], {"linf_grid": [9]}, "linf_grid"),
        (["build"], {"m": 16.9}, "m"),
        (["build", "--m", "4"], {"seed": 2.7}, "seed"),
        (["build"], {"m": True}, "m"),
        (["build", "--m", "4"], {"l2_nodes": float("inf")}, "l2_nodes"),
        (["build", "--m", "4"], {"linf_grid": float("-inf")}, "linf_grid"),
        (["build", "--m", "4"], {"force": "false"}, "force"),
        (["rate-sweep", "--m", "4,8,16", "--seeds", "10"], {"methods": 5}, "methods"),
        (["build", "--m", "4"], {"out": 5}, "out"),
        (["build", "--m", "4"], {"method": "x"}, "method"),
        (["build", "--m", "4"], {"mode": "x"}, "mode"),
    ])
    def test_bad_config_value_names_its_key(self, argv, cfg, key, tmp_path, capsys):
        argv = argv + ["--target", "sine-ridge:1"]
        if "out" not in (cfg or {}):
            argv += ["--out", str(tmp_path / "o")]
        if cfg is not None:
            (tmp_path / "cfg.json").write_text(json.dumps(cfg))
            argv += ["--config", str(tmp_path / "cfg.json")]
        assert main(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"config error: {key} ")

    def test_config_file_takes_only_the_commands_flags(self, tmp_path):
        for argv, cfg in [(["build", "--m", "8"], {"workers": 2}),
                          (["rate-sweep", "--m", "4,8,16", "--seeds", "10"], {"method": "iid"}),
                          (["verify", "identities"], {"target": "sine-ridge:1"})]:
            (tmp_path / "cfg.json").write_text(json.dumps(cfg))
            extra = [] if argv[0] == "verify" else ["--target", "sine-ridge:1"]
            assert main(argv + extra + ["--config", str(tmp_path / "cfg.json"),
                                        "--out", str(tmp_path / "o")]) == 2
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("spec, problem", [
        ("sine-ridge:0,1", "positive integers"),
        ("sine-ridge:a", "could not parse integer vector from 'a'"),
        ("sine-ridge:", "nonempty"),
    ])
    def test_bad_sine_ridge_names_its_problem(self, spec, problem, tmp_path, capsys):
        assert main(["build", "--target", spec, "--m", "8", "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error: ") and problem in err[0]
        assert not (tmp_path / "o").exists()

    def test_d_above_4_is_a_hard_limit(self, tmp_path):
        out = tmp_path / "o"
        base = ["build", "--target", "sine-ridge:1,1,1,1,1", "--m", "8", "--out", str(out)]
        assert main(base) == 2
        assert main(base + ["--force"]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("case", ["config-dir", "config-not-utf8", "measure-dir", "out-file",
                                      "l2-nodes-too-large", "linf-grid-too-large"])
    def test_unusable_path_exits_2_before_the_build(self, case, tmp_path, monkeypatch, capsys):
        def refuse(*args):
            raise AssertionError("the build ran")

        monkeypatch.setattr(cli, "build_from_config", refuse)
        (tmp_path / "file").write_bytes(b'\xff\xfe{"m": 8}')
        flags = {
            "config-dir": ["--config", str(tmp_path)],
            "config-not-utf8": ["--config", str(tmp_path / "file")],
            "measure-dir": ["--target", f"cosine-sum:{tmp_path}"],
            "out-file": ["--out", str(tmp_path / "file")],
            # at d = 3: 5000^3 L2 nodes, and a 1000^3 sup grid (7.45 GiB)
            "l2-nodes-too-large": ["--target", "sine-ridge:1,1,1", "--l2-nodes", "5000"],
            "linf-grid-too-large": ["--target", "sine-ridge:1,1,1", "--linf-grid", "1000"],
        }[case]
        assert main(["build", "--target", "sine-ridge:1", "--m", "8",
                     "--out", str(tmp_path / "o")] + flags) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error: ")
        assert not (tmp_path / "o").exists()

    def test_l2_nodes_is_checked_off_a_line_at_d4(self, tmp_path, capsys):
        # both norms of an off-line d = 4 pair come from the Lobatto set, so
        # --l2-nodes sizes it there too: 100^4 nodes are over the cap
        (tmp_path / "d4.json").write_text(json.dumps(FOUR_DIM))
        assert main(["build", "--target", f"cosine-sum:{tmp_path / 'd4.json'}", "--m", "8",
                     "--l2-nodes", "100", "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error: l2_nodes")
        assert "100^4" in err[0]
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("atom, field", [
        ({"omega": [3.0], "mag": 0.5, "phase": float("nan")}, "phase"),
        ({"omega": [3.0], "mag": True, "phase": 0.5}, "mag"),
        ({"omega": [3.0], "mag": 0.5, "phase": "0.5"}, "phase"),
        ({"omega": [True], "mag": 0.5, "phase": 0.5}, "omega"),
        ({"omega": [3.0], "mag": 0.5, "phase": 0.5}, "dim"),  # with "dim": 1.7
        ([{"omega": [3.0], "mag": 0.5, "phase": 0.5},  # a list is the whole atom list
          {"omega": [3.0], "mag": 0.2, "phase": 0.1}], "frequency"),
        ({"omega": [], "mag": 0.5, "phase": 0.5}, "omega"),  # with "dim": 0
        # spectral norms that overflow: v is NaN, and +inf
        ({"omega": [1e308, 1e308], "mag": 0.5, "phase": 0.5}, "omega"),
        ([{"omega": [1e200, 3e200], "mag": 0.5, "phase": 0.5},
          {"omega": [-2e200, 1e200], "mag": 0.2, "phase": 0.1}], "omega"),
    ])
    def test_bad_measure_file_names_its_field(self, atom, field, tmp_path, capsys):
        atoms = atom if isinstance(atom, list) else [atom]
        dim = 1.7 if field == "dim" else len(atoms[0]["omega"])
        (tmp_path / "m.json").write_text(json.dumps({"dim": dim, "atoms": atoms}))
        assert main(["build", "--target", f"cosine-sum:{tmp_path / 'm.json'}", "--m", "8",
                     "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error: ") and field in err[0]
        # the JSON parsed, so the line names a failed check, not a parse error
        assert "invalid measure file" in err[0] and "could not parse" not in err[0]
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["build", "rate-sweep"])
    @pytest.mark.parametrize("method", ["iid", "stratified"])
    @pytest.mark.parametrize("theta", ["1000000", "99999999999999999999"])
    def test_a_line_rule_over_the_cap_exits_2_before_the_build(self, command, method, theta,
                                                              tmp_path, monkeypatch, capsys):
        # 4 nodes on each of 2 pi theta / 0.1 panels: 2.5e8 and 2.5e22 of them
        def refuse(*args):
            raise AssertionError("the build ran")

        monkeypatch.setattr(cli, "build_from_config", refuse)
        grid = (["--method", method, "--m", "4096"] if command == "build"
                else ["--methods", method, "--m", "4,8,16", "--seeds", "10"])
        assert main([command, "--target", f"sine-ridge:{theta}", *grid,
                     "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error: the target's line rule")
        assert not (tmp_path / "o").exists()

    def test_unparsable_measure_file_says_so(self, tmp_path, capsys):
        (tmp_path / "m.json").write_text('{"dim": 1, "atoms": [')
        assert main(["build", "--target", f"cosine-sum:{tmp_path / 'm.json'}", "--m", "8",
                     "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error: could not parse measure file")
        assert not (tmp_path / "o").exists()


class TestRateSweep:
    def test_sweep_outputs_and_schema(self, tmp_path):
        out = tmp_path / "s"
        rc = main(["rate-sweep", "--target", "sine-ridge:1", "--methods", "iid",
                   "--m", "4,8,16", "--seeds", "10", "--out", str(out)])
        assert rc == 0
        lines = (out / "results.csv").read_text().splitlines()
        assert lines[0] == CSV_HEADER + ",status,floor"
        assert len(lines) == 1 + 3 * 10
        rows = [ln.split(",") for ln in lines[1:]]
        keys = [(r[1], int(r[0]), int(r[2])) for r in rows]
        assert keys == sorted(keys)
        assert all(r[7] == "ok" for r in rows)
        fits = json.loads((out / "fits.json").read_text())
        assert set(fits["iid"]) == {"l2", "linf"}
        assert set(fits["iid"]["l2"]) == {"slope", "intercept", "r2", "n"}

    def test_sweep_rerun_is_byte_identical(self, tmp_path):
        out = tmp_path / "s"
        args = ["rate-sweep", "--target", "sine-ridge:1", "--methods",
                "iid,stratified", "--m", "4,8,16", "--seeds", "10",
                "--out", str(out)]
        assert main(args) == 0
        first = read_bytes_map(out)
        assert main(args) == 0
        assert read_bytes_map(out) == first

    def test_grid_preconditions(self, tmp_path):
        assert main(["rate-sweep", "--target", "sine-ridge:1", "--m", "4,8",
                     "--seeds", "10", "--out", str(tmp_path)]) == 2
        assert main(["rate-sweep", "--target", "sine-ridge:1", "--m", "4,8,16",
                     "--seeds", "5", "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("cpus, workers", [(1, 1), (2, 2), (3, 3), (64, 4)])
    def test_default_workers_follow_the_usable_cpus(self, cpus, workers, tmp_path, monkeypatch):
        # the CPUs this process may run on, not the host's
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 128)
        out = tmp_path / "s"
        assert main(["rate-sweep", "--target", "sine-ridge:1", "--methods", "iid",
                     "--m", "4,8,16", "--seeds", "10", "--out", str(out)]) == 0
        assert json.loads((out / "manifest.json").read_text())["config"]["workers"] == workers

    @pytest.mark.parametrize("cpus, workers", [(None, 1), (1, 1), (2, 2), (64, 4)])
    def test_default_workers_follow_the_cpu_count(self, cpus, workers, tmp_path, monkeypatch):
        # where the platform has no affinity call, the host's CPU count
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        out = tmp_path / "s"
        assert main(["rate-sweep", "--target", "sine-ridge:1", "--methods", "iid",
                     "--m", "4,8,16", "--seeds", "10", "--out", str(out)]) == 0
        assert json.loads((out / "manifest.json").read_text())["config"]["workers"] == workers

    def test_explicit_seed_list(self, tmp_path):
        out = tmp_path / "s"
        seeds = ",".join(str(3 * k) for k in range(10))
        assert main(["rate-sweep", "--target", "sine-ridge:1", "--methods", "iid",
                     "--m", "4,8,16", "--seeds", seeds, "--out", str(out)]) == 0
        doc = json.loads((out / "manifest.json").read_text())
        assert doc["config"]["seeds"] == [3 * k for k in range(10)]

    @pytest.mark.parametrize("flags, key", [
        (["--methods", "iid,nope"], "methods"),
        (["--m", "1,4,8"], "m"),
        (["--seeds", ",".join(map(str, range(9))) + ",18446744073709551616"], "seeds"),
    ])
    def test_bad_grid_exits_2_before_the_first_cell(self, flags, key, tmp_path, monkeypatch,
                                                     capsys):
        calls = []
        build = cli.build_from_config

        def counting(*args):
            calls.append(args)
            return build(*args)

        monkeypatch.setattr(cli, "build_from_config", counting)
        argv = ["rate-sweep", "--target", "sine-ridge:1", "--methods", "iid",
                "--m", "4,8,16", "--seeds", "10", "--out", str(tmp_path / "s")]
        assert main(argv + flags) == 2
        assert len(calls) == 0
        assert capsys.readouterr().err.startswith(f"config error: {key} ")
        assert not (tmp_path / "s").exists()

    @pytest.mark.parametrize("flags, message", [
        (["--epsilon", "1e-7"], "choose a larger epsilon"),
        (["--epsilon", "1e-300"], "too small to index the cells"),
        # auto: fractional epsilon 1/m at d = 1; only the largest m is over the cap
        (["--s", "3", "--m", "4,8,1000000", "--force"], "choose a larger epsilon"),
    ])
    def test_small_epsilon_exits_2_before_the_first_cell(self, flags, message, tmp_path,
                                                         monkeypatch, capsys):
        calls = []
        build = cli.build_from_config

        def counting(*args):
            calls.append(args)
            return build(*args)

        monkeypatch.setattr(cli, "build_from_config", counting)
        argv = ["rate-sweep", "--target", "sine-ridge:1", "--methods", "iid,stratified",
                "--m", "4,8,16", "--seeds", "10", "--out", str(tmp_path / "s")]
        assert main(argv + flags) == 2
        assert len(calls) == 0
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and message in err
        assert not (tmp_path / "s").exists()

    def test_failed_cell_reports_its_builder_error(self, tmp_path, monkeypatch, capsys):
        build = cli.build_from_config

        def failing(rep, target, bcfg):
            if (bcfg["method"], bcfg["m"], bcfg["seed"]) == ("iid", 8, 3):
                raise BuilderError("no draws in cell 5")
            return build(rep, target, bcfg)

        monkeypatch.setattr(cli, "build_from_config", failing)
        out = tmp_path / "s"
        assert main(["rate-sweep", "--target", "sine-ridge:1", "--methods", "iid",
                     "--m", "4,8,16", "--seeds", "10", "--out", str(out)]) == 0
        err = capsys.readouterr().err
        assert err.splitlines() == ["builder-error m=8 method=iid seed=3: no draws in cell 5"]
        rows = (out / "results.csv").read_text().splitlines()[1:]
        failed = [r for r in rows if r.split(",")[7] != "ok"]
        assert failed == [f"8,iid,3,,,0,0,builder-error,{lower_bound_floor(8, 1, 2, 1.0):.12e}"]

    def test_sweep_rows_equal_per_cell_reports(self, tmp_path):
        # a non-collinear spectrum, so every cell's sup is refined; at m = 64
        # the iid cells, on 4 directions, take the grouped path
        spec = tmp_path / "two.json"
        spec.write_text(json.dumps(TWO_FREQUENCY))
        out = tmp_path / "s"
        assert main(["rate-sweep", "--target", f"cosine-sum:{spec}", "--s", "3",
                     "--methods", "iid,stratified,sparse", "--m", "2,16,64", "--seeds", "10",
                     "--m0", "2", "--workers", "2", "--out", str(out)]) == 0
        rows = (out / "results.csv").read_text().splitlines()[1:]
        assert len(rows) == 3 * 3 * 10
        target, rep = resolve_target(f"cosine-sum:{spec}", 3)
        for row in rows:
            m, method, seed = row.split(",")[:3]
            comb = build_from_config(rep, target, {"method": method, "m": int(m),
                                                   "seed": int(seed), "m0": 2})
            report = measure_report(target, comb, int(m), method, int(seed))
            assert row.startswith(report.csv_row() + ",ok,")

    @pytest.mark.parametrize("workers", [2, 3, 4])
    def test_sweep_files_are_identical_across_worker_counts(self, workers, tmp_path):
        # cube pairs, so every cell's sup goes through the scan; cells finish
        # out of order under several workers, yet the files must not change
        spec = tmp_path / "two.json"
        spec.write_text(json.dumps(TWO_FREQUENCY))
        files = []
        for n in (1, workers):
            out = tmp_path / f"w{n}"
            assert main(["rate-sweep", "--target", f"cosine-sum:{spec}", "--s", "3",
                         "--methods", "iid,sparse", "--m", "2,8,16", "--seeds", "10",
                         "--m0", "2", "--workers", str(n), "--out", str(out)]) == 0
            files.append({name: (out / name).read_bytes()
                          for name in ("results.csv", "fits.json")})
        assert files[0] == files[1]

    def test_dead_worker_process_exits_3_with_one_line(self, tmp_path):
        # a fresh process, so a hang fails on the timeout and anything a dying
        # worker prints is seen; one cell after the first ends its worker
        child = """if True:
            import os, sys
            from ridgecomb import cli
            build = cli.build_from_config

            def dying(rep, target, bcfg):
                if (bcfg["method"], bcfg["m"], bcfg["seed"]) == ("iid", 8, 3):
                    os._exit(1)
                return build(rep, target, bcfg)

            cli.build_from_config = dying
            sys.exit(cli.main(["rate-sweep", "--target", "sine-ridge:1", "--methods", "iid",
                               "--m", "4,8,16", "--seeds", "10", "--workers", "2",
                               "--out", sys.argv[1]]))
        """
        out = tmp_path / "s"
        proc = subprocess.run([sys.executable, "-c", child, str(out)], env=_src_env(),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 3
        lines = proc.stderr.splitlines()
        assert len(lines) == 1, proc.stderr
        assert lines[0].startswith("builder failure: a sweep worker process ended (")
        assert not out.exists()

    def test_usage_error_in_a_cell_is_the_same_at_any_worker_count(self, tmp_path, monkeypatch,
                                                                   capsys):
        # the earliest failing cell's error wins: cells 8 (m = 4, seed 8), 13
        # and 15 (m = 8, seeds 3 and 5) fail, and cell 8 is in the second of
        # two workers' shares and the middle one of three
        build = cli.build_from_config

        def refusing(rep, target, bcfg):
            if (bcfg["m"], bcfg["seed"]) in ((4, 8), (8, 3), (8, 5)):
                raise UsageError(f"cell m={bcfg['m']} seed={bcfg['seed']} refused")
            return build(rep, target, bcfg)

        monkeypatch.setattr(cli, "build_from_config", refusing)
        results = []
        for workers in (1, 2, 3):
            out = tmp_path / f"w{workers}"
            rc = main(["rate-sweep", "--target", "sine-ridge:1", "--methods", "iid",
                       "--m", "4,8,16", "--seeds", "10", "--workers", str(workers),
                       "--out", str(out)])
            results.append((rc, capsys.readouterr().err, out.exists()))
        assert results == [(2, "config error: cell m=4 seed=8 refused\n", False)] * 3

    @pytest.mark.parametrize("batch_cells", [1, 2, cli._BATCH_CELLS])
    @pytest.mark.parametrize("bad_seed, want", [
        (5, "dimension mismatch: target d=1, combination d=2"),
        (9, "cell m=4 seed=6 refused")])
    def test_the_earliest_failing_cell_wins_over_batches(self, bad_seed, want, batch_cells,
                                                         tmp_path, monkeypatch, capsys):
        # cell bad_seed (m = 4) builds a combination of the wrong dimension,
        # which only its measurement refuses; cells 6 and 11 fail to build.  A
        # batch is measured after later cells are built, and a worker's share
        # may fail in its measurement at a later cell than another share's
        # build, yet the earliest failing cell's error wins at every worker
        # count and batch size
        build = cli.build_from_config

        def failing(rep, target, bcfg):
            if (bcfg["m"], bcfg["seed"]) == (4, bad_seed):
                return make_affine(2, 2, 0.0, np.zeros(2))
            if (bcfg["m"], bcfg["seed"]) in ((4, 6), (8, 1)):
                raise UsageError(f"cell m={bcfg['m']} seed={bcfg['seed']} refused")
            return build(rep, target, bcfg)

        monkeypatch.setattr(cli, "build_from_config", failing)
        monkeypatch.setattr(cli, "_BATCH_CELLS", batch_cells)
        results = []
        for workers in (1, 2, 3):
            out = tmp_path / f"w{workers}"
            rc = main(["rate-sweep", "--target", "sine-ridge:1", "--methods", "iid",
                       "--m", "4,8,16", "--seeds", "10", "--workers", str(workers),
                       "--out", str(out)])
            results.append((rc, capsys.readouterr().err, out.exists()))
        assert results == [(2, f"config error: {want}\n", False)] * 3

    @pytest.mark.parametrize("cap", [("_BATCH_CELLS", 1), ("_BATCH_CELLS", 7),
                                     ("_BATCH_TERMS", 40)])
    def test_sweep_files_do_not_depend_on_the_batch_cap(self, cap, tmp_path, monkeypatch):
        # cube pairs, so every cell's sup goes through the stacked scan
        spec = tmp_path / "two.json"
        spec.write_text(json.dumps(TWO_FREQUENCY))
        argv = ["rate-sweep", "--target", f"cosine-sum:{spec}", "--s", "3",
                "--methods", "iid,sparse", "--m", "2,8,16", "--seeds", "10", "--m0", "2",
                "--workers", "1"]
        assert main(argv + ["--out", str(tmp_path / "default")]) == 0
        monkeypatch.setattr(cli, *cap)
        assert main(argv + ["--out", str(tmp_path / "capped")]) == 0
        for name in ("results.csv", "fits.json"):
            assert ((tmp_path / "default" / name).read_bytes()
                    == (tmp_path / "capped" / name).read_bytes())

    def test_an_exception_that_cannot_be_unpickled_is_named_not_a_dead_worker(
            self, tmp_path, monkeypatch):
        build = cli.build_from_config

        def failing(rep, target, bcfg):
            if (bcfg["m"], bcfg["seed"]) == (8, 3):
                raise TwoArgumentError("no build", "m=8 seed=3")
            return build(rep, target, bcfg)

        monkeypatch.setattr(cli, "build_from_config", failing)
        with pytest.raises(RuntimeError, match="no build at m=8 seed=3") as info:
            main(["rate-sweep", "--target", "sine-ridge:1", "--methods", "iid",
                  "--m", "4,8,16", "--seeds", "10", "--workers", "2",
                  "--out", str(tmp_path / "out")])
        assert "sweep worker" in str(info.value)
        # the worker's traceback comes along as the cause
        assert isinstance(info.value.__cause__, cli._WorkerTraceback)
        assert "in failing" in str(info.value.__cause__)
        assert "TwoArgumentError" in str(info.value.__cause__)

    def test_without_fork_every_cell_runs_in_this_process(self, tmp_path, monkeypatch):
        monkeypatch.delattr(os, "fork")
        calls = []
        build = cli.build_from_config

        def counting(rep, target, bcfg):
            calls.append((bcfg["method"], bcfg["m"], bcfg["seed"]))
            return build(rep, target, bcfg)

        monkeypatch.setattr(cli, "build_from_config", counting)
        files = []
        for workers in (1, 2):
            out = tmp_path / f"w{workers}"
            assert main(["rate-sweep", "--target", "sine-ridge:1", "--methods", "iid",
                         "--m", "4,8,16", "--seeds", "10", "--workers", str(workers),
                         "--out", str(out)]) == 0
            files.append((out / "results.csv").read_bytes())
        cells = [("iid", m, seed) for m in (4, 8, 16) for seed in range(10)]
        assert calls == cells + cells
        assert files[0] == files[1]

    def test_worker_killed_by_a_signal_exits_3_with_one_line(self, tmp_path):
        # SIGKILL, as the OOM killer sends it: the worker writes nothing back,
        # and the sweep ends without waiting for a slow cell in another share
        child = """if True:
            import os, signal, sys, time
            from ridgecomb import cli
            build = cli.build_from_config

            def killed(rep, target, bcfg):
                if (bcfg["method"], bcfg["m"], bcfg["seed"]) == ("iid", 8, 3):
                    os.kill(os.getpid(), signal.SIGKILL)
                if (bcfg["method"], bcfg["m"], bcfg["seed"]) == ("iid", 4, 2):
                    time.sleep(60)
                return build(rep, target, bcfg)

            cli.build_from_config = killed
            sys.exit(cli.main(["rate-sweep", "--target", "sine-ridge:1", "--methods", "iid",
                               "--m", "4,8,16", "--seeds", "10", "--workers", "3",
                               "--out", sys.argv[1]]))
        """
        out = tmp_path / "s"
        proc = subprocess.run([sys.executable, "-c", child, str(out)], env=_src_env(),
                              capture_output=True, text=True, timeout=30)
        assert proc.returncode == 3
        assert proc.stderr.splitlines() == ["builder failure: a sweep worker process ended "
                                            "(killed by SIGKILL) before it sent its reports"]
        assert not out.exists()

    def test_no_worker_outlives_the_sweep(self, tmp_path):
        # after a sweep that succeeds, one whose worker dies and one whose cell
        # raises a UsageError, the sweep process has no child left, reaped or not
        child = """if True:
            import json, os, sys
            from ridgecomb import cli
            from ridgecomb.errors import UsageError
            build = cli.build_from_config
            action = None

            def acting(rep, target, bcfg):
                if (bcfg["m"], bcfg["seed"]) == (8, 3) and action is not None:
                    action()
                return build(rep, target, bcfg)

            def refuse():
                raise UsageError("cell refused")

            cli.build_from_config = acting
            seen = []
            for act in (None, lambda: os._exit(1), refuse):
                action = act
                rc = cli.main(["rate-sweep", "--target", "sine-ridge:1", "--methods", "iid",
                               "--m", "4,8,16", "--seeds", "10", "--workers", "2",
                               "--out", sys.argv[1] + f"/{len(seen)}"])
                try:
                    os.waitpid(-1, os.WNOHANG)
                    seen.append((rc, "a child is left"))
                except ChildProcessError:
                    seen.append((rc, "no child"))
            print(json.dumps(seen))
        """
        proc = subprocess.run([sys.executable, "-c", child, str(tmp_path)], env=_src_env(),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout.splitlines()[-1]) == [[0, "no child"], [3, "no child"],
                                                            [2, "no child"]]

    def test_a_terminated_sweep_kills_its_workers(self, tmp_path):
        # one cell writes its worker's pid and sleeps; SIGTERM to the sweep
        # process must end it and that worker both
        child = """if True:
            import os, sys, time
            from pathlib import Path
            from ridgecomb import cli
            build = cli.build_from_config

            def sleeping(rep, target, bcfg):
                if (bcfg["m"], bcfg["seed"]) == (8, 3):
                    Path(sys.argv[1] + ".tmp").write_text(str(os.getpid()))
                    os.replace(sys.argv[1] + ".tmp", sys.argv[1])
                    time.sleep(120)
                return build(rep, target, bcfg)

            cli.build_from_config = sleeping
            sys.exit(cli.main(["rate-sweep", "--target", "sine-ridge:1", "--methods", "iid",
                               "--m", "4,8,16", "--seeds", "10", "--workers", "2",
                               "--out", sys.argv[2]]))
        """
        pid_file, out = tmp_path / "worker.pid", tmp_path / "s"
        proc = subprocess.Popen([sys.executable, "-c", child, str(pid_file), str(out)],
                                env=_src_env(), stdout=subprocess.DEVNULL,
                                stderr=subprocess.PIPE, text=True)
        worker = None
        try:
            deadline = time.monotonic() + 60
            while not pid_file.exists() and time.monotonic() < deadline:
                assert proc.poll() is None, proc.stderr.read()
                time.sleep(0.05)
            worker = int(pid_file.read_text())
            proc.terminate()
            assert proc.wait(timeout=30) == 128 + signal.SIGTERM
            with pytest.raises(ProcessLookupError):
                os.kill(worker, 0)
            worker = None
            assert proc.stderr.read() == ""
            assert not out.exists()
        finally:
            if worker is not None:
                try:
                    os.kill(worker, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            proc.kill()
            proc.wait()
            proc.stderr.close()

    def test_workers_of_a_killed_sweep_stop_after_their_cell(self, tmp_path):
        # SIGKILL leaves the sweep process no chance to kill its workers; each
        # worker ends once its current cell is done.  The first worker's m = 4
        # cells (seeds 1, 3, ..., 9) take 3 s each, so it would run 15 s
        child = """if True:
            import os, sys, time
            from pathlib import Path
            from ridgecomb import cli
            build = cli.build_from_config

            def slow(rep, target, bcfg):
                if bcfg["m"] == 4 and bcfg["seed"] % 2:
                    if bcfg["seed"] == 1:
                        Path(sys.argv[1] + ".tmp").write_text(str(os.getpid()))
                        os.replace(sys.argv[1] + ".tmp", sys.argv[1])
                    time.sleep(3)
                return build(rep, target, bcfg)

            cli.build_from_config = slow
            cli.main(["rate-sweep", "--target", "sine-ridge:1", "--methods", "iid",
                      "--m", "4,8,16", "--seeds", "10", "--workers", "2",
                      "--out", sys.argv[2]])
        """
        pid_file = tmp_path / "worker.pid"
        proc = subprocess.Popen([sys.executable, "-c", child, str(pid_file), str(tmp_path / "s")],
                                env=_src_env(), stdout=subprocess.DEVNULL,
                                stderr=subprocess.DEVNULL)
        worker = None
        try:
            deadline = time.monotonic() + 60
            while not pid_file.exists() and time.monotonic() < deadline:
                assert proc.poll() is None
                time.sleep(0.05)
            worker = int(pid_file.read_text())
            proc.kill()
            proc.wait(timeout=30)
            deadline = time.monotonic() + 9
            while _running(worker) and time.monotonic() < deadline:
                time.sleep(0.1)
            assert not _running(worker)
        finally:
            if worker is not None and _running(worker):
                os.kill(worker, signal.SIGKILL)
            proc.kill()
            proc.wait()

    def test_workers_of_a_killed_sweep_stop_within_a_scan_level(self, tmp_path):
        # cube pairs: a worker measures its whole share as one batch, whose
        # stacked scan is made to take 0.5 s a level, 8 s in all (each level
        # takes the target's values from per-axis factors, one call for the
        # starts of all the batch's pairs).  Killed with SIGKILL, the sweep
        # process leaves the worker to end by itself at its next scan level
        spec = tmp_path / "two.json"
        spec.write_text(json.dumps(TWO_FREQUENCY))
        child = """if True:
            import os, sys, time
            from pathlib import Path
            from ridgecomb import cli
            from ridgecomb.spectral import SpectralMeasure
            sweep, evaluate_steps = os.getpid(), SpectralMeasure.evaluate_steps

            def slow(self, phases, ax, lo, step, n):
                if os.getpid() != sweep and phases.shape[1] > 10:  # more than one pair
                    if not os.path.exists(sys.argv[1]):
                        Path(sys.argv[1] + ".tmp").write_text(str(os.getpid()))
                        os.replace(sys.argv[1] + ".tmp", sys.argv[1])
                    time.sleep(0.5)
                return evaluate_steps(self, phases, ax, lo, step, n)

            SpectralMeasure.evaluate_steps = slow
            cli.main(["rate-sweep", "--target", "cosine-sum:" + sys.argv[3], "--s", "3",
                      "--methods", "iid", "--m", "2,4,8", "--seeds", "10", "--m0", "2",
                      "--workers", "2", "--out", sys.argv[2]])
        """
        pid_file = tmp_path / "worker.pid"
        proc = subprocess.Popen([sys.executable, "-c", child, str(pid_file), str(tmp_path / "s"),
                                 str(spec)], env=_src_env(), stdout=subprocess.DEVNULL,
                                stderr=subprocess.DEVNULL)
        worker = None
        try:
            deadline = time.monotonic() + 60
            while not pid_file.exists() and time.monotonic() < deadline:
                assert proc.poll() is None
                time.sleep(0.05)
            worker = int(pid_file.read_text())
            proc.kill()
            proc.wait(timeout=30)
            deadline = time.monotonic() + 4
            while _running(worker) and time.monotonic() < deadline:
                time.sleep(0.1)
            assert not _running(worker)
        finally:
            if worker is not None and _running(worker):
                os.kill(worker, signal.SIGKILL)
            proc.kill()
            proc.wait()

    def test_a_worker_stuck_in_one_build_ends_soon_after_its_sweep_is_killed(self, tmp_path):
        # one build sleeps 60 s in a worker; SIGKILL leaves the sweep process
        # no chance to kill it, and the worker must not wait for the build
        # (or any later step) to end before it ends itself
        child = """if True:
            import os, sys, time
            from pathlib import Path
            from ridgecomb import cli
            build = cli.build_from_config

            def stuck(rep, target, bcfg):
                if (bcfg["m"], bcfg["seed"]) == (8, 3):
                    Path(sys.argv[1] + ".tmp").write_text(str(os.getpid()))
                    os.replace(sys.argv[1] + ".tmp", sys.argv[1])
                    time.sleep(60)
                return build(rep, target, bcfg)

            cli.build_from_config = stuck
            cli.main(["rate-sweep", "--target", "sine-ridge:1", "--methods", "iid",
                      "--m", "4,8,16", "--seeds", "10", "--workers", "2",
                      "--out", sys.argv[2]])
        """
        pid_file = tmp_path / "worker.pid"
        proc = subprocess.Popen([sys.executable, "-c", child, str(pid_file), str(tmp_path / "s")],
                                env=_src_env(), stdout=subprocess.DEVNULL,
                                stderr=subprocess.DEVNULL)
        worker = None
        try:
            deadline = time.monotonic() + 60
            while not pid_file.exists() and time.monotonic() < deadline:
                assert proc.poll() is None
                time.sleep(0.05)
            worker = int(pid_file.read_text())
            proc.kill()
            proc.wait(timeout=30)
            deadline = time.monotonic() + 2
            while _running(worker) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not _running(worker)
        finally:
            if worker is not None and _running(worker):
                os.kill(worker, signal.SIGKILL)
            proc.kill()
            proc.wait()

    @pytest.mark.parametrize("command", ["build", "rate-sweep"])
    def test_each_cell_is_measured_once_through_measure_report(self, command, tmp_path,
                                                               monkeypatch):
        # one line per measured cell, appended to a file: the sweep's worker
        # processes cannot reach a list in this one.  build measures its pair
        # through measure_report, a sweep its batches through measure_reports
        log = tmp_path / "calls.log"

        def counting(target, cells, **sizes):
            with open(log, "a") as fh:
                fh.writelines(f"{m},{method},{seed}\n" for _, m, method, seed in cells)
            return measure_reports(target, cells, **sizes)

        monkeypatch.setattr(cli, "measure_report", lambda target, *cell, **sizes:
                            counting(target, [cell], **sizes)[0])
        monkeypatch.setattr(cli, "measure_reports", counting)
        out = tmp_path / "o"
        if command == "build":
            argv = ["build", "--target", "sine-ridge:1,1", "--method", "iid", "--m", "8",
                    "--seed", "3", "--out", str(out)]
            cells = [(8, "iid", 3)]
        else:
            argv = ["rate-sweep", "--target", "sine-ridge:1,1", "--methods", "iid,stratified",
                    "--m", "4,8,16", "--seeds", "10", "--workers", "2", "--out", str(out)]
            cells = [(m, method, seed) for method in ("iid", "stratified")
                     for m in (4, 8, 16) for seed in range(10)]
        assert main(argv) == 0
        calls = [(int(m), method, int(seed)) for m, method, seed in
                 (line.split(",") for line in log.read_text().splitlines())]
        assert sorted(calls) == sorted(cells)


class TestVerify:
    @pytest.mark.parametrize("which", ["identities", "sine-family", "packing"])
    def test_fast_suites_pass(self, which, tmp_path):
        out = tmp_path / "v"
        assert main(["verify", which, "--out", str(out)]) == 0
        name = f"verify_{which.replace('-', '_')}.json"
        doc = json.loads((out / name).read_text())
        assert doc["pass"] is True
        assert all({"check", "value", "tolerance", "pass"} <= set(c)
                   for c in doc["checks"])

    def test_sampler_fit_suite(self, tmp_path):
        out = tmp_path / "v"
        assert main(["verify", "sampler-fit", "--out", str(out)]) == 0
        doc = json.loads((out / "verify_sampler_fit.json").read_text())
        assert doc["pass"] is True


    @pytest.mark.parametrize("how", ["flag", "env"])
    def test_sampler_fit_at_the_largest_seed(self, how, tmp_path, monkeypatch):
        # its 20 build seeds run past 2^64 - 1, where they wrap to 0, 1, ...
        out, seed = tmp_path / "v", 2**64 - 1
        argv = ["verify", "sampler-fit", "--out", str(out)]
        if how == "flag":
            argv += ["--seed", str(seed)]
        else:
            monkeypatch.setenv("RIDGE_SEED", str(seed))
        assert main(argv) in (0, 1)
        doc = json.loads((out / "verify_sampler_fit.json").read_text())
        assert doc["seed"] == seed and len(doc["checks"]) == 2


class TestColdStart:
    def test_build_and_sweep_never_import_scipy(self, tmp_path):
        # a fresh process: the other test modules import scipy at module level.
        # An off-line d = 4 build and the identity checks run too, each twice
        (tmp_path / "d4.json").write_text(json.dumps(FOUR_DIM))
        child = """if True:
            import json, sys
            import ridgecomb
            from ridgecomb import cli
            out = sys.argv[1]
            runs = [
                *(["build", "--target", "cosine-sum:" + out + "/d4.json", "--m", "16",
                   "--out", out + "/d4-" + run] for run in "ab"),
                *(["verify", "identities", "--out", out + "/identities-" + run] for run in "ab"),
                ["build", "--target", "sine-ridge:1,1", "--s", "3", "--method", "stratified",
                 "--m", "16", "--out", out + "/strat"],
                ["build", "--target", "sine-ridge:1,1,1", "--s", "3", "--method", "sparse",
                 "--m", "16", "--m0", "2", "--out", out + "/sparse"],
                ["rate-sweep", "--target", "sine-ridge:1", "--methods", "iid,sparse,stratified",
                 "--m", "4,8,16", "--seeds", "10", "--workers", "2", "--out", out + "/sweep"],
            ]
            rcs = [cli.main(argv) for argv in runs]
            print(json.dumps({"rcs": rcs, "scipy": sorted(
                k for k in sys.modules if k == "scipy" or k.startswith("scipy.")),
                "pool": sorted(k for k in sys.modules
                               if k.startswith(("multiprocessing", "concurrent.futures")))}))
        """
        proc = subprocess.run([sys.executable, "-c", child, str(tmp_path)], env=_src_env(),
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(proc.stdout.splitlines()[-1])
        assert doc["rcs"] == [0] * 7
        assert doc["scipy"] == []
        # reruns write the same bytes; only the manifests name their own directory
        for name in ("d4", "identities"):
            first, second = (read_bytes_map(tmp_path / f"{name}-{run}") for run in "ab")
            del first["manifest.json"], second["manifest.json"]
            assert first == second and first
        checks = json.loads((tmp_path / "identities-a" / "verify_identities.json").read_text())
        assert [c["value"] <= 1e-8 for c in checks["checks"]] == [True, True]
        # the sweep forks its workers itself: a process pool would cost each
        # sweep its import and start-up
        assert doc["pool"] == []

    def test_import_leaves_the_worker_pool_unloaded(self):
        # importing the CLI loads no process pool either, since every command
        # pays for what the import loads
        child = ("import json, sys, ridgecomb.cli; print(json.dumps(sorted(k for k in "
                 "('multiprocessing', 'concurrent.futures.process') if k in sys.modules)))")
        proc = subprocess.run([sys.executable, "-c", child], env=_src_env(),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout.splitlines()[-1]) == []
