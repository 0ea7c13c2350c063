"""Config round-trip and the CLI exit-code contract."""

import contextlib
import csv
import hashlib
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import cantormax
from cantormax.cli import _COMMANDS, main
from cantormax.config import RunConfig, parse_config, serialize_config
from cantormax.errors import ConfigError

from conftest import python_int_merges

F = Fraction


@contextlib.contextmanager
def address_space_headroom(nbytes):
    """Cap this process's address space at its present size plus ``nbytes``,
    so that a runaway allocation raises MemoryError instead of exhausting
    the host's memory.  No cap where /proc/self/status is missing."""
    status = Path("/proc/self/status")
    if not status.exists():
        yield
        return
    import resource

    used = int(re.search(r"VmSize:\s+(\d+) kB", status.read_text()).group(1)) * 1024
    old = resource.getrlimit(resource.RLIMIT_AS)
    cap = used + nbytes if old[1] == resource.RLIM_INFINITY else min(used + nbytes, old[1])
    resource.setrlimit(resource.RLIMIT_AS, (cap, old[1]))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_AS, old)


class TestConfig:
    def test_roundtrip_identity(self):
        cfg = RunConfig()
        cfg.construction.N = 8
        cfg.construction.epsilon = F(3, 10)
        cfg.correlate.budget = 17
        cfg.differentiate.r_sequence = (F(1, 2), F(1, 5))
        cfg.demo.rho0 = F(1, 64)
        text = serialize_config(cfg)
        again = parse_config(text)
        assert again == cfg
        assert parse_config(serialize_config(again)) == again

    def test_comments_and_blanks_ignored(self):
        cfg = parse_config("# hi\n\nconstruction.N = 32  # trailing\nreport.formats = json , csv,\n")
        assert cfg.construction.N == 32
        assert cfg.report.formats == ("json", "csv")

    def test_unknown_key_rejected_with_line(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config("construction.N = 8\nconstruction.nope = 1\n")

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("construction.N = eight\n")

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("construction.N 8\n")

    def test_auto_rho0(self):
        cfg = parse_config("demo.rho0 = auto\n")
        assert cfg.demo.rho0 is None


@pytest.fixture(scope="module")
def cli_workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    cfg = root / "run.txt"
    cfg.write_text(
        "construction.N = 8\n"
        "construction.epsilon = 1/4\n"
        "construction.K = 3\n"
        "construction.seed = 11\n"
        "construction.gate_c_budget = 4\n"
    )
    out = root / "out"
    code = main(["construct", "-c", str(cfg), "-o", str(out)])
    assert code == 0
    return root, cfg, out


# rational params as JSON numbers equal to the set's own values; the writer
# emits only "p/q" strings
_RATIONAL_MUTATIONS = {
    "epsilon_float": ("epsilon", 0.25),
    "B_float": ("B", 10.0),
    "B_half": ("B", 10.5),
    "B_bool": ("B", True),
    "gamma_float": ("gamma", 1.0),
    "epsilon0_float": ("epsilon0", 0.5),
}

_SET_MUTATIONS = [
    "half_offsets", "str_offset", "null_offset", "bool_offset", "top_level_list", "bad_B", "huge_offset",
    "retries_negative", "retries_str", "retries_float", "retries_bool", "retries_object",
    "retries_short", "retries_long", "retries_huge", "retries_at_max",
    "level_k_bool", "N_k_wrong", "P_k_wrong",
    "N_float", "seed_float", "L_float", "seed_bool", "L_bool", "max_retries_float",
    *_RATIONAL_MUTATIONS,
]


def _with_writers(cases):
    """Each case written by ``json.dumps`` defaults, then each in the
    writer's compact form, whose offset lists the loader reads without
    ``json.loads``."""
    return [pytest.param(case, False, id=case) for case in cases] + [
        pytest.param(case, True, id=f"{case}-canonical") for case in cases
    ]


def _dump_set(payload, canonical: bool) -> str:
    if canonical:
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return json.dumps(payload)


class TestCli:
    def test_construct_writes_artifacts(self, cli_workspace):
        _, _, out = cli_workspace
        assert (out / "set.json").exists()
        assert (out / "transcript.jsonl").exists()
        payload = json.loads((out / "set.json").read_text())
        assert payload["schema_version"] == 1

    def test_construct_deterministic_bytes(self, cli_workspace, tmp_path):
        root, cfg, out = cli_workspace
        out2 = tmp_path / "again"
        assert main(["construct", "-c", str(cfg), "-o", str(out2)]) == 0
        assert (out / "set.json").read_bytes() == (out2 / "set.json").read_bytes()

    @pytest.mark.parametrize(
        "overrides, set_sha, transcript_sha",
        [
            (
                ["N=8", "epsilon=1/4", "K=3", "seed=11", "gate_c_budget=4"],
                "9fde1c126e9efcdd82157a206534108a11d836a1834c8efd74362d66dd7a456a",
                "ae91a971e3acdd11d8ba5ee25a3fc70fac3a4e955a73ec453b7c812810a03bc1",
            ),
            (
                ["regime=one-dimensional", "N=4", "K=3", "seed=3", "gate_c_budget=4"],
                "67424e23c1a216fcd13c554f7ebe762016ccf31553c3011c7bfdba65f85f2a82",
                "419c5798cf463124860edb896b739fd8844e7e7e3088307d75a1ac189eb9d82f",
            ),
            (
                ["regime=custom", "level_counts=8,8,8", "epsilon_schedule=1/4,1/4,1/4", "K=3", "seed=23", "gate_c_budget=4"],
                "94d9dbfc75fd27c8197df6c115a9850b97e0e98ea106b60b62d62407d7bc487f",
                "302e5576228075ebe6db2ca4810c13672164a5908592a405573c444591b7e9c0",
            ),
        ],
        ids=["fixed-dimension", "one-dimensional", "custom"],
    )
    def test_construct_bytes_pinned(self, tmp_path, overrides, set_sha, transcript_sha):
        # set.json and transcript.jsonl of one small set per regime, byte for byte
        argv = ["construct", "-o", str(tmp_path)]
        for item in overrides:
            argv += ["--set", f"construction.{item}"]
        assert main(argv) == 0
        assert hashlib.sha256((tmp_path / "set.json").read_bytes()).hexdigest() == set_sha
        assert hashlib.sha256((tmp_path / "transcript.jsonl").read_bytes()).hexdigest() == transcript_sha

    @pytest.mark.parametrize(
        "command, overrides, name, sha",
        [
            (
                "correlate",
                ["correlate.budget=8"],
                "correlation.csv",
                "bf66eadaaab7aa9afb495ab4cfe18d8d7fa260d105470633a297d47bfc499d43",
            ),
            (
                "maximal",
                ["maximal.points=3", "maximal.r_count=2", "maximal.m_min=-1", "maximal.m_max=1"],
                "maximal.csv",
                "5633d428a651ed50710e117ce1a91aebcaf02fb67b63177183bbd01cdd9d2b1a",
            ),
            (
                "differentiate",
                ["differentiate.point_count=5"],
                "differentiate.csv",
                "11c1019500f71c4fa2b58e5f68f01dcc69d9f08cd5b677f69da8523b2319cb57",
            ),
            (
                "differentiate",
                ["differentiate.point_count=5", "differentiate.function=indicator"],
                "differentiate.csv",
                "f89f739acf82289574285f2284558d6dffa7b9ea6a1af4a80bd77cbd4dd99677",
            ),
            (
                "demo-l1",
                ["demo.depth=3"],
                "demo_l1.csv",
                "eb767f3ccbf97c3ae945f6c6523f2f4fb9bd30910fddcd4990f085804522b128",
            ),
        ],
        ids=["correlation", "maximal", "differentiate-hat", "differentiate-indicator", "demo-l1"],
    )
    def test_report_csv_bytes_pinned(self, cli_workspace, tmp_path, command, overrides, name, sha):
        # every CSV report on the workspace set, byte for byte
        _, _, out = cli_workspace
        argv = [command, str(out / "set.json"), "-o", str(tmp_path)]
        for item in overrides:
            argv += ["--set", item]
        assert main(argv) == 0
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == sha

    def test_module_entry_point(self, tmp_path):
        env = {**os.environ, "PYTHONPATH": str(Path(cantormax.__file__).parents[1])}

        def run(*argv):
            return subprocess.run(
                [sys.executable, "-m", "cantormax.cli", *argv],
                cwd=tmp_path, env=env, capture_output=True, text=True,
            )

        init = run("init-config")
        assert init.returncode == 0
        assert init.stdout == serialize_config(RunConfig())
        missing = run("verify", "missing.json", "-o", "out")
        assert missing.returncode == 2
        assert missing.stderr.count("\n") == 1 and missing.stderr.startswith("error: cannot read set file")

    def test_production_set_merges_never_take_the_sweep(self, z16_set, tmp_path):
        # construct, verify and correlate (k=0 and k=1) on the N=16 seed-1
        # set keep every multi-factor merge in the int64 limbs
        argv = ["--set", "construction.gate_c_budget=6", "--set", "correlate.budget=8"]
        set_file = str(tmp_path / "set.json")
        with python_int_merges() as taken:
            assert main(["construct", *argv, "-o", str(tmp_path)]) == 0
            assert (tmp_path / "set.json").read_bytes() == z16_set.to_json_bytes()
            assert main(["verify", set_file, *argv, "-o", str(tmp_path / "verify")]) == 0
            for k in (0, 1):
                out = str(tmp_path / f"correlate{k}")
                assert main(["correlate", set_file, *argv, "--set", f"correlate.k={k}", "-o", out]) == 0
        assert taken and not any(taken)

    def test_verify_accepts_own_output(self, cli_workspace, tmp_path):
        _, cfg, out = cli_workspace
        code = main(
            ["verify", str(out / "set.json"), "-c", str(cfg), "-o", str(tmp_path)]
        )
        assert code == 0
        report = json.loads((tmp_path / "verify.json").read_text())
        assert report["passed"] is True

    def test_verify_rejects_tampered_file(self, cli_workspace, tmp_path):
        _, cfg, out = cli_workspace
        payload = json.loads((out / "set.json").read_text())
        # orphan a child under an unselected parent
        lvl1 = set(payload["levels"][0]["selected"])
        missing = min(set(range(8)) - lvl1)
        payload["levels"][1]["selected"].append(missing * 64)
        payload["levels"][1]["selected"].sort()
        payload["levels"][1]["P_k"] += 1  # the file stays self-consistent: only the orphan is wrong
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        code = main(["verify", str(bad), "-c", str(cfg), "-o", str(tmp_path)])
        assert code == 1

    def test_verify_rejects_gate_a_violation(self, cli_workspace, tmp_path):
        _, cfg, out = cli_workspace
        payload = json.loads((out / "set.json").read_text())
        # cut level 1 to a single interval and prune descendants: below the
        # gate (a) lower bound
        keep = payload["levels"][0]["selected"][0]
        payload["levels"][0]["selected"] = [keep]
        payload["levels"][1]["selected"] = [
            o for o in payload["levels"][1]["selected"] if o // 64 == keep
        ]
        payload["levels"][2]["selected"] = [
            o for o in payload["levels"][2]["selected"] if o // (64 * 512) == keep
        ]
        for lv in payload["levels"]:
            lv["P_k"] = len(lv["selected"])
        bad = tmp_path / "bad_counts.json"
        bad.write_text(json.dumps(payload))
        code = main(["verify", str(bad), "-c", str(cfg), "-o", str(tmp_path)])
        assert code == 1
        report = json.loads((tmp_path / "verify.json").read_text())
        failed = [c for c in report["checks"] if not c["passed"]]
        assert any(c["gate"] == "a" for c in failed)

    @pytest.mark.parametrize("cut", ["last", "first", "huge_depth"])
    def test_set_file_levels_must_match_depth(self, cli_workspace, tmp_path, capsys, cut):
        _, cfg, out = cli_workspace
        payload = json.loads((out / "set.json").read_text())
        if cut == "huge_depth":
            # rejected by the level count, before anything of that size is built
            payload["params"]["depth"] = 10**9
        else:
            payload["levels"] = payload["levels"][:-1] if cut == "last" else payload["levels"][1:]
        bad = tmp_path / "short.json"
        bad.write_text(json.dumps(payload))
        capsys.readouterr()
        with address_space_headroom(1 << 30):
            code = main(["verify", str(bad), "-c", str(cfg), "-o", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1 and "params.depth" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "command, override",
        [
            ("differentiate", "differentiate.point_count=0"),
            ("differentiate", "differentiate.r_sequence=1/8,1/4"),
            ("differentiate", "differentiate.r_sequence=1/4,0"),
            ("maximal", "maximal.r_count=0"),
            ("maximal", "maximal.p=1"),
            ("maximal", "maximal.m_min=1"),
            ("correlate", "correlate.n=3"),
            ("correlate", "correlate.k=5"),
            ("correlate", "correlate.k=-1"),
            ("demo-l1", "demo.depth=0"),
            ("demo-l1", "demo.r=0"),
            ("construct", "construction.seed=-1"),
            ("construct", "construction.seed=18446744073709551616"),
            ("correlate", "correlate.seed=-1"),
            ("verify", "construction.gate_c_n=3"),
            ("verify", "construction.gate_c_n=0"),
            ("verify", "construction.gate_c_budget=0"),
            ("maximal", "maximal.points=0"),
        ],
    )
    def test_config_domain_error_is_usage_error(self, cli_workspace, tmp_path, capsys, command, override):
        _, _, out = cli_workspace
        capsys.readouterr()
        set_file = [] if command == "construct" else [str(out / "set.json")]
        code = main([command, *set_file, "--set", override, "-o", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1 and override.split("=")[0] in err
        assert "Traceback" not in err

    def test_unknown_test_function_is_usage_error_for_every_command(self, cli_workspace, tmp_path, capsys):
        # the function name is validated with the rest of the config, so no
        # command runs with it or writes a file, config.txt included
        _, _, out = cli_workspace
        for command, (_, _, reads_set) in _COMMANDS.items():
            if command == "init-config":
                continue
            target = tmp_path / command
            set_file = [str(out / "set.json")] if reads_set else []
            capsys.readouterr()
            code = main([command, *set_file, "--set", "differentiate.function=foo", "-o", str(target)])
            err = capsys.readouterr().err
            assert code == 2, command
            assert err.count("\n") == 1 and "differentiate.function" in err
            assert not target.exists()

    @pytest.mark.parametrize("where, canonical", _with_writers(["below", "above"]))
    def test_level_2_offset_out_of_range_is_a_structure_problem(
        self, cli_workspace, tmp_path, capsys, where, canonical
    ):
        _, cfg, out = cli_workspace
        payload = json.loads((out / "set.json").read_text())
        levels = payload["levels"]
        if where == "below":
            levels[1]["selected"][0] = -1
        else:
            levels[1]["selected"][-1] = levels[0]["N_k"] * levels[1]["N_k"]  # M_2
        bad = tmp_path / "bad.json"
        bad.write_text(_dump_set(payload, canonical))
        capsys.readouterr()
        code = main(["verify", str(bad), "-c", str(cfg), "-o", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.count("\n") == 1 and "level 2 offset out of range" in err
        assert "Traceback" not in err

    def test_18_digit_offset_in_compact_form_is_a_structure_problem(self, cli_workspace, tmp_path, capsys):
        _, cfg, out = cli_workspace
        payload = json.loads((out / "set.json").read_text())
        payload["levels"][2]["selected"][-1] = 10**18 - 1  # fits int64, far above M_3
        text = _dump_set(payload, canonical=True)
        assert f",{10**18 - 1}]" in text
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        capsys.readouterr()
        code = main(["verify", str(bad), "-c", str(cfg), "-o", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.count("\n") == 1 and "level 3 offset out of range" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("mutation, canonical", _with_writers(_SET_MUTATIONS))
    def test_malformed_set_file_is_usage_error(self, cli_workspace, tmp_path, capsys, mutation, canonical):
        _, cfg, out = cli_workspace
        payload = json.loads((out / "set.json").read_text())
        levels = payload["levels"]
        retries = payload["accepted_retries"]
        assert len(retries) == len(levels)
        if mutation == "half_offsets":
            levels[0]["selected"] = [o + 0.5 for o in levels[0]["selected"]]
        elif mutation == "str_offset":
            levels[1]["selected"] = ["x"]
        elif mutation == "null_offset":
            levels[2]["selected"][0] = None
        elif mutation == "bool_offset":
            levels[0]["selected"][0] = levels[0]["selected"][0] == 1
        elif mutation == "top_level_list":
            payload = [payload]
        elif mutation == "bad_B":
            payload["params"]["B"] = "abc"
        elif mutation == "retries_negative":
            retries[-1] = -1
        elif mutation == "retries_str":
            retries[-1] = "x"
        elif mutation == "retries_float":
            retries[-1] = 0.5
        elif mutation == "retries_bool":
            retries[0] = False
        elif mutation == "retries_object":
            payload["accepted_retries"] = {"a": 1}
        elif mutation == "retries_short":
            payload["accepted_retries"] = retries[:-1]
        elif mutation == "retries_long":
            payload["accepted_retries"] = retries + [0]
        elif mutation == "retries_huge":
            retries[-1] = 2**70
        elif mutation == "retries_at_max":
            retries[-1] = payload["params"]["max_retries"]
        elif mutation == "level_k_bool":
            levels[0]["k"] = True
        elif mutation == "N_k_wrong":
            levels[1]["N_k"] = 3
        elif mutation == "P_k_wrong":
            levels[1]["P_k"] = 12345
        elif mutation in _RATIONAL_MUTATIONS:
            key, value = _RATIONAL_MUTATIONS[mutation]
            payload["params"][key] = value
        elif mutation.endswith(("_float", "_bool")):
            key = mutation.rsplit("_", 1)[0]
            payload["params"][key] = float(payload["params"][key]) if mutation.endswith("_float") else True
        else:
            levels[2]["selected"][-1] = 2**70
        bad = tmp_path / "bad.json"
        bad.write_text(_dump_set(payload, canonical))
        capsys.readouterr()
        code = main(["verify", str(bad), "-c", str(cfg), "-o", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("case", ["missing_dir", "existing_file", "under_file"])
    def test_unwritable_output_is_usage_error(self, cli_workspace, tmp_path, capsys, case):
        _, cfg, out = cli_workspace
        blocker = tmp_path / "file.txt"
        blocker.write_text("keep")
        argv = {
            "missing_dir": ["init-config", "-o", str(tmp_path / "missing" / "x.txt")],
            "existing_file": ["dimension", str(out / "set.json"), "-c", str(cfg), "-o", str(blocker)],
            "under_file": ["init-config", "-o", str(blocker / "sub")],
        }[case]
        capsys.readouterr()
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert "Traceback" not in err
        assert blocker.read_text() == "keep"

    def test_maximal_csv_rows_match_library(self, cli_workspace, tmp_path):
        from cantormax.core import CantorSet
        from cantormax.maxops import MaximalQuery, average
        from cantormax.stepfn import StepFunction

        _, _, out = cli_workspace
        overrides = ["maximal.points=3", "maximal.r_count=2", "maximal.m_min=-1", "maximal.m_max=1", "maximal.q=4"]
        argv = ["maximal", str(out / "set.json"), "-o", str(tmp_path)]
        for item in overrides:
            argv += ["--set", item]
        assert main(argv) == 0
        with open(tmp_path / "maximal.csv") as fh:
            rows = list(csv.reader(fh))[1:]
        cset = CantorSet.from_json((out / "set.json").read_text())
        f = StepFunction.indicator(0, 1)
        points = [F(-4) + F(4 * (2 * i + 1), 6) for i in range(3)]
        query = MaximalQuery(points=points, r_grid=(F(4, 3), F(5, 3)), q=4, m_min=-1, m_max=1)
        grid = [
            [str(k), str(float(r)), str(float(x)), str(float(average(f, cset, k, r, x)))]
            for x in points for k in (1, 2, 3) for r in query.r_grid
        ]
        assert rows[: len(grid)] == grid
        # the maxima from direct averages, not from a second sweep; f >= 0
        restricted, windowed = [], []
        for x in points:
            best = max(average(f, cset, k, r, x) for k in (1, 2, 3) for r in query.r_grid)
            restricted.append(["max", "", str(float(x)), str(float(best))])
            scaled = [r0 / F(2) ** m for m in (-1, 0, 1) for r0 in query.r_grid]
            weighted = [
                float(v) * float(r) ** float(query.a)
                for k in (1, 2, 3)
                for r in scaled
                if (v := average(f, cset, k, r, x))
            ]
            windowed.append(["max_windowed", "-1..1", str(float(x)), str(max([0.0, *weighted]))])
        assert rows[len(grid):] == restricted + windowed
        assert any(float(row[3]) > 0 for row in rows)

    def test_corrupt_file_is_usage_error(self, tmp_path):
        bad = tmp_path / "corrupt.json"
        bad.write_text("{not json")
        assert main(["verify", str(bad), "-o", str(tmp_path)]) == 2

    def test_construct_failure_exit_code(self, tmp_path):
        # the failure transcript is written, its directory made for it
        out = tmp_path / "failed"
        code = main(
            ["construct", "--set", "construction.max_retries=0", "-o", str(out)]
        )
        assert code == 1
        assert [p.name for p in out.iterdir()] == ["transcript.jsonl"]

    @pytest.mark.parametrize("case", ["correlate_k5", "missing_set"])
    @pytest.mark.parametrize("existing", [False, True], ids=["new_dir", "existing_dir"])
    def test_usage_error_writes_no_output_directory(self, cli_workspace, tmp_path, capsys, case, existing):
        # the directory is made by the first write, so a usage error makes
        # none; one that exists already is left as it was
        _, _, out = cli_workspace
        target = tmp_path / "d"
        if existing:
            target.mkdir()
            (target / "keep.txt").write_text("keep")
        argv = {
            "correlate_k5": ["correlate", str(out / "set.json"), "--set", "correlate.k=5"],
            "missing_set": ["verify", str(tmp_path / "missing.json")],
        }[case]
        capsys.readouterr()
        assert main([*argv, "-o", str(target)]) == 2
        assert capsys.readouterr().err.count("\n") == 1
        if existing:
            assert [(p.name, p.read_text()) for p in target.iterdir()] == [("keep.txt", "keep")]
        else:
            assert not target.exists()

    def test_correlate_budget_zero_usage_error(self, cli_workspace, tmp_path):
        _, cfg, out = cli_workspace
        code = main(
            [
                "correlate",
                str(out / "set.json"),
                "--set",
                "correlate.budget=0",
                "-o",
                str(tmp_path),
            ]
        )
        assert code == 2

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_correlate_on_a_one_level_set_is_usage_error(self, tmp_path, capsys, k):
        # sigma_1 needs level 2, so no k has a correlation to sample; k = 0
        # used to write an empty report and exit 0
        custom = ["construction.regime=custom", "construction.level_counts=4"]
        custom += ["construction.epsilon_schedule=1/4", "construction.K=1"]
        argv = [arg for item in custom for arg in ("--set", item)]
        assert main(["construct", *argv, "-o", str(tmp_path / "set")]) == 0
        capsys.readouterr()
        out = tmp_path / "correlate"
        code = main(["correlate", str(tmp_path / "set" / "set.json"), "--set", f"correlate.k={k}", "-o", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1 and "correlate.k" in err and "Traceback" not in err
        assert not out.exists()

    def test_correlate_and_dimension_outputs(self, cli_workspace, tmp_path):
        _, cfg, out = cli_workspace
        assert (
            main(
                [
                    "correlate",
                    str(out / "set.json"),
                    "--set",
                    "correlate.budget=8",
                    "-o",
                    str(tmp_path),
                ]
            )
            == 0
        )
        assert (tmp_path / "correlation.csv").exists()
        assert main(["dimension", str(out / "set.json"), "-o", str(tmp_path)]) == 0
        dim = json.loads((tmp_path / "dimension.json").read_text())
        assert dim["symbolic_limits"] == {"upper": "3/4", "lower": "3/4"}

    def test_differentiate_lipschitz_rows(self, cli_workspace, tmp_path):
        _, cfg, out = cli_workspace
        code = main(
            [
                "differentiate",
                str(out / "set.json"),
                "--set",
                "differentiate.point_count=5",
                "-o",
                str(tmp_path),
            ]
        )
        assert code == 0
        report = json.loads((tmp_path / "differentiate.json").read_text())
        assert report["lipschitz_bound_holds"] is True

    def test_demo_l1_output(self, cli_workspace, tmp_path):
        _, cfg, out = cli_workspace
        code = main(
            ["demo-l1", str(out / "set.json"), "--set", "demo.depth=3", "-o", str(tmp_path)]
        )
        assert code == 0
        payload = json.loads((tmp_path / "demo_l1.json").read_text())
        assert payload["growth_factor"] > 1

    def test_bad_config_usage_error(self, tmp_path):
        cfg = tmp_path / "bad.txt"
        cfg.write_text("construction.K = not_an_int\n")
        assert main(["construct", "-c", str(cfg), "-o", str(tmp_path)]) == 2

    @pytest.mark.parametrize("command", ["verify", "maximal"])
    def test_non_utf8_set_file_is_usage_error(self, cli_workspace, tmp_path, capsys, command):
        """A set file holding a byte that is not UTF-8 is a usage error with
        one line, whatever the locale, and writes nothing."""
        _, cfg, out = cli_workspace
        data = (out / "set.json").read_bytes()
        bad = tmp_path / "bad.json"
        bad.write_bytes(data.replace(b'"params":{', b'"params":{"\xff":1,', 1))
        capsys.readouterr()
        code = main([command, str(bad), "-c", str(cfg), "-o", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1 and err.startswith("error: set file is not UTF-8: ")
        assert not (tmp_path / "out").exists()

    def test_non_utf8_config_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "bad.txt"
        cfg.write_bytes(b"# caf\xe9\nconstruction.K = 2\n")
        capsys.readouterr()
        code = main(["construct", "-c", str(cfg), "-o", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1 and err.startswith("error: config is not UTF-8: ")
        assert not (tmp_path / "out").exists()
