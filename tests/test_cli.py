import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from liecomm.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestInvariantsCommand:
    def test_e8(self, capsys):
        code, out, _ = run_cli(capsys, "invariants", "E8")
        assert code == 0
        payload = json.loads(out)
        assert payload["quotient_degree"] == 60
        assert payload["pi2_hom"] == "Z"
        assert payload["prime_breakdown"] == {"2": 4, "3": 3, "5": 5}

    def test_deterministic_output(self, capsys):
        _, first, _ = run_cli(capsys, "invariants", "F4")
        _, second, _ = run_cli(capsys, "invariants", "F4")
        assert first == second

    def test_byte_identical_across_processes(self):
        cmd = [sys.executable, "-m", "liecomm.cli", "beta-check", "--grid", "12"]
        runs = [
            subprocess.run(cmd, capture_output=True, check=True).stdout for _ in range(2)
        ]
        assert runs[0] == runs[1]
        assert json.loads(runs[0])["passed"] is True

    def test_alias(self, capsys):
        code, out, _ = run_cli(capsys, "invariants", "Spin(9)")
        assert code == 0
        assert json.loads(out)["type"] == "B4"


class TestPoincareCommand:
    def test_a1(self, capsys):
        code, out, _ = run_cli(capsys, "poincare", "A1", "--n", "2", "--deg", "3")
        assert code == 0
        assert json.loads(out)["coefficients"] == [1, 0, 1, 2]

    def test_cap_exceeded_is_precondition(self, capsys):
        code, _, err = run_cli(capsys, "poincare", "E7", "--n", "2", "--deg", "2")
        assert code == 2
        assert "cap" in err

    def test_weyl_breach_exits_3(self, capsys, monkeypatch):
        from liecomm import weyl

        def shifted(arr):
            # move one rotation into the reflection bucket of A2
            (k0, c0), mid, (k2, c2) = real(arr)
            return (k0, c0 + 1), mid, (k2, c2 - 1)

        real = weyl.charpoly_buckets
        monkeypatch.setattr(weyl, "_MEMO", {})
        monkeypatch.setattr(weyl, "charpoly_buckets", shifted)
        code, out, err = run_cli(capsys, "poincare", "A2", "--n", "2", "--deg", "6")
        assert code == 3
        assert out == ""
        assert "invariant breach" in err and "Molien" in err

    def test_cache_write_failure_is_reported(self, capsys, tmp_path):
        argv = ["poincare", "B5", "--n", "2", "--deg", "8", "--cache-dir"]
        _, expected, _ = run_cli(capsys, *argv, str(tmp_path / "cache"))
        blocker = tmp_path / "file"
        blocker.write_text("")  # a regular file where the cache directory should be
        code, out, err = run_cli(capsys, *argv, str(blocker))
        assert code == 0
        assert out == expected
        assert f"could not write the Weyl cache {blocker / 'weyl_B5_v2.npz'}" in err


class TestErrors:
    def test_bad_type(self, capsys):
        code, _, err = run_cli(capsys, "invariants", "Spin(4)")
        assert code == 2
        assert "simple" in err

    def test_json_flag_removed(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--json", "invariants", "A1"])
        assert exc.value.code == 2

    def test_unknown_verb(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_invariant_breach_exit_code(self, capsys, monkeypatch):
        from liecomm import cli
        from liecomm.homology import InvariantBreachError

        def boom(_):
            raise InvariantBreachError("forced for the test")

        monkeypatch.setattr(cli.invariants, "pi2_hom_pairs", boom)
        code, _, err = run_cli(capsys, "invariants", "G2")
        assert code == 3
        assert "invariant breach" in err


class TestOtherCommands:
    def test_wps_degree(self, capsys):
        code, out, _ = run_cli(
            capsys, "wps-degree", "--weights", "1,2,3", "--k", "1", "--subset", "0,1"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["projection_degree"] == 6
        assert payload["inclusion_degree"] == 3

    def test_cells(self, capsys):
        code, out, _ = run_cli(capsys, "cells", "A1", "--k", "2")
        assert code == 0
        payload = json.loads(out)
        assert payload["counts_by_dim"] == [4, 4, 2]
        assert payload["euler_characteristic"] == 2

    def test_cells_breach_exits_3(self, capsys, monkeypatch):
        from liecomm import weyl

        real = weyl.euler_char_rep
        monkeypatch.setattr(weyl, "euler_char_rep", lambda group, k: real(group, k) + 1)
        code, out, err = run_cli(capsys, "cells", "A1", "--k", "2")
        assert code == 3
        assert out == ""
        assert "invariant breach" in err and "Euler" in err

    def test_cells_e6_by_classes(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys, "cells", "E6", "--k", "2", "--rank-cap", "6", "--cache-dir", str(tmp_path)
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["euler_characteristic"] == 7
        assert payload["counts_by_dim"][-1] == 51840

    def test_caps_name_only_real_options(self, capsys):
        code, out, err = run_cli(capsys, "cells", "E8", "--k", "2", "--rank-cap", "8")
        assert code == 2
        assert out == ""
        assert "above the cap 10000000" in err and "no option of cells" in err
        assert "element_cap" not in err and "--element-cap" not in err
        code, _, err = run_cli(capsys, "poincare", "E7", "--n", "1")
        assert code == 2
        assert "raise --element-cap" in err
        # above the hard limit no option helps
        code, _, err = run_cli(capsys, "poincare", "E8", "--n", "1", "--element-cap", "1000000000")
        assert code == 2
        assert "no option of poincare" in err

    @pytest.mark.slow
    def test_cells_e7_behind_rank_cap(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys, "cells", "E7", "--k", "2", "--rank-cap", "7", "--cache-dir", str(tmp_path)
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["euler_characteristic"] == 8
        assert payload["counts_by_dim"] == [
            235, 4864, 64315, 567858, 3495554, 15451968, 50011458, 119866700, 213563356,
            281627136, 270928896, 184665600, 84441600, 23224320, 2903040,
        ]

    def test_wps_breach_exits_3(self, capsys, monkeypatch):
        from liecomm import wps

        real = wps.proj_degree
        # the degree of CP(1,2) no longer divides that of CP(1,2,3)
        monkeypatch.setattr(wps, "proj_degree", lambda ws, k: real(ws, k) + 3 * (len(ws) == 2))
        code, out, err = run_cli(
            capsys, "wps-degree", "--weights", "1,2,3", "--k", "1", "--subset", "0,1"
        )
        assert code == 3
        assert out == ""
        assert "invariant breach" in err and "inclusion degree" in err

    def test_cocycle_check_gates_overlap_agreement(self, capsys, monkeypatch):
        from liecomm import geom

        real = geom.cocycle_check
        monkeypatch.setattr(
            geom, "cocycle_check", lambda samples: {**real(samples), "overlap_agreement": 1e-6}
        )
        code, out, _ = run_cli(capsys, "cocycle-check", "--samples", "1000")
        assert code == 3
        assert json.loads(out)["passed"] is False

    def test_verify_cache_dir_leaves_environment(self, capsys, monkeypatch, tmp_path):
        from liecomm import verify

        seen = {}
        monkeypatch.setattr(verify, "run_all", lambda **options: seen.update(options) or [])
        before = dict(os.environ)
        code, _, _ = run_cli(capsys, "verify", "--cache-dir", str(tmp_path))
        assert code == 0
        assert seen["cache_dir"] == tmp_path
        assert dict(os.environ) == before

    def test_spin_stability(self, capsys):
        code, out, _ = run_cli(capsys, "spin-stability", "--m", "7")
        assert code == 0
        assert json.loads(out)["stable"] is True

    def test_spin_stability_degree(self, capsys):
        code, out, _ = run_cli(
            capsys, "spin-stability", "--ell", "4", "--parity", "even", "--k", "2"
        )
        assert code == 0
        assert json.loads(out)["degree"] == 2

    def test_spin_stability_breach_exits_3(self, capsys, monkeypatch):
        from liecomm import wps

        real = wps.inclusion_degree
        # the rank-3 degree becomes 3, which no longer divides the rank-4 degree 2
        monkeypatch.setattr(
            wps, "inclusion_degree", lambda ws, subset, k: real(ws, subset, k) + 2 * (len(ws) == 4)
        )
        code, out, err = run_cli(
            capsys, "spin-stability", "--ell", "4", "--parity", "even", "--k", "2"
        )
        assert code == 3
        assert out == ""
        assert "invariant breach" in err and "stability degree" in err

    def test_beta_check_breach_exits_3(self, capsys, monkeypatch):
        from liecomm import geom
        from liecomm.homology import InvariantBreachError

        def breach(values, triangles):
            raise InvariantBreachError("forced for the test")

        monkeypatch.setattr(geom, "degree_to_s2", breach)
        code, out, err = run_cli(capsys, "beta-check", "--grid", "8")
        assert code == 3
        assert out == ""
        assert "invariant breach" in err and "forced for the test" in err

    def test_beta_check_noncommuting_generator_exits_3(self, capsys, monkeypatch):
        import numpy as np

        from liecomm import geom

        real = geom.gamma

        def shifted(s):
            # push the torus loop off its circle in the c coordinate
            g = real(s)
            g[..., 2] += 1e-4 * np.asarray(s) * np.sin(2 * np.pi * np.asarray(s))
            return g / np.linalg.norm(g, axis=-1, keepdims=True)

        monkeypatch.setattr(geom, "gamma", shifted)
        code, out, err = run_cli(capsys, "beta-check", "--grid", "8")
        assert code == 3
        assert out == ""
        assert "invariant breach" in err and "fails to commute" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["beta-check", "--tol", "1"],
            ["cocycle-check", "--tol", "1"],
            ["verify", "--rank-cap", "1"],
            ["verify", "--grid", "12"],
            ["verify", "--samples", "600"],
        ],
    )
    def test_gate_options_removed(self, capsys, argv):
        # the CLI applies the same gates and cases as the acceptance suite
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["cocycle-check", "--samples", "0"], "samples must be at least 1"),
            (["cocycle-check", "--samples", "-3"], "samples must be at least 1"),
            (["beta-check", "--grid", "1"], "grid must be at least 2"),
            (["beta-check", "--grid", "-3"], "grid must be at least 2"),
        ],
    )
    def test_size_arguments_validated(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == f"liecomm: {message}\n"

    def test_cocycle_check_memory_is_bounded(self):
        # blocked evaluation keeps the peak flat in --samples (about 250 MB
        # when every array was built at full size).  Linux carries the peak
        # RSS of a forked process over its exec, so the command is started
        # and reaped by a small interpreter, not by this large one.
        reaper = (
            "import os, subprocess, sys\n"
            "proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)\n"
            "_, status, usage = os.wait4(proc.pid, 0)\n"
            "proc.returncode = os.waitstatus_to_exitcode(status)\n"
            "print(proc.returncode, usage.ru_maxrss)\n"  # KiB on Linux
        )
        src = Path(__file__).resolve().parent.parent / "src"
        path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
        command = [sys.executable, "-m", "liecomm.cli", "cocycle-check", "--samples", "400000"]
        run = subprocess.run(
            [sys.executable, "-c", reaper, *command],
            capture_output=True,
            text=True,
            check=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        code, maxrss_kib = map(int, run.stdout.split())
        assert code == 0
        assert maxrss_kib / 1024 <= 80

    def test_beta_check_small(self, capsys):
        code, out, _ = run_cli(capsys, "beta-check", "--grid", "16")
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True
        assert payload["degree"] in (1, -1)
