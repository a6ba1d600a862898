import dataclasses
import hashlib
import json
import math
import time
import zlib
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

from liecomm import alcove, cli, rootdata, weyl
from liecomm.cli import main
from liecomm.rootdata import build_root_datum
from liecomm.verify import _table_types


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def _enumerate_with(monkeypatch, perturb):
    """Hand every enumeration out, a group (cells) or a histogram (poincare)
    from _stream, with perturb(buckets) in place of its charpoly buckets,
    after the stream's own Solomon check, so the gate downstream of it is the
    one that fires."""
    monkeypatch.setattr(weyl, "_MEMO", {})
    real = weyl._stream

    def stream(*args):
        found = real(*args)
        return dataclasses.replace(found, charpoly_buckets=perturb(found.charpoly_buckets))

    monkeypatch.setattr(weyl, "_stream", stream)


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

    def test_byte_identical_across_processes(self, run_python):
        cmd = ["-m", "liecomm.cli", "beta-check", "--grid", "12"]
        runs = [run_python(*cmd).stdout for _ in range(2)]
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
        code, out, _ = run_cli(capsys, "poincare", "A1", "--n", "1", "--deg", "0")  # the least --deg
        assert code == 0
        assert json.loads(out)["coefficients"] == [1]

    def test_cap_exceeded_is_precondition(self, capsys):
        code, _, err = run_cli(capsys, "poincare", "E8", "--n", "2", "--deg", "2")
        assert code == 2
        assert "cap" in err

    @pytest.mark.parametrize(
        "argv, message",
        [(("--n", "0"), "n must be >= 1"), (("--deg", "-1"), "max_deg must be >= 0")],
    )
    def test_bad_n_or_deg_is_refused_before_enumerating(self, capsys, monkeypatch, argv, message):
        def refuse(*args):
            raise AssertionError("a refused poincare input built or enumerated its group")

        monkeypatch.setattr(weyl, "_MEMO", {})
        monkeypatch.setattr(weyl, "_sorted_blocks", refuse)  # the one enumeration routine
        monkeypatch.setattr(cli, "build_root_datum", refuse)
        code, out, err = run_cli(capsys, "poincare", "E6", "--n", "1", *argv)
        assert code == 2 and out == ""
        assert err == f"liecomm: {message}\n"

    def test_cap_is_checked_before_the_root_datum(self, capsys, monkeypatch):
        # |W| = 201! is read off the type, so A200's root datum, an O(r^3)
        # closure, is never built
        def refuse(lie_type):
            raise AssertionError("a poincare above the cap built its root datum")

        monkeypatch.setattr(cli, "build_root_datum", refuse)
        code, out, err = run_cli(capsys, "poincare", "A200", "--n", "1")
        assert code == 2 and out == ""
        assert err == (
            f"liecomm: enumeration needs {math.factorial(201)} elements, above the cap "
            "10000000; no option of poincare raises this cap\n"
        )

    def test_closed_form_order_breach_exits_3(self, capsys, monkeypatch):
        # a wrong table entry passes the cap check, and the datum's degrees,
        # whose product is 12, then refuse it; a fresh cache of root data, so
        # G2's datum is built again
        monkeypatch.setitem(rootdata._EXCEPTIONAL_ORDERS, "G2", 13)
        monkeypatch.setattr(rootdata, "_build", lru_cache(rootdata._build.__wrapped__))
        code, out, err = run_cli(capsys, "poincare", "G2", "--n", "1")
        assert code == 3 and out == ""
        detail = "the product of the degrees is not |W| in closed form"
        assert err == f"liecomm: invariant breach: {detail}\n"

    @staticmethod
    def _shifted(buckets):
        # move one rotation into the reflection bucket of A2
        (k0, c0), mid, (k2, c2) = buckets
        return (k0, c0 + 1), mid, (k2, c2 - 1)

    def test_solomon_breach_exits_3(self, capsys, monkeypatch):
        # the buckets as poincare counts them, from its streamed power sums
        real = weyl._newton_buckets
        monkeypatch.setattr(weyl, "_MEMO", {})
        monkeypatch.setattr(weyl, "_newton_buckets", lambda counts: self._shifted(real(counts)))
        code, out, err = run_cli(capsys, "poincare", "A2", "--n", "2", "--deg", "6")
        assert code == 3
        assert out == ""
        assert err == "liecomm: invariant breach: the A2 charpoly buckets fail Solomon's identity\n"

    def test_solomon_breach_leaves_no_cache_file(self, capsys, monkeypatch, tmp_path):
        # the streamed file gets its buckets and its name only past the identity
        real = weyl._newton_buckets

        def moved(counts):
            (k0, c0), (k1, c1), *rest = real(counts)
            return ((k0, c0 - 1), (k1, c1 + 1), *rest)  # still summing to |W|

        monkeypatch.setattr(weyl, "_MEMO", {})
        monkeypatch.setattr(weyl, "_newton_buckets", moved)
        code, out, err = run_cli(capsys, "poincare", "A5", "--n", "1", "--cache-dir", str(tmp_path))
        assert code == 3 and out == ""
        assert err.splitlines()[-1] == (
            "liecomm: invariant breach: the A5 charpoly buckets fail Solomon's identity"
        )
        assert list(tmp_path.iterdir()) == []

    def test_weyl_breach_exits_3(self, capsys, monkeypatch):
        _enumerate_with(monkeypatch, self._shifted)
        code, out, err = run_cli(capsys, "poincare", "A2", "--n", "2", "--deg", "6")
        assert code == 3
        assert out == ""
        assert "invariant breach" in err and "Molien" in err

    def test_t2_breach_exits_3(self, capsys, monkeypatch, a2_rotation_buckets):
        _enumerate_with(monkeypatch, lambda buckets: a2_rotation_buckets)
        code, out, err = run_cli(capsys, "poincare", "A2", "--n", "2", "--deg", "6")
        assert code == 3
        assert out == ""
        assert err == "liecomm: invariant breach: Poincare [t^2] is not C(n, 2)\n"

    def test_n1_breach_exits_3(self, capsys, monkeypatch):
        # C2 with its two quarter turns swapped for one identity and one -1
        fake = (((-1, 0, 1), 4), ((1, -2, 1), 2), ((1, 2, 1), 2))
        _enumerate_with(monkeypatch, lambda buckets: fake)
        code, out, err = run_cli(capsys, "poincare", "C2", "--n", "1", "--deg", "8")
        assert code == 3
        assert out == ""
        assert err == (
            "liecomm: invariant breach: Poincare series at n = 1 is not prod(1 + t^(2d - 1))\n"
        )

    def test_quotient_breach_exits_3(self, capsys, monkeypatch, a2_non_cyclotomic_buckets):
        _enumerate_with(monkeypatch, lambda buckets: a2_non_cyclotomic_buckets)
        code, out, err = run_cli(capsys, "poincare", "A2", "--n", "2")
        assert code == 3
        assert out == ""
        assert err == (
            "liecomm: invariant breach: "
            "a charpoly bucket's det(1 - x*w) does not divide prod(1 - x^d_i)\n"
        )

    def test_repeated_coset_representative_exits_3(self, capsys, monkeypatch, tmp_path):
        real = weyl._coset_representatives

        def repeated(datum, k):
            reps = real(datum, k)
            return np.concatenate((reps[:-1], reps[-2:-1])) if k == datum.rank else reps

        monkeypatch.setattr(weyl, "_MEMO", {})
        monkeypatch.setattr(weyl, "_coset_representatives", repeated)
        code, out, err = run_cli(
            capsys, "poincare", "A5", "--n", "1", "--cache-dir", str(tmp_path)
        )
        assert code == 3
        assert out == ""
        assert err.splitlines()[-1] == (
            "liecomm: invariant breach: two coset products are the same element"
        )
        assert list(tmp_path.iterdir()) == []  # the file streamed so far is removed

    def test_cache_write_failure_is_reported(self, capsys, monkeypatch, tmp_path):
        datum = build_root_datum("B5")
        argv = ["poincare", "B5", "--n", "2", "--deg", "8", "--cache-dir"]
        _, expected, _ = run_cli(capsys, *argv, str(tmp_path / "cache"))
        blocker = tmp_path / "file"
        blocker.write_text("")  # a regular file where the cache directory should be
        monkeypatch.setattr(weyl, "_MEMO", {})  # a memo hit writes nothing
        code, out, err = run_cli(capsys, *argv, str(blocker))
        assert code == 0
        assert out == expected
        assert f"could not write the Weyl cache {weyl._cache_path(datum, blocker)}" in err

    def test_cache_out_of_key_order_exits_3(self, capsys, monkeypatch, tmp_path):
        # a stack permuted after the fact, with its CRC recomputed, passes the
        # load's checks but not the orbit-key order that every lookup relies on
        monkeypatch.setattr(weyl, "_MEMO", {})
        argv = ["cells", "B5", "--k", "1", "--rank-cap", "5", "--cache-dir", str(tmp_path)]
        assert run_cli(capsys, *argv)[0] == 0
        path = weyl._cache_path(build_root_datum("B5"), tmp_path)
        with np.load(path) as data:
            stored = {name: data[name] for name in data.files}
        stored["matrices"] = stored["matrices"][::-1].copy()
        stored["crc"] = np.int64(zlib.crc32(stored["matrices"]))
        np.savez(path, **stored)
        monkeypatch.setattr(weyl, "_MEMO", {})
        code, out, err = run_cli(capsys, *argv)
        assert code == 3
        assert out == ""
        assert err == (
            "liecomm: invariant breach: B5: the orbit keys of the stack do not strictly ascend\n"
        )


def test_cli_import_leaves_out_hashlib(run_python):
    # the cache's content check is zlib.crc32; hashlib would add to every job's peak RSS
    run = run_python("-c", "import sys, liecomm.cli; print('hashlib' in sys.modules)")
    assert run.stdout == "False\n"


def test_package_import_loads_no_module(run_python):
    # the package namespace is lazy: a name's module is imported on first access
    code = (
        "import sys, liecomm\n"
        "print([m for m in sys.modules if m.startswith(('liecomm.', 'numpy'))])"
    )
    assert run_python("-c", code).stdout == "[]\n"


# the modules of the meshes, complexes and closed formulas, which neither the
# Weyl write path (poincare) nor its read path (perfbench's query job) runs
_NOT_ON_THE_WEYL_PATH = ("geom", "simplicial", "invariants", "verify", "wps")

_WEYL_PATH_CALLS = {
    "poincare": "from liecomm import cli\ncli.main(['poincare', 'A2', '--n', '1'])",
    "query": (
        "sys.path.insert(0, sys.argv[1])\nimport jobs\n"
        "jobs.query('A2', sys.argv[2], {'G2': [['1/2', '-3']]})"
    ),
}


@pytest.mark.parametrize("job", sorted(_WEYL_PATH_CALLS))
def test_weyl_path_leaves_out_the_other_oracles(run_python, tmp_path, job):
    modules = [f"liecomm.{name}" for name in _NOT_ON_THE_WEYL_PATH]
    code = f"import sys\n{_WEYL_PATH_CALLS[job]}\nprint([m for m in {modules!r} if m in sys.modules])"
    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    run = run_python("-c", code, str(perfbench), str(tmp_path))
    assert run.stdout.splitlines()[-1] == "[]"


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
        from liecomm import invariants
        from liecomm.homology import InvariantBreachError

        def boom(_):
            raise InvariantBreachError("forced for the test")

        monkeypatch.setattr(invariants, "pi2_hom_pairs", boom)
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

    def test_cells_face_tuples_are_bounded(self, capsys):
        # k is bounded by CENSUS_MAX_K, and so the census's face tuples; a k
        # outside 1..32 is refused before any work, whatever it is
        for k in ("33", "1000000000", "0"):
            start = time.perf_counter()
            code, out, err = run_cli(capsys, "cells", "A1", "--k", k)
            assert time.perf_counter() - start < 1
            assert code == 2 and out == ""
            assert err == "liecomm: k must lie in 1..32; no option raises this bound\n"

    def test_oversized_census_is_refused_before_enumerating(self, capsys, monkeypatch):
        # the bound needs only k, so E6 is never enumerated
        def refuse(*args):
            raise AssertionError("an oversized census enumerated its Weyl group")

        monkeypatch.setattr(weyl, "_MEMO", {})
        monkeypatch.setattr(weyl, "_stream", refuse)
        code, out, err = run_cli(capsys, "cells", "E6", "--k", "33", "--rank-cap", "6")
        assert code == 2 and out == ""
        assert err == "liecomm: k must lie in 1..32; no option raises this bound\n"

    @pytest.mark.parametrize("k", ["1", "33"])
    def test_rank_cap_is_checked_before_the_root_datum(self, capsys, monkeypatch, k):
        # the rank is read off the type's name: A2000's root datum, an O(r^3)
        # closure, is never built, and the rank cap is tested before k
        def refuse(lie_type):
            raise AssertionError("a census above the rank cap built its root datum")

        monkeypatch.setattr(cli, "build_root_datum", refuse)
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "cells", "A2000", "--k", k)
        assert time.perf_counter() - start < 1
        assert code == 2 and out == ""
        assert err == "liecomm: census for rank 2000 exceeds --rank-cap 4\n"

    @pytest.mark.parametrize("name, k", [("A1", 13), ("E6", 6)])
    def test_cells_answer_beyond_the_old_tuple_limit(self, capsys, name, k):
        # 3^13 and 127^6 face tuples, past the 10^6 the per-tuple sum allowed
        code, out, _ = run_cli(capsys, "cells", name, "--k", str(k), "--rank-cap", "6")
        assert code == 0
        payload = json.loads(out)
        counts = payload["counts_by_dim"]
        datum = build_root_datum(name)
        assert len(counts) == k * datum.rank + 1
        assert counts[-1] == datum.lie_type.weyl_order ** (k - 1)
        assert sum((-1) ** d * c for d, c in enumerate(counts)) == payload["euler_characteristic"]

    def test_cells_a1_k12_answers(self, capsys):
        # 3^12 = 531441 face tuples, the most of any A1 census within the limit
        code, out, _ = run_cli(capsys, "cells", "A1", "--k", "12")
        assert code == 0
        payload = json.loads(out)
        assert payload["euler_characteristic"] == 2048
        assert payload["counts_by_dim"] == [
            4096, 24576, 135168, 450560, 1013760, 1622016, 1892352,
            1622016, 1013760, 450560, 135168, 24576, 2048,
        ]

    def test_cells_breach_exits_3(self, capsys, monkeypatch):
        real = weyl.euler_char_rep
        monkeypatch.setattr(weyl, "euler_char_rep", lambda group, k: real(group, k) + 1)
        code, out, err = run_cli(capsys, "cells", "A1", "--k", "2")
        assert code == 3
        assert out == ""
        assert "invariant breach" in err and "Euler" in err

    def test_cells_rank_plus_one_breach_exits_3(self, capsys, monkeypatch, a2_rotation_buckets):
        _enumerate_with(monkeypatch, lambda buckets: a2_rotation_buckets)
        code, out, err = run_cli(capsys, "cells", "A2", "--k", "2")
        assert code == 3
        assert out == ""
        assert err == "liecomm: invariant breach: Lefschetz average at k = 2 is not rank + 1\n"

    def test_wrong_inverse_exits_3(self, capsys, monkeypatch):
        # one entry of U off makes V*D^-1*U no inverse of the Cartan matrix,
        # and the alcove vertices then miss their wall equations
        real = alcove.smith_normal_form

        def perturbed(mat):
            u, d, v = real(mat)
            u[0][0] += 1
            return u, d, v

        monkeypatch.setattr(alcove, "smith_normal_form", perturbed)
        monkeypatch.setattr(weyl, "_MEMO", {})
        alcove.alcove_geometry.cache_clear()
        try:
            code, out, err = run_cli(capsys, "cells", "A2", "--k", "2")
        finally:
            alcove.alcove_geometry.cache_clear()
        assert code == 3
        assert out == ""
        assert err == "liecomm: invariant breach: alcove vertex fails its wall equations\n"

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
        assert err == (
            "liecomm: enumeration needs 696729600 elements, above the cap 10000000; "
            "no option of cells raises this cap\n"
        )
        code, out, err = run_cli(capsys, "poincare", "E8", "--n", "1")
        assert code == 2
        assert out == ""
        assert err == (
            "liecomm: enumeration needs 696729600 elements, above the cap 10000000; "
            "no option of poincare raises this cap\n"
        )

    @pytest.mark.slow
    def test_cells_e7_behind_rank_cap(self, capsys, tmp_path, monkeypatch, e7_enumeration):
        monkeypatch.setitem(weyl._MEMO, ("E", 7), e7_enumeration[0])  # enumerated once
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

    def test_non_finite_residual_prints_strict_json(self, capsys, monkeypatch):
        from liecomm import geom

        real = geom.cocycle_check
        leaked = {
            "overlap_agreement": float("nan"),
            "pairwise_commutator": float("inf"),
            "clutching_residual": float("-inf"),
        }
        monkeypatch.setattr(geom, "cocycle_check", lambda samples: {**real(samples), **leaked})
        code, out, _ = run_cli(capsys, "cocycle-check", "--samples", "1000")
        assert code == 3

        def refuse(constant):
            raise ValueError(f"{constant} is not RFC 8259 JSON")

        payload = json.loads(out, parse_constant=refuse)
        assert payload["passed"] is False
        assert [payload[key] for key in leaked] == ["nan", "inf", "-inf"]

    def test_only_a_named_cache_dir_is_written(self, tmp_path, run_python):
        # HOME and the working directory stay empty; --cache-dir changes no output
        def _cli_run(*argv, cwd):
            return run_python("-m", "liecomm.cli", *argv, cwd=cwd, HOME=str(cwd)).stdout

        home, cached = tmp_path / "home", tmp_path / "cached"
        home.mkdir()
        cached.mkdir()
        commands = (["poincare", "E6", "--n", "1"], ["cells", "A5", "--k", "1", "--rank-cap", "5"])
        for argv in commands:
            out = _cli_run(*argv, cwd=home)
            assert out == _cli_run(*argv, "--cache-dir", str(cached / argv[1]), cwd=cached)
            assert list(home.iterdir()) == []
        assert json.loads(_cli_run("verify", cwd=home))["passed"] is True
        assert list(home.iterdir()) == []
        written = sorted(p.relative_to(cached).as_posix() for p in cached.rglob("*.npz"))
        assert written == ["A5/weyl_A5_v4.npz", "E6/weyl_E6_v4.npz"]

    def test_spin_stability(self, capsys):
        code, out, _ = run_cli(capsys, "spin-stability", "--m", "7")
        assert code == 0
        assert json.loads(out)["stable"] is True

    @pytest.mark.parametrize(
        "argv",
        [
            ["--m", "7", "--ell", "5", "--k", "2"],
            ["--m", "7", "--ell", "5"],
            ["--m", "7", "--k", "2"],
            ["--m", "7", "--parity", "odd"],
            ["--m", "7", "--parity", "even"],
            ["--ell", "5"],
            [],
        ],
    )
    def test_spin_stability_takes_one_question(self, capsys, argv):
        code, out, err = run_cli(capsys, "spin-stability", *argv)
        assert code == 2
        assert out == ""
        assert err == "liecomm: provide either --m, or --ell with --k (and --parity)\n"

    def test_spin_stability_degree(self, capsys):
        code, out, _ = run_cli(
            capsys, "spin-stability", "--ell", "4", "--parity", "even", "--k", "2"
        )
        assert code == 0
        assert json.loads(out)["degree"] == 2

    def test_spin_stability_breach_exits_3(self, capsys, monkeypatch):
        from liecomm import wps

        real = wps.proj_degree
        # the shared (1, 1) gets degree 3, which does not divide D4's degree 2
        monkeypatch.setattr(wps, "proj_degree", lambda ws, k: real(ws, k) + 2 * (len(ws) == 2))
        code, out, err = run_cli(
            capsys, "spin-stability", "--ell", "4", "--parity", "even", "--k", "2"
        )
        assert code == 3
        assert out == ""
        assert "invariant breach" in err and "inclusion degree is not an integer" in err

    @pytest.mark.parametrize(
        "argv",
        [["--ell", "100000", "--k", "2"], ["--m", "199999"]],
    )
    def test_spin_stability_answers_at_the_rank_bound(self, capsys, argv):
        # --m 199999 asks about ell = (m + 2) // 2 = 100000
        code, out, _ = run_cli(capsys, "spin-stability", *argv)
        assert code == 0
        payload = json.loads(out)
        assert payload.get("degree", 1) == 1 and payload.get("stable", True)

    @pytest.mark.parametrize(
        "argv",
        [["--ell", "100001", "--k", "2"], ["--ell", "100001", "--k", "1"],
         ["--ell", "100000000", "--parity", "odd", "--k", "2"], ["--m", "200000"],
         ["--m", "1000000000000"]],
    )
    def test_spin_stability_refuses_past_the_rank_bound(self, capsys, argv):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "spin-stability", *argv)
        assert time.perf_counter() - start < 1
        assert code == 2 and out == ""
        assert err == "liecomm: ell must be at most 100000, a fixed bound that no option raises\n"

    def test_huge_ell_is_refused_under_a_memory_limit(self, run_python):
        # with 400 MB of address space a weight tuple of 10^8 entries once
        # escaped as a MemoryError traceback; the bound refuses it first
        code = (
            "import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (400 << 20, 400 << 20))\n"
            "from liecomm.cli import main\n"
            "print(main(['spin-stability', '--ell', '100000000', '--k', '2']))\n"
        )
        run = run_python("-c", code, OPENBLAS_NUM_THREADS="1")
        assert run.stdout == "2\n"
        assert run.stderr == (
            "liecomm: ell must be at most 100000, a fixed bound that no option raises\n"
        )

    def test_beta_check_breach_exits_3(self, capsys, monkeypatch):
        from liecomm import geom
        from liecomm.homology import InvariantBreachError

        def breach(omega, too_large):
            raise InvariantBreachError("forced for the test")

        monkeypatch.setattr(geom, "_degree", breach)
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
            ["verify", "--cache-dir", "x"],
        ],
    )
    def test_gate_options_removed(self, capsys, argv):
        # the CLI applies the same gates and cases as the acceptance suite
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

    _GRID_BOUND = "grid must be at most 1000, a fixed bound that no option raises"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["cocycle-check", "--samples", "0"], "samples must be at least 1"),
            (["cocycle-check", "--samples", "-3"], "samples must be at least 1"),
            (["beta-check", "--grid", "1"], "grid must be at least 2"),
            (["beta-check", "--grid", "-3"], "grid must be at least 2"),
            (["beta-check", "--grid", "1001"], _GRID_BOUND),
            (["beta-check", "--grid", "1000000"], _GRID_BOUND),
        ],
    )
    def test_size_arguments_validated(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == f"liecomm: {message}\n"

    def test_cocycle_check_memory_is_bounded(self, reaped):
        # blocked evaluation keeps the peak flat in --samples (about 250 MB
        # when every array was built at full size)
        code, peak_mb = reaped("cocycle-check", "--samples", "400000")
        assert code == 0
        assert peak_mb <= 80

    def test_beta_check_memory_is_bounded(self, reaped):
        # the mesh is streamed facet by facet (178 MB at --grid 200 when the
        # numbered mesh was built whole)
        code, peak_mb = reaped("beta-check", "--grid", "200")
        assert code == 0
        assert peak_mb <= 80

    def test_beta_check_small(self, capsys):
        code, out, _ = run_cli(capsys, "beta-check", "--grid", "16")
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True
        assert payload["degree"] in (1, -1)


# The whole stdout line of the weighted-projective, spin-stability and
# invariants commands; the field-level asserts above say which values matter.
_GOLDEN_STDOUT = [
    (
        ["wps-degree", "--weights", "1,2,3", "--k", "1", "--subset", "0,1"],
        '{"command":"wps-degree","inclusion_degree":3,"k":1,"projection_degree":6,'
        '"schema_version":1,"subset":[0,1],"weights":[1,2,3]}\n'
    ),
    (
        ["spin-stability", "--m", "6"],
        '{"command":"spin-stability","details":{"composite_hom_degree":1,'
        '"dynkin_index_lower":1,"dynkin_index_upper":2,"ell":4,"rep_degree":2},"m":6,'
        '"route":"even-series composite degree","schema_version":1,"stable":true}\n'
    ),
    (
        ["spin-stability", "--m", "16"],
        '{"command":"spin-stability","details":{"composite_hom_degree":1,'
        '"dynkin_index_lower":2,"dynkin_index_upper":2,"ell":9,"rep_degree":1},'
        '"m":16,"route":"even-series composite degree","schema_version":1,'
        '"stable":true}\n'
    ),
    (
        ["spin-stability", "--ell", "4", "--parity", "odd", "--k", "4"],
        '{"command":"spin-stability","degree":2,"ell":4,"k":4,"parity":"odd",'
        '"route":"factorization through the shared coordinate subspace",'
        '"schema_version":1,"zero_groups":false}\n'
    ),
    # D50's root data, far above the ranks the other tests build
    (
        ["spin-stability", "--ell", "50", "--k", "4"],
        '{"command":"spin-stability","degree":1,"ell":50,"k":4,"parity":"even",'
        '"route":"factorization through the shared coordinate subspace",'
        '"schema_version":1,"zero_groups":false}\n'
    ),
    (
        ["invariants", "E8"],
        '{"command":"invariants","coroot_integers":[1,2,3,4,6,5,4,3,2],'
        '"dynkin_index":60,"pi2_hom":"Z","pi2_rep":"Z","pi4_bcom":"Z^2",'
        '"pi4_ecom":"Z","prime_breakdown":{"2":4,"3":3,"5":5},'
        '"provenance":"prime-fragment assembly,'
        ' cross-checked against the coroot-integer lcm","quotient_degree":60,'
        '"root_datum":{"cartan":[[2,0,-1,0,0,0,0,0],[0,2,0,-1,0,0,0,0],[-1,0,2,-1,0,'
        '0,0,0],[0,-1,-1,2,-1,0,0,0],[0,0,0,-1,2,-1,0,0],[0,0,0,0,-1,2,-1,0],[0,0,0,'
        '0,0,-1,2,-1],[0,0,0,0,0,0,-1,2]],"coroot_integers":[1,2,3,4,6,5,4,3,2],'
        '"degrees":[2,8,12,14,18,20,24,30],"family":"E","rank":8,"root_integers":[2,'
        '3,4,6,5,4,3,2],"weyl_order":696729600},"schema_version":1,"type":"E8"}\n'
    ),
    (
        ["invariants", "Spin(12)"],
        '{"command":"invariants","coroot_integers":[1,1,2,2,2,1,1],"dynkin_index":2,'
        '"pi2_hom":"Z","pi2_rep":"Z","pi4_bcom":"Z^2","pi4_ecom":"Z",'
        '"prime_breakdown":{"2":2},"provenance":"prime-fragment assembly,'
        ' cross-checked against the coroot-integer lcm","quotient_degree":2,'
        '"root_datum":{"cartan":[[2,-1,0,0,0,0],[-1,2,-1,0,0,0],[0,-1,2,-1,0,0],[0,0,'
        '-1,2,-1,-1],[0,0,0,-1,2,0],[0,0,0,-1,0,2]],"coroot_integers":[1,1,2,2,2,1,'
        '1],"degrees":[2,4,6,6,8,10],"family":"D","rank":6,"root_integers":[1,2,2,2,'
        '1,1],"weyl_order":23040},"schema_version":1,"type":"D6"}\n'
    ),
    # cell census counts below rank 5, which write no cache
    (
        ["cells", "F4", "--k", "2"],
        '{"command":"cells","counts_by_dim":[46,348,1727,5502,11354,15072,12408,5760,1152],'
        '"euler_characteristic":5,"k":2,"schema_version":1,"type":"F4"}\n'
    ),
    (
        ["cells", "A4", "--k", "3"],
        '{"command":"cells","counts_by_dim":[125,750,4125,19750,76575,226875,498000,793875,'
        '900300,704250,360000,108000,14400],"euler_characteristic":25,"k":3,'
        '"schema_version":1,"type":"A4"}\n'
    ),
    (
        ["cells", "B4", "--k", "2"],
        '{"command":"cells","counts_by_dim":[33,184,756,2144,4112,5216,4184,1920,384],'
        '"euler_characteristic":5,"k":2,"schema_version":1,"type":"B4"}\n'
    ),
    (
        ["cells", "D4", "--k", "2"],
        '{"command":"cells","counts_by_dim":[29,144,524,1328,2328,2768,2132,960,192],'
        '"euler_characteristic":5,"k":2,"schema_version":1,"type":"D4"}\n'
    ),
]


@pytest.mark.parametrize(
    ("argv", "stdout"), _GOLDEN_STDOUT, ids=[" ".join(argv) for argv, _ in _GOLDEN_STDOUT]
)
def test_golden_stdout(capsys, argv, stdout):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0
    assert err == ""
    assert out == stdout


# sha256 of the concatenated stdout of each command group, run in-process.  The
# first three digests were recorded from the code before FinAbGroup took its
# invariant factors by gcd and lcm, when it factored each order into primes; the
# others before the exact layer lost its unread fields and second integer
# checks.  verify's stdout is hashed with each criterion's `seconds` removed.
_CENSUS_K2 = ("A1", "A2", "A3", "A4", "B2", "B3", "B4", "C3", "C4", "D4", "F4", "G2", "A5", "D5")
_STDOUT_DIGESTS = [
    (
        "invariants",
        [["invariants", lt.name] for lt in _table_types()],
        "b380eda41a953704d65124fca37a8bca67b89232b61c494e0bdb6ab9855ef809",
    ),
    (
        "cells",
        [["cells", t, "--k", "2", "--rank-cap", "5"] for t in _CENSUS_K2]
        + [["cells", "A4", "--k", "3"]],
        "b80d9796d894a821f67a6d8afc37627a0af4f721c5a9052bc977943ae7b8a7a1",
    ),
    (
        "poincare",
        [["poincare", t, "--n", "1", "--deg", "24"] for t in ("A6", "B6", "C6", "D6", "E6", "A7")],
        "f83314b463d8c632c263d8123d0e433c6abb2ff8430fd81b6bcf319894bd9a18",
    ),
    (
        "spin-stability-m",
        [["spin-stability", "--m", str(m)] for m in range(5, 17)],
        "6763f837fa6e6c6770c7aa68eab351989a430ac1cd7a16a61e067df54b61c182",
    ),
    (
        "spin-stability-ell",
        [
            ["spin-stability", "--ell", str(ell), "--parity", parity, "--k", str(k)]
            for ell in range(4, 9)
            for parity in ("even", "odd")
            for k in (0, 1, 2)
        ],
        "3133017cd195df2e8022f032994a61d14563129f0481eb48d22596ef991ada58",
    ),
    (
        "wps-degree",
        [
            ["wps-degree", "--weights", "1,2,3", "--k", "1"],
            ["wps-degree", "--weights", "1,1,2,2,3", "--k", "1", "--subset", "0,2,4"],
            ["wps-degree", "--weights", "1,2,3,4,5,6,4,2,3", "--k", "2", "--subset", "0,1,2,5"],
        ],
        "6d51ddfc80f1b38a1e6908724d8f59bec87ce80b4269a6d8b93491a27a485638",
    ),
    (
        "geometry",
        [["beta-check", "--grid", "24"], ["cocycle-check", "--samples", "601"]],
        "3124cd88f051bb4086ea667f3a34ef3d282036685eb36dc46c7be17be2848576",
    ),
    (
        "verify",
        [["verify"]],
        "5e58ae0fc28db49209bd7a6798107baf4df7c2bfe9fc38c4da0b44ccd089afd0",
    ),
]


def _without_seconds(out):
    payload = json.loads(out)
    for criterion in payload["criteria"]:
        del criterion["seconds"]
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


@pytest.mark.parametrize(
    ("commands", "digest"),
    [(commands, digest) for _, commands, digest in _STDOUT_DIGESTS],
    ids=[name for name, _, _ in _STDOUT_DIGESTS],
)
def test_stdout_digest(capsys, commands, digest):
    sha = hashlib.sha256()
    for argv in commands:
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0, argv
        if argv[0] == "verify":
            out = _without_seconds(out)
        sha.update(out.encode())
    assert sha.hexdigest() == digest
