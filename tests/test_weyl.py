import dataclasses
import hashlib
import json
import random
import re
import zipfile
import zlib
from collections import Counter
from fractions import Fraction
from itertools import product
from math import comb, lcm, prod
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liecomm import cli, rootdata, weyl
from liecomm.alcove import alcove_geometry, barycenter
from liecomm.homology import InvariantBreachError
from liecomm.rootdata import FaceIndex, all_faces, build_root_datum, lattice_quotient, n_vee
from liecomm.verify import _canonical_types
from liecomm.weyl import (
    HARD_ELEMENT_LIMIT,
    StabilizerSubgroup,
    WeylCapError,
    alcove_reduce,
    cell_census,
    double_cosets,
    euler_char_rep,
    face_stabilizer,
    generate,
    irreducibility_check,
    molien_poincare,
)


def _group(name):
    return generate(build_root_datum(name))


def _cold(datum, **kwargs):
    """generate past the memo: an enumeration, or a load from a cache_dir given."""
    weyl._MEMO.pop((datum.lie_type.family, datum.lie_type.rank), None)
    return generate(datum, **kwargs)


class TestEnumeration:
    @pytest.mark.parametrize(
        "name,order", [("A1", 2), ("A2", 6), ("C2", 8), ("G2", 12), ("B3", 48), ("F4", 1152)]
    )
    def test_orders(self, name, order):
        group = _group(name)
        assert group.order == order == len(group.matrices)
        assert sum(m for _, m in group.charpoly_buckets) == order

    def test_determinism(self):
        datum = build_root_datum("B3")
        weyl._MEMO.pop(("B", 3), None)
        first = generate(datum).matrices
        weyl._MEMO.pop(("B", 3), None)
        second = generate(datum).matrices
        assert np.array_equal(first, second)

    def test_elements_permute_coroots(self):
        datum = build_root_datum("G2")
        group = _group("G2")
        # the positive coroots are the positive roots of the dual system
        positive = rootdata._root_closure(tuple(zip(*datum.cartan)))[0]
        coroots = positive | {tuple(-x for x in c) for c in positive}
        arr = group.matrices.astype(np.int64)
        for w in arr[:6]:
            for c in positive:
                image = tuple(int(x) for x in w @ np.array(c))
                assert image in coroots
        dets = np.round(np.linalg.det(arr.astype(float))).astype(int)
        assert set(dets.tolist()) == {1, -1}

    def test_cap_errors(self):
        with pytest.raises(WeylCapError):
            generate(build_root_datum("E8"))  # above the hard limit

    def test_check_cap_is_the_one_bound(self):
        # |W| is read off the type, so no root datum is built and nothing enumerated
        for name, order in (("E7", 2_903_040), ("D8", 5_160_960)):
            assert rootdata.LieType.parse(name).weyl_order == order
            weyl.check_cap(rootdata.LieType.parse(name))
        for name, order in (("B8", 10_321_920), ("E8", 696_729_600)):
            with pytest.raises(WeylCapError) as info:
                weyl.check_cap(rootdata.LieType.parse(name))
            assert str(info.value) == f"enumeration needs {order} elements, above the cap 10000000"
        # the bound itself is reachable: an order of exactly HARD_ELEMENT_LIMIT passes
        weyl.check_cap(SimpleNamespace(weyl_order=HARD_ELEMENT_LIMIT))
        with pytest.raises(WeylCapError):
            weyl.check_cap(SimpleNamespace(weyl_order=HARD_ELEMENT_LIMIT + 1))

    def test_cache_roundtrip(self, tmp_path):
        datum = build_root_datum("B5")
        weyl._MEMO.pop(("B", 5), None)
        fresh = generate(datum, cache_dir=tmp_path)
        assert weyl._cache_path(datum, tmp_path).exists()
        weyl._MEMO.pop(("B", 5), None)
        cached = generate(datum, cache_dir=tmp_path)
        assert np.array_equal(cached.matrices, fresh.matrices)
        assert cached.charpoly_buckets == fresh.charpoly_buckets

    def test_corrupt_cache_ignored(self, tmp_path):
        datum = build_root_datum("A5")
        weyl._MEMO.pop(("A", 5), None)
        weyl._cache_path(datum, tmp_path).write_bytes(b"not an archive")
        group = generate(datum, cache_dir=tmp_path)
        assert group.order == datum.lie_type.weyl_order

    def test_truncated_cache_ignored(self, tmp_path):
        # what an interrupted write leaves behind
        datum = build_root_datum("B5")
        _cold(datum, cache_dir=tmp_path)
        path = weyl._cache_path(datum, tmp_path)
        path.write_bytes(path.read_bytes()[:1000])
        assert weyl._load_cache(datum, tmp_path) is None

    def test_warm_load_reads_the_stored_buckets(self, tmp_path, monkeypatch):
        datum = build_root_datum("B5")
        weyl._MEMO.pop(("B", 5), None)
        fresh = generate(datum, cache_dir=tmp_path)

        def refuse(stack):
            raise AssertionError("a warm load derived the buckets again")

        monkeypatch.setattr(weyl, "charpoly_buckets", refuse)
        weyl._MEMO.pop(("B", 5), None)
        cached = generate(datum, cache_dir=tmp_path)
        assert cached is not fresh and cached.charpoly_buckets == fresh.charpoly_buckets

    @pytest.mark.parametrize(
        "damage,reason",
        [
            ("truncate", "unreadable or truncated"),
            ("flip_stack_byte", "the stack does not match its CRC-32"),
            ("move_count", "the charpoly buckets fail Solomon's identity"),
            # det(-w) = +-2 is no Weyl element's: its det(1 - x*w) divides no product
            ("double_constant_term", "the charpoly buckets fail Solomon's identity"),
            ("old_version", "format version 3, not 4"),
            ("vector_version", "unreadable or truncated (version is not an int64 scalar)"),
            ("fortran_stack", "order, shape, layout or dtype is not the B5 stack's"),
        ],
    )
    def test_damaged_cache_is_rejected_with_its_reason(self, tmp_path, capsys, damage, reason):
        datum = build_root_datum("B5")
        weyl._MEMO.pop(("B", 5), None)
        generate(datum, cache_dir=tmp_path)
        path = weyl._cache_path(datum, tmp_path)
        if damage == "truncate":
            path.write_bytes(path.read_bytes()[:1000])
        else:
            with np.load(path) as data:
                stored = {name: data[name].copy() for name in data.files}
            if damage == "flip_stack_byte":
                stored["matrices"].reshape(-1)[1234] ^= 1  # the stored CRC stays
            elif damage == "double_constant_term":
                stored["charpolys"][0, 0] *= 2
            elif damage == "old_version":
                stored["version"] = np.int64(3)
            elif damage == "vector_version":
                stored["version"] = np.array([4, 4])
            elif damage == "fortran_stack":
                stored["matrices"] = np.asfortranarray(stored["matrices"])  # the same CRC
            else:
                stored["counts"][:2] += (-1, 1)  # still summing to |W|
            np.savez(path, **stored)
        capsys.readouterr()
        weyl._MEMO.pop(("B", 5), None)
        group = generate(datum, cache_dir=tmp_path)
        err = capsys.readouterr().err.splitlines()
        assert err[0].startswith(f"liecomm: ignoring the Weyl cache {path}: {reason}")
        assert err[1:] == ["liecomm: enumerating the B5 Weyl group (3840 elements)"]
        assert _stack_digest(group.matrices) == ENUMERATION_DIGESTS["B5"][0]
        # the enumeration wrote the file again, and it loads silently
        assert weyl._load_cache(datum, tmp_path).charpoly_buckets == group.charpoly_buckets
        assert capsys.readouterr().err == ""

    def test_missing_cache_is_silent(self, tmp_path, capsys):
        assert weyl._load_cache(build_root_datum("B5"), tmp_path) is None
        assert capsys.readouterr().err == ""

    def test_buckets_are_written_only_past_solomon(self, tmp_path, monkeypatch):
        # the stream requires the identity, so buckets that fail it never
        # reach the memo or the cache
        real = weyl._newton_buckets

        def moved(counts):
            (k0, c0), (k1, c1), *rest = real(counts)
            return ((k0, c0 - 1), (k1, c1 + 1), *rest)  # still summing to |W|

        monkeypatch.setattr(weyl, "_newton_buckets", moved)
        monkeypatch.setattr(weyl, "_MEMO", {})
        with pytest.raises(InvariantBreachError, match="A5 charpoly buckets fail Solomon"):
            generate(build_root_datum("A5"), cache_dir=tmp_path)
        assert list(tmp_path.iterdir()) == [] and weyl._MEMO == {}

    def test_one_int8_stack(self, tmp_path):
        datum = build_root_datum("B5")
        group = _cold(datum, cache_dir=tmp_path)
        loaded = _cold(datum, cache_dir=tmp_path)
        for g in (group, loaded):
            assert g.matrices.dtype == np.int8 and not g.matrices.flags.writeable
        assert np.array_equal(loaded.matrices, group.matrices)
        assert loaded.charpoly_buckets == group.charpoly_buckets
        with np.load(weyl._cache_path(datum, tmp_path)) as data:
            stored = {name: data[name] for name in data.files}
        assert sorted(stored) == ["charpolys", "counts", "crc", "matrices", "order", "version"]
        assert stored["matrices"].dtype == np.int8
        assert int(stored["version"]) == weyl._CACHE_VERSION and int(stored["order"]) == group.order
        assert int(stored["crc"]) == zlib.crc32(group.matrices.tobytes())
        buckets = zip(map(tuple, stored["charpolys"].tolist()), stored["counts"].tolist())
        assert tuple(buckets) == group.charpoly_buckets
        # a stack of another dtype is not this cache's format
        stored["matrices"] = group.matrices.astype(np.int16)
        np.savez(weyl._cache_path(datum, tmp_path), **stored)
        assert weyl._load_cache(datum, tmp_path) is None

    @pytest.mark.parametrize("name", ["B5", "E6"])
    def test_cache_members_are_the_savez_members(self, name, tmp_path, monkeypatch):
        # the writer is np.savez without the copy: same members, same order,
        # same bytes, so the format and its version are unchanged, whether it
        # writes an enumerated stack (generate) or the blocks poincare streams
        datum = build_root_datum(name)
        monkeypatch.setattr(weyl, "_MEMO", {})
        group = generate(datum, cache_dir=tmp_path / "generate")
        monkeypatch.setattr(weyl, "_MEMO", {})
        histogram = weyl.charpoly_histogram(datum, cache_dir=tmp_path / "poincare")
        assert histogram.charpoly_buckets == group.charpoly_buckets
        charpolys, counts = zip(*group.charpoly_buckets)
        reference = tmp_path / "savez.npz"
        np.savez(
            reference,
            version=np.int64(weyl._CACHE_VERSION),
            order=np.int64(group.order),
            matrices=group.matrices,
            crc=np.int64(zlib.crc32(group.matrices)),
            charpolys=np.array(charpolys, dtype=np.int64),
            counts=np.array(counts, dtype=np.int64),
        )
        for route in ("generate", "poincare"):
            path = weyl._cache_path(datum, tmp_path / route)
            assert list(path.parent.iterdir()) == [path]  # renamed into place
            with zipfile.ZipFile(path) as ours, zipfile.ZipFile(reference) as theirs:
                names = ours.namelist()
                assert names == theirs.namelist()
                assert names == [
                    f"{n}.npy" for n in ("version", "order", "matrices", "crc", "charpolys", "counts")
                ]
                for member in names:
                    assert ours.read(member) == theirs.read(member), (route, member)

    @pytest.mark.parametrize("name", ["E6", "A7", "B6"])
    def test_cold_generate_holds_one_stack(self, name, tmp_path, monkeypatch, traced):
        # the enumeration's own peak: the cache write copies no stack
        monkeypatch.setattr(weyl, "_MEMO", {})
        group, peak = traced(generate, build_root_datum(name), cache_dir=tmp_path)
        assert weyl._cache_path(group.datum, tmp_path).exists()
        assert peak <= 1.75 * group.matrices.nbytes

    def test_block_write_failure_leaves_no_file(self, tmp_path, run_python):
        # a file-size limit below B5's 96,000-byte stack fails a block write
        # mid-stream: reported, the file removed, stdout as with no cache dir
        code = (
            "import resource, signal, sys\n"
            "signal.signal(signal.SIGXFSZ, signal.SIG_IGN)\n"
            "resource.setrlimit(resource.RLIMIT_FSIZE, (50_000, 50_000))\n"
            "from liecomm import cli\n"
            "sys.exit(cli.main(sys.argv[1:]))\n"
        )
        argv = ["poincare", "B5", "--n", "1", "--deg", "12"]
        run = run_python("-c", code, *argv, "--cache-dir", str(tmp_path))
        assert run.stdout == run_python("-m", "liecomm.cli", *argv).stdout
        path = weyl._cache_path(build_root_datum("B5"), tmp_path)
        assert f"liecomm: could not write the Weyl cache {path}: " in run.stderr
        assert list(tmp_path.iterdir()) == []

    def test_rename_failure_leaves_no_file(self, tmp_path, monkeypatch, capsys):
        def refuse(source, target):
            raise OSError("refused for the test")

        monkeypatch.setattr(weyl.os, "replace", refuse)
        monkeypatch.setattr(weyl, "_MEMO", {})
        datum = build_root_datum("B5")
        histogram = weyl.charpoly_histogram(datum, cache_dir=tmp_path)
        assert histogram.charpoly_buckets == generate(datum).charpoly_buckets
        path = weyl._cache_path(datum, tmp_path)
        err = capsys.readouterr().err
        assert f"liecomm: could not write the Weyl cache {path}: refused for the test\n" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("name", ["E6", "A7"])
    def test_poincare_route_holds_no_stack(self, name, tmp_path, monkeypatch, traced):
        # the sort's table and permutation, W_(r-1) and block-sized work
        # arrays, with the cache file written from the streamed blocks
        monkeypatch.setattr(weyl, "_MEMO", {})
        datum = build_root_datum(name)
        histogram, peak = traced(weyl.charpoly_histogram, datum, cache_dir=tmp_path)
        assert isinstance(histogram, weyl.CharpolyHistogram)
        assert weyl._cache_path(datum, tmp_path).exists() and weyl._MEMO == {}
        assert peak < datum.lie_type.weyl_order * datum.rank**2

    def test_warm_poincare_holds_no_stack(self, tmp_path, monkeypatch, traced):
        # the cache hit reads the stack member in chunks, checks their CRC and
        # keeps none of them
        monkeypatch.setattr(weyl, "_MEMO", {})
        datum = build_root_datum("E6")
        weyl.charpoly_histogram(datum, cache_dir=tmp_path)
        histogram, peak = traced(weyl.charpoly_histogram, datum, cache_dir=tmp_path)
        assert isinstance(histogram, weyl.CharpolyHistogram) and weyl._MEMO == {}
        assert histogram.charpoly_buckets == generate(datum).charpoly_buckets
        assert peak < 0.1 * datum.lie_type.weyl_order * datum.rank**2

    @pytest.mark.slow
    def test_rank_seven_exceptional_behind_flag(self, monkeypatch, e7_enumeration):
        datum = build_root_datum("E7")
        monkeypatch.setitem(weyl._MEMO, ("E", 7), e7_enumeration[0])
        group = generate(datum)
        assert group is e7_enumeration[0]
        assert group.order == 2_903_040
        assert irreducibility_check(group) == Fraction(1)
        assert euler_char_rep(group, 2) == 8
        assert molien_poincare(group, 2, 2) == [1, 0, 1]


# sha256 of the stack widened to int64 and of repr(charpoly_buckets): A1-E6
# as enumerated before the element index replaced the byte-set search, A6-D6
# (the types of perfbench's enumerate workload) and E7 as the breadth-first
# level search enumerated them, before the coset products replaced it
ENUMERATION_DIGESTS = {
    "A1": ("c9cb04ba987a95a535a8ba7d18b3815d0f04b47add63f2b18ed0a66f9a6d617a", "1532e1324f0cfe80df91a43d381c2b80e82419dbaa21f673398e00aefbbe5c7d"),
    "A2": ("80e3cd5322915ef6990dc3359c067b88cd31bfe5b37cd02bf66b160926781e26", "3d81a6d77c1c8c1ab26bcf2b86da27730f692196e60051d4f6fa853396181596"),
    "A3": ("58dd24a4acfad8d1e350f5ec9beadfe1ad7d2f828f65eef9de05f524b5b2c03a", "9080a27dd20b6142b8d12c3b1a9bb9341528d5232ddc3c31d47f9b943173eb75"),
    "A4": ("3004bbed754776a90caab06d72b11d227aa2fd71a0112c16a3b4889154b0a32c", "d95e538cdae2f669eca6bd16de69a7cf3a4a913d7d5522f14a4b22a8cb0f3e4a"),
    "A5": ("66db65b3523e5d60848708ba3da16aeae62af5e094d0d19f7b58dede9bd886e8", "5e8b41cd92e4f0491e1b43e7f91ee977bea28669a0fd93400ca54f7aebc753a7"),
    "B3": ("3c98197bae5f1dd6bf6a258e4f7768c5bf033c62bfc8d446054d3c679749e105", "9f78e4606e70e8034d0cae66b9fb68ffc11fb17ce6b6c8ce082bdf01b9a8a5de"),
    "B4": ("433b43ecede5b934832656fa77c66617fa8e84eb3d8295b45d64135c4e1e311f", "5410003ed743715199b61614ca81cf6a88221ade21b0f10ca41e07e34f6684d2"),
    "B5": ("1c5f159f99861c9762e40a12dbb3b06d907af8162baacc4c3efe756e6d77efb7", "f483b5716bf97c2bc09220c902efe95f9bf7bc8a5e02838c1e957cd9a79fec24"),
    "C2": ("8276bcdedbc731c5b1504617204d0948f7a0d2440b93d80c04a1a6a35b7ca0c1", "fd30358248562209b985428a6d48bed90558931c5dced1d2df48abe7235e132d"),
    "C3": ("1670fee7c2a96965631a5f95d5a56ded3b2c44c73f42156789ac36aee0c723a8", "9f78e4606e70e8034d0cae66b9fb68ffc11fb17ce6b6c8ce082bdf01b9a8a5de"),
    "C4": ("a97aa21799637dc31e8f77c2f7bdb8ad0214b5883b4e81711ab1fb2c5b039031", "5410003ed743715199b61614ca81cf6a88221ade21b0f10ca41e07e34f6684d2"),
    "C5": ("afaab1cbb0173ae66f1f8b082d65e46105cf8438a007003328e762c216947801", "f483b5716bf97c2bc09220c902efe95f9bf7bc8a5e02838c1e957cd9a79fec24"),
    "D4": ("410c4f3011c477351ef1f7e4fc685d2626287bb761aa0ffe88250a891829200b", "01de1b314955ec50abee09b1d9619cf81fb4b90a019a8841f97be33dad088c43"),
    "D5": ("05aa5140ebd9c7e22c6fa85d73ac10518bd1a06d10cb8e93f0ecaf198405a584", "6c55a33bf3a9ff7da2573d263761431f861a5a2ad2730b17349ff9505a3b3e68"),
    "F4": ("fc7ea383b7d37a64887d01acd0378ab6d3c0f87b555480e9fa52749950dad62b", "f9977506a36e675a0ff99d58c5cdfa57370935faade097f7b4cfb9f5a28553bb"),
    "G2": ("cd4eb42d314bfd7ba250982090a4c50b8bf0c36896a5792a0ff6039881db691f", "66ce3ef594314a7f58b5c49e146d5d546f453c194e4b50b1f79d67155a9aa872"),
    "E6": ("dd6ff52ca9b9adb7da64249fbfe1cc5b42046da2f7e11c9b5677ce0be0126ae8", "3a06d8375d5d573ad87de950f5417807b3d7e9132773069089ea0b3c5d23f3fd"),
    "A6": ("78491dbca04e130fd602d6751caf3af28019ece084541b6f58008c591a99d413", "280351a8c9fee0c3698b48449ab1e1267028f6617dae4f9c99f4a8d848a06a94"),
    "A7": ("7ec8c89034585488a8642a38073af9eb518b5c177f5473eb14be93d7fbe49ab0", "ff753a6b931d4b60556b7410ea45d52d8fc86f63448ed7af1151fa2b5d7353a4"),
    "B6": ("b5fbb9111f6aaf4d3da7172848951a54483ba20041d591446c8c76ca4f5e9957", "91629c8acc6b41eb973ca73c6f17482cd3548d5c39876be9c83a3fa9a3807161"),
    "C6": ("1dbba468a9907b3edaf25d72946f55ef4aa869746d00ec5dd9b3eb349e99d548", "91629c8acc6b41eb973ca73c6f17482cd3548d5c39876be9c83a3fa9a3807161"),
    "D6": ("f8e8b81227293edeeabd9aa10c7f5c4e93d4629e42b70249875016764ae9ccd7", "e4cfc97f547c496e0e6b51cd6b28c65afe6c504403426dfe7d567516d97987e0"),
}
E7_DIGESTS = ("5d2ba2273141b0e9161ef9a48bc816506a782729197e0f6b58c45a9329997118", "d46388ea4de4ae1c0ad7816e75d50d2576d71a90608b2647a377e2854aaa9a30")

# the C2 histogram with its two quarter turns (x^2 + 1) swapped for one more
# identity and one more -1
C2_QUARTER_TURNS_SWAPPED = (((-1, 0, 1), 4), ((1, -2, 1), 2), ((1, 2, 1), 2))

# sha256 of molien_poincare over TABLE_TYPES, E6 and D6 at n = 1..4 and
# max_deg 0, 1, 2, 12 and 24, as computed before the sum read Solomon's exact
# quotients in place of an inverted power series
MOLIEN_DIGEST = "9c77b5c82759034625eb7b67b3d476795e7c8af15e4707f11bd671d86b33cd67"

TABLE_TYPES = ["A1", "A2", "A3", "A4", "A5", "B3", "B4", "C2", "C3", "C4", "D4", "D5", "F4", "G2"]

# A_n: partitions of n + 1; B_n, C_n: bipartitions of n; the rest from the tables
KNOWN_CLASS_COUNTS = {
    "A1": 2, "A2": 3, "A3": 5, "A4": 7, "A5": 11, "B3": 10, "B4": 20, "C2": 5, "C3": 10,
    "C4": 20, "D4": 13, "D5": 18, "F4": 25, "G2": 6, "E6": 25,
}


def _types_below_hard_limit():
    names = []
    for family, first in (("A", 1), ("B", 3), ("C", 2), ("D", 4), ("E", 6), ("F", 4), ("G", 2)):
        for rank in range(first, 10):
            try:
                datum = build_root_datum(f"{family}{rank}")
            except ValueError:
                break
            if datum.lie_type.weyl_order > HARD_ELEMENT_LIMIT:
                break
            names.append(datum.lie_type.name)
    return names


def _stack_digest(matrices):
    """sha256 of the stack in lexicographic order of its entries, the order
    it was stored in before the orbit-key order, widened to int64 a block at
    a time."""
    order = np.lexsort(matrices.reshape(len(matrices), -1).T[::-1])
    digest = hashlib.sha256()
    for start in range(0, len(matrices), 1 << 16):
        digest.update(matrices[order[start : start + (1 << 16)]].astype(np.int64).tobytes())
    return digest.hexdigest()


class TestElementIndex:
    @pytest.mark.parametrize("name", ENUMERATION_DIGESTS)
    def test_enumeration_byte_identical(self, name):
        matrices_sha, buckets_sha = ENUMERATION_DIGESTS[name]
        group = _cold(build_root_datum(name))
        assert group.matrices.dtype == np.int8
        assert _stack_digest(group.matrices) == matrices_sha
        assert hashlib.sha256(repr(group.charpoly_buckets).encode()).hexdigest() == buckets_sha

    @pytest.mark.slow
    def test_e7_enumeration_byte_identical_within_memory(self, e7_enumeration):
        group, peak = e7_enumeration
        assert _stack_digest(group.matrices) == E7_DIGESTS[0]
        assert hashlib.sha256(repr(group.charpoly_buckets).encode()).hexdigest() == E7_DIGESTS[1]
        assert peak <= 1.5 * group.matrices.nbytes

    @pytest.mark.slow
    def test_e7_poincare_streams_the_cache_within_memory(
        self, tmp_path, monkeypatch, capsys, traced
    ):
        # cold, through the stream: the stdout of the stack-holding route,
        # the enumerated stack and buckets in the file, and no stack held
        # (the peak measured 0.34 times the stack's 142 MB)
        monkeypatch.setattr(weyl, "_MEMO", {})
        argv = ["poincare", "E7", "--n", "1"]
        code, peak = traced(cli.main, [*argv, "--cache-dir", str(tmp_path)])
        assert code == 0
        assert capsys.readouterr().out == (
            '{"coefficients":[1,0,0,1,0,0,0],"command":"poincare","max_deg":6,"n":1,'
            '"schema_version":1,"type":"E7"}\n'
        )
        datum = build_root_datum("E7")
        assert peak <= 0.6 * datum.lie_type.weyl_order * datum.rank**2
        with np.load(weyl._cache_path(datum, tmp_path)) as data:
            matrices, charpolys, counts = data["matrices"], data["charpolys"], data["counts"]
        buckets = tuple(zip(map(tuple, charpolys.tolist()), counts.tolist()))
        assert _stack_digest(matrices) == E7_DIGESTS[0]
        assert hashlib.sha256(repr(buckets).encode()).hexdigest() == E7_DIGESTS[1]

    @pytest.mark.parametrize("name", ["E6", "A7", "B6"])
    def test_enumeration_holds_one_stack(self, name, traced_enumeration):
        # the stack, the sort's permutation and block-sized work arrays, not
        # a second stack
        group, peak = traced_enumeration(name)
        assert peak <= 1.75 * group.matrices.nbytes

    @pytest.mark.parametrize("name", TABLE_TYPES)
    def test_index_products_and_identity(self, name):
        group = _group(name)
        arr, n = group.matrices.astype(np.int64), group.order
        assert np.array_equal(group.index_of(arr), np.arange(n))
        prods = arr[:8, None] @ arr[None]
        assert np.array_equal(arr[group.index_of(prods)], prods)
        e = group.order - 1  # the identity is stored last
        assert np.array_equal(arr[e], np.eye(group.datum.rank))
        inverses = np.rint(np.linalg.inv(arr)).astype(np.int64)
        assert np.all(group.index_of(arr @ inverses) == e)

    @pytest.mark.parametrize("name", TABLE_TYPES + ["E6", "D6"])
    def test_stored_in_orbit_key_order(self, name):
        # an element's index is the rank of its key: w_0 (w_0*v = -v) first,
        # the identity (the highest orbit point v) last
        group = _group(name)
        v = group._v
        keys = weyl._pack(group.matrices.astype(np.int64) @ v, v)
        assert np.all(keys[1:] > keys[:-1])
        assert np.array_equal(group._keys, keys)
        assert np.array_equal(group.matrices[-1], np.eye(group.datum.rank))
        assert np.array_equal(group.matrices[0] @ v, -v)

    def test_key_width_below_int64(self):
        widths = {}
        for name in _types_below_hard_limit():
            datum = build_root_datum(name)
            v = weyl._regular_vector(datum)
            alpha = np.array(datum.cartan) @ v
            assert np.all(alpha > 0) and len(set(alpha.tolist())) == 1, name
            widths[name] = float(np.log2(2 * v + 1).sum())
        assert len(widths) == 29
        assert max(widths.values()) < 63
        assert max(widths, key=widths.get) == "E7" and round(widths["E7"], 1) == 47.1

    def test_regular_vector_from_positive_coroots(self):
        # the positive coroots sum to 2*rho-vee, so v is that sum, halved
        # when the half is integral
        for name in _types_below_hard_limit():
            datum = build_root_datum(name)
            coroots = rootdata._root_closure(tuple(zip(*datum.cartan)))[0]
            two_rho = np.sum(np.array(sorted(coroots), dtype=np.int64), axis=0)
            rho = [sum(col) for col in zip(*alcove_geometry(datum).coweights)]
            assert two_rho.tolist() == [2 * c for c in rho], name
            expected = two_rho if np.any(two_rho % 2) else two_rho // 2
            assert np.array_equal(weyl._regular_vector(datum), expected), name

    def test_index_rejects_non_elements(self):
        group = _group("B3")
        assert group.index_of(group.matrices[:5]).tolist() == [0, 1, 2, 3, 4]
        with pytest.raises(InvariantBreachError):
            group.index_of(2 * np.eye(3, dtype=np.int64))
        mats = group.matrices[:4].astype(np.int64)
        mats[2, 0, 0] += 1
        with pytest.raises(InvariantBreachError):
            group.index_of(mats)


class TestCosetProducts:
    @pytest.mark.parametrize("name,parabolic", [("E6", "D5"), ("E7", "E6"), ("E8", "E7")])
    def test_last_stage_counts_the_cosets(self, name, parabolic):
        # W(E_r) over the parabolic on nodes 1..r-1: 27, 56 and 240 cosets,
        # E8's without enumerating W(E8)
        datum = build_root_datum(name)
        reps = weyl._coset_representatives(datum, datum.rank)
        parabolic_order = build_root_datum(parabolic).lie_type.weyl_order
        assert len(reps) == datum.lie_type.weyl_order // parabolic_order
        assert len(reps) == {"E6": 27, "E7": 56, "E8": 240}[name]
        assert np.array_equal(reps[0], np.eye(datum.rank))
        # one representative per orbit point of the fundamental coweight
        coweight = alcove_geometry(datum).coweights[-1]
        scale = lcm(*(c.denominator for c in coweight))
        point = np.array([int(c * scale) for c in coweight])
        assert len({tuple(p) for p in (reps @ point).tolist()}) == len(reps)

    @staticmethod
    def _patched_last_stage(monkeypatch, change):
        real = weyl._coset_representatives

        def patched(datum, k):
            reps = real(datum, k)
            return change(reps) if k == datum.rank else reps

        monkeypatch.setattr(weyl, "_coset_representatives", patched)

    def test_repeated_representative_is_a_breach(self, monkeypatch):
        # the count stays |W|, but two cosets coincide
        self._patched_last_stage(monkeypatch, lambda reps: np.concatenate((reps[:-1], reps[-2:-1])))
        with pytest.raises(InvariantBreachError, match="two coset products are the same element"):
            _cold(build_root_datum("A5"))

    def test_dropped_representative_is_a_breach(self, monkeypatch):
        self._patched_last_stage(monkeypatch, lambda reps: reps[:-1])
        with pytest.raises(InvariantBreachError, match="give 600 elements, not [|]W[|] = 720"):
            _cold(build_root_datum("A5"))

    @pytest.mark.parametrize("block", [1, 7])
    def test_enumeration_independent_of_label_block(self, block, monkeypatch, tmp_path):
        # blocks smaller than W_3 = A3 put stage products past a block's start,
        # and in blocks of one row every consecutive pair straddles a boundary:
        # the same stack and buckets, enumerated or streamed into the cache
        monkeypatch.setattr(weyl, "_LABEL_BLOCK", block)
        monkeypatch.setattr(weyl, "_MEMO", {})
        datum = build_root_datum("A5")
        group = generate(datum)
        assert _stack_digest(group.matrices) == ENUMERATION_DIGESTS["A5"][0]
        assert hashlib.sha256(repr(group.charpoly_buckets).encode()).hexdigest() == (
            ENUMERATION_DIGESTS["A5"][1]
        )
        weyl._MEMO.clear()
        histogram = weyl.charpoly_histogram(datum, cache_dir=tmp_path)
        assert histogram.charpoly_buckets == group.charpoly_buckets
        assert np.array_equal(_cold(datum, cache_dir=tmp_path).matrices, group.matrices)

    def test_repeated_product_across_blocks_is_a_breach(self, monkeypatch):
        # in blocks of one row only the check across blocks can see it
        monkeypatch.setattr(weyl, "_LABEL_BLOCK", 1)
        self._patched_last_stage(monkeypatch, lambda reps: np.concatenate((reps[:-1], reps[-2:-1])))
        with pytest.raises(InvariantBreachError, match="two coset products are the same element"):
            _cold(build_root_datum("A5"))

    def test_product_outside_int8_is_a_breach(self, monkeypatch):
        self._patched_last_stage(monkeypatch, lambda reps: reps * 128)
        with pytest.raises(InvariantBreachError, match="a coset product leaves int8"):
            _cold(build_root_datum("A5"))


class TestConjugacyClasses:
    @pytest.mark.parametrize("name", TABLE_TYPES)
    def test_class_labels_brute_force(self, name):
        # the least index among the conjugates g^-1 w g over every g in W
        group = _group(name)
        arr = group.matrices.astype(np.int64)
        inverses = np.rint(np.linalg.inv(arr)).astype(np.int64)
        least = np.arange(group.order)
        for g in range(group.order):
            least = np.minimum(least, group.index_of(inverses[g] @ arr @ arr[g]))
        reps, _, ordinals = group._classes
        assert np.array_equal(reps[ordinals], least)

    @pytest.mark.parametrize("name", TABLE_TYPES)
    def test_reflection_permutations_from_keys(self, name):
        group = _group(name)
        arr = group.matrices.astype(np.int64)
        walls, left, right = group._walls
        r = group.datum.rank
        # one wall reflection per node: determinant -1 and trace r - 2
        assert walls.shape == (r + 1,)
        assert np.all(np.rint(np.linalg.det(arr[walls])) == -1)
        assert np.all(np.trace(arr[walls], axis1=1, axis2=2) == r - 2)
        for t, lp, rp in zip(arr[walls], left, right):
            assert np.array_equal(lp, group.index_of(t @ arr))
            assert np.array_equal(rp, group.index_of(arr @ t))

    def test_corrupt_orbit_image_breaches(self, monkeypatch):
        datum = build_root_datum("B3")
        group = _group("B3")
        fresh = weyl.WeylGroup(datum, group.matrices, group.charpoly_buckets)
        fresh._keys  # keys from the true images
        real = weyl._images

        def corrupted(stack, u):
            images = list(real(stack, u))
            images[0][5] = 0  # not in the orbit of a regular vector
            return images

        monkeypatch.setattr(weyl, "_images", corrupted)
        with pytest.raises(InvariantBreachError, match="orbit key"):
            fresh._classes

    @pytest.mark.parametrize("name,count", KNOWN_CLASS_COUNTS.items())
    def test_class_counts(self, name, count):
        group = _group(name)
        reps, sizes, ordinals = group._classes
        assert len(reps) == len(sizes) == count
        assert sum(sizes) == group.order
        assert ordinals.dtype == np.int32
        assert np.array_equal(ordinals[reps], np.arange(len(reps)))

    def test_components(self):
        perms = np.array([[1, 2, 0, 3, 5, 4], [0, 1, 2, 3, 4, 5]])
        reps, ordinals = weyl._components(perms, 6)
        assert reps.tolist() == [0, 3, 4] and ordinals.tolist() == [0, 0, 0, 1, 2, 2]
        reps, ordinals = weyl._components([], 3)
        assert reps.tolist() == [0, 1, 2] and ordinals.tolist() == [0, 1, 2]
        # one cycle through every index, so one orbit
        reps, ordinals = weyl._components([np.roll(np.arange(1000), -1)], 1000)
        assert reps.tolist() == [0] and ordinals.tolist() == [0] * 1000
        assert ordinals.dtype == np.int32

    def test_one_class_table(self):
        # the census reads the classes through the one table, int32 ordinals
        cached = _group("E6")
        group = weyl.WeylGroup(cached.datum, cached.matrices, cached.charpoly_buckets)
        cell_census(group, 2)
        assert "_class_labels" not in vars(group)
        assert vars(group)["_classes"][2].dtype == np.int32


class TestMolien:
    def test_a1_n2_exact(self):
        coeffs = molien_poincare(_group("A1"), 2, 10)
        assert coeffs == [1, 0, 1, 2, 0, 0, 0, 0, 0, 0, 0]

    @pytest.mark.parametrize("name", ["A2", "C2", "G2", "B3"])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_low_coefficients(self, name, n):
        coeffs = molien_poincare(_group(name), n, 4)
        assert coeffs[0] == 1 and coeffs[1] == 0
        assert coeffs[2] == comb(n, 2)
        assert min(coeffs) >= 0

    def test_polynomiality(self):
        # the series is a polynomial: coefficients beyond the dimension of the
        # commuting variety (n*r + 2*sum(d_i) - 2r) vanish
        coeffs = molien_poincare(_group("A1"), 3, 16)
        assert coeffs[10:] == [0] * 7
        coeffs = molien_poincare(_group("C2"), 2, 16)
        assert coeffs[13:] == [0] * 4
        assert any(c for c in coeffs[10:13])  # but it really has degree 12

    def test_series_byte_identical(self):
        series = [
            (name, n, max_deg, molien_poincare(_group(name), n, max_deg))
            for name in TABLE_TYPES + ["E6", "D6"]
            for n in range(1, 5)
            for max_deg in (0, 1, 2, 12, 24)
        ]
        assert hashlib.sha256(repr(series).encode()).hexdigest() == MOLIEN_DIGEST

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            molien_poincare(_group("A1"), 0, 3)

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 7, 8, 1000])
    def test_power_by_squaring(self, monkeypatch, n):
        calls = []

        def counted(p, q, trunc):
            calls.append(trunc)
            return pmul(p, q, trunc)

        pmul = weyl._pmul
        monkeypatch.setattr(weyl, "_pmul", counted)
        assert weyl._ppow([2, 0, -1], n, 3) == [2**n, 0, -n * 2 ** (n - 1) if n else 0, 0]
        calls.clear()
        assert weyl._ppow([1, 1], n, 6) == [comb(n, j) for j in range(7)]
        # a squaring per bit of n but the last and a product per set bit (15
        # at n = 1000), against n products multiplied out
        assert len(calls) == max(n.bit_length() - 1, 0) + bin(n).count("1")


class TestClassFunctions:
    @pytest.mark.parametrize("name", ["A1", "A3", "C2", "C3", "G2", "B3", "F4", "D4"])
    def test_irreducibility(self, name):
        assert irreducibility_check(_group(name)) == Fraction(1)

    @pytest.mark.parametrize("name", ["A1", "A2", "C3", "G2", "F4"])
    def test_euler_k1_is_contractible_quotient(self, name):
        assert euler_char_rep(_group(name), 1) == 1

    @pytest.mark.parametrize("name", ["A1", "A2", "C3", "G2", "F4", "D4"])
    def test_euler_k2_is_rank_plus_one(self, name):
        datum = build_root_datum(name)
        assert euler_char_rep(_group(name), 2) == datum.rank + 1


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: molien_poincare(_group("A2"), 1, -1), "max_deg must be >= 0"),
        (lambda: euler_char_rep(_group("A2"), 0), "k must be >= 1"),
        (lambda: cell_census(_group("A2"), 0), "k must be >= 1"),
        (
            lambda: double_cosets(
                _group("A2"),
                StabilizerSubgroup(_group("A1"), [0]),
                StabilizerSubgroup(_group("A2"), [0]),
            ),
            "subgroups must belong to the given Weyl group",
        ),
        (
            lambda: alcove_reduce(build_root_datum("A2"), [Fraction(1, 3)]),
            "expected a vector of length 2",
        ),
    ],
    ids=["molien_poincare", "euler_char_rep", "cell_census", "double_cosets", "alcove_reduce"],
)
def test_argument_out_of_range_is_refused(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def _with_buckets(name, buckets):
    """The enumerated group of type name, with another charpoly histogram."""
    return dataclasses.replace(_group(name), charpoly_buckets=buckets)


class TestSolomonIdentity:
    @pytest.mark.parametrize("name", TABLE_TYPES + ["E6"])
    def test_holds_for_the_enumerated_buckets(self, name):
        assert weyl._solomon_holds(_group(name))

    def test_fails_for_other_histograms(self, a2_rotation_buckets):
        assert not weyl._solomon_holds(_with_buckets("A2", a2_rotation_buckets))
        # x^2 - 3x + 1 has no root of unity as a root: no exact division
        assert not weyl._solomon_holds(_with_buckets("A2", (((1, -3, 1), 6),)))
        # det(w) = 2 is no Weyl element's
        assert not weyl._solomon_holds(_with_buckets("A2", (((2, 0, 1), 6),)))
        assert not weyl._solomon_holds(_with_buckets("C2", C2_QUARTER_TURNS_SWAPPED))

    def test_quotients_computed_once_per_group(self, monkeypatch, tmp_path):
        # a cold save, a warm load and four Molien sums on each group divide
        # prod(1 - x^d_i) by the buckets' det(1 - x*w) once per group
        computed = []
        prop = weyl.WeylGroup.__dict__["_coinvariant_quotients"]
        real = prop.func

        def counted(group):
            computed.append(group)
            return real(group)

        monkeypatch.setattr(prop, "func", counted)  # the class's own cache stays
        monkeypatch.setattr(weyl, "_MEMO", {})
        datum = build_root_datum("A5")
        cold = weyl.generate(datum, cache_dir=tmp_path)
        warm = weyl._load_cache(datum, tmp_path)
        for group in (cold, warm):
            for n in range(1, 5):
                molien_poincare(group, n, 12)
        assert computed == [cold, warm]


class TestClosedFormGates:
    # each function requires its closed form; a histogram that is not W's breaks it
    @pytest.fixture
    def fake(self, a2_rotation_buckets):
        return dataclasses.replace(_group("A2"), charpoly_buckets=a2_rotation_buckets)

    def test_molien_t2_is_n_choose_2(self, fake):
        assert molien_poincare(fake, 2, 1) == [1, 0]  # the gate starts at max_deg 2
        for max_deg in (2, 6):
            with pytest.raises(InvariantBreachError, match=r"^Poincare \[t\^2\] is not C\(n, 2\)$"):
                molien_poincare(fake, 2, max_deg)

    def test_molien_low_coefficients(self):
        # all of A2 at the identity: the sum is divisible and [t^0] = 1, but
        # [t^1] = 2; twice W's histogram gives [t^0] = 2
        fake = _with_buckets("A2", (((1, -2, 1), 6),))
        assert molien_poincare(fake, 1, 0) == [1]  # the [t^1] gate starts at max_deg 1
        doubled = _with_buckets("A2", tuple((p, 2 * c) for p, c in _group("A2").charpoly_buckets))
        for group, max_deg in ((fake, 1), (doubled, 0)):
            with pytest.raises(
                InvariantBreachError, match="^Poincare coefficients violate their invariants$"
            ):
                molien_poincare(group, 1, max_deg)

    def test_n1_series_is_the_poincare_series_of_g(self):
        # only the n = 1 gate fires: the sum is divisible, [t^0] = 1 and
        # [t^1] = [t^2] = 0, but [t^3] is not 1 (the degree 2 of C2)
        fake = dataclasses.replace(_group("C2"), charpoly_buckets=C2_QUARTER_TURNS_SWAPPED)
        assert molien_poincare(fake, 1, 2) == [1, 0, 0]
        message = "Poincare series at n = 1 is not prod(1 + t^(2d - 1))"
        with pytest.raises(InvariantBreachError, match=f"^{re.escape(message)}$"):
            molien_poincare(fake, 1, 3)

    def test_molien_quotients_are_exact(self, a2_non_cyclotomic_buckets):
        # the gate fires before any coefficient, so at every max_deg
        fake = dataclasses.replace(_group("A2"), charpoly_buckets=a2_non_cyclotomic_buckets)
        message = "a charpoly bucket's det(1 - x*w) does not divide prod(1 - x^d_i)"
        for max_deg in (0, 6):
            with pytest.raises(InvariantBreachError, match=f"^{re.escape(message)}$"):
                molien_poincare(fake, 2, max_deg)

    def test_powers_outside_exact_float32_are_a_breach(self):
        # 2 * 3000 * 3000 > 2^24, so the first power's check fails; no Weyl
        # matrix comes near it
        with pytest.raises(InvariantBreachError, match="^matrix powers leave the exact float32 range$"):
            weyl.charpoly_buckets(np.full((1, 2, 2), 3000, dtype=np.int64))

    def test_squared_traces_sum_to_the_order(self, fake):
        with pytest.raises(InvariantBreachError, match="sum of squared traces 12 is not"):
            irreducibility_check(fake)

    def test_euler_k2_is_rank_plus_one(self, fake):
        assert euler_char_rep(fake, 3) == 18  # the gate is at k = 2 only
        with pytest.raises(InvariantBreachError, match=r"at k = 2 is not rank \+ 1"):
            euler_char_rep(fake, 2)


class TestStabilizersAndCosets:
    def test_interior_stabilizer_trivial(self):
        for name in ("A2", "G2", "B3"):
            datum = build_root_datum(name)
            group = _group(name)
            geo = alcove_geometry(datum)
            stab = face_stabilizer(group, geo, FaceIndex.of(datum, []))
            assert stab.order == 1

    @pytest.mark.parametrize("name", TABLE_TYPES)
    def test_origin_stabilizer_full(self, name):
        datum = build_root_datum(name)
        group = _group(name)
        geo = alcove_geometry(datum)
        stab = face_stabilizer(group, geo, FaceIndex.of(datum, range(1, datum.rank + 1)))
        assert stab.indices == tuple(range(group.order))
        # the vertex omega_j-vee / n_j is a coweight when its root integer n_j
        # is 1, and W fixes every coweight modulo the coroot lattice
        for j in range(1, datum.rank + 1):
            if datum.theta[j - 1] == 1:
                vertex = FaceIndex.of(datum, set(range(datum.rank + 1)) - {j})
                assert face_stabilizer(group, geo, vertex).indices == tuple(range(group.order))

    def test_a1_vertex_stabilizer_full(self):
        datum = build_root_datum("A1")
        group = _group("A1")
        geo = alcove_geometry(datum)
        stab = face_stabilizer(group, geo, FaceIndex.of(datum, [0]))
        assert stab.order == 2

    def test_stabilizer_closed_under_product(self):
        datum = build_root_datum("G2")
        group = _group("G2")
        geo = alcove_geometry(datum)
        for nodes in ([1], [2], [0], [1, 2], [0, 2]):
            stab = face_stabilizer(group, geo, FaceIndex.of(datum, nodes))
            members = group.matrices[list(stab.indices)].astype(np.int64)
            assert group.order - 1 in stab.indices  # the identity
            products = group.index_of(members[:, None] @ members[None])
            assert np.isin(products, stab.indices).all()

    @pytest.mark.parametrize(
        "name",
        ["A1", "A2", "A3", "A4", "A5", "A6", "B2", "B3", "B4", "B5", "B6", "C3", "C5", "C6",
         "D4", "D5", "D6", "G2", "F4", "E6"],
    )
    def test_stabilizers_match_full_scan(self, name):
        # every coordinate of w*b - b checked at once over the whole stack
        datum = build_root_datum(name)
        group = _group(name)
        geo = alcove_geometry(datum)
        arr = group.matrices.astype(np.int64)
        for face in all_faces(datum):
            b = barycenter(geo, face)
            denom = lcm(*(c.denominator for c in b))
            vec = np.array([int(c * denom) for c in b], dtype=np.int64)
            expected = np.nonzero(((arr @ vec - vec) % denom == 0).all(1))[0]
            assert face_stabilizer(group, geo, face).indices == tuple(expected.tolist())

    @pytest.mark.parametrize("name", ["B4", "F4", "D5"])
    def test_stabilizers_independent_of_visit_order(self, name):
        # each face is decided on its own: vertices first on a fresh group
        # gives what the interior-first order gives
        datum = build_root_datum(name)
        group = _group(name)
        geo = alcove_geometry(datum)
        fresh = weyl.WeylGroup(datum, group.matrices, group.charpoly_buckets)
        faces = all_faces(datum)
        backwards = {f: face_stabilizer(fresh, geo, f).indices for f in reversed(faces)}
        assert all(face_stabilizer(group, geo, f).indices == backwards[f] for f in faces)

    def test_no_stabilizer_is_kept_on_the_group(self):
        # every D5 face asked for leaves the group its fields and the one
        # translation table, and nothing per face
        datum = build_root_datum("D5")
        group = _group("D5")
        fresh = weyl.WeylGroup(datum, group.matrices, group.charpoly_buckets)
        geo = alcove_geometry(datum)
        for face in all_faces(datum):
            face_stabilizer(fresh, geo, face)
        assert set(vars(fresh)) == {"datum", "matrices", "charpoly_buckets", "_translation_labels"}

    @pytest.mark.parametrize("name", TABLE_TYPES)
    def test_stabilizers_generated_by_wall_reflections(self, name):
        # a face's stabilizer is generated by the reflections s_j in its walls
        # (Bourbaki, Lie Groups V 3.3), j among the face's nodes
        datum = build_root_datum(name)
        group = _group(name)
        geo = alcove_geometry(datum)
        for face in all_faces(datum):
            stab = face_stabilizer(group, geo, face).indices
            gens = weyl._wall_reflections(datum)[list(face.sorted_nodes())]
            assert np.isin(group.index_of(gens), stab).all()
            reached, frontier = {group.order - 1}, [group.order - 1]  # from the identity
            while frontier:
                products = gens[:, None] @ group.matrices[frontier].astype(np.int64)[None]
                frontier = sorted(set(group.index_of(products).ravel().tolist()) - reached)
                reached.update(frontier)
            assert sorted(reached) == list(stab)

    @pytest.mark.parametrize("name", [lt.name for lt in _canonical_types(6)])
    def test_stabilizer_orders_from_the_diagram(self, name):
        # |stabilizer| = |W_J|, J the face's walls: the sub-Cartan matrix
        # (a_i(c_j)) for i, j in J, its exponents the partition dual to its
        # root counts by height, additive over the components; |W_J| = prod(e + 1)
        datum = build_root_datum(name)
        group = _group(name)
        geo = alcove_geometry(datum)
        a, c = np.array(datum.wall_functionals), np.array(datum.wall_coroots)
        for face in all_faces(datum):
            nodes = list(face.sorted_nodes())
            sub = tuple(map(tuple, (a[nodes] @ c[nodes].T).tolist()))
            heights = Counter(sum(r) for r in rootdata._root_closure(sub)[0])
            exps = [sum(n >= j for n in heights.values()) for j in range(1, len(nodes) + 1)]
            assert face_stabilizer(group, geo, face).order == prod(e + 1 for e in exps), face

    @pytest.mark.parametrize("name", TABLE_TYPES + ["E6"])
    def test_coweight_vertices_labelled_everywhere(self, name):
        # W fixes the origin and every minuscule coweight omega_j-vee (root
        # integer n_j = 1) modulo the coroot lattice, so v_k - w*v_k is a
        # lattice vector for every w
        datum = build_root_datum(name)
        labels = _group(name)._translation_labels
        assert labels.shape == (datum.rank + 1, datum.lie_type.weyl_order)
        coweights = [0] + [j for j in range(1, datum.rank + 1) if datum.theta[j - 1] == 1]
        assert (labels[coweights] >= 0).all()
        assert (labels[0] == 0).all()  # the origin's translation is 0, id 0
        others = [k for k in range(datum.rank + 1) if k not in coweights]
        assert all((labels[k] < 0).any() for k in others)

    def test_too_small_radix_is_a_breach(self, monkeypatch):
        datum = build_root_datum("F4")
        group = _group("F4")
        fresh = weyl.WeylGroup(datum, group.matrices, group.charpoly_buckets)
        keys = weyl._translation_keys
        monkeypatch.setattr(
            weyl,
            "_translation_keys",
            lambda block, scaled, denom, radix, work: keys(block, scaled, denom, 1, work),
        )
        with pytest.raises(InvariantBreachError, match="packing radix 1"):
            face_stabilizer(fresh, alcove_geometry(datum), FaceIndex.of(datum, [0, 1, 2, 3]))

    @pytest.mark.parametrize("per_vertex", [False, True])
    def test_labels_are_vertex_indices_under_distinct_keys(self, monkeypatch, per_vertex):
        # a distinct nonzero key per element, the same at every vertex or
        # distinct at each: every label is then the least vertex index 0, or
        # the row's own index k, so the 192 keys of D4 never reach the table,
        # which stays int8 within -1..r
        datum = build_root_datum("D4")
        group = _group("D4")
        monkeypatch.setattr(
            weyl,
            "_translation_keys",
            lambda block, scaled, *_: (weyl._pack(block @ group._v, group._v)[None] + 1)
            * (np.arange(len(scaled))[:, None] + 1 if per_vertex else np.ones((len(scaled), 1))),
        )
        labels = weyl.WeylGroup(datum, group.matrices, group.charpoly_buckets)._translation_labels
        assert labels.dtype == np.int8 and labels.shape == (datum.rank + 1, group.order)
        assert labels.min() >= -1 and labels.max() <= datum.rank
        rows = np.arange(datum.rank + 1)[:, None] if per_vertex else 0
        assert (labels == rows).all()

    @pytest.mark.parametrize("block", [1, 7, 4096])
    @pytest.mark.parametrize("name", ["B4", "F4", "D5"])
    def test_stabilizers_independent_of_label_block(self, name, block, monkeypatch):
        datum = build_root_datum(name)
        group = _group(name)
        geo = alcove_geometry(datum)
        faces = all_faces(datum)
        expected = [face_stabilizer(group, geo, f).indices for f in faces]
        monkeypatch.setattr(weyl, "_LABEL_BLOCK", block)
        fresh = weyl.WeylGroup(datum, group.matrices, group.charpoly_buckets)
        assert [face_stabilizer(fresh, geo, f).indices for f in faces] == expected

    def test_stabilizer_rejects_another_geometry(self):
        group = _group("B3")
        geo = alcove_geometry(build_root_datum("C3"))
        with pytest.raises(ValueError, match="another root datum"):
            face_stabilizer(group, geo, FaceIndex.of(group.datum, [1]))

    @pytest.mark.parametrize("other,nodes", [("A5", [5]), ("A5", [0, 1]), ("A1", [1])])
    @pytest.mark.parametrize("call", ["face_stabilizer", "lattice_quotient", "n_vee"])
    def test_face_of_another_rank_is_rejected(self, call, other, nodes):
        # a face of A5 or A1 is no face of A2's alcove
        datum = build_root_datum("A2")
        face = FaceIndex.of(build_root_datum(other), nodes)
        calls = {
            "face_stabilizer": lambda: face_stabilizer(_group("A2"), alcove_geometry(datum), face),
            "lattice_quotient": lambda: lattice_quotient(datum, face),
            "n_vee": lambda: n_vee(datum, face),
        }
        with pytest.raises(ValueError, match=f"face of rank {face.rank} is not a face of A2"):
            calls[call]()

    def test_double_coset_extremes(self):
        group = _group("C2")
        full = StabilizerSubgroup(group, np.arange(group.order))
        trivial = StabilizerSubgroup(group, [group.order - 1])  # the identity
        assert len(double_cosets(group, full, full)) == 1
        reps = double_cosets(group, trivial, trivial)
        assert len(reps) == group.order
        # each element is its own double coset, listed in index order
        assert reps == group.matrices.tolist()

    def test_double_cosets_partition(self):
        datum = build_root_datum("B3")
        group = _group("B3")
        geo = alcove_geometry(datum)
        h = face_stabilizer(group, geo, FaceIndex.of(datum, [1, 2]))
        k = face_stabilizer(group, geo, FaceIndex.of(datum, [0, 3]))
        reps = double_cosets(group, h, k)
        arr = group.matrices.astype(np.int64)
        hs, ks = arr[list(h.indices)], arr[list(k.indices)]
        covered = group.index_of(hs[:, None, None] @ np.array(reps)[None, :, None] @ ks[None, None])
        assert set(covered.ravel().tolist()) == set(range(group.order))

    def test_double_cosets_need_reflection_generated_subgroups(self):
        # the rotations of A2 contain no reflection, so the components under
        # H's wall reflections are single elements: 6 of them against 2 cosets H\W
        group = _group("A2")
        rotations = np.nonzero(np.rint(np.linalg.det(group.matrices)) == 1)[0]
        h = StabilizerSubgroup(group, tuple(rotations.tolist()))
        with pytest.raises(InvariantBreachError, match="double cosets"):
            double_cosets(group, h, StabilizerSubgroup(group, [group.order - 1]))


def _census_by_tuples(group, k):
    """The cell census with one Burnside term per face k-tuple, in Python ints."""
    faces = all_faces(group.datum)
    fixed = {
        f: weyl._fixed_coset_counts(group, weyl._stabilizer(group, f.nodes)).tolist()
        for f in faces
    }
    counts = [0] * (k * group.datum.rank + 1)
    for combo in product(faces, repeat=k):
        counts[sum(f.dim for f in combo)] += weyl._orbit_count(group, [fixed[f] for f in combo])
    return counts


class TestCellCensus:
    @pytest.mark.parametrize(
        "name, k",
        [
            (name, k)
            for name in ("A1", "A2", "A3", "A4", "B2", "B3", "B4", "C3", "G2")
            for k in (1, 2, 3)
        ]
        + [("A4", 4)],
    )
    def test_matches_per_tuple_count(self, name, k):
        group = _group(name)
        assert cell_census(group, k) == _census_by_tuples(group, k)

    @pytest.mark.parametrize("name, k", [("A1", 12), ("A4", 4)])
    def test_blocks_bound_memory(self, traced, name, k):
        # the group's tables are built at k = 1; above them the census holds
        # one block of class products and Burnside totals, whatever k is
        group = _group(name)
        cell_census(group, 1)
        _, peak = traced(cell_census, group, k)
        assert peak < 1_000_000

    def test_indivisible_total_exits_3(self, capsys, monkeypatch):
        # one more coset fixed by one class on the open alcove (stabilizer
        # {1}) makes the Burnside total of (alcove, alcove) 6^2 + |class|,
        # which 6 does not divide
        from liecomm.cli import main

        real = weyl._fixed_coset_counts

        def perturbed(group, members):
            counts = real(group, members)
            if len(members) == 1:
                counts = counts.copy()
                counts[1] += 1
            return counts

        monkeypatch.setattr(weyl, "_fixed_coset_counts", perturbed)
        code = main(["cells", "A2", "--k", "2"])
        out, err = capsys.readouterr()
        assert code == 3 and out == ""
        assert err == "liecomm: invariant breach: Burnside average is not an integer\n"

    @pytest.mark.parametrize(
        "name, steps, message",
        [
            # one coset moved, for the reflection, from the vertex on wall 1 to
            # the vertex on wall 0 leaves every P_c(t), so every census,
            # unchanged; only the pairwise table sees it: (v, v) has 2^2 + 1 = 5
            # fixed pairs, which 2 does not divide
            ("A1", {(0,): 1, (1,): -1}, "Burnside average is not an integer"),
            # |W| = 6 more cosets fixed by the class of w_0, a reflection, on the
            # open alcove keep every pairwise total divisible by 6, but move that
            # class's P_c(-1) from det(1 - w_0) = 0 to 6
            (
                "A2",
                {(): 6},
                "the class of element 0 fixes cells of Lefschetz number 6, but det(1 - w) = 0",
            ),
            # |W| = 2 more cosets fixed by the reflection on the open edge and on
            # the vertex on wall 0 keep the pairwise totals even and P_c(-1), but
            # the reflection then fixes open cells: the top count is 2^k, not 2^(k-1)
            ("A1", {(): 2, (0,): 2}, "the census's top count 8 is not |W|^(k-1) = 4"),
        ],
        ids=["pairwise", "lefschetz", "top-count"],
    )
    def test_perturbed_fixed_counts_exit_3(self, capsys, monkeypatch, name, steps, message):
        # each perturbation, of class 0's counts on the faces named by their
        # walls, passes every check before the one it targets
        from liecomm.cli import main

        real_stabilizer, real_counts, walls = weyl._stabilizer, weyl._fixed_coset_counts, {}

        def stabilizer(group, nodes):
            # the members are kept alive, so no other array takes their id
            members = real_stabilizer(group, nodes)
            walls[id(members)] = tuple(sorted(nodes)), members
            return members

        def perturbed(group, members):
            counts = real_counts(group, members).copy()
            counts[0] += steps.get(walls[id(members)][0], 0)
            return counts

        monkeypatch.setattr(weyl, "_stabilizer", stabilizer)
        monkeypatch.setattr(weyl, "_fixed_coset_counts", perturbed)
        code = main(["cells", name, "--k", "3"])
        out, err = capsys.readouterr()
        assert code == 3 and out == ""
        assert err == f"liecomm: invariant breach: {message}\n"

    def test_a1_k2(self):
        assert cell_census(_group("A1"), 2) == [4, 4, 2]

    def test_f4_k2_euler(self):
        counts = cell_census(_group("F4"), 2)
        assert sum((-1) ** d * c for d, c in enumerate(counts)) == 5

    @pytest.mark.parametrize("name", ["A2", "C2", "B3"])
    def test_orbit_counts_match_double_cosets(self, name):
        # the Burnside average counting cells over a face pair equals the
        # number of explicit double-coset representatives
        from liecomm.weyl import _fixed_coset_counts

        datum = build_root_datum(name)
        group = _group(name)
        geo = alcove_geometry(datum)
        sizes = np.array(group._classes[1])
        faces = all_faces(datum)[:5]
        for fa in faces:
            for fb in faces:
                sa = face_stabilizer(group, geo, fa)
                sb = face_stabilizer(group, geo, fb)
                fixed_a = _fixed_coset_counts(group, list(sa.indices))
                fixed_b = _fixed_coset_counts(group, list(sb.indices))
                burnside = int((sizes * fixed_a * fixed_b).sum())
                assert burnside % group.order == 0
                assert burnside // group.order == len(double_cosets(group, sa, sb))

    @pytest.mark.parametrize("name", ["A1", "A2", "C2", "G2", "B3"])
    def test_k1_counts_faces(self, name):
        datum = build_root_datum(name)
        counts = cell_census(_group(name), 1)
        assert sum(counts) == 2 ** (datum.rank + 1) - 1
        assert sum((-1) ** d * c for d, c in enumerate(counts)) == 1

    def test_k_bound_admits_its_equal(self, capsys):
        # A1 at k = CENSUS_MAX_K answers, with 2^(k-1) open cells; one more k exits 2
        from liecomm.cli import main

        k = weyl.CENSUS_MAX_K
        assert main(["cells", "A1", "--k", str(k)]) == 0
        counts = json.loads(capsys.readouterr().out)["counts_by_dim"]
        assert counts[-1] == 2 ** (k - 1) == sum((-1) ** d * c for d, c in enumerate(counts))
        assert main(["cells", "A1", "--k", str(k + 1)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"liecomm: k must lie in 1..{k}; no option raises this bound\n"

    @pytest.mark.parametrize("name", ["A2", "C2", "G2"])
    @pytest.mark.parametrize("k", [2, 3])
    def test_euler_identity(self, name, k):
        group = _group(name)
        counts = cell_census(group, k)
        assert sum((-1) ** d * c for d, c in enumerate(counts)) == euler_char_rep(group, k)


class TestAlcoveReduce:
    def test_fixed_point(self):
        datum = build_root_datum("A2")
        geo = alcove_geometry(datum)
        interior = barycenter(geo, FaceIndex.of(datum, []))
        point, w, q = alcove_reduce(datum, interior)
        assert point == interior
        assert w == tuple(tuple(1 if i == j else 0 for j in range(2)) for i in range(2))
        assert q == (0, 0)

    @pytest.mark.parametrize("name", TABLE_TYPES)
    def test_boundary_points_take_the_early_return(self, name, monkeypatch):
        # a vertex or face barycenter reduces to itself without a walk; moved
        # 1/1000 outward across one wall it lies on, it is walked back
        datum = build_root_datum(name)
        geo = alcove_geometry(datum)
        r = datum.rank
        identity = tuple(tuple(int(i == j) for j in range(r)) for i in range(r))
        walks = []
        real = weyl._separating_hyperplanes
        monkeypatch.setattr(
            weyl, "_separating_hyperplanes", lambda *args: walks.append(args) or real(*args)
        )
        points = list(geo.vertices) + [barycenter(geo, face) for face in all_faces(datum)]
        for p in points:
            assert alcove_reduce(datum, p) == (p, identity, (0,) * r)
        assert not walks
        for p in points:
            for j, height in enumerate(datum.wall_values(p)):
                if height:
                    continue
                moved = tuple(x - Fraction(c, 1000) for x, c in zip(p, datum.wall_coroots[j]))
                before = len(walks)
                point, _, _ = alcove_reduce(datum, moved)
                assert len(walks) == before + 1 and point != moved

    def test_rank_one_wall_reflection(self):
        # coordinate 0.7 in the alpha-vee basis reflects across the far wall to 0.3
        datum = build_root_datum("A1")
        point, w, q = alcove_reduce(datum, [Fraction(7, 10)])
        assert point == (Fraction(3, 10),)
        assert (w[0][0] * Fraction(7, 10) + q[0],) == point

    def test_negated_barycenter(self):
        datum = build_root_datum("G2")
        geo = alcove_geometry(datum)
        b = barycenter(geo, FaceIndex.of(datum, []))
        point, w, q = alcove_reduce(datum, [-c for c in b])
        assert min(datum.wall_values(point)) >= 0

    @given(st.tuples(st.fractions(max_denominator=8), st.fractions(max_denominator=8)))
    @settings(max_examples=40, deadline=None)
    def test_idempotence(self, x):
        datum = build_root_datum("C2")
        point, _, _ = alcove_reduce(datum, list(x))
        again, w, q = alcove_reduce(datum, point)
        assert again == point
        assert all(w[i][j] == (i == j) for i in range(2) for j in range(2))
        assert q == (0, 0)

    @given(
        st.tuples(st.fractions(max_denominator=6), st.fractions(max_denominator=6)),
        st.integers(0, 11),
        st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
    )
    @settings(max_examples=40, deadline=None)
    def test_orbit_constancy(self, x, widx, q):
        datum = build_root_datum("G2")
        group = _group("G2")
        w = group.matrices[widx].tolist()
        moved = tuple(
            sum(Fraction(w[i][j]) * x[j] for j in range(2)) + q[i] for i in range(2)
        )
        assert alcove_reduce(datum, moved)[0] == alcove_reduce(datum, x)[0]

    def test_pinned_reductions(self):
        # sha256 of repr of the results, as computed by the Fraction-matrix walk
        # that the scaled integer walk replaced
        rng = random.Random(11)
        results = []
        for name, count in (("E6", 3), ("E7", 3), ("E8", 3), ("F4", 4), ("G2", 4)):
            datum = build_root_datum(name)
            for _ in range(count):
                x = [Fraction(rng.randint(-20, 20), rng.randint(1, 12)) for _ in range(datum.rank)]
                results.append(alcove_reduce(datum, x))
        digest = hashlib.sha256(repr(results).encode()).hexdigest()
        assert digest == "3f76fa20612cac29b8f176d02f8326398faf28275ae865bcc83aeae9cfbe07ec"

    @pytest.mark.parametrize("bad", [float("inf"), float("-inf"), float("nan"), "1/0"])
    def test_non_rational_coordinates_rejected(self, bad):
        with pytest.raises(ValueError, match="finite rationals"):
            alcove_reduce(build_root_datum("A2"), [Fraction(1, 3), bad])

    def test_walk_length_gate(self):
        # the walk is checked against the root hyperplanes it must cross; a
        # datum that lost its positive roots counts none and breaches
        datum = build_root_datum("E8")
        x = [Fraction(-7, 3)] * 8
        assert min(datum.wall_values(alcove_reduce(datum, x)[0])) >= 0
        with pytest.raises(InvariantBreachError, match="0 root hyperplanes"):
            alcove_reduce(dataclasses.replace(datum, positive_roots=()), x)
