"""File formats and the command-line front end."""

import functools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ringcat.ablin import FinAbGroup
from ringcat import cli
from ringcat.anncat import anncat_axiom_check
from ringcat.cli import main
from ringcat.corpus import corpus, unital_homs
from ringcat.crossed import ESystemError, identity_esystem, validate_bimodule
from ringcat.extensions import enumerate_extensions
from ringcat.fileio import (
    ParseError,
    load_esystem,
    load_extension,
    load_module,
    load_ring,
    load_section,
    write_esystem,
    write_extension,
    write_module,
    write_ring,
    write_section,
)
from ringcat.rings import product_ring, zero_mult, zmod
from ringcat.transport import choose_section, reduce_esystem
from test_rings import upper_triangular_z2


@functools.cache
def _corpus():
    # Building the corpus takes seconds (mult_klein0's 256-element
    # bimultiplication ring), so this module builds it once.
    return corpus()


def by_name(name):
    return next(es for es in _corpus() if es.name == name)


def test_ring_file_round_trip(tmp_path):
    z4 = zmod(4)
    path = write_ring(z4, tmp_path / "z4.ring")
    back = load_ring(path)
    assert back.name == "z4" and back.unit == z4.unit
    assert np.array_equal(back.add, z4.add) and np.array_equal(back.mul, z4.mul)


def test_corpus_files_round_trip(tmp_path):
    for es in _corpus():
        back = load_esystem(write_esystem(es, tmp_path, stem=es.name))
        assert back.name == es.name
        assert np.array_equal(back.d.map, es.d.map)
        assert np.array_equal(back.theta_left, es.theta_left)
        assert np.array_equal(back.theta_right, es.theta_right)


def test_section_and_module_round_trip(tmp_path):
    es = by_name("double_2z8")
    sec = choose_section(es)
    back = load_section(write_section(sec, tmp_path / "s.sect"), es)
    assert np.array_equal(back.sigma, sec.sigma)
    assert np.array_equal(back.ftimes, sec.ftimes)
    rc = reduce_esystem(es)
    mod = load_module(write_module(rc.module, tmp_path / "m.mod"), rc.ring)
    assert np.array_equal(mod.add, rc.module.add)
    assert np.array_equal(mod.left, rc.module.left)
    assert mod.group.factors == rc.module.group.factors


def test_extension_round_trip(tmp_path):
    es = by_name("flat_z2")
    rc = reduce_esystem(es)
    psi = unital_homs(zmod(2), rc.ring)[0]
    ext = enumerate_extensions(es, psi.source, psi, rc=rc)[1]
    back = load_extension(write_extension(ext, tmp_path, stem="e1"))
    assert np.array_equal(back.ring.add, ext.ring.add)
    assert np.array_equal(back.ring.mul, ext.ring.mul)
    assert back.ring.unit == ext.ring.unit
    assert np.array_equal(back.eps.map, ext.eps.map)


def test_parse_errors_cite_position(tmp_path):
    cases = [
        ("rng x\n", "1:1: expected keyword 'ring', found 'rng'"),
        ("ring x\norder two\n", "2:7: expected order, found 'two'"),
        ("ring x\norder 2\nadd\n0 1\n1 9\n", "5:3: add entry 9 out of range [0, 2)"),
        ("ring x\norder 2\nadd\n0 1\n", "4:1: expected add entry, found end of file"),
        (
            "ring x\norder 1\nadd\n0\nmul\n0\nunit none\nextra",
            "8:1: unexpected trailing token 'extra'",
        ),
    ]
    for i, (content, suffix) in enumerate(cases):
        p = tmp_path / f"bad{i}.ring"
        p.write_text(content)
        with pytest.raises(ParseError) as e:
            load_ring(p)
        assert str(e.value) == f"{p}:{suffix}"
        assert e.value.line == int(suffix.split(":")[0])


@pytest.mark.parametrize(
    "content, suffix",
    [
        ("ring x\norder 3\nadd # 7 8\n0 1 2\n1\t2 0\n2 0 x1\n",
         "6:5: expected add entry, found 'x1'"),
        ("ring x\norder 2\nadd\n0 1\n1\t 5\n", "5:4: add entry 5 out of range [0, 2)"),
        ("ring x\norder 2\nadd\n0 1\n1 99999999999999999999\n",
         "5:3: add entry 99999999999999999999 out of range [0, 2)"),
        # int() reads other digits too.
        ("ring x\norder 2\nadd\n0 1\n1 \u0663\n", "5:3: add entry 3 out of range [0, 2)"),
        ("ring x\norder 2\nadd\n0 1\n1\n\n", "6:1: expected add entry, found end of file"),
    ],
)
def test_table_errors_cite_position(tmp_path, content, suffix):
    p = tmp_path / "bad.ring"
    p.write_text(content, encoding="utf-8")
    with pytest.raises(ParseError) as e:
        load_ring(p)
    assert str(e.value) == f"{p}:{suffix}"


def test_table_entries_are_read_as_int_reads_them(tmp_path):
    p = tmp_path / "signs.ring"
    p.write_text("ring x\norder 2\nadd\n0 +1\n1 0_0\nmul\n0000000000000000000 0\n0 -0\nunit none\n")
    r = load_ring(p)
    assert r.add.tolist() == [[0, 1], [1, 0]] and not r.mul.any()


# ---------------------------------------------------------------------------
# CLI.  main() returns the exit code and prints the report to stdout.


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("corpus")
    assert main(["corpus", "--out", str(d)]) == 0
    return d


def test_cli_validate_ring(corpus_dir, capsys):
    assert main(["validate", "ring", str(corpus_dir / "id_z4_B.ring")]) == 0
    out = capsys.readouterr().out
    assert "order: 4" in out and "status: valid" in out


def test_cli_validate_errors(tmp_path, capsys):
    bad = tmp_path / "bad.ring"
    bad.write_text("ring x\norder 2\nadd\n0 1\n")
    assert main(["validate", "ring", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "bad.ring:4:1" in err
    bad.write_text("ring x\norder 2\nadd\n0 1\n1 0\nmul\n0 1\n0 0\nunit none\n")
    assert main(["validate", "ring", str(bad)]) == 1
    out = capsys.readouterr().out
    assert "status: invalid" in out and "mul-associative" in out
    assert main(["validate", "ring", str(tmp_path / "missing.ring")]) == 2


def test_cli_bimult_guard_is_a_resource_error(tmp_path, capsys):
    path = write_ring(zmod(17), tmp_path / "z17.ring")
    assert main(["bimult", "enumerate", str(path)]) == 2
    err = capsys.readouterr().err
    assert err == "error: 17 ring elements for bimultiplication enumeration, over the guard 16\n"


def test_cli_bimult_pair_scan_guard_is_a_resource_error(tmp_path, capsys):
    # The zero ring on Z/2 x Z/2 x Z/4 has 1024 left and 1024 right
    # multiplications, over the 10**6 guard on candidate pairs.
    r = product_ring(zero_mult(2), product_ring(zero_mult(2), zero_mult(4)), name="z2z2z4_zero")
    path = write_ring(r, tmp_path / "r.ring")
    assert main(["bimult", "enumerate", str(path)]) == 2
    assert "1048576 candidate bimultiplications" in capsys.readouterr().err


def test_cli_reports_the_first_failing_ring_law(tmp_path, capsys):
    # 0 * 1 = 1 breaks right distributivity, so mul-associative, reported
    # first, is scanned in full: (1 * 0) * 1 = 1 but 1 * (0 * 1) = 0.
    path = tmp_path / "bad_axiom.ring"
    path.write_text("ring x\norder 2\nadd\n0 1\n1 0\nmul\n0 1\n0 0\nunit none\n")
    assert main(["validate", "ring", str(path)]) == 1
    assert capsys.readouterr().out == "status: invalid\nerror: mul-associative fails at (1, 0, 1)\n"


def test_cli_reports_a_missing_additive_inverse(tmp_path, capsys):
    # 1 + 1 = 1 and 1 + 0 = 1: the element 1 has no negative.
    path = tmp_path / "no_inverse.ring"
    path.write_text("ring x\norder 2\nadd\n0 1\n1 1\nmul\n0 0\n0 0\nunit none\n")
    assert main(["validate", "ring", str(path)]) == 1
    assert capsys.readouterr().out == "status: invalid\nerror: add-inverse fails at (1,)\n"


def test_cli_internal_error_exits_3(monkeypatch, capsys):
    def broken(args, rep):
        raise AssertionError("invariant broken")

    monkeypatch.setattr(cli, "cmd_corpus", broken)
    assert main(["corpus"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: internal: invariant broken\n"


# 1 + 1 = 1, so the addition is not a group: (1 + 2) + 2 = 0 but 1 + (2 + 2) = 1.
NOT_A_GROUP = [[0, 1, 2], [1, 1, 2], [2, 2, 0]]


def write_not_a_group_module(tmp_path) -> Path:
    rows = "\n".join(" ".join(map(str, r)) for r in NOT_A_GROUP)
    path = tmp_path / "bad.mod"
    path.write_text(
        f"module bad\norder 3\nadd\n{rows}\n"
        "left\n0 0 0\n0 1 2\nright\n0 0 0\n0 1 2\n"
    )
    return path


def test_load_module_checks_the_group_first(tmp_path):
    with pytest.raises(ESystemError) as e:
        load_module(write_not_a_group_module(tmp_path), zmod(2))
    identity = [[0, 0, 0], [0, 1, 2]]
    with pytest.raises(ESystemError) as direct:
        validate_bimodule(zmod(2), FinAbGroup((3,)), NOT_A_GROUP, [0, 2, 1],
                          identity, identity, [[0], [1], [2]])
    assert (e.value.condition, e.value.witness) == ("group-add-associative", (1, 2, 2))
    assert (e.value.condition, e.value.witness) == (direct.value.condition, direct.value.witness)


@pytest.mark.parametrize("verb", [["cohom", "h2"], ["validate", "module"]])
def test_cli_module_that_is_not_a_group_is_invalid(tmp_path, verb):
    # In a subprocess with a timeout: the loader used to spin forever here.
    ring = write_ring(zmod(2), tmp_path / "z2.ring")
    mod = write_not_a_group_module(tmp_path)
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "ringcat.cli", *verb, str(ring), str(mod)],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 1
    assert proc.stdout == "status: invalid\nerror: group-add-associative fails at (1, 2, 2)\n"



def test_cli_closed_stdout_is_an_io_error(corpus_dir):
    # stdout is a pipe whose reading end is closed before the verb prints,
    # as when `ringcat ... | head -2` has stopped reading: exit 2 with one
    # line on stderr, no traceback and no complaint at interpreter exit.
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "ringcat.cli", "bimult", "enumerate",
             str(corpus_dir / "mult_klein0_B.ring")],
            env=dict(os.environ, PYTHONPATH=path), stdout=write_end, stderr=subprocess.PIPE,
            text=True, timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 2
    assert proc.stderr == "error: [Errno 32] Broken pipe\n"

def write_regular_module(r, path) -> Path:
    """r acting on its own additive group by multiplication."""
    def rows(t):
        return "\n".join(" ".join(map(str, row)) for row in t.tolist())

    path.write_text(f"module self\norder {r.order}\nadd\n{rows(r.add)}\n"
                    f"left\n{rows(r.mul)}\nright\n{rows(r.mul.T)}\n")
    return path


def test_cli_cohom_h2_guard_is_a_resource_error(tmp_path, capsys):
    # Degree 2 of Z/2 acting on itself needs 2 coordinates.
    ring = write_ring(zmod(2), tmp_path / "z2.ring")
    mod = write_regular_module(zmod(2), tmp_path / "z2.mod")
    assert main(["--guard", "1", "cohom", "h2", str(ring), str(mod)]) == 2
    assert capsys.readouterr().err == "error: 2 degree 2 coordinates, over the guard 1\n"


def test_cli_cohom_h2_overflow_is_a_resource_error(tmp_path, capsys):
    # Z/6 acting on itself fits the coordinate guard (525 degree-3
    # coordinates), but the Smith normal form of its d2 block leaves int64.
    ring = write_ring(zmod(6), tmp_path / "z6.ring")
    mod = write_regular_module(zmod(6), tmp_path / "z6.mod")
    assert main(["cohom", "h2", str(ring), str(mod)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: Smith normal form: entry ") and "leaves int64" in err


def cohom_h2_in_a_subprocess(r, tmp_path):
    """`ringcat cohom h2` on r acting on itself, in a subprocess with a
    timeout, so that a guard that does not trip fails the test instead of
    running on."""
    ring = write_ring(r, tmp_path / "r.ring")
    mod = write_regular_module(r, tmp_path / "r.mod")
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-m", "ringcat.cli", "cohom", "h2", str(ring), str(mod)],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, timeout=60,
    )


def test_cli_cohom_h2_keeps_the_library_coordinate_guard(tmp_path):
    # With the guard widened, the CLI would go on to reduce an 11172 x
    # 11564 system.
    proc = cohom_h2_in_a_subprocess(zmod(15), tmp_path)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "error: 11172 degree 3 coordinates, over the guard 10000" in proc.stderr


def test_cli_cohom_h2_guards_the_smith_normal_form(tmp_path):
    # The upper-triangular 2x2 matrices over Z/2 fit the coordinate guard
    # (4263 degree-3 coordinates), but the Smith normal form of its
    # 4263 x 4557 block would hold 9.7e7 cells in s, u, v and both
    # inverses: without its guard, h2 grew past 1 GB for minutes.
    proc = cohom_h2_in_a_subprocess(upper_triangular_z2(), tmp_path)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "error: 97305327 Smith normal form cells, over the guard 10000000\n"


def test_cli_unknown_verb_usage():
    with pytest.raises(SystemExit) as e:
        main(["frobnicate"])
    assert e.value.code == 2


def test_cli_convert(corpus_dir, capsys):
    assert main(["convert", str(corpus_dir / "double_2z8.esys")]) == 0
    assert "round trip: identity" in capsys.readouterr().out
    assert main(["convert", str(corpus_dir / "mult_klein0.esys")]) == 1
    assert "not-regular" in capsys.readouterr().out


def test_cli_ext_enum_report(corpus_dir, capsys):
    argv = [
        "ext", "enum", str(corpus_dir / "flat_z2.esys"),
        "--q", str(corpus_dir / "flat_z2_D.ring"), "--psi", "id",
    ]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "classes: 2" in out
    assert "class[0]: order 4 unit 2 max additive order 2" in out
    assert "class[1]: order 4 unit 2 max additive order 4" in out
    # byte-identical on a second run
    assert main(argv) == 0
    assert capsys.readouterr().out == out


def test_cli_cohom_h2(corpus_dir, tmp_path, capsys):
    es = by_name("flat_z2")
    rc = reduce_esystem(es)
    mod_path = write_module(rc.module, tmp_path / "m-id.mod", name="m_id")
    code = main(["cohom", "h2", str(corpus_dir / "flat_z2_D.ring"), str(mod_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "order: 2" in out and "invariant factors: [2]" in out
    main(["--format", "tsv", "cohom", "h2",
          str(corpus_dir / "flat_z2_D.ring"), str(mod_path)])
    assert "order\t2" in capsys.readouterr().out


def test_cli_cohom_obstruct(corpus_dir, capsys):
    assert main(["cohom", "obstruct", str(corpus_dir / "mult_2z8.esys"),
                 "--psi", "id"]) == 1
    assert "obstruction: nonvanishing" in capsys.readouterr().out
    assert main(["cohom", "obstruct", str(corpus_dir / "mult_2z8.esys"),
                 "--q", str(corpus_dir / "flat_z2_D.ring"), "--psi", "0:0,1:2"]) == 0
    out = capsys.readouterr().out
    assert "obstruction: vanishes" in out and "classes: 2" in out



def test_cli_psi_rejects_a_negative_or_repeated_source(corpus_dir, capsys):
    # -1 would wrap around to the last element, a repeated source would
    # keep its last pair, and a target past int64 does not fit the map.
    # Targets outside the quotient's image ring name their pair too: 5 is
    # past both Z/2 and the order-4 cokernel of mult_2z8, -1 before them.
    big = "1:99999999999999999999"
    for psi, part in (("0:0,-1:1", "-1:1"), ("0:0,1:0,1:1", "1:1"), (f"0:0,{big}", big),
                      ("0:0,1:5", "1:5"), ("0:0,1:-1", "1:-1")):
        assert main(["cohom", "obstruct", str(corpus_dir / "mult_2z8.esys"),
                     "--q", str(corpus_dir / "flat_z2_D.ring"), "--psi", psi]) == 2
        assert f"<psi>:0:0: bad psi pair '{part}'" in capsys.readouterr().err
        with pytest.raises(ParseError, match=f"bad psi pair '{part}'"):
            cli._parse_psi(psi, zmod(2), zmod(2))


def test_cli_cohom_obstruct_with_a_lattice_index_past_int64(corpus_dir, tmp_path, capsys):
    # A lattice index on this route is 3^44, past 2^63: its product must be
    # exact for the subgroup order check to pass.
    q = write_ring(zmod(6), tmp_path / "z6.ring")
    assert main(["cohom", "obstruct", str(corpus_dir / "flat_z3.esys"), "--q", str(q),
                 "--psi", "0:0,1:1,2:2,3:0,4:1,5:2"]) == 0
    out = capsys.readouterr().out
    assert "obstruction: vanishes" in out and "classes: 3" in out

def test_cli_ext_equiv(corpus_dir, tmp_path, capsys):
    es = by_name("flat_z2")
    rc = reduce_esystem(es)
    psi = unital_homs(zmod(2), rc.ring)[0]
    e0, e1 = enumerate_extensions(es, psi.source, psi, rc=rc)
    write_extension(e0, tmp_path / "x", stem="a")
    write_extension(e0, tmp_path / "x", stem="b")
    write_extension(e1, tmp_path / "x", stem="c")
    assert main(["ext", "equiv", str(tmp_path / "x/a.ext"), str(tmp_path / "x/b.ext")]) == 0
    out = capsys.readouterr().out
    assert "equivalent: yes" in out and "map: 0 1 2 3" in out
    assert main(["ext", "equiv", str(tmp_path / "x/a.ext"), str(tmp_path / "x/c.ext")]) == 1
    assert "equivalent: no" in capsys.readouterr().out
    code = main(["--guard", "1", "ext", "equiv",
                 str(tmp_path / "x/a.ext"), str(tmp_path / "x/b.ext")])
    assert code == 2
    assert "over the guard" in capsys.readouterr().err


def test_cli_anncat_and_reduce(corpus_dir, capsys):
    assert main(["anncat", "check", str(corpus_dir / "flat_z2.esys")]) == 0
    assert "status: pass" in capsys.readouterr().out
    assert main(["reduce", str(corpus_dir / "flat_z2.esys")]) == 0
    out = capsys.readouterr().out
    assert "ring invariant factors: [2]" in out
    assert "k xi: 0 0 0 0 0 0 0 0" in out


def test_cli_reduce_non_regular_is_invalid(corpus_dir, capsys):
    assert main(["reduce", str(corpus_dir / "mult_klein0.esys")]) == 1
    assert capsys.readouterr().out == (
        "status: invalid\nerror: not-regular fails at ('permutability', (16, 2, 2))\n"
    )


def test_cli_anncat_check_proves_tensor_cod_on_the_identity_system_of_z64(tmp_path, capsys):
    # Its 64^4 tensor-cod cells are over the 10^7 guard.  The law is proved
    # from lower-arity identities, so the check no longer stops with
    # "16777216 tensor-cod grid cells, over the guard 10000000".
    path = write_esystem(identity_esystem(zmod(64)), tmp_path, stem="id_z64")
    assert main(["anncat", "check", str(path)]) == 0
    out = capsys.readouterr().out
    assert "\ntensor-cod: ok\n" in out and out.endswith("\nstatus: pass\n")
    report = anncat_axiom_check(load_esystem(path)).describe()
    assert "  tensor-cod: ok (16777216 instances)\n" in report


def test_cli_anncat_check_klein_multiplier(corpus_dir, capsys):
    assert main(["anncat", "check", str(corpus_dir / "mult_klein0.esys")]) == 1
    out = capsys.readouterr().out
    assert "tensor-associative: FAIL at (16, 0, 1, 0, 0, 8)" in out
    assert "status: fail" in out


def test_cli_bimult_enumerate(corpus_dir, capsys):
    assert main(["bimult", "enumerate", str(corpus_dir / "flat_z2_B.ring")]) == 0
    out = capsys.readouterr().out
    assert "count: 4" in out and "bimult[3]: 0 1 | 0 1" in out


def test_cli_corpus_listing(capsys):
    assert main(["corpus"]) == 0
    out = capsys.readouterr().out
    assert "mult_klein0: base 4 target 256 regular no" in out
    assert out.count("regular yes") == 13


# ---------------------------------------------------------------------------
# A verb is mostly interpreter start-up, so each one imports only the layers
# it calls.  Each verb below runs in a fresh interpreter that then prints
# the ringcat modules it has loaded; a new module-level import fails here.

BASE_LAYERS = {"ablin", "rings", "fileio", "cli"}
ALL_LAYERS = BASE_LAYERS | {
    "bimult", "crossed", "anncat", "transport", "cohomology", "extensions", "corpus",
}

LOADED_LAYERS = """
import sys
from ringcat.cli import main
code = main(sys.argv[1:])
print(" ".join(sorted(m.split(".")[1] for m in sys.modules if m.startswith("ringcat."))))
sys.exit(code)
"""


def layers_loaded(code: str, *argv, cwd=None) -> tuple[int, set[str]]:
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv], cwd=cwd,
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, timeout=60,
    )
    return proc.returncode, set(proc.stdout.splitlines()[-1].split())


@pytest.mark.parametrize("argv, layers", [
    (["validate", "ring", "id_z4_B.ring"], BASE_LAYERS),
    (["bimult", "enumerate", "flat_z2_B.ring"], BASE_LAYERS | {"bimult"}),
    (["convert", "double_2z8.esys"], BASE_LAYERS | {"bimult", "crossed"}),
    (["anncat", "check", "flat_z2.esys"], BASE_LAYERS | {"bimult", "crossed", "anncat"}),
    (["cohom", "h2", "z2.ring", "z2.mod"],
     BASE_LAYERS | {"bimult", "crossed", "cohomology"}),
    (["reduce", "flat_z2.esys"], ALL_LAYERS - {"extensions", "corpus"}),
    (["cohom", "obstruct", "mult_2z8.esys", "--psi", "id"], ALL_LAYERS - {"corpus"}),
], ids=lambda a: " ".join(a) if isinstance(a, list) else None)
def test_each_verb_loads_only_the_layers_it_calls(corpus_dir, argv, layers):
    write_ring(zmod(2), corpus_dir / "z2.ring")
    write_regular_module(zmod(2), corpus_dir / "z2.mod")
    code, loaded = layers_loaded(LOADED_LAYERS, *argv, cwd=corpus_dir)
    assert code in (0, 1)
    assert loaded == layers


def test_file_formats_load_the_upper_layers_on_demand():
    code, loaded = layers_loaded(
        "import sys, ringcat.fileio\n"
        "print(' '.join(m.split('.')[1] for m in sys.modules if m.startswith('ringcat.')))")
    assert code == 0
    assert loaded == {"ablin", "rings", "fileio"}
