"""Exit codes, report formats and determinism of the command line."""
import json
import os
import pathlib
import random
import subprocess
import sys

import pytest

from operad_forge import cli
from operad_forge import ftalgebra as FT
from operad_forge import graded as G


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def cyclic_doc():
    V = G.rich_space(4)
    f3 = FT.make_map("cyclic_ainfty", V, None, FT.CyclicKey(3),
                     {(0, 0, 0): G.Fraction(-1)})
    data = FT.AlgebraData(kind="cyclic_ainfty", space=V,
                          maps={FT.CyclicKey(3): f3})
    return FT.algebra_to_json(data)


def test_committed_cyclic_file_is_cyclic_doc():
    """CI runs the console script on ``tests/data/cyclic_m3.json``, the
    passing algebra that ``cyclic_doc`` builds."""
    path = pathlib.Path(__file__).parent / "data" / "cyclic_m3.json"
    assert json.loads(path.read_text()) == cyclic_doc()


@pytest.fixture()
def cyclic_file(tmp_path):
    path = tmp_path / "cyclic.json"
    path.write_text(json.dumps(cyclic_doc()))
    return path


@pytest.fixture()
def broken_cyclic_file(tmp_path):
    V = G.rich_space(4)
    rng = random.Random(23)
    f3 = FT.make_map("cyclic_ainfty", V, None, FT.CyclicKey(3),
                     {(0, 0, 0): G.Fraction(-1)})
    f4 = FT.random_invariant_map(rng, "cyclic_ainfty", V, None,
                                 FT.CyclicKey(4), density=1.0)
    data = FT.AlgebraData(kind="cyclic_ainfty", space=V,
                          maps={FT.CyclicKey(3): f3, FT.CyclicKey(4): f4})
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(FT.algebra_to_json(data)))
    return path


class TestVerifyOperad:
    def test_passes(self, capsys):
        code, out, _ = run(capsys, "verify-operad", "--kind", "qo",
                           "--max-n", "3", "--max-genus2", "4")
        assert code == 0
        assert "all axioms hold" in out

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "verify-operad", "--kind", "qc",
                           "--max-n", "4", "--max-genus2", "4",
                           "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["passed"] and doc["checked"] > 0
        assert doc == json.loads(json.dumps(doc))

    def test_unknown_kind(self, capsys):
        with pytest.raises(SystemExit):
            run(capsys, "verify-operad", "--kind", "bogus")

    def test_extension_flag(self, capsys):
        code, out, _ = run(capsys, "verify-operad", "--kind", "qoc",
                           "--max-n", "2", "--max-genus2", "2",
                           "--allow-unstable-extension")
        assert code == 0

    def test_loads_only_the_verifier(self):
        """In a fresh interpreter, ``verify-operad`` imports none of the
        graded-space, algebra, BV and endomorphism modules."""
        script = (
            "import sys\n"
            "from operad_forge import cli\n"
            "code = cli.main(['verify-operad', '--kind', 'qo', '--max-n', '3',"
            " '--max-genus2', '2'])\n"
            "print(code, [m for m in ('operad_forge.bv', 'operad_forge.ftalgebra',"
            " 'operad_forge.endo', 'operad_forge.graded') if m in sys.modules])\n"
        )
        src = str(pathlib.Path(cli.__file__).parents[1])
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        out = subprocess.run([sys.executable, "-c", script], capture_output=True,
                             text=True, check=True, env={**os.environ, "PYTHONPATH": path})
        assert out.stdout.splitlines()[-1] == "0 []"


class TestCheckAlgebra:
    def test_valid_file_passes(self, capsys, cyclic_file):
        code, out, _ = run(capsys, "check-algebra", "--input", str(cyclic_file),
                           "--max-n", "5", "--max-genus2", "0")
        assert code == 0
        assert "all residuals vanish" in out

    def test_broken_file_fails_with_location(self, capsys, broken_cyclic_file):
        code, out, _ = run(capsys, "check-algebra", "--input",
                           str(broken_cyclic_file), "--max-n", "5",
                           "--max-genus2", "0")
        assert code == 1
        assert "nonzero residual" in out

    def test_symmetry_violating_file(self, capsys, tmp_path):
        V = G.rich_space(4)
        doc = {
            "kind": "cyclic_ainfty",
            "space": G.space_to_json(V),
            "maps": [{"key": {"n": 3},
                      "entries": [{"index": [0, 1, 2], "value": "1"}]}],
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "check-algebra", "--input", str(path))
        assert code == 2
        assert "stabilizer" in err

    @pytest.mark.parametrize("field", ["map", "genus"])
    def test_unknown_field(self, capsys, tmp_path, field):
        """A misspelled "maps" would read as the zero algebra, which passes,
        and an extra key field would be dropped: both are malformed input."""
        doc = cyclic_doc()
        if field == "map":
            doc["map"] = doc.pop("maps")
        else:
            doc["maps"][0]["key"]["genus"] = 7
        path = tmp_path / "unknown.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "check-algebra", "--input", str(path))
        assert code == 2
        assert out == ""
        assert f"unknown field '{field}'" in err and "Traceback" not in err

    def test_malformed_json(self, capsys, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("{not json")
        code, _, _ = run(capsys, "check-algebra", "--input", str(path))
        assert code == 2

    def test_deterministic_output(self, capsys, cyclic_file):
        _, out1, _ = run(capsys, "check-algebra", "--input", str(cyclic_file),
                         "--format", "json")
        _, out2, _ = run(capsys, "check-algebra", "--input", str(cyclic_file),
                         "--format", "json")
        assert out1 == out2


class TestMasterEq:
    def test_raw_and_sprime_pass(self, capsys, cyclic_file):
        for form in ("raw", "sprime"):
            code, out, _ = run(capsys, "master-eq", "--input", str(cyclic_file),
                               "--form", form)
            assert code == 0, (form, out)

    def test_raw_fails_on_broken(self, capsys, broken_cyclic_file):
        code, out, _ = run(capsys, "master-eq", "--input",
                           str(broken_cyclic_file), "--form", "raw")
        assert code == 1

    def test_herbst_requires_vanishing_differential(self, capsys, tmp_path):
        V = G.rich_space(4, with_differential=True)
        data = FT.random_algebra("quantum_ainfty", V, 3, 2, random.Random(2))
        path = tmp_path / "q.json"
        path.write_text(json.dumps(FT.algebra_to_json(data)))
        code, _, err = run(capsys, "master-eq", "--input", str(path),
                           "--form", "herbst")
        assert code == 2

    @pytest.mark.parametrize("kind, with_differential, max_n", [
        ("loop", False, 3),
        ("cyclic_ainfty", False, 4),
        ("loop", False, 0),  # no maps: the kind alone is wrong
        ("quantum_ainfty", True, 0),  # no maps: the differential is nonzero
    ])
    def test_herbst_rejects_unsuitable_file(self, capsys, tmp_path, kind,
                                            with_differential, max_n):
        V = G.rich_space(4, with_differential=with_differential)
        data = FT.random_algebra(kind, V, max_n, 2, random.Random(5))
        assert bool(data.maps) == (max_n > 0)
        path = tmp_path / "unsuitable.json"
        path.write_text(json.dumps(FT.algebra_to_json(data)))
        code, out, err = run(capsys, "master-eq", "--input", str(path),
                             "--form", "herbst")
        assert code == 2
        assert out == ""
        assert err.strip() and "Traceback" not in err

    def test_sprime_kind_mismatch(self, capsys, tmp_path):
        V = G.rich_space(2)
        data = FT.random_algebra("quantum_ainfty", V, 3, 2, random.Random(3))
        path = tmp_path / "q2.json"
        path.write_text(json.dumps(FT.algebra_to_json(data)))
        code, _, err = run(capsys, "master-eq", "--input", str(path),
                           "--form", "sprime")
        assert code == 2


class TestDualTable:
    def test_text_listing(self, capsys):
        code, out, _ = run(capsys, "dual-table", "--kind", "ass", "--n", "4",
                           "--genus2", "0")
        assert code == 0
        assert "gluing adjoint: 4 terms" in out

    def test_unstable_component(self, capsys):
        code, _, err = run(capsys, "dual-table", "--kind", "qo", "--n", "1",
                           "--genus2", "0")
        assert code == 2

    @pytest.mark.parametrize("kind", ["qo", "ass", "qc"])
    def test_closed_ends_need_two_colours(self, capsys, kind):
        """--closed counts closed ends, which only the two-coloured kind
        has; it is rejected rather than dropped from the component."""
        code, out, err = run(capsys, "dual-table", "--kind", kind, "--n", "3",
                             "--genus2", "2", "--closed", "1")
        assert code == 2
        assert out == ""
        assert "closed labels only exist for the two-coloured kind" in err


def test_out_of_range_index_is_usage_error(capsys, tmp_path):
    V = G.rich_space(2)
    doc = {
        "kind": "cyclic_ainfty",
        "space": G.space_to_json(V),
        "maps": [{"key": {"n": 3},
                  "entries": [{"index": [0, 0, 9], "value": "1"}]}],
    }
    path = tmp_path / "range.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "check-algebra", "--input", str(path))
    assert code == 2
    assert "out of range" in err


@pytest.mark.parametrize("command", ["check-algebra", "master-eq"])
@pytest.mark.parametrize("field", ["value", "omega", "differential"])
def test_zero_denominator_is_usage_error(capsys, tmp_path, command, field):
    doc = cyclic_doc()
    if field == "value":
        doc["maps"][0]["entries"][0]["value"] = "1/0"
    else:
        doc["space"][field][0][0] = "1/0"
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, command, "--input", str(path))
    assert code == 2
    assert "zero denominator" in err


@pytest.mark.parametrize("command", ["check-algebra", "master-eq"])
@pytest.mark.parametrize("field", ["value", "omega", "differential"])
def test_boolean_rational_is_usage_error(capsys, tmp_path, command, field):
    doc = cyclic_doc()
    if field == "value":
        doc["maps"][0]["entries"][0]["value"] = True
    else:
        doc["space"][field][0][0] = False
    path = tmp_path / "bool.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, command, "--input", str(path))
    assert code == 2
    assert "expected a rational" in err


def _set_index(doc, value):
    doc["maps"][0]["entries"][0]["index"] = value


def _set_key(doc, value):
    doc["maps"][0]["key"]["n"] = value


def _set_degree(doc, value):
    doc["space"]["basis"][0]["degree"] = value


@pytest.mark.parametrize("setter, value", [
    pytest.param(_set_index, [0.9, 0.2, 0.5], id="index-float"),
    pytest.param(_set_index, [True, 0, 0], id="index-bool"),
    pytest.param(_set_key, 3.0, id="key-float"),
    pytest.param(_set_key, "3.5", id="key-text"),
    pytest.param(_set_degree, 0.5, id="degree-float"),
    pytest.param(_set_degree, False, id="degree-bool"),
])
def test_non_integral_field_is_usage_error(capsys, tmp_path, setter, value):
    doc = cyclic_doc()
    setter(doc, value)
    path = tmp_path / "float.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "check-algebra", "--input", str(path))
    assert code == 2
    assert "malformed input" in err


@pytest.mark.parametrize("argv", [
    pytest.param(["verify-operad", "--kind", "qo", "--max-n", "-1"], id="operad-max-n"),
    pytest.param(["verify-operad", "--kind", "qo", "--max-genus2", "-5"],
                 id="operad-max-genus2"),
    pytest.param(["verify-endo", "--max-n", "-1"], id="endo-max-n"),
    pytest.param(["verify-endo", "--samples", "-1"], id="endo-samples"),
    pytest.param(["check-algebra", "--max-n", "-1"], id="algebra-max-n"),
    pytest.param(["check-algebra", "--max-genus2", "-1"], id="algebra-max-genus2"),
    pytest.param(["dual-table", "--kind", "qo", "--genus2", "4", "--n", "-1"],
                 id="dual-n"),
    pytest.param(["dual-table", "--kind", "qo", "--n", "2", "--genus2", "-2"],
                 id="dual-genus2"),
    pytest.param(["dual-table", "--kind", "qoc", "--n", "2", "--genus2", "2",
                  "--closed", "-1"], id="dual-closed"),
])
def test_negative_bound_is_usage_error(capsys, cyclic_file, argv):
    """A negative bound or size (the last option of ``argv``) is rejected
    while parsing, with exit 2, instead of checking an empty range and
    reporting success."""
    if argv[0] == "check-algebra":
        argv = argv[:1] + ["--input", str(cyclic_file)] + argv[1:]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {argv[-2]}: must not be negative: {argv[-1]}" in err


def test_zero_bound_is_accepted(capsys):
    code, out, _ = run(capsys, "verify-operad", "--kind", "qo", "--max-n", "0",
                       "--max-genus2", "0")
    assert code == 0
    assert "checked 0 axiom instances" in out


def test_verify_endo_zero_max_n_is_usage_error(capsys):
    """verify-endo samples arities from 1 to --max-n, so 0 is malformed
    input named by its bound, rejected before any sampling."""
    code, out, err = run(capsys, "verify-endo", "--max-n", "0")
    assert code == 2
    assert out == ""
    assert err.startswith("malformed input: ") and "max_n" in err


@pytest.mark.parametrize("dim", ["-2", "0", "3"])
def test_bad_dimension_is_usage_error(capsys, dim):
    """verify-endo builds its space from --dim, which must be positive and
    even; any other value is malformed input (exit 2), not a traceback."""
    code, out, err = run(capsys, "verify-endo", "--dim", dim, "--samples", "1",
                         "--max-n", "2")
    assert code == 2
    assert out == ""
    assert err.startswith("malformed input: ") and "positive and even" in err


def _symmetric_omega(space_doc):
    space_doc["omega"] = [[x.lstrip("-") for x in row] for row in space_doc["omega"]]


def _short_basis(space_doc):
    space_doc["basis"] = space_doc["basis"][:-1]


def _qoc_doc():
    data = FT.AlgebraData(kind="qoc", space=G.rich_space(4), maps={},
                          closed_space=G.rich_space(2))
    return FT.algebra_to_json(data)


@pytest.mark.parametrize("command", ["check-algebra", "master-eq"])
@pytest.mark.parametrize("make_doc, field", [
    (cyclic_doc, "space"), (_qoc_doc, "space"), (_qoc_doc, "closed_space"),
])
@pytest.mark.parametrize("defect, message", [
    (_symmetric_omega, "omega not antisymmetric"),
    (_short_basis, "basis, degree and matrix sizes disagree"),
])
def test_invalid_space_is_usage_error(capsys, tmp_path, command, make_doc, field,
                                      defect, message):
    """A space that breaks an invariant is rejected before any check runs,
    not checked as it is and reported as passing."""
    doc = make_doc()
    defect(doc[field])
    path = tmp_path / "space.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, command, "--input", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("invalid space: ") and message in err


def _top_level_array(doc):
    return [doc]


def _set_field(path, value):
    def edit(doc):
        *parents, last = path
        target = doc
        for p in parents:
            target = target[p]
        target[last] = value
        return doc
    return edit


@pytest.mark.parametrize("edit, message", [
    pytest.param(_top_level_array, "an algebra file must be an object", id="array"),
    pytest.param(_set_field(["space"], None), "space must be an object",
                 id="space-null"),
    pytest.param(_set_field(["maps"], {}), "maps must be an array", id="maps-object"),
    pytest.param(_set_field(["maps", 0, "entries"], {}), "entries must be an array",
                 id="entries-object"),
    pytest.param(_set_field(["maps", 0, "entries", 0, "index"], 5),
                 "index must be an array", id="index-number"),
    pytest.param(None, "Is a directory", id="directory"),
])
def test_structurally_malformed_input_is_usage_error(capsys, tmp_path, edit,
                                                     message):
    """A field of the wrong JSON type, or an input path that is not a
    readable file, is a usage error (exit 2), not a traceback."""
    if edit is None:
        path = tmp_path
    else:
        path = tmp_path / "typed.json"
        path.write_text(json.dumps(edit(cyclic_doc())))
    for command in ("check-algebra", "master-eq"):
        code, out, err = run(capsys, command, "--input", str(path))
        assert code == 2
        assert out == ""
        assert message in err


def _duplicate_key(doc):
    twin = json.loads(json.dumps(doc["maps"][0]))
    twin["entries"][0]["value"] = "1"
    doc["maps"].append(twin)


def _duplicate_index(doc):
    entries = doc["maps"][0]["entries"]
    entries.append(dict(entries[0], value="1"))


@pytest.mark.parametrize("duplicate, message", [
    (_duplicate_key, "map key {'n': 3} is given twice"),
    (_duplicate_index, "map {'n': 3}: index [0, 0, 0] is given twice"),
])
def test_duplicate_record_is_usage_error(capsys, tmp_path, duplicate, message):
    """f3(0,0,0) given as both -1 and 1, in two maps with one key or twice
    in one map, is malformed input, not whichever record came last."""
    doc = cyclic_doc()
    duplicate(doc)
    path = tmp_path / "twice.json"
    path.write_text(json.dumps(doc))
    for command in ("check-algebra", "master-eq"):
        code, out, err = run(capsys, command, "--input", str(path))
        assert code == 2
        assert out == ""
        assert message in err
