import json

import pytest

from skewconv import (
    CodeSpecError,
    SkewConvCode,
    SkewTrellisCode,
    code_to_dict,
    dumps_code,
    format_sequence,
    loads_code,
    parse_sequence,
)

from conftest import A, A2, with_leaf

EXAMPLE_DOC = {
    "field": {"p": 2, "n": 2, "modulus": [1, 1, 1], "theta_r": 1},
    "k": 1,
    "n": 2,
    "module_side": "left",
    "G": [[[1, A], [A, A2]]],
}


def test_load_example_left():
    code = loads_code(json.dumps(EXAMPLE_DOC))
    assert isinstance(code, SkewConvCode)
    assert (code.k, code.n, code.memory, code.period) == (1, 2, 1, 2)


def test_load_right_side():
    doc = dict(EXAMPLE_DOC, module_side="right")
    code = loads_code(json.dumps(doc))
    assert isinstance(code, SkewTrellisCode)


def test_round_trip_is_byte_exact():
    text = dumps_code(loads_code(json.dumps(EXAMPLE_DOC)))
    assert dumps_code(loads_code(text)) == text
    assert code_to_dict(loads_code(text)) == code_to_dict(loads_code(json.dumps(EXAMPLE_DOC)))


def test_default_modulus_accepted():
    doc = {"field": {"p": 2, "n": 2, "theta_r": 1}, "k": 1, "n": 2, "G": EXAMPLE_DOC["G"]}
    code = loads_code(json.dumps(doc))
    assert code.field.modulus == (1, 1, 1)


def test_json_error_carries_line_number():
    with pytest.raises(CodeSpecError, match="line 2"):
        loads_code('{"field": {"p": 2},\n "k": }')


def test_missing_keys_and_bad_shapes():
    with pytest.raises(CodeSpecError, match="missing 'G'"):
        loads_code(json.dumps({"field": EXAMPLE_DOC["field"], "k": 1, "n": 2}))
    with pytest.raises(CodeSpecError, match="1 x 2"):
        loads_code(json.dumps(dict(EXAMPLE_DOC, G=[[[1]]])))
    with pytest.raises(CodeSpecError, match="module_side"):
        loads_code(json.dumps(dict(EXAMPLE_DOC, module_side="middle")))
    with pytest.raises(CodeSpecError, match="field"):
        loads_code(json.dumps(dict(EXAMPLE_DOC, field={"p": 2})))


def test_parse_sequence(f4):
    seq = parse_sequence(f4, "1 2\n\n0 3\n", 2)
    assert seq.to_ints() == [(1, 2), (0, 3)]
    assert parse_sequence(f4, "", 2).to_ints() == []


def test_parse_sequence_errors(f4):
    with pytest.raises(CodeSpecError, match="line 1"):
        parse_sequence(f4, "1 2 3\n", 2)
    with pytest.raises(CodeSpecError, match="line 2"):
        parse_sequence(f4, "1 2\nx 0\n", 2)
    with pytest.raises(CodeSpecError, match="line 3"):
        parse_sequence(f4, "1 2\n0 0\n9 0\n", 2)


def test_format_sequence(f4, example_code):
    v = example_code.encode([[1], [0]], terminate=True)
    assert format_sequence(v) == "1 2\n2 3\n0 0\n"
    assert format_sequence(v, pretty=True) == "1 a\na a^2\n0 0\n"
    assert format_sequence(example_code.encode([])) == ""


def codespec_schema():
    import importlib.resources as res

    return json.loads(res.files("skewconv").joinpath("schemas/codespec.schema.json").read_text())


def test_codespec_schema_validates_round_trip():
    jsonschema = pytest.importorskip("jsonschema")
    jsonschema.validate(code_to_dict(loads_code(json.dumps(EXAMPLE_DOC))), codespec_schema())


def test_the_schema_admits_an_integral_float_that_the_loader_refuses():
    # draft 2020-12 counts 2.0 as an integer; the loader takes integer literals only
    jsonschema = pytest.importorskip("jsonschema")
    text = with_leaf(EXAMPLE_DOC, ("field", "p"), "2.0")
    schema = codespec_schema()
    jsonschema.validate(json.loads(text), schema)
    assert "2.0" in schema["$comment"]
    with pytest.raises(CodeSpecError, match="must be an integer") as err:
        loads_code(text)
    assert "\n" not in str(err.value)


@pytest.mark.parametrize(
    "patch",
    [{"G": [[3, [1]]]}, {"G": 5}, {"field": 7}],
    ids=["int-cell", "G-not-list", "field-not-object"],
)
def test_type_errors_raise_spec_error(patch):
    with pytest.raises(CodeSpecError):
        loads_code(json.dumps(dict(EXAMPLE_DOC, **patch)))


INT_PATHS = [("field", "p"), ("field", "n"), ("field", "theta_r"), ("k",), ("n",)]


@pytest.mark.parametrize("text", ["Infinity", "-Infinity", "1e400", "NaN", "2.9", "2.0", '"2"'])
@pytest.mark.parametrize("path", INT_PATHS, ids="-".join)
def test_a_non_integer_number_is_refused_in_one_line(path, text):
    with pytest.raises(CodeSpecError, match="must be an integer") as err:
        loads_code(with_leaf(EXAMPLE_DOC, path, text))
    assert "\n" not in str(err.value)


@pytest.mark.parametrize("text", ['["left"]', '{"side": "left"}', "1", "null", "true"])
def test_a_module_side_that_is_not_a_string_is_refused(text):
    with pytest.raises(CodeSpecError, match="module_side must be 'left' or 'right', got"):
        loads_code(with_leaf(EXAMPLE_DOC, ("module_side",), text))
