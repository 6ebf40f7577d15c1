import json

import pytest
from hypothesis import given, settings, strategies as st

from blocksift import ioformats
from blocksift.ioformats import ParseError, emit_generators, parse_generators
from blocksift.perm import GeneratorSet, Permutation
from conftest import perm


class TestJsonFormat:
    def test_c4(self):
        gens = parse_generators('{"degree":4,"generators":[[1,2,3,0]]}')
        assert gens == GeneratorSet(4, [perm(4, (0, 1, 2, 3))])

    def test_bad_json_reports_position(self):
        with pytest.raises(ParseError) as ei:
            parse_generators('{"degree":4,')
        assert ei.value.line >= 1 and ei.value.col >= 1

    def test_semantic_errors(self):
        for text in (
            '{"degree":3,"generators":[[0,1]]}',      # wrong length
            '{"degree":3,"generators":[[0,0,1]]}',    # not a bijection
            '{"degree":3,"generators":[[0,1,3]]}',    # image out of range
            '{"generators":[[1,0]]}',                 # missing degree
            '{"degree":0,"generators":[]}',           # empty domain
            '{"degree":true,"generators":[[0]]}',     # bool is not a degree
        ):
            with pytest.raises(ParseError):
                parse_generators(text)

    def test_deep_nesting_is_parse_error(self):
        # json.loads recurses once per nesting level
        for text in ('{"degree":2,"generators":' + "[" * 200_000, '{"a":' * 200_000):
            with pytest.raises(ParseError) as ei:
                parse_generators(text)
            assert "nested too deeply" in str(ei.value)
            assert (ei.value.line, ei.value.col) == (1, 1)

    def test_bool_images_rejected(self):
        # JSON true/false are bools, which would pass as the transposition
        for text in (
            '{"degree":2,"generators":[[true,false]]}',
            '{"degree":2,"generators":[[1,false]]}',
            '{"degree":2,"generators":[[1.0,0]]}',
            '{"degree":2,"generators":["10"]}',
        ):
            with pytest.raises(ParseError):
                parse_generators(text)
        # an extra key may hold those letters; int images still parse
        gens = parse_generators('{"degree":2,"generators":[[1,0]],"label":"full"}')
        assert gens == GeneratorSet(2, [perm(2, (0, 1))])


class TestCycleFormat:
    def test_header_and_cycle(self):
        gens = parse_generators("n=4; (1 2 3 4)")
        assert gens == GeneratorSet(4, [perm(4, (0, 1, 2, 3))])

    def test_juxtaposed_cycles_one_generator(self):
        gens = parse_generators("n=4; (1 2)(3 4)")
        assert gens.generators == [perm(4, (0, 1), (2, 3))]

    def test_whitespace_separates_generators(self):
        gens = parse_generators("(1 2 3)  (1 2)")
        assert gens.degree == 3
        assert gens.generators == [perm(3, (0, 1, 2)), perm(3, (0, 1))]

    def test_degree_inferred_without_header(self):
        assert parse_generators("(2 5)(1)(3)(4)").degree == 5

    def test_identity_and_comments(self):
        gens = parse_generators("# trivial group\nn=3; (1)(2)(3)\n")
        assert gens.generators == [perm(3)]

    def test_repeated_point_in_one_generator_rejected(self):
        with pytest.raises(ParseError):
            parse_generators("(1 2)(2 3)")

    def test_error_carries_line_and_col(self):
        with pytest.raises(ParseError) as ei:
            parse_generators("n=4;\n(1 2\n")
        assert ei.value.line == 3  # unclosed cycle noticed at end of input
        with pytest.raises(ParseError) as ei:
            parse_generators("(1 x)")
        assert (ei.value.line, ei.value.col) == (1, 4)

    def test_integer_above_maxsize_rejected(self):
        # an int above sys.maxsize cannot be a list length: a ParseError at
        # the integer's start, not an OverflowError from building the list
        for text, col in (
            ("n=99999999999999999999999; (1 2)", 3),
            ("(1 99999999999999999999999)", 4),
            ("(1 " + "9" * 5000 + ")", 4),
        ):
            with pytest.raises(ParseError) as ei:
                parse_generators(text)
            assert (ei.value.line, ei.value.col) == (1, col)
        # leading zeros do not count towards the size
        assert parse_generators("(0001 000000000000000000000002)").degree == 2

    def test_zero_point_rejected(self):
        with pytest.raises(ParseError):
            parse_generators("(0 1)")

    @pytest.mark.parametrize("text, message, pos", [
        ("nx2", "expected '=' after 'n'", (1, 2)),
        ("n = x", "expected an integer", (1, 5)),
        ("n=0;(1)", "degree must be at least 1", (1, 4)),
        ("n=3 (1 2)", "expected ';' after degree header", (1, 5)),
        ("n=3; (1 2)x", "expected '(' but found 'x'", (1, 11)),
        ("(9 33n", "expected an integer", (1, 6)),
        ("(1 2)(3 x)", "expected an integer", (1, 9)),
        ("(1 2)\n(3 4", "unterminated cycle", (2, 5)),
        ("(1 # a comment\n 2 3) # and (another\n(4 0)", "points are 1-based", (3, 4)),
        ("(1 2)(2 x)", "point 2 repeated within one generator", (1, 7)),
        ("n=2; (1 3) # end", "point 3 exceeds declared degree 2", (1, 17)),
        ("# only a comment\n", "no generators found", (2, 1)),
        ("() ()", "cannot infer a positive degree", (1, 6)),
        ("n=4; (1 2)(4) # c", "point 3 is named by no cycle", (1, 18)),
    ])
    def test_error_names_first_character_that_cannot_continue(self, text, message, pos):
        # a semantic fault in a point is named at the point's start; one
        # seen only once all points are read is named at the end of input
        with pytest.raises(ParseError) as ei:
            parse_generators(text)
        assert str(ei.value).startswith(message)
        assert (ei.value.line, ei.value.col) == pos

    def test_separators_and_comments_between_tokens(self):
        gens = parse_generators("n = 5 ; # header\n(1,2 ,3)(4\t5)\n# c\n(1\n,5)")
        assert gens == GeneratorSet(5, [perm(5, (0, 1, 2), (3, 4)), perm(5, (0, 4))])

    def test_every_point_must_be_named(self, monkeypatch):
        # a huge degree is refused from the text alone: neither a point
        # table nor a permutation of that size is built
        def spy(*args):
            raise AssertionError("built before the degree was checked")

        monkeypatch.setattr(ioformats, "point_table", spy)
        monkeypatch.setattr(Permutation, "__init__", spy)
        for text, unnamed in (("n=100000000000; (1 2)", 3), ("(1 100000000000)", 2)):
            with pytest.raises(ValueError, match=f"^point {unnamed} is named by no cycle"):
                parse_generators(text)

    def test_unicode_decimal_digits_are_digits(self):
        # int() reads every Unicode decimal digit; a superscript is no digit
        assert parse_generators("(\u0661 \u0663)(\u0662)").degree == 3
        with pytest.raises(ParseError) as ei:
            parse_generators("(1 2\u00b2)")
        assert (ei.value.line, ei.value.col) == (1, 5)


class TestRoundTrips:
    def test_both_formats_on_corpus(self, full_corpus):
        for entry in full_corpus:
            gens = entry.gens
            assert parse_generators(emit_generators(gens, "json")) == gens, entry.name
            assert parse_generators(emit_generators(gens, "cycles")) == gens, entry.name

    def test_json_emission_is_valid_json(self):
        gens = GeneratorSet(4, [perm(4, (0, 1, 2, 3))])
        doc = json.loads(emit_generators(gens, "json"))
        assert doc == {"degree": 4, "generators": [[1, 2, 3, 0]]}

    @pytest.mark.parametrize("gens, text", [
        (GeneratorSet(5, [perm(5, (0, 1)), perm(5, (2, 3))]), "n=5; (1 2)(5) (3 4)"),
        (GeneratorSet(3, [perm(3)]), "n=3; (1)(2)(3)"),
        (GeneratorSet(1, [perm(1)]), "n=1; ()"),
    ])
    def test_cycles_name_every_fixed_point(self, gens, text):
        assert emit_generators(gens, "cycles") == text
        assert parse_generators(text) == gens

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            emit_generators(GeneratorSet(2, [perm(2, (0, 1))]), "xml")


cycle_alphabet_text = st.text(
    alphabet="()()  ,\n\t#n=;0123456789x\u0663\u00b2", max_size=40
)
generator_sets = st.integers(1, 9).flatmap(
    lambda n: st.lists(
        st.permutations(list(range(n))).map(Permutation), min_size=1, max_size=4
    ).map(lambda gens: GeneratorSet(n, gens))
)


class TestBoundaryProperties:
    @settings(max_examples=200, deadline=None)
    @given(generator_sets, st.sampled_from(["json", "cycles"]))
    def test_emit_then_parse_round_trips(self, gens, fmt):
        # intransitive sets too: cycle text writes each fixed point as (k)
        assert parse_generators(emit_generators(gens, fmt)) == gens

    @settings(max_examples=500, deadline=None)
    @given(cycle_alphabet_text)
    def test_cycle_text_parses_or_raises_value_error(self, text):
        try:
            parse_generators(text)
        except ValueError:
            pass

    @settings(max_examples=500, deadline=None)
    @given(st.one_of(
        cycle_alphabet_text,
        st.builds(emit_generators, generator_sets, st.sampled_from(["json", "cycles"])),
        # cycle text under a header of any degree
        st.builds(lambda n, gens: f"n={n}; " + emit_generators(gens, "cycles").split("; ")[1],
                  st.integers(1, 10_000), generator_sets),
        st.builds(lambda n, images: json.dumps({"degree": n, "generators": images}),
                  st.integers(1, 10_000),
                  st.lists(st.lists(st.integers(0, 3), max_size=4), min_size=1, max_size=3)),
    ))
    def test_accepted_text_bounds_the_degree(self, text):
        try:
            gens = parse_generators(text)
        except ValueError:
            return
        assert gens.degree <= len(text)
