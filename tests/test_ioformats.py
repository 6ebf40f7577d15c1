import json

import pytest

from blocksift.ioformats import ParseError, emit_generators, parse_generators
from blocksift.perm import GeneratorSet
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
        assert parse_generators("(2 5)").degree == 5

    def test_identity_and_comments(self):
        gens = parse_generators("# trivial group\nn=3; ()\n")
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

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            emit_generators(GeneratorSet(2, [perm(2, (0, 1))]), "xml")
