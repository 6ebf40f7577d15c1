import math
import sys

import pytest

from blocksift.blocks import validate_block_system, BlockSystem
from blocksift.corpus import (
    GroupSpec,
    M24_ORDER,
    build,
    mathieu24,
    on_k_subsets,
    parse_spec,
    spec_degree,
    spec_order,
)
from blocksift.perm import is_transitive
from blocksift.primitivity import ss_uncapped
from conftest import brute_force_elements, reference_orbit


class TestSpecParsing:
    def test_specs_equal_by_value(self):
        spec = parse_spec("wreath(subsets(5,2),3)")
        assert spec == GroupSpec("wreath", inner=GroupSpec("subsets", m=5, k=2), d=3)
        assert spec != parse_spec("wreath(subsets(5,3),3)")
        assert spec != parse_spec("wreath(subsets(5,2),2)")
        assert GroupSpec("cyclic", n=5) != GroupSpec("dihedral", n=5)
        for field in ("n", "m", "k", "d"):
            assert GroupSpec("cyclic", n=5) != GroupSpec("cyclic", **{"n": 5, field: 6}), field
        assert spec != spec.describe()

    def test_roundtrip(self):
        for text in (
            "cyclic(6)",
            "dihedral(8)",
            "symmetric(5)",
            "alternating(7)",
            "subsets(6,2)",
            "wreath(alternating(8),2)",
            "wreath(wreath(cyclic(2),2),3)",
            "product(3,2)",
            "m24",
        ):
            spec = parse_spec(text)
            assert spec.describe() == text
            assert parse_spec(spec.describe()) == spec

    def test_bad_specs_rejected(self):
        for text in ("", "cyclic", "cyclic(", "froz(3)", "cyclic(3) junk"):
            with pytest.raises(ValueError):
                parse_spec(text)

    def test_nesting_bound(self):
        # 63 nested wreaths would have at least 2**63 points
        def nested(depth):
            return "wreath(" * depth + "cyclic(2)" + ",2)" * depth
        assert parse_spec(nested(62)).describe() == nested(62)
        with pytest.raises(ValueError, match="nested too deeply"):
            parse_spec(nested(63))


class TestBuilders:
    def test_all_corpus_groups_transitive(self, full_corpus):
        for entry in full_corpus:
            assert is_transitive(entry.gens), entry.name
            assert entry.gens.degree == len(reference_orbit(entry.gens.generators, 0)), entry.name

    def test_spec_degree_is_the_built_degree(self, full_corpus):
        for entry in full_corpus:
            assert spec_degree(entry.spec) == entry.gens.degree, entry.name

    def test_bounded_degree_formulas_exact_up_to_maxsize(self):
        # subsets and product bound their work for huge params; around
        # sys.maxsize they give the exact degree or refuse
        cases = [(f"subsets({m},{k})", math.comb(m, k))
                 for m in range(2, 160) for k in range(1, m)]
        cases += [(f"product({m},{d})", m**d) for m in range(2, 12) for d in range(2, 80)]
        for text, degree in cases:
            if degree <= sys.maxsize:
                assert spec_degree(parse_spec(text)) == degree, text
            else:
                with pytest.raises(ValueError, match="sys.maxsize"):
                    spec_degree(parse_spec(text))

    def test_small_orders_exact(self):
        cases = [
            ("cyclic(7)", 7),
            ("dihedral(5)", 10),
            ("symmetric(4)", 24),
            ("alternating(5)", 60),
            ("wreath(cyclic(2),2)", 8),
            ("product(3,2)", 72),
        ]
        for text, order in cases:
            spec = parse_spec(text)
            assert spec_order(spec) == order
            assert len(brute_force_elements(build(spec))) == order

    def test_subsets_degree_and_verdict(self):
        # S_m on 2-subsets: degree C(m,2), primitive for m >= 5
        gens = on_k_subsets(6, 2)
        assert gens.degree == 15
        assert ss_uncapped(gens).kind == "primitive"
        assert spec_order(parse_spec("subsets(6,2)")) == 720

    def test_wreath_canonical_blocks_are_blocks(self):
        gens = build(parse_spec("wreath(alternating(8),2)"))
        cells = [list(range(8)), list(range(8, 16))]  # one per inner copy
        bs = BlockSystem(16, cells)
        assert validate_block_system(gens, bs)

    def test_wreath_is_imprimitive(self):
        for text in ("wreath(cyclic(2),2)", "wreath(symmetric(3),3)",
                     "wreath(cyclic(3),2)"):
            gens = build(parse_spec(text))
            v = ss_uncapped(gens)
            assert v.kind == "blocks", text
            assert validate_block_system(gens, v.blocks)

    def test_product_action_primitive(self):
        gens = build(parse_spec("product(3,2)"))
        assert gens.degree == 9
        assert ss_uncapped(gens).kind == "primitive"

    def test_mathieu24(self):
        gens = mathieu24()
        assert gens.degree == 24
        assert is_transitive(gens)
        assert spec_order(GroupSpec(family="m24")) == M24_ORDER
        assert ss_uncapped(gens).kind == "primitive"


class TestStandardCorpus:
    def test_meets_size_and_degree_window(self, full_corpus):
        assert len(full_corpus) >= 40
        assert all(2 <= e.gens.degree <= 512 for e in full_corpus)

    def test_family_coverage(self, full_corpus):
        fams = {e.spec.family for e in full_corpus}
        assert {"cyclic", "dihedral", "symmetric", "alternating",
                "subsets", "wreath", "product", "m24"} <= fams

    def test_names_unique(self, full_corpus):
        names = [e.name for e in full_corpus]
        assert len(names) == len(set(names))

    def test_degree_cap_respected(self, full_corpus):
        assert max(e.gens.degree for e in full_corpus) == 512
