import itertools
import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hyperlag.hgio import HgParseError, emit_hg, from_json_obj, load, parse_hg, save, to_json_obj
from hyperlag.hypergraph import Hypergraph, complete, linear_path, new


@st.composite
def hypergraphs(draw):
    n = draw(st.integers(3, 7))
    pool = list(itertools.combinations(range(1, n + 1), 3))
    edges = draw(st.sets(st.sampled_from(pool)))
    return Hypergraph(3, n, tuple(sorted(edges)))


@given(hypergraphs())
def test_text_roundtrip(g):
    assert parse_hg(emit_hg(g)) == g


@given(hypergraphs())
def test_json_roundtrip(g):
    assert from_json_obj(json.loads(json.dumps(to_json_obj(g)))) == g


def test_parse_comments_and_blank_lines():
    text = "# a comment\n\nr=3 n=5\n# another\n1 2 3\n3 4 5\n"
    assert parse_hg(text) == Hypergraph(3, 5, ((1, 2, 3), (3, 4, 5)))


def test_parse_missing_header():
    with pytest.raises(HgParseError):
        parse_hg("# only a comment\n")


def test_parse_bad_header_reports_position():
    with pytest.raises(HgParseError, match=r"line 1"):
        parse_hg("r=3 nonsense\n1 2 3\n")


def test_parse_refuses_an_unknown_header_field():
    with pytest.raises(HgParseError, match=r"line 1, column 9: unknown header field 'q'"):
        parse_hg("r=3 n=5 q=1\n1 2 3\n")


def test_parse_refuses_a_repeated_header_field():
    with pytest.raises(HgParseError, match=r"line 2, column 9: header field 'r' repeats"):
        parse_hg("# c\nr=3 n=5 r=2\n1 2 3\n")


def test_parse_bad_token_reports_line_and_column():
    with pytest.raises(HgParseError, match=r"line 2, column 3"):
        parse_hg("r=3 n=4\n1 x 3\n")


def test_parse_edge_out_of_range_names_line():
    with pytest.raises(HgParseError, match=r"line 2"):
        parse_hg("r=3 n=4\n1 2 9\n")


def test_file_roundtrip_both_formats(tmp_path):
    g = linear_path(3)
    hg = tmp_path / "p.hg"
    js = tmp_path / "p.json"
    save(g, hg, comment="a path")
    save(g, js)
    assert load(hg) == g
    assert load(js) == g
    assert hg.read_text().startswith("# a path\n")


def test_writer_emits_canonical_sorted_form(tmp_path):
    g = complete(4, 3)
    text = emit_hg(g)
    lines = [l for l in text.splitlines() if not l.startswith(("#", "r="))]
    assert lines == sorted(lines)


def test_parse_blames_the_line_and_column_of_a_bad_edge():
    # the first two lines are fine; vertex 33 is on line 3, column 5
    with pytest.raises(HgParseError, match=r"line 3, column 5: vertex 33 is outside \[1, 7\]"):
        parse_hg("r=3 n=7\n1 2 3\n1 2 33\n")


def test_parse_blames_a_repeated_vertex_where_it_repeats():
    with pytest.raises(HgParseError, match=r"line 3, column 5: vertex 2 repeats in this edge"):
        parse_hg("r=3 n=7\n\n1 2 2\n")


def test_parse_blames_an_edge_of_the_wrong_size_on_its_line():
    with pytest.raises(HgParseError, match=r"line 3, column 1: edge has 4 vertices, expected 3"):
        parse_hg("r=3 n=7\n1 2 3\n1 2 3 4\n")


def test_parse_blames_a_header_new_refuses_on_the_header_line():
    with pytest.raises(HgParseError, match=r"line 2, column 1: uniformity must be >= 2"):
        parse_hg("# r too small\nr=1 n=4\n1\n")


@pytest.mark.parametrize("edge", [(1, 2, 3, 3), (1, 1, 2)])
def test_new_says_an_edge_repeats_a_vertex(edge):
    with pytest.raises(ValueError, match=r"repeats a vertex"):
        new(3, 5, [edge])
