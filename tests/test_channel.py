import dataclasses
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import covertmac as cm
from covertmac.channel import (ChannelFormatError, Dmc, _rows, from_dict,
                               load_channel, save_channel)

from conftest import make_dmc


def test_paper_channel_shape(paper):
    assert (paper.x3_size, paper.y_size, paper.z_size) == (2, 6, 6)
    assert paper.gamma_y.shape == (8, 6)
    assert paper.gamma_z.shape == (8, 6)
    assert paper.ac_violations == ()


def test_row_lookup_matches_reference_rows(paper):
    np.testing.assert_allclose(paper.row("Z", 1, 0, 0),
                               [0.01, 0.12, 0.19, 0.15, 0.19, 0.34], atol=1e-15)
    np.testing.assert_allclose(paper.row("Y", 0, 0, 0),
                               [0.28, 0.26, 0.02, 0.01, 0.18, 0.25], atol=1e-15)


def test_row_singleton_x3():
    rows_y = [[0.5, 0.5], [0.4, 0.6], [0.3, 0.7], [0.2, 0.8]]
    d = make_dmc(rows_y, rows_y)
    for x1 in (0, 1):
        for x2 in (0, 1):
            np.testing.assert_array_equal(d.row("Y", x1, x2, 0),
                                          rows_y[2 * x1 + x2])


def test_row_index_bijection(paper):
    seen = {paper.row_index(x1, x2, x3)
            for x1 in (0, 1) for x2 in (0, 1) for x3 in range(paper.x3_size)}
    assert seen == set(range(paper.n_rows))


@pytest.mark.parametrize("x3_size", [1, 2, 3, 4])
def test_row_map_is_row_index_and_input_rows(x3_size):
    """The row map gives Dmc.row_index at every input triple, elementwise
    over arrays, and on random codewords with a uint8 x1, as an ensemble's."""
    ones = np.ones((4 * x3_size, 1))
    d = Dmc(ones, ones)
    triples = [(x1, x2, x3) for x1 in (0, 1) for x2 in (0, 1)
               for x3 in range(x3_size)]
    assert [_rows(x3_size, *t) for t in triples] == [
        d.row_index(*t) for t in triples] == list(range(4 * x3_size))
    rows = _rows(x3_size, *np.array(triples).T)
    assert rows.dtype == np.int64 and rows.tolist() == list(range(d.n_rows))
    rng = np.random.default_rng(x3_size)
    x1, x2 = (rng.random(50) < 0.3).astype(np.uint8), rng.integers(2, size=50)
    x3 = rng.integers(x3_size, size=50)
    got = _rows(x3_size, x1, x2, x3)
    assert got.dtype == np.int64
    np.testing.assert_array_equal(
        got, _rows(x3_size, x1.astype(np.int64), x2, x3))
    assert got.tolist() == [d.row_index(*t) for t in zip(x1, x2, x3)]


def test_row_index_out_of_range(paper):
    with pytest.raises(IndexError):
        paper.row("Y", 0, 0, 2)
    with pytest.raises(IndexError):
        paper.row("Y", 2, 0, 0)
    with pytest.raises(ValueError):
        paper.row("Q", 0, 0, 0)


def test_row_sums_within_tolerance(paper):
    assert np.all(np.abs(paper.gamma_y.sum(axis=1) - 1) < 1e-12)
    assert np.all(np.abs(paper.gamma_z.sum(axis=1) - 1) < 1e-12)


def test_load_save_roundtrip_bit_exact(paper, tmp_path):
    p = tmp_path / "chan.json"
    save_channel(paper, p)
    again = load_channel(p)
    np.testing.assert_array_equal(paper.gamma_y, again.gamma_y)
    np.testing.assert_array_equal(paper.gamma_z, again.gamma_z)
    assert paper.digest() == again.digest()


def test_row_sum_violation_is_hard_error(paper, tmp_path):
    doc = paper.to_dict()
    doc["gamma_y"][0] = [0.2, 0.2, 0.2, 0.1, 0.1, 0.1]   # sums to 0.9
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    with pytest.raises(ChannelFormatError, match="sums to"):
        load_channel(p)


def test_dimension_mismatch_rejected(paper):
    doc = paper.to_dict()
    doc["gamma_y"] = doc["gamma_y"][:4]
    with pytest.raises(ChannelFormatError, match="shape"):
        from_dict(doc)


@pytest.mark.parametrize("name", ["gamma_y", "gamma_z"])
@pytest.mark.parametrize("row", [2, 7])
def test_ragged_matrix_names_the_matrix_and_its_shape(paper, name, row):
    """A matrix with one row of the wrong length fails with the matrix's
    name, its expected shape and the row lengths, not numpy's text."""
    doc = paper.to_dict()
    doc[name][row] = doc[name][row][:5]
    lengths = [5 if r == row else 6 for r in range(8)]
    with pytest.raises(ChannelFormatError, match=re.escape(
            f"{name}: expected shape (8, 6), got row lengths {lengths}")):
        from_dict(doc)


@pytest.mark.parametrize("value", ["2", 2.5, 2.0, True, None, [2]])
def test_sizes_must_be_json_integers(paper, value):
    doc = {**paper.to_dict(), "x3_size": value}
    with pytest.raises(ChannelFormatError, match="^x3_size must be an integ"):
        from_dict(doc)


@pytest.mark.parametrize("name", ["gamma_y", "gamma_z"])
@pytest.mark.parametrize("value", ["0.28", True, False, None, [0.28],
                                   pytest.param(10 ** 400, id="huge-int")])
def test_matrix_entries_must_be_json_numbers(paper, name, value):
    """A string, bool, null or list entry, or an integer too large for a
    float, is not converted: the load fails with a message naming the
    matrix."""
    doc = paper.to_dict()
    doc[name][0][0] = value
    with pytest.raises(ChannelFormatError,
                       match=f"^{name} must be a list of rows of JSON numbers"):
        from_dict(doc)


@pytest.mark.parametrize("value", [None, "0.5", [0.5] * 6, {"0": [0.5]}])
def test_matrix_must_be_a_list_of_rows(paper, value):
    doc = {**paper.to_dict(), "gamma_z": value}
    with pytest.raises(ChannelFormatError,
                       match="^gamma_z must be a list of rows of JSON numbers"):
        from_dict(doc)


def test_missing_size_named(paper):
    doc = paper.to_dict()
    del doc["z_size"]
    with pytest.raises(ChannelFormatError, match="^missing size field z_size"):
        from_dict(doc)


def test_parse_failure(tmp_path):
    p = tmp_path / "junk.json"
    p.write_text("not json at all {")
    with pytest.raises(ChannelFormatError, match="JSON"):
        load_channel(p)
    with pytest.raises(ChannelFormatError):
        load_channel(tmp_path / "missing.json")


# (0,0,0) warden row is a point mass; (1,0,0) puts mass on z=2
AC_GZ = [[1.0, 0.0, 0.0], [0.3, 0.3, 0.4],
         [1.0, 0.0, 0.0], [0.3, 0.3, 0.4],
         [0.0, 0.0, 1.0], [0.3, 0.3, 0.4],
         [0.5, 0.5, 0.0], [0.3, 0.3, 0.4]]
AC_GY = [[0.5, 0.3, 0.2]] * 8


def test_absolute_continuity_violation_recorded_not_fatal():
    d = make_dmc(AC_GY, AC_GZ)
    assert d.ac_violations == (0,)


def test_direct_channel_derives_its_support_violations():
    """A Dmc made from the matrices alone finds the violation that loading
    them from a file finds: chi-square is infinite at x3 = 0, and a plan
    that sends x3 = 0 has no rates."""
    d = Dmc(np.array(AC_GY), np.array(AC_GZ))
    assert (d.x3_size, d.y_size, d.z_size, d.ac_violations) == (2, 3, 3, (0,))
    assert cm.chi_square(d, 1, 1, 0) == math.inf
    plan = cm.PhasePlan.single_phase((1.0, 0.0), 1.0, 1.0)
    with pytest.raises(ValueError, match="violates absolute continuity"):
        cm.rate_tuple(d, plan)


@pytest.mark.parametrize("rows_y, rows_z", [(8, 4), (4, 8), (6, 6), (0, 0)])
def test_direct_channel_needs_the_same_4k_rows(paper, rows_y, rows_z):
    with pytest.raises(ChannelFormatError,
                       match=r"^gamma_y and gamma_z must have the same 4 \*"):
        Dmc(paper.gamma_y[:rows_y], paper.gamma_z[:rows_z])


@pytest.mark.parametrize("row0, message", [
    ([0.2, 0.2, 0.2, 0.1, 0.1, 0.1], "gamma_y: row 0 sums to "),
    ([math.nan] + [0.2] * 5, "gamma_y: non-finite entries"),
    ([-0.1, 0.3, 0.2, 0.2, 0.2, 0.2], "gamma_y: negative entries")])
def test_direct_channel_is_checked_like_a_file(paper, row0, message):
    """A Dmc made from arrays fails with the message of the same matrices
    read from a channel document."""
    gy = paper.gamma_y.copy()
    gy[0] = row0
    doc = {**paper.to_dict(), "gamma_y": gy.tolist()}
    errors = []
    for make in (lambda: Dmc(gy, paper.gamma_z), lambda: from_dict(doc)):
        with pytest.raises(ChannelFormatError) as e:
            make()
        errors.append(str(e.value))
    assert errors[0] == errors[1] and errors[0].startswith(message)


def test_direct_channel_keeps_a_loaded_channel(paper):
    """Two init fields; a loaded channel's matrices make the same channel,
    bit for bit, on read-only copies of the caller's arrays."""
    assert [f.name for f in dataclasses.fields(Dmc) if f.init] == [
        "gamma_y", "gamma_z"]
    gy, gz = paper.gamma_y.copy(), paper.gamma_z.copy()
    d = Dmc(gy, gz)
    for mine, theirs, orig in ((d.gamma_y, gy, paper.gamma_y),
                               (d.gamma_z, gz, paper.gamma_z)):
        assert mine.tobytes() == orig.tobytes() and mine.flags.c_contiguous
        assert not mine.flags.writeable and theirs.flags.writeable
    assert d.digest() == paper.digest()
    assert (d.x3_size, d.y_size, d.z_size, d.ac_violations) == (2, 6, 6, ())


def test_immutability(paper):
    with pytest.raises(ValueError):
        paper.gamma_y[0, 0] = 0.5


@st.composite
def random_channels(draw):
    x3 = draw(st.integers(1, 3))
    ny = draw(st.integers(2, 5))
    nz = draw(st.integers(2, 5))
    def mat(cols):
        rows = []
        for _ in range(4 * x3):
            raw = draw(st.lists(st.floats(0.01, 1.0), min_size=cols, max_size=cols))
            s = sum(raw)
            rows.append([v / s for v in raw])
        return rows
    return {"x3_size": x3, "y_size": ny, "z_size": nz,
            "gamma_y": mat(ny), "gamma_z": mat(nz)}


@settings(max_examples=25, deadline=None)
@given(random_channels())
def test_random_channel_roundtrip_and_sums(tmp_path_factory, doc):
    d = from_dict(doc)
    assert np.all(np.abs(d.gamma_y.sum(axis=1) - 1) < 1e-12)
    assert np.all(np.abs(d.gamma_z.sum(axis=1) - 1) < 1e-12)
    p = tmp_path_factory.mktemp("chans") / "c.json"
    save_channel(d, p)
    again = load_channel(p)
    np.testing.assert_array_equal(d.gamma_y, again.gamma_y)
    np.testing.assert_array_equal(d.gamma_z, again.gamma_z)
