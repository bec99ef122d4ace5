import itertools
import os
import re
import tracemalloc

import numpy as np
import pytest

from tetcontour.mesh import (DataError, ParseError, StructuralError, TetMesh,
                             _sort4, _triple_products, build_topology_graph,
                             build_vertex_order, grid_to_tets, load_raw_grid,
                             load_scalar_file, load_tetgen, tet_volumes)

from conftest import (UNIT_TET_POSITIONS, UNIT_TET_VALUES, random_grid_mesh,
                      reference_grid_tets, reference_load_scalar_file,
                      reference_parse_ele_file, reference_parse_node_file,
                      reference_tet_volumes, reference_triple_products,
                      single_tet_mesh)


def test_create_validates_unit_tet(unit_tet):
    assert unit_tet.vertex_count == 4
    assert unit_tet.tet_count == 1
    assert unit_tet.volume == pytest.approx(1.0 / 6.0)


def test_create_rejects_out_of_range_index():
    with pytest.raises(StructuralError):
        TetMesh.create(UNIT_TET_POSITIONS, UNIT_TET_VALUES,
                       np.array([[0, 1, 2, 4]]))


def test_create_rejects_repeated_vertex():
    with pytest.raises(StructuralError):
        TetMesh.create(UNIT_TET_POSITIONS, UNIT_TET_VALUES,
                       np.array([[0, 1, 2, 2]]))


def test_create_rejects_nonfinite_values():
    vals = UNIT_TET_VALUES.copy()
    vals[1] = np.nan
    with pytest.raises(DataError):
        TetMesh.create(UNIT_TET_POSITIONS, vals, np.arange(4)[None, :])


def test_create_rejects_flat_tet():
    pos = UNIT_TET_POSITIONS.copy()
    pos[3] = [1.0, 1.0, 0.0]       # coplanar with the base triangle
    with pytest.raises(StructuralError) as err:
        TetMesh.create(pos, UNIT_TET_VALUES, np.arange(4)[None, :])
    assert "0" in str(err.value)   # offending tet id is reported


def test_tet_volumes_signed_consistency(rng):
    for _ in range(20):
        pos = rng.uniform(-1, 1, size=(4, 3))
        vols = tet_volumes(pos, np.arange(4)[None, :])
        ref = abs(np.linalg.det(pos[1:] - pos[0])) / 6.0
        assert vols[0] == pytest.approx(ref, rel=1e-12)


def test_tet_volumes_refuse_out_of_range_corners(rng):
    # the corner gathers wrap; an index past either end is refused first
    pos = rng.uniform(size=(5, 3))
    for bad in (5, -6):
        with pytest.raises(IndexError):
            tet_volumes(pos, np.array([[0, 1, 2, 3], [0, 1, 2, bad]]))


def test_triple_products_match_reference_bits(rng):
    spatial = pytest.importorskip("scipy.spatial")
    points = rng.uniform(size=(2000, 3))
    cases = [(points, spatial.Delaunay(points).simplices),
             # coordinates from 1e-3 to 1e3 in either sign, any orientation
             (rng.choice([-1.0, 1.0], size=(80_000, 3))
              * 10.0 ** rng.uniform(-3.0, 3.0, size=(80_000, 3)),
              np.arange(80_000).reshape(20_000, 4))]
    for signs in itertools.product((1.0, -1.0), repeat=3):
        mesh = grid_to_tets((4, 3, 5), np.zeros(60),
                            spacing=np.multiply(signs, (0.5, 1.25, 2.0)))
        cases.append((mesh.positions, mesh.tets))
    for positions, tets in cases:
        got = _triple_products(positions, tets)
        want = reference_triple_products(positions, tets)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))


def test_create_peak_memory():
    # whole-mesh (m, 3) corner gathers and a sorted (m, 4) copy peaked near
    # 63 MB here; in blocks of tets, with the repeated-corner check made by
    # column compares, the kept (m,) volumes, 2.8 MB, dominate
    mesh = grid_to_tets((40, 40, 40),
                        np.random.default_rng(1).normal(size=40 ** 3))
    assert mesh.tet_count == 355_914
    tracemalloc.start()
    try:
        TetMesh.create(mesh.positions, mesh.values, mesh.tets)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12e6


def test_volumes_in_blocks_keep_their_bits(rng, small_blocks):
    # a 2,000-point Delaunay mesh and a graded grid, neither a whole
    # number of blocks
    spatial = pytest.importorskip("scipy.spatial")
    points = rng.uniform(size=(2000, 3))
    grid = grid_to_tets((9, 10, 11), rng.normal(size=990),
                        spacing=(0.3, 1.7, 0.011))
    cases = [(points, rng.normal(size=2000),
              spatial.Delaunay(points).simplices),
             (grid.positions, grid.values, grid.tets)]
    for positions, values, tets in cases:
        assert tets.shape[0] > 2 * small_blocks
        assert tets.shape[0] % small_blocks
        got = tet_volumes(positions, tets)
        want = reference_tet_volumes(positions, tets)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))
        mesh = TetMesh.create(positions, values, tets)
        assert np.array_equal(mesh.tet_volume, tet_volumes(positions, tets))
        assert mesh.volume == float(np.sum(mesh.tet_volume))


def test_repeated_corners_in_three_blocks_are_refused(small_blocks):
    mesh = grid_to_tets((9, 9, 9), np.zeros(729))
    tets = mesh.tets.copy()
    bad = [3, 5, 998, 1000, 1500, 1998, 2000, 2001, 2500, 2700, 2999]
    # a repeat in each of the six corner pairs, then three and four equal
    # corners
    repeats = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (0, 1, 2),
               (1, 2, 3), (0, 1, 2, 3)]
    for t, cols in zip(bad, itertools.cycle(repeats)):
        tets[t, list(cols[1:])] = tets[t, cols[0]]
    rows = np.sort(tets, axis=1)
    want = np.flatnonzero(np.any(rows[:, :-1] == rows[:, 1:], axis=1))
    assert want.tolist() == bad
    with pytest.raises(StructuralError, match=re.escape(
            f"repeated vertex within tets {want[:10].tolist()}")):
        TetMesh.create(mesh.positions, mesh.values, tets)


@pytest.mark.parametrize("dtype", [np.int32, np.int64])
def test_sort4_matches_sort(dtype):
    # every order of 4 distinct values, then rows with ties of every shape
    perms = np.array(list(itertools.permutations([-7, 0, 3, 2 ** 30])))
    ties = np.random.default_rng(0).integers(-2, 3, size=(2000, 4))
    for rows in (perms, ties, np.zeros((0, 4))):
        rows = rows.astype(dtype)
        got = _sort4(rows)
        assert got.dtype == dtype and got.shape == rows.shape
        assert np.array_equal(got, np.sort(rows, axis=1))
    assert len(perms) == 24
    assert {len(set(r)) for r in ties.tolist()} == {1, 2, 3, 4}


def test_sort_tets_matches_sort_of_ranks(rng):
    mesh = random_grid_mesh(rng, dims=(5, 5, 5))
    order = build_vertex_order(mesh)
    want = order.sort_index[np.sort(order.rank[mesh.tets], axis=-1)]
    assert np.array_equal(order.sort_tets(mesh.tets), want)
    for tet, row in zip(mesh.tets[:20], want[:20]):
        got = order.sort_tets(tet)
        assert got.shape == (4,) and np.array_equal(got, row)


def test_grid_to_tets_counts_and_volume():
    mesh = grid_to_tets((3, 4, 5), np.zeros(60), spacing=(0.5, 1.0, 2.0))
    assert mesh.vertex_count == 60
    assert mesh.tet_count == 6 * 2 * 3 * 4
    # the 6-tet split tiles each cube exactly
    assert mesh.volume == pytest.approx(2 * 0.5 * 3 * 1.0 * 4 * 2.0)


@pytest.mark.parametrize("signs", list(itertools.product((1.0, -1.0),
                                                         repeat=3)))
def test_grid_to_tets_orientation_matches_triple_products(signs):
    nx, ny, nz = 4, 3, 5
    mesh = grid_to_tets((nx, ny, nz), np.zeros(nx * ny * nz),
                        spacing=np.multiply(signs, (0.5, 1.25, 2.0)))
    # each lattice path with its cube's far corner last, then the
    # orientation step that flips tets of negative triple product
    ref = mesh.tets.copy()
    far_third = ref[:, 2] == ref[:, 0] + 1 + nx + nx * ny
    ref[far_third, 2:] = ref[far_third][:, [3, 2]]
    flip = _triple_products(mesh.positions, ref) < 0.0
    ref[flip, 2:] = ref[flip][:, [3, 2]]
    assert flip.any()
    np.testing.assert_array_equal(mesh.tets, ref)


@pytest.mark.parametrize("dims", [(2, 2, 2), (4, 3, 5), (9, 10, 11),
                                  (31, 17, 11)])
def test_grid_tets_match_reference_fill(dims):
    for signs in itertools.product((1.0, -1.0), repeat=3):
        spacing = np.multiply(signs, (0.5, 1.25, 2.0))
        got = grid_to_tets(dims, np.zeros(int(np.prod(dims))),
                           spacing=spacing).tets
        want = reference_grid_tets(dims, spacing)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_grid_to_tets_x_fastest_layout():
    vals = np.arange(8, dtype=float)
    mesh = grid_to_tets((2, 2, 2), vals)
    # vertex (1, 0, 0) is flat index 1
    idx = np.flatnonzero((mesh.positions == [1.0, 0.0, 0.0]).all(axis=1))
    assert mesh.values[idx[0]] == 1.0


def test_grid_rejects_bad_dims():
    with pytest.raises(DataError):
        grid_to_tets((1, 4, 4), np.zeros(16))
    with pytest.raises(DataError):
        grid_to_tets((2, 2, 2), np.zeros(7))


def test_topology_graph_symmetric_and_complete(rng):
    vals = rng.normal(size=27)
    mesh = grid_to_tets((3, 3, 3), vals)
    graph = build_topology_graph(mesh)
    neighbor_sets = [set(graph.neighbors(v).tolist())
                     for v in range(mesh.vertex_count)]
    for v, nbrs in enumerate(neighbor_sets):
        assert v not in nbrs
        for u in nbrs:
            assert v in neighbor_sets[u]
    # every tet edge appears
    for tet in mesh.tets:
        for i in range(4):
            for j in range(i + 1, 4):
                assert tet[j] in neighbor_sets[tet[i]]


def test_vertex_order_total_and_stable():
    mesh = single_tet_mesh(UNIT_TET_POSITIONS, np.array([2.0, 1.0, 2.0, 0.5]))
    order = build_vertex_order(mesh)
    assert list(order.sort_index) == [3, 1, 0, 2]   # value, then index
    assert list(order.rank[order.sort_index]) == [0, 1, 2, 3]


def test_load_tetgen_roundtrip(tmp_path):
    node = tmp_path / "m.node"
    node.write_text(
        "# comment\n"
        "4 3 1 0\n"
        "1 0.0 0.0 0.0 0.0\n"
        "2 1.0 0.0 0.0 1.0\n"
        "3 0.0 1.0 0.0 2.0\n"
        "4 0.0 0.0 1.0 3.0\n")
    ele = tmp_path / "m.ele"
    ele.write_text("1 4 0\n1 1 2 3 4\n")
    mesh = load_tetgen(node, ele, field_attr=0)
    assert mesh.vertex_count == 4
    np.testing.assert_array_equal(mesh.values, [0.0, 1.0, 2.0, 3.0])
    np.testing.assert_array_equal(mesh.tets, [[0, 1, 2, 3]])


def test_load_tetgen_zero_based_and_field_file(tmp_path):
    node = tmp_path / "m.node"
    node.write_text("4 3 0 0\n"
                    "0 0 0 0\n"
                    "1 1 0 0\n"
                    "2 0 1 0\n"
                    "3 0 0 1\n")
    ele = tmp_path / "m.ele"
    ele.write_text("1 4 0\n0 0 1 2 3\n")
    fld = tmp_path / "f.txt"
    fld.write_text("0\n1\n2\n3\n")
    mesh = load_tetgen(node, ele, field_path=fld)
    np.testing.assert_array_equal(mesh.values, [0.0, 1.0, 2.0, 3.0])


def test_load_tetgen_missing_field_errors(tmp_path):
    node = tmp_path / "m.node"
    node.write_text("4 3 0 0\n1 0 0 0\n2 1 0 0\n3 0 1 0\n4 0 0 1\n")
    ele = tmp_path / "m.ele"
    ele.write_text("1 4 0\n1 1 2 3 4\n")
    with pytest.raises(DataError):
        load_tetgen(node, ele)


def test_volume_is_the_sum_of_tet_volumes(rng):
    """mesh.volume is the sum that create took of its own degenerate-tet
    check, bit for bit the sum of tet_volumes taken afresh."""
    spatial = pytest.importorskip("scipy.spatial")
    points = rng.uniform(size=(2000, 3))
    meshes = [grid_to_tets((5, 6, 7), rng.normal(size=210),
                           spacing=(0.3, 1.7, 0.011)),
              TetMesh.create(points, rng.normal(size=2000),
                             spatial.Delaunay(points).simplices)]
    for mesh in meshes:
        want = float(np.sum(tet_volumes(mesh.positions, mesh.tets)))
        assert mesh.volume == want
        assert type(mesh.volume) is float


def _write_tetgen(tmp_path, points, tets, attrs, base):
    """.node with attribute and marker columns and .ele with an attribute
    column, both with comments and blank lines between the rows."""
    def noise(i):
        return ("# a comment line\n" if i % 37 == 5 else "") + \
            ("\n   \n" if i % 53 == 11 else "")

    node = tmp_path / "m.node"
    with open(node, "w") as fh:
        fh.write(f"# points\n\n{len(points)} 3 {attrs.shape[1]} 1\n")
        for i, (p, a) in enumerate(zip(points, attrs)):
            cols = " ".join(repr(float(x)) for x in (*p, *a))
            fh.write(f"{noise(i)}{i + base}  {cols}\t{i % 2}"
                     f"{'  # note' if i % 5 == 0 else ''}\n")
    ele = tmp_path / "m.ele"
    with open(ele, "w") as fh:
        fh.write(f"{len(tets)} 4 1  # tets\n")
        for i, t in enumerate(tets + base):
            fh.write(f"{noise(i)}{i + base} {t[0]} {t[1]} {t[2]} {t[3]} "
                     f"{i % 3}\n")
    return node, ele


@pytest.mark.parametrize("base", [0, 1])
def test_load_tetgen_matches_reference_parser(tmp_path, rng, base):
    """The one-pass reader gives the arrays of the per-line parsers it
    replaced, value for value and dtype for dtype."""
    spatial = pytest.importorskip("scipy.spatial")
    points = rng.uniform(-3.0, 3.0, size=(2000, 3))
    tets = spatial.Delaunay(points).simplices
    # field values from subnormals to +-1e300, and both extremes exactly
    field = (rng.choice([-1.0, 1.0], size=2000)
             * 10.0 ** rng.uniform(-323.0, 300.0, size=2000))
    field[:4] = [5e-324, -2.5e-310, 1e300, -1e300]
    attrs = np.stack([rng.normal(size=2000), field], axis=1)
    node, ele = _write_tetgen(tmp_path, points, tets, attrs, base)
    fld = tmp_path / "f.txt"
    fld.write_text("# field\n" + "".join(
        f"{repr(float(v))}{'  # v' if i % 7 == 0 else ''}\n"
        + ("\n" if i % 11 == 0 else "") for i, v in enumerate(field)))

    indices, positions, ref_attrs = reference_parse_node_file(node)
    ref_tets = reference_parse_ele_file(ele) - indices[0]
    ref_field = reference_load_scalar_file(fld, 2000)
    assert np.array_equal(ref_attrs[:, 1], field)

    got_field = load_scalar_file(fld, 2000)
    assert got_field.dtype == ref_field.dtype
    assert np.array_equal(got_field, ref_field)
    for mesh in (load_tetgen(node, ele, field_attr=1),
                 load_tetgen(node, ele, field_path=fld)):
        for got, want in ((mesh.positions, positions),
                          (mesh.values, ref_attrs[:, 1]),
                          (mesh.tets, ref_tets)):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)


def test_node_file_is_parsed_once(tmp_path, rng, monkeypatch):
    """One load_tetgen reads the .node file by loadtxt twice: its header
    line, then its whole body in one pass."""
    grid = grid_to_tets((4, 4, 4), np.zeros(64))
    node, ele = _write_tetgen(tmp_path, grid.positions, grid.tets,
                              rng.normal(size=(64, 2)), 1)
    reads = []
    loadtxt = np.loadtxt

    def counted(fname, *args, **kwargs):
        if isinstance(fname, (str, os.PathLike)):
            reads.append(os.fspath(fname))
        return loadtxt(fname, *args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", counted)
    mesh = load_tetgen(node, ele, field_attr=1)
    assert mesh.tet_count == grid.tet_count
    assert reads.count(os.fspath(node)) == 2


_NODE = "4 3 0 0\n1 0 0 0\n2 1 0 0\n3 0 1 0\n4 0 0 1\n"
_ELE = "1 4 0\n1 1 2 3 4\n"


# (node, ele, field) text and the line of the ParseError; None for a file
# that is never written. "1_0" is read by Python's float() but refused
# by loadtxt's rules, which the reader applies.
@pytest.mark.parametrize("node, ele, fld, line_no", [
    pytest.param("4 3 0 0\n1 0 0 0\n2 oops 0 0\n3 0 1 0\n4 0 0 1\n",
                 None, None, 3, id="coordinate"),
    pytest.param("4 3 0 0\n1 0 0 0\n2 1 0\n3 0 1 0\n4 0 0 1\n",
                 _ELE, None, 3, id="short-line"),
    pytest.param("4 3 0 0\n1 0 0 0\n# c\n2 1 0 0\n\n", _ELE, None, 4,
                 id="early-end"),
    pytest.param(_NODE, "1 4 0\n1 1 2 3 4.0\n", None, 2,
                 id="float-tet-index"),
    pytest.param("4 3 0 0\n1 0 0 0\n2.5 1 0 0\n3 0 1 0\n4 0 0 1\n",
                 _ELE, None, 3, id="float-point-index"),
    # the index is refused at its line before the file ends early
    pytest.param("4 3 0 0\n1 0 0 0\nnan 1 0 0\n3 0 1 0\n", _ELE, None, 3,
                 id="index-then-early-end"),
    pytest.param("4 3 1 0\n1 0 0 0 0\n2 1 0 0 1_0\n3 0 1 0 2\n"
                 "4 0 0 1 3\n", _ELE, None, 3, id="underscore"),
    pytest.param(_NODE, _ELE, "0\n1 2\n2\n3\n", 2, id="two-field-values"),
    pytest.param(_NODE, _ELE, "0\n# c\nabc\n2\n3\n", 3, id="field-abc"),
    pytest.param(_NODE, "", None, 0, id="empty-ele"),
    pytest.param(_NODE.replace("4 3 0 0", "# 2-d\n4 2 0 0"), _ELE, None, 2,
                 id="dimension"),
    pytest.param(_NODE, "1 10 0\n1 1 2 3 4 5 6 7 8 9 10\n", None, 1,
                 id="nodes-per-tet"),
])
def test_parse_error_reports_line(tmp_path, node, ele, fld, line_no):
    paths = {}
    for name, text in (("m.node", node), ("m.ele", ele), ("f.txt", fld)):
        paths[name] = tmp_path / name
        if text is not None:
            paths[name].write_text(text)
    with pytest.raises(ParseError) as err:
        load_tetgen(paths["m.node"], paths["m.ele"],
                    field_path=paths["f.txt"] if fld else None,
                    field_attr=None if fld else 0)
    assert err.value.line_no == line_no


@pytest.mark.parametrize("node, ele, path, line_no", [
    pytest.param("# c\n4 3 -1 0\n1 0 0 0\n2 1 0 0\n3 0 1 0\n4 0 0 1\n",
                 _ELE, "m.node", 2, id="attributes"),
    pytest.param("# c\n-2 3 0 0\n1 0 0 0\n", _ELE, "m.node", 2,
                 id="points"),
    pytest.param(_NODE, "\n# c\n-1 4 0\n", "m.ele", 3, id="tets"),
])
def test_negative_header_count_is_refused(tmp_path, node, ele, path,
                                          line_no):
    (tmp_path / "m.node").write_text(node)
    (tmp_path / "m.ele").write_text(ele)
    with pytest.raises(ParseError, match="negative count") as err:
        load_tetgen(tmp_path / "m.node", tmp_path / "m.ele", field_attr=0)
    assert (err.value.path, err.value.line_no) == (str(tmp_path / path),
                                                   line_no)


def test_load_scalar_file(tmp_path):
    f = tmp_path / "f.txt"
    f.write_text("# header\n1.5\n2.5\n\n3.5\n")
    np.testing.assert_array_equal(load_scalar_file(f, 3), [1.5, 2.5, 3.5])
    with pytest.raises(DataError):
        load_scalar_file(f, 4)


def test_load_raw_grid(tmp_path):
    vals = np.arange(8, dtype="<f8")
    raw = tmp_path / "g.f64"
    vals.tofile(raw)
    mesh = load_raw_grid(raw, (2, 2, 2), (1.0, 1.0, 1.0))
    assert mesh.vertex_count == 8
    np.testing.assert_array_equal(np.sort(mesh.values), np.arange(8.0))


def test_load_raw_grid_size_mismatch(tmp_path):
    # 7 values, and 8 values plus 3 trailing bytes, which np.fromfile
    # alone would read as 8 values
    raw = tmp_path / "g.f64"
    for data in (np.arange(7, dtype="<f8").tobytes(),
                 np.arange(8, dtype="<f8").tobytes() + b"\0\0\0"):
        raw.write_bytes(data)
        with pytest.raises(DataError, match=f"got {len(data)}$"):
            load_raw_grid(raw, (2, 2, 2), (1.0, 1.0, 1.0))
