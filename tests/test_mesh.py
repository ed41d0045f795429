import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypersing import make_mesh


def test_four_subintervals_on_unit_interval():
    mesh = make_mesh(-1.0, 1.0, 4)
    assert mesh.nodes.tolist() == [-1.0, -0.5, 0.0, 0.5, 1.0]
    assert mesh.colloc.tolist() == [-0.75, -0.25, 0.25, 0.75]


def test_forty_subintervals_step_and_first_point():
    mesh = make_mesh(-1.0, 1.0, 40)
    assert mesh.h == pytest.approx(0.05, abs=0.0)
    assert mesh.colloc[0] == pytest.approx(-0.975, abs=1e-15)


def test_two_subintervals_shifted_interval():
    mesh = make_mesh(0.0, 2.0, 2)
    assert mesh.nodes.tolist() == [0.0, 1.0, 2.0]
    assert mesh.colloc.tolist() == [0.5, 1.5]


@pytest.mark.filterwarnings("error")
def test_invalid_interval_rejected():
    with pytest.raises(ValueError, match="invalid interval"):
        make_mesh(1.0, 1.0, 4)
    with pytest.raises(ValueError, match="invalid interval"):
        make_mesh(2.0, -1.0, 4)
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match="^a must be finite"):
            make_mesh(bad, 1.0, 4)
        with pytest.raises(ValueError, match="^b must be finite"):
            make_mesh(-1.0, bad, 4)


def test_too_short_interval_rejected():
    # At 1e16 the spacing of floats is 2, so 8 cells of width 0.5 put
    # collocation points on nodes.
    with pytest.raises(ValueError, match="too short relative to its magnitude"):
        make_mesh(1e16, 1e16 + 4.0, 8)


def test_too_few_subintervals_rejected():
    with pytest.raises(ValueError, match="invalid size"):
        make_mesh(0.0, 1.0, 1)


def test_non_integral_size_rejected():
    # int(2.7) would quietly build 2 subintervals.
    for bad in (2.7, 4.0, float("nan"), "4"):
        with pytest.raises(ValueError, match="^n must be an integer"):
            make_mesh(-1.0, 1.0, bad)
    assert make_mesh(-1.0, 1.0, np.int64(4)).n == 4


def test_endpoints_stored_exactly():
    # 40 * 0.05 rounds away from 2.0 in floating point; the endpoints must
    # not inherit that error.
    mesh = make_mesh(-1.0, 1.0, 40)
    assert mesh.nodes[0] == -1.0
    assert mesh.nodes[-1] == 1.0
    mesh = make_mesh(0.1, 0.8, 7)
    assert mesh.nodes[0] == 0.1
    assert mesh.nodes[-1] == 0.8


@pytest.mark.parametrize("a,b,n", [(-1.0, 1.0, 4), (0.0, 2.0, 17), (-3.5, 9.25, 640)])
def test_subinterval_lengths_sum_to_interval(a, b, n):
    mesh = make_mesh(a, b, n)
    total = float(np.sum(np.diff(mesh.nodes)))
    assert abs(total - (b - a)) <= 4.0 * np.spacing(b - a)


@pytest.mark.parametrize("n", [2, 3, 1000, 10**6])
def test_interleaving_up_to_a_million(n):
    mesh = make_mesh(-1.0, 1.0, n)
    assert np.all(mesh.nodes[:-1] < mesh.colloc)
    assert np.all(mesh.colloc < mesh.nodes[1:])


def test_collocation_points_clear_nodes_by_half_step():
    mesh = make_mesh(-1.0, 1.0, 40)
    gaps = np.abs(mesh.colloc[:, None] - mesh.nodes[None, :])
    assert np.min(gaps) == pytest.approx(mesh.h / 2.0, rel=1e-12)


def test_mesh_arrays_immutable():
    mesh = make_mesh(-1.0, 1.0, 4)
    with pytest.raises(ValueError):
        mesh.nodes[0] = 5.0
    with pytest.raises(ValueError):
        mesh.colloc[0] = 5.0


@settings(deadline=None, max_examples=80)
@given(
    a=st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    width=st.floats(min_value=1e-3, max_value=1e6),
    n=st.integers(min_value=2, max_value=2000),
)
def test_invariants_hold_for_arbitrary_meshes(a, width, n):
    mesh = make_mesh(a, a + width, n)
    assert mesh.nodes[0] == mesh.a
    assert mesh.nodes[-1] == mesh.b
    assert np.all(mesh.nodes[:-1] < mesh.colloc)
    assert np.all(mesh.colloc < mesh.nodes[1:])
    assert len(mesh.nodes) == n + 1
    assert len(mesh.colloc) == n
