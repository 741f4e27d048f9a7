import numpy as np
import pytest

from ndsense.trajectory import Trajectory, axes_to_indices


def make_traj(n=5, dt=0.1, t0=1.0):
    pts = np.arange(n * 3, dtype=float).reshape(n, 3)
    return Trajectory(dt=dt, points=pts, t0=t0, meta={"tag": "demo"})


def test_axes_to_indices():
    assert axes_to_indices("xy") == [0, 1]
    assert axes_to_indices("zx") == [2, 0]
    with pytest.raises(ValueError):
        axes_to_indices("")
    with pytest.raises(ValueError):
        axes_to_indices("xq")
    with pytest.raises(ValueError):
        axes_to_indices("xx")


def test_construction_validation():
    with pytest.raises(ValueError):
        Trajectory(dt=0.1, points=np.zeros((3, 2)))
    with pytest.raises(ValueError):
        Trajectory(dt=0.1, points=np.zeros((0, 3)))
    with pytest.raises(ValueError):
        Trajectory(dt=0.0, points=np.zeros((3, 3)))
    bad = np.zeros((3, 3))
    bad[1, 1] = np.nan
    with pytest.raises(ValueError):
        Trajectory(dt=0.1, points=bad)


def test_times_duration_axis():
    traj = make_traj(n=4, dt=0.5, t0=2.0)
    np.testing.assert_allclose(traj.times, [2.0, 2.5, 3.0, 3.5])
    assert traj.duration == pytest.approx(1.5)
    assert len(traj) == 4
    np.testing.assert_array_equal(traj.axis("y"), traj.points[:, [1]])
    np.testing.assert_array_equal(traj.axis("xz"), traj.points[:, [0, 2]])


def test_slice():
    traj = make_traj(n=6, dt=0.1, t0=1.0)
    sub = traj.slice(2, 5)
    assert len(sub) == 3
    assert sub.t0 == pytest.approx(1.2)
    np.testing.assert_array_equal(sub.points, traj.points[2:5])
    # slices copy; mutating the slice must not touch the parent
    sub.points[0, 0] = -1.0
    assert traj.points[2, 0] != -1.0
    with pytest.raises(ValueError):
        traj.slice(0, 1)


@pytest.mark.parametrize("dt", [0.25, np.float64(0.25)], ids=["float", "numpy-float64"])
def test_csv_roundtrip(tmp_path, dt):
    traj = make_traj(n=7, dt=dt, t0=0.5)
    path = tmp_path / "traj.csv"
    traj.to_csv(path)
    back = Trajectory.from_csv(path)
    np.testing.assert_allclose(back.points, traj.points, atol=1e-6)
    assert back.dt == pytest.approx(traj.dt)
    assert back.t0 == pytest.approx(traj.t0)
    assert back.meta["tag"] == "demo"


def test_from_csv_infers_dt(tmp_path):
    path = tmp_path / "bare.csv"
    path.write_text("t_s,x_nm,y_nm,z_nm\n0.0,1,2,3\n0.2,4,5,6\n")
    traj = Trajectory.from_csv(path)
    assert traj.dt == pytest.approx(0.2)
    assert traj.t0 == pytest.approx(0.0)


def test_from_csv_errors(tmp_path):
    bad_header = tmp_path / "h.csv"
    bad_header.write_text("time,x,y,z\n0,1,2,3\n")
    with pytest.raises(ValueError, match="header"):
        Trajectory.from_csv(bad_header)

    bad_field = tmp_path / "f.csv"
    bad_field.write_text("t_s,x_nm,y_nm,z_nm\n0,1,oops,3\n")
    with pytest.raises(ValueError, match="non-numeric"):
        Trajectory.from_csv(bad_field)

    empty = tmp_path / "e.csv"
    empty.write_text("t_s,x_nm,y_nm,z_nm\n")
    with pytest.raises(ValueError, match="no data"):
        Trajectory.from_csv(empty)


def _with_time(lines, row, value):
    """Copy of CSV ``lines`` with the t_s field of data row ``row`` replaced."""
    at = lines.index("t_s,x_nm,y_nm,z_nm") + 1 + row
    fields = lines[at].split(",")
    out = list(lines)
    out[at] = ",".join([value, *fields[1:]])
    return "\n".join(out) + "\n"


def test_from_csv_checks_timestamps(tmp_path):
    path = tmp_path / "traj.csv"
    make_traj(n=6, dt=0.25, t0=0.5).to_csv(path)
    lines = path.read_text().splitlines()

    path.write_text(_with_time(lines, 3, "1.000000"))  # repeats sample 2
    with pytest.raises(ValueError, match=r"traj\.csv: t_s must increase strictly; sample 3"):
        Trajectory.from_csv(path)
    path.write_text(_with_time(lines, 4, "1.500002"))  # 2e-6 s late
    with pytest.raises(ValueError, match=r"traj\.csv: t_s is off the t0 \+ k\*dt grid"):
        Trajectory.from_csv(path)
    path.write_text(_with_time(lines, 4, "1.500001"))  # within the rounding of %.6f
    assert Trajectory.from_csv(path).dt == 0.25

    # without dt_s and t0_s the grid comes from the rounded rows: a long
    # trajectory at a dt with no exact six-decimal form still passes
    long = tmp_path / "long.csv"
    Trajectory(dt=1 / 3, points=np.zeros((5000, 3))).to_csv(long)
    long.write_text("".join(line for line in long.read_text().splitlines(True)
                            if not line.startswith("#")))
    assert Trajectory.from_csv(long).dt == pytest.approx(1 / 3, abs=1e-9)
