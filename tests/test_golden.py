"""Golden sha256 hashes of every CLI output file for fixed configs and seeds.

The file formats are the contract: a refactor must leave these bytes
unchanged. A change that alters the random draw pattern or a number
format must update the hashes and say why in CHANGES.md.
"""

import hashlib
import json

import numpy as np
import pytest
import scipy

from ndsense import cli

# numpy/scipy the hashes were taken with; float formatting and library
# kernels can differ in the last digit on other versions
PINNED_WITH = "numpy 2.4.6 / scipy 1.17.1"

README_CFG = {
    "schema_version": 1,
    "seed": 42,
    "medium": {"kind": "brownian", "D_nm2_per_s": 10000.0},
    "simulate": {"duration_s": 60.0, "dt_s": 0.0096},
    "tracker": {"enabled": True, "brightness_cps": 2000000.0},
    "schedule": {"kind": "staircase", "start_C": 24.0, "step_C": 4.0,
                 "dwell_s": 300.0, "n_levels": 4},
    "odmr": {"enabled": True, "lam0": 10.0, "kappa_khz_per_C": -60.0},
    "analysis": {"segment": {"window_steps": 75},
                 "modulus": {"temperature_C": 25, "radius_nm": 50},
                 "psd": {"window_s": 28.8},
                 "force": {"enabled": True}},
}

CRITERION_13_CFG = {
    "schema_version": 1, "seed": 131,
    "medium": {"kind": "brownian", "D_nm2_per_s": 1e4},
    "simulate": {"duration_s": 20.0},
    "tracker": {"enabled": True, "brightness_cps": 2e6},
    "schedule": {"kind": "staircase", "start_C": 0.0, "step_C": 4.0,
                 "dwell_s": 5.0, "n_levels": 3},
    "odmr": {"enabled": True, "lam0": 10.0,
             "kappa_khz_per_C": -60.0, "bin_s": 0.4},
    "analysis": {"segment": {"window_steps": 75}},
}

GOLDEN = {
    "readme": {  # 14 files
        "allan.csv":
            "26232c8eb15572a2dc8b1a454a672ba458f00b7c975c668dad8bea765f38f249",
        "diagnostics.csv":
            "25bf39edcb8037845f543b862ca6218a6a6c10b8627960ae5992ddde1700a412",
        "estimate.csv":
            "50b154ffbf3ff88e33443053835547ddc5d17759d13a93abc1b12e577419cf52",
        "force.csv":
            "ccbe2a57a42252a8acd9549127c4af8788909fc7e7a919671e2dc32478c3b410",
        "labels.csv":
            "9c732a987e31e2530b5fc125816da84391ad133c55a4ca9c4a46dba0925a2174",
        "modulus.csv":
            "b4c5665b46dd7efbb10405304799f39b20afde91f1c1a70c3892629d278404f9",
        "msd.csv":
            "e94e8bcff3c83731564fd85598a0a2bdbd5849e49f18aa0c37be90d44bb288cb",
        "psd.csv":
            "b02643517ca83c3096ab351e5792c139cf08a27328024364882dc90a969d7625",
        "setpoints.csv":
            "36934d2761eeccbc04946b32db40ad7c4c8b508a7460c7f1223cf65bc5b7d478",
        "shifts.csv":
            "1c56bfe925e1a10e4385e7d2618dc187d72f7209c9ae36d73e022281fb05a10a",
        "summary.json":
            "7c4621d7b055bc594c63810724944047d7c9f6c3128a069f52743b59cf62516c",
        "temperature.csv":
            "006a8e38fbb113c4d9dca1270e1e26ff809e749550ba9948f3adca99608b2caa",
        "timeline.csv":
            "1ba230292e4e61ec880d531dd6e06f525eb8cc1b538a8913004661feed72d033",
        "truth.csv":
            "b1def8b612ab1d0c795128578ea71ae41fa833d8727920e9d9c2315937841d3f",
    },
    "criterion13": {  # 11 files
        "allan.csv":
            "8027fbb77599e3dc9d53964f9ad7a85d332386340a89fb227ba864338dfc9e7e",
        "diagnostics.csv":
            "8e4f291048932a7994ae377efe2e409b2e48411270421b3fb623a8e1ad7e30e9",
        "estimate.csv":
            "b4d9c43f2cad5770be8ca3af6b6f9a980d7b659f35605d64aa25f4cd68289ab5",
        "labels.csv":
            "7b62dc64c73b725d8f876c81ef91908c88a4c27b54564f269aadaed1b91b8cdd",
        "msd.csv":
            "d796cb0644a078e94e8703dae6ffc990267f4cc7a443fa4a2a64571f3cb69b5d",
        "setpoints.csv":
            "2186b361df4f21e696fc0f61295c3670c65bb0f214fe7471afdaf39cd1dcd9e4",
        "shifts.csv":
            "35f87d51815f530b41a146674050cb4b867bf0e0c515ba4882932d0a3174f14a",
        "summary.json":
            "18d5b6d68b444f0104f8227c0997fcdf6e329bbcfcc87df2e5b020539c99ed23",
        "temperature.csv":
            "2001f8654dd478b84a6d70d1bd2e5ced333d36c0521e73330082a87286727c41",
        "timeline.csv":
            "1ba230292e4e61ec880d531dd6e06f525eb8cc1b538a8913004661feed72d033",
        "truth.csv":
            "0676bc124f5ba843b5a0a16610ba6cedba2e5b2d01645cc811a52095072094f4",
    },
    "small": {  # 4 files
        "allan.csv":
            "26232c8eb15572a2dc8b1a454a672ba458f00b7c975c668dad8bea765f38f249",
        "crb.json":
            "c3df7d27aa08bc96d256f8a7bda14d890e1d43cf55d4e9698edeb6d8ae56c80d",
        "gamma_null.csv":
            "189cb46024b16940826f0e27a38595c99724856403763b068211e3f3c2d047da",
        "gamma_null.json":
            "1e34d97490d742fc37130685683ec5a956492c5c987f4003b6c10d434acf7a1f",
    },
}


# summary.json numbers as the per-lag loop MSD and variance of
# tests/_oracles.py compute them in place of the FFT kernels, which move
# them only by float round-off
SUMMARY_NUMBERS = {
    "readme": {
        "D_nm2_per_s": [10981.00715580746, 120.95911035647067],
        "alpha": [1.0791457215736686, 0.011333052547849522],
        "class_alpha": {"directed": (1.1970103971650534, 0.10370156949701155),
                        "non-directed": (1.0698802826085048, 0.051820509343971394)},
    },
    "criterion13": {
        "D_nm2_per_s": [9041.331107871498, 154.77308475702975],
        "alpha": [0.9754524371021652, 0.015291863904833995],
        "class_alpha": {"non-directed": (0.9908759766572932, 0.0)},
    },
}


def _hashes(out):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir()) if p.name != "cfg.json"}


def _run(argv):
    assert cli.main(argv) == 0, argv


def _simulate_analyze(root, cfg, *extra):
    out = root / "out"
    path = root / "cfg.json"
    path.write_text(json.dumps(cfg))
    common = ["--config", str(path), "--out-dir", str(out)]
    _run(["simulate", *common])
    _run(["analyze", *common, *[a.format(out=out) for a in extra]])
    return out


@pytest.fixture(scope="module")
def readme_run(tmp_path_factory):
    return _simulate_analyze(tmp_path_factory.mktemp("readme"), README_CFG,
                             "--traj", "{out}/estimate.csv",
                             "--temperature", "{out}/temperature.csv")


def _check(name, got):
    assert got == GOLDEN[name], (
        f"golden hashes of run {name!r} changed; pinned with {PINNED_WITH}, "
        f"running numpy {np.__version__} / scipy {scipy.__version__}; "
        f"got {json.dumps(got, indent=1)}")


def test_golden_readme_run(readme_run):
    _check("readme", _hashes(readme_run))


@pytest.fixture(scope="module")
def criterion13_run(tmp_path_factory):
    return _simulate_analyze(tmp_path_factory.mktemp("criterion13"), CRITERION_13_CFG,
                             "--traj", "{out}/truth.csv",
                             "--temperature", "{out}/temperature.csv",
                             "--shifts", "{out}/shifts.csv",
                             "--setpoints", "{out}/setpoints.csv")


def test_golden_criterion13_run(criterion13_run):
    _check("criterion13", _hashes(criterion13_run))


@pytest.mark.parametrize("name", ["readme", "criterion13"])
def test_summary_numbers_match_loop_msd(name, request):
    with open(request.getfixturevalue(f"{name}_run") / "summary.json") as fh:
        got = json.load(fh)
    want = SUMMARY_NUMBERS[name]
    for key in ("D_nm2_per_s", "alpha"):
        assert got[key] == pytest.approx(want[key], rel=1e-10), key
    assert set(got["class_alpha"]) == set(want["class_alpha"])
    for cls, (mean, sd) in want["class_alpha"].items():
        assert got["class_alpha"][cls]["mean"] == pytest.approx(mean, rel=1e-10), cls
        assert got["class_alpha"][cls]["sd"] == pytest.approx(sd, rel=1e-10), cls


def test_golden_small_commands(tmp_path, readme_run):
    out = tmp_path / "out"
    _run(["crb", "--out-dir", str(out)])
    _run(["allan", "--input", str(readme_run / "temperature.csv"),
          "--out-dir", str(out)])
    _run(["gamma-null", "--out-dir", str(out)])
    _check("small", _hashes(out))
