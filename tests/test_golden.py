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
            "dd2dc13e90a2dc0580eac900ae8d67603f99774e9a1b5460cb74a13d8e74536a",
        "diagnostics.csv":
            "0fdf9b76c3602b40c26edaa1743688f715d0001086e3000d79cf0a527da99c85",
        "estimate.csv":
            "e89c9b65ae9e618195f5e617ea21b698c1bd0163a76d65408700e5a014774269",
        "force.csv":
            "19dfab1c574fe74fadb570506f98c6e0a29eef796ef3dbbfee578148e6206708",
        "labels.csv":
            "7f0ca7d011eba91c3a249a13591033e09366fa25b17a0fa76434264f17449af2",
        "modulus.csv":
            "7ce0a42f17b9475753379b68475e734336a1a0e1d978020c27ad6e8f055de611",
        "msd.csv":
            "e2be14b483dd320a484e7e50ef6b4284f5a6d95b4d8cb7c76b8fb59219a3a1c1",
        "psd.csv":
            "e87bbb86cce6d1364cabf25367626b1ad588ca2d051bc5fc074a5919fc2d1e98",
        "setpoints.csv":
            "36934d2761eeccbc04946b32db40ad7c4c8b508a7460c7f1223cf65bc5b7d478",
        "shifts.csv":
            "6a0ce9bb8957da683c698f6d56ce69c7f71138717e3bc10695c73fc98f1d2569",
        "summary.json":
            "68e0b9927208ea7ba9430cb1a9fc9054003764ff61cfa711454500608d712077",
        "temperature.csv":
            "11b172b7ec2740c9d6c9c6de799af2cb19a705b7ba34db8ab52b6bfdd6076c25",
        "timeline.csv":
            "1ba230292e4e61ec880d531dd6e06f525eb8cc1b538a8913004661feed72d033",
        "truth.csv":
            "b1def8b612ab1d0c795128578ea71ae41fa833d8727920e9d9c2315937841d3f",
    },
    "criterion13": {  # 11 files
        "allan.csv":
            "183c6546d9d9d81819e5386e96fc53076904f8490a638510c008812664697f7e",
        "diagnostics.csv":
            "f0273dcd6178d112b75df892df34c1bf6fe08575abe14da8b11f8c98b57b0d47",
        "estimate.csv":
            "dcd43b2317bfc4d7e6f975cbb4de6dadfc30062f19b053030b690eac9572e5a1",
        "labels.csv":
            "7b62dc64c73b725d8f876c81ef91908c88a4c27b54564f269aadaed1b91b8cdd",
        "msd.csv":
            "d796cb0644a078e94e8703dae6ffc990267f4cc7a443fa4a2a64571f3cb69b5d",
        "setpoints.csv":
            "2186b361df4f21e696fc0f61295c3670c65bb0f214fe7471afdaf39cd1dcd9e4",
        "shifts.csv":
            "21f78f407289ee779aea644a6d6aa0fd233c77c0671d152d2a246c3d7c257bd9",
        # its kappa is one 1/sigma^2-weighted line through every shift bin
        # against the setpoint at the bin start, ramps included
        "summary.json":
            "6f98335e69fb821f3d5328a95f390a009e37c7ac6e5a3d48d0b803d95faebc13",
        "temperature.csv":
            "35e6d2c3c7aea654c3ffa3996d652e2a546aafda7b87aca0790f1dc35301d8c1",
        "timeline.csv":
            "1ba230292e4e61ec880d531dd6e06f525eb8cc1b538a8913004661feed72d033",
        "truth.csv":
            "0676bc124f5ba843b5a0a16610ba6cedba2e5b2d01645cc811a52095072094f4",
    },
    "small": {  # 4 files
        "allan.csv":
            "dd2dc13e90a2dc0580eac900ae8d67603f99774e9a1b5460cb74a13d8e74536a",
        "crb.json":
            "c3df7d27aa08bc96d256f8a7bda14d890e1d43cf55d4e9698edeb6d8ae56c80d",
        "gamma_null.csv":
            "189cb46024b16940826f0e27a38595c99724856403763b068211e3f3c2d047da",
        "gamma_null.json":
            "1d2709e85c7384385fbd4f4b78bc3b2e6e3e499c41e996e5d3285b601094cd17",
    },
}


# summary.json numbers as the per-lag loop MSD and variance of
# tests/_oracles.py compute them in place of the FFT kernels, which move
# them only by float round-off
SUMMARY_NUMBERS = {
    "readme": {
        "D_nm2_per_s": [10962.987394834188, 120.85515269489592],
        "alpha": [1.078304833700105, 0.011324947916284328],
        "class_alpha": {"directed": (1.1999849896409058, 0.10304209025751461),
                        "non-directed": (1.0670042106177597, 0.05076666959096419)},
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
