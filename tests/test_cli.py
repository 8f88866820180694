import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

import areaflow
from areaflow import campaigns
from areaflow.cli import main

SCHEMAS = Path(__file__).resolve().parents[1] / "schemas"
SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


def schema(name):
    return json.loads((SCHEMAS / name).read_text())


def run_cli(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr().out
    return rc, out


TINY_SCENARIO = """
backend = torus
resolution = 16
initial = sine
amplitude = 0.4
t_max = 8.0
cadence = 10
"""


def test_curvature_subcommand(capsys):
    rc, out = run_cli(capsys, "curvature", "cp(2)", "--plane", "1.0")
    assert rc == 0
    payload = json.loads(out)
    jsonschema.validate(payload, schema("curvature.schema.json"))
    assert payload["sectional"] == 4.0
    assert payload["ricci_constant"] == 6.0
    assert payload["bounds"] == {"sec_min": 1.0, "sec_max": 4.0, "ricci": 6.0}


@pytest.mark.parametrize("model, ricci", [("cp(1)", 4.0), ("hp(1)", 12.0)])
def test_projective_lines_print_the_curvature_within_their_bounds(capsys, model, ricci):
    # CP^1 and HP^1 are the half-radius spheres S^2(1/2) and S^4(1/2)
    rc, out = run_cli(capsys, "curvature", model)
    assert rc == 0
    payload = json.loads(out)
    jsonschema.validate(payload, schema("curvature.schema.json"))
    assert payload["sectional"] == 4.0
    assert payload["bounds"] == {"sec_min": 4.0, "sec_max": 4.0, "ricci": ricci}


def test_verify_is_byte_deterministic(capsys):
    rc1, out1 = run_cli(capsys, "verify", "triple_weight", "--samples", "2000", "--seed", "3")
    rc2, out2 = run_cli(capsys, "verify", "triple_weight", "--samples", "2000", "--seed", "3")
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_sectional_reports_c3_ratio(capsys):
    rc, out = run_cli(capsys, "verify", "sectional", "--n", "3", "--m", "2",
                      "--samples", "2000")
    assert rc == 0
    report = json.loads(out)
    ratio = report["configs"][0]["c3_empirical_min_ratio"]
    assert ratio is not None and ratio > 0.0


def test_curvature_bad_model_is_config_error(capsys):
    rc, _ = run_cli(capsys, "curvature", "blob(2)")
    assert rc == 2


def test_unknown_flag_exits_two(capsys):
    rc, _ = run_cli(capsys, "verify", "triple_weight", "--bogus")
    assert rc == 2


def test_criteria_hopf(capsys, tmp_path):
    rc, out = run_cli(capsys, "criteria", "hopf_s3_s2", "--theorem", "13",
                      "--out", str(tmp_path))
    assert rc == 0
    payload = json.loads(out)
    jsonschema.validate(payload, schema("criteria_verdict.schema.json"))
    assert payload["verdict"] == "hypotheses not met"
    assert payload["details"]["sup_two_dilation"] == 4.0
    assert payload["details"]["certified_two_dilation_bound"] == 3.0
    assert "bounds" not in payload
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    jsonschema.validate(manifest, schema("run_manifest.schema.json"))


def test_criteria_parameterized_profile(capsys):
    rc, out = run_cli(capsys, "criteria", "hopf_s2n1_cpn:2", "--theorem", "ricci")
    assert rc == 0
    payload = json.loads(out)
    assert payload["verdict"] == "hypotheses not met"  # sup = 1 is never feasible
    assert payload["details"]["certified_two_dilation_bound"] == pytest.approx(2 / 3)


def test_criteria_profile_from_json(capsys, tmp_path):
    profile = {"name": "probe", "source": "sphere(4)", "target": "sphere(3)",
               "spectra": [[1.0, 0.8, 0.3, 0.0]]}
    path = tmp_path / "profile.json"
    path.write_text(json.dumps(profile))
    rc, out = run_cli(capsys, "criteria", f"@{path}", "--theorem", "13")
    assert rc == 0
    payload = json.loads(out)
    assert payload["rho"] is not None
    assert payload["verdict"].startswith("homotopically trivial")


def _no_constants(token):
    raise ValueError(f"{token} is not JSON")


def _criteria_json(capsys, tmp_path, profile, theorem):
    path = tmp_path / "profile.json"
    path.write_text(json.dumps(profile))
    rc, out = run_cli(capsys, "criteria", f"@{path}", "--theorem", theorem)
    assert rc == 0
    payload = json.loads(out, parse_constant=_no_constants)
    jsonschema.validate(payload, schema("criteria_verdict.schema.json"))
    return payload


def test_criteria_unbounded_interval_prints_strict_json(capsys, tmp_path):
    # 2-dilation 0 leaves the rho^2 interval unbounded above
    payload = _criteria_json(capsys, tmp_path, {"source": "s(3)", "target": "s(2)",
                                                "spectra": [[0, 0, 0]]}, "13")
    assert payload["feasible_interval_rho_sq"] == [1 / 3, None]
    assert payload["verdict"].startswith("homotopically trivial")


def test_criteria_name_the_side_that_blocks(capsys, tmp_path):
    # S^5 -> CP^2: the Einstein comparison needs rho^2 >= 3/2, so the ricci
    # criterion certifies 2-dilations below 2/3, not below cp_bound = 0.8
    lam = 0.7 ** 0.5
    payload = _criteria_json(capsys, tmp_path, {"source": "s(5)", "target": "cp(2)",
                                                "spectra": [[lam, lam, 0, 0, 0]]}, "ricci")
    details = payload["details"]
    assert payload["verdict"] == "hypotheses not met"
    assert "bounds" not in payload
    assert details["curvature_rho_sq"] == [1.5, None]
    assert details["area_decreasing_rho_sq_max"] == pytest.approx(1 / 0.7)
    assert details["certified_two_dilation_bound"] == pytest.approx(2 / 3)
    assert details["failed"].startswith("the area-decreasing side blocks")
    # a flat source has no sectional rho at all
    payload = _criteria_json(capsys, tmp_path, {"source": "torus(3)", "target": "s(2)",
                                                "spectra": [[0.5, 0.5, 0]]}, "sectional")
    details = payload["details"]
    assert details["curvature_rho_sq"] is None
    assert details["certified_two_dilation_bound"] is None
    assert details["area_decreasing_rho_sq_max"] == pytest.approx(4.0)
    assert details["failed"].startswith("the curvature side blocks")


# sha256 of stdout for each argv of the README criteria/curvature loop: every
# named profile under both theorems and one model of each kind.  A digest
# changes only with a behaviour change that CHANGES.md names.
README_LOOP_DIGESTS = {
    ("criteria", "hopf_s3_s2", "--theorem", "sectional"):
        "8303f398c2301287e543579f6853e5d075327a1ade9c544e8f81fd5db3f994ed",
    ("criteria", "hopf_s3_s2", "--theorem", "ricci"):
        "b70a0d47134cf9bd181fe3d07eb3d0edb82dcd3b7a5cd38a76440a17f39373dc",
    ("criteria", "hopf_s7_s4", "--theorem", "sectional"):
        "c31c6ff6ff0a33d47a723929eeacfd57df70a17d7a584921d4ea711e1bc9742c",
    ("criteria", "hopf_s7_s4", "--theorem", "ricci"):
        "e1bb5b5723cc6245f2a70b7a4bfb55e926c57de807b2f0b2c1608221319b2892",
    ("criteria", "hopf_s15_s8", "--theorem", "sectional"):
        "f6721b47653fa7ac8341f61093414a2223215424bbbc4884b9c1d9d977bf10c8",
    ("criteria", "hopf_s15_s8", "--theorem", "ricci"):
        "e1cc25a99ca8b7600c365415d0bede379f2d4938381c09d431ebc458b18ff4fd",
    ("criteria", "hopf_s2n1_cpn:1", "--theorem", "sectional"):
        "b75627f92b845d7bc4d045d0bdaba5fb0c2ca45fe587daeba670cba46e6abdc7",
    ("criteria", "hopf_s2n1_cpn:1", "--theorem", "ricci"):
        "3aad78e39fe1267c78c233a562892cccf0136836298a4f4e702bcae6e20d0db1",
    ("criteria", "hopf_s2n1_cpn:2", "--theorem", "sectional"):
        "dc7780e18ae84987bd7eca3df24e7882a63eea005fb1dcafd343fa802a4e94b0",
    ("criteria", "hopf_s2n1_cpn:2", "--theorem", "ricci"):
        "8549e14f07b36b8260b3f4b6fc39e9b5ccc83fbf902039cead3ec5970d29d035",
    ("criteria", "hopf_s2n1_cpn:3", "--theorem", "sectional"):
        "39eeac0a44dc9b70a435c6dd2d2db19e2399de0bcfa5ce423a24ab045339b676",
    ("criteria", "hopf_s2n1_cpn:3", "--theorem", "ricci"):
        "9fd32444f797132ce66033b93d8146a644f83676813e3cfd3563c90abf790316",
    ("criteria", "hopf_s2n1_cpn:4", "--theorem", "sectional"):
        "9e7455f286d5f33e76ff8d4cae3aba6bcfac4a91c1e7ddebfb325aad0a59502d",
    ("criteria", "hopf_s2n1_cpn:4", "--theorem", "ricci"):
        "254f7a6971edba5ee608b133f8296e1773a30d375cb1c42c371a0370b381092d",
    ("criteria", "identity:2", "--theorem", "sectional"):
        "452bcd8e0a59f759905435c52861120c6d37e567ea2de6a7de6866a14d28c57b",
    ("criteria", "identity:2", "--theorem", "ricci"):
        "f384c39e8e565c5fa74352522de23097b021732b0cd90c804979a2d280cd8ab4",
    ("criteria", "identity:3", "--theorem", "sectional"):
        "919f8904ba6b051ec0b1aaeb24ea8c58fd77ab371a5c031aefbd085d3df3b7a7",
    ("criteria", "identity:3", "--theorem", "ricci"):
        "942e83c3c323910cf04aac0ec63915a22a9ff5a0302936e4051edefc5f052b8f",
    ("criteria", "identity:4", "--theorem", "sectional"):
        "48f7e7ebe15a9284d1ada4358622b32363e0646a311768283fed711218c0deec",
    ("criteria", "identity:4", "--theorem", "ricci"):
        "ef2c58bd91479341be3f9887d27b2f916e54f3f648f5ee001ff9d7fd00e39c6a",
    ("criteria", "identity:5", "--theorem", "sectional"):
        "ea76d989c94be04e7ff33f7bfb1f6ded5f1107e1c69f2b10f81336a63f52ea2b",
    ("criteria", "identity:5", "--theorem", "ricci"):
        "cd67b1bb0dd4219b67ce4046e7c69282a8c21ffb74dafe9ff7408c687a43143a",
    ("curvature", "cp(3) scaled 1.0408", "--plane", "0.5"):
        "05c385985c4f4bd30217142ab4bd806232a957b5cfdd97b41a6d3060f363722f",
    ("curvature", "hp(2)", "--plane", "0.1", "0.2", "0.3"):
        "d08cc8af085e5cf7324e1b0ff9004b4aec164e37449c0a0aae2461065ec13c6d",
    ("curvature", "sphere(4, 0.5)"):
        "fb64d4dd88cc8aaa5a8949212128a65e02c529cd4f292308ac11894bc946a4d0",
    ("curvature", "torus(3)"):
        "6cee4f7330fd90004d967aa3b67b020c66cb5d47cdd4a023a49b1f95b1a8d7a1",
}


# Verdicts the README loop never reaches (all 22 block on the
# area-decreasing side): a witness under each theorem, and a rho^2 interval
# too thin for its witness.  Spectra are written with 17 digits.
PROFILE_DIGESTS = {
    ("sectional_witness", "sectional"): (
        {"source": "s(4)", "target": "cp(2) scaled 1.1",
         "spectra": [[0.52345678901234567, 0.41234567890123456, 0.10987654321098765, 0.0]]},
        "0d1b169632194a62829564b422c19b26d9303927e5d30d3ebc0fca4b1f163f7a"),
    ("ricci_witness", "ricci"): (
        {"source": "s(5)", "target": "cp(2)",
         "spectra": [[0.81234567890123457, 0.69876543210987654, 0.23456789012345678, 0.0, 0.0]]},
        "3b945e3c1a0e75218118ebf03173464888816e354733377de8a7f05045b65b79"),
    ("thin_twin", "ricci"): (
        {"source": "cp(3) scaled 1.0617181278349546",
         "target": "cp(2) scaled 1.1107590000066985",
         "spectra": [[1.2080362778892992, 1.2080362778892992, 0.0, 0.0, 0.0, 0.0]]},
        "ffb7afd86a03373d1c20ebbd3ce48ac165ca8acb165b1ce9661a4831d2b488b1"),
}


def test_readme_criteria_and_curvature_loop_is_pinned(capsys, tmp_path):
    argvs = dict(README_LOOP_DIGESTS)
    for (name, theorem), (profile, digest) in PROFILE_DIGESTS.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"name": name, **profile}))
        argvs["criteria", f"@{path}", "--theorem", theorem] = digest
    changed = []
    for argv, digest in argvs.items():
        rc, out = run_cli(capsys, *argv)
        assert rc == 0
        if hashlib.sha256(out.encode()).hexdigest() != digest:
            changed.append(" ".join(argv))
    assert len(README_LOOP_DIGESTS) == 26
    assert changed == []


# sha256 of `verify <suite> --samples 1500 --seed 3 --exact`, the README
# verify loop's passing reports with their exact-rational blocks.  Master,
# pair_claim and regroup share one memoised block per process, so the
# in-process run also pins that a shared block prints what a fresh one does.
README_EXACT_DIGESTS = {
    "oracle": "f633053ebec9e3e0af55a1ba69abd1e9e72631fe130142d2bda5971ffed0e1d3",
    "master": "75fb7987a709d024edfae00edea0beb5e0d0fe8db379027a96bbe1ad3afada3e",
    "pair_claim": "8d4a75a7eccad8e6dcb2fca0403944669aa976c9320dae2b11e294620c3c39ad",
    "pinch": "b07de5202e76a3548d6aa70fe5e698ba376c56282dda11cdce8afb03de643b4d",
    "gradient_bound": "ebe7eab4e009f662dbf2e9b28014d57ac4d286f9afa097b09de230c2c18f1903",
    "triple_weight": "692fa4aaa028e0b3cbd9e93b5d083a9a5cb5a40d10bbae9b556ef26b15c1abef",
    "regroup": "4a00c00d201f0ff7d24a9e43f91e817385f1781d0f334e50ff41762d2c5c4209",
    "sectional": "8f8649e23dcb7cced12cfb7db54ad875d4a724f27f1db1cd77403737a07b6fc7",
    "ricci": "c23e59307d7794a44d6cae2ade5965b769702bd2c3d17fb5b4dd1707159af633",
}


def test_readme_verify_exact_loop_is_pinned(capsys):
    changed = []
    for suite, digest in README_EXACT_DIGESTS.items():
        rc, out = run_cli(capsys, "verify", suite, "--samples", "1500", "--seed", "3", "--exact")
        assert rc == 0
        if hashlib.sha256(out.encode()).hexdigest() != digest:
            changed.append(suite)
    assert sorted(README_EXACT_DIGESTS) == sorted(campaigns.SUITES)
    assert changed == []


# sha256 of the rest of the README verify loop: each suite's forced
# violations in both directions, whose reports carry `failing_sample`, and
# the two multi-chunk runs.
README_VERIFY_DIGESTS = {
    "oracle --samples 1500 --seed 3 --tol 1e6":
        "b40c608bd546a35430c7646a714a1597a2c60550f08e19ac952aa381073ff69b",
    "oracle --samples 1500 --seed 3 --tol=-1e6":
        "abcc2c063c86b784b229afa12a8362e2a705e7f4f7d8a39e33b3c1f1e4d3ea09",
    "master --samples 1500 --seed 3 --tol 1e6":
        "9806df672384b568d158a4b454e796db8ea394cd3588f085c3483f0edf8b3496",
    "master --samples 1500 --seed 3 --tol=-1e6":
        "452e878620a1b2adf71756190bdc307439db069924023cc82bddf8202123350f",
    "pair_claim --samples 1500 --seed 3 --tol 1e6":
        "46387e9ec81d571a4fd385d10d155b8e1543a81bf89bd8acea9e76291c825f08",
    "pair_claim --samples 1500 --seed 3 --tol=-1e6":
        "616647525a7bc52989448c88f2c42a15ac121b820df1278d7fef02481cbf30be",
    "pinch --samples 1500 --seed 3 --tol 1e6":
        "2909ead763d9cc7d0ce450106a451f8dd979c818a921c420d38d3e21602b4d0e",
    "pinch --samples 1500 --seed 3 --tol=-1e6":
        "cc7bd950f2c8c6bc1423e6b12bfa5884ad43b382a4dd48c8a839981aa40c9865",
    "gradient_bound --samples 1500 --seed 3 --tol 1e6":
        "b4df463607d2a5dfcfe75861e1cc289689297c35109d0ec494ea1f2b9bd3ab7a",
    "gradient_bound --samples 1500 --seed 3 --tol=-1e6":
        "924e847eb136bf347cbd838cbc4c5cb27597474b53b300464cc44349f2efd093",
    "triple_weight --samples 1500 --seed 3 --tol 1e6":
        "b5069be2560fae8d03a988aa31bbf39fd6e32efa7ddf9c9f88f0d53839779272",
    "triple_weight --samples 1500 --seed 3 --tol=-1e6":
        "2d7605769bb8637449181e5109e718a3a3e74041394fa8394383d8003770e66c",
    "regroup --samples 1500 --seed 3 --tol 1e6":
        "ce5a6688573a93ccc641a861b9eda8d6b97f52c684c479d889b0a0f846f8f399",
    "regroup --samples 1500 --seed 3 --tol=-1e6":
        "f4d665e3872e4b76179195044d26880030f1fdaf69639b722eee903ab59d0f36",
    "sectional --samples 1500 --seed 3 --tol 1e6":
        "4c6a0954b58549776caef6cd7bfdf95dd837a9ecd95e8111bd01fc5fcdaa1c68",
    "sectional --samples 1500 --seed 3 --tol=-1e6":
        "a4bb322156f4ba512f7c2510e26039dc6288f7b02634e738face6957e72a24ab",
    "ricci --samples 1500 --seed 3 --tol 1e6":
        "a3be85cbcc491884e5d80b0387944460b86a6d04fb2e8c4e55c908a6a8abcbb7",
    "ricci --samples 1500 --seed 3 --tol=-1e6":
        "6c3dc0780f30f96363f7335ab1411a55fe613274f18d01a58d49d3e5a43f642f",
    "pinch --n 4 --samples 20000 --seed 3 --tol=-1":
        "e7be5544a42176ebd4e070c5021779fb14dc2de1c4e3592c4cf5dc0e13ff2dbc",
    "master --n 4 --m 3 --samples 20000 --seed 5":
        "fe81a453c8cf5f1fa7c715911752833ba8da9b9538f6f9838ba5652a5ff1d604",
}


def test_readme_verify_violation_and_multi_chunk_loop_is_pinned(capsys):
    changed = []
    for argv, digest in README_VERIFY_DIGESTS.items():
        _, out = run_cli(capsys, "verify", *argv.split())
        if hashlib.sha256(out.encode()).hexdigest() != digest:
            changed.append(argv)
    assert len(README_VERIFY_DIGESTS) == 2 * len(campaigns.SUITES) + 2
    assert changed == []


def test_verify_subcommand_report_and_violation(capsys, tmp_path):
    rc, out = run_cli(capsys, "verify", "triple_weight", "--samples", "3000",
                      "--out", str(tmp_path))
    assert rc == 0
    payload = json.loads(out)
    jsonschema.validate(payload, schema("verify_report.schema.json"))
    report = json.loads((tmp_path / "report.json").read_text())
    assert report == payload
    # impossible tolerance: violation with replay payload, exit 1
    rc, out = run_cli(capsys, "verify", "thm32", "--n", "3", "--m", "2",
                      "--samples", "2000", "--tol", "1e6")
    assert rc == 1
    payload = json.loads(out)
    jsonschema.validate(payload, schema("verify_report.schema.json"))
    assert payload["configs"][0]["failing_sample"] is not None


@pytest.mark.parametrize("suite", sorted(campaigns.SUITES))
def test_every_suite_report_matches_schema(capsys, suite):
    n, m = min(campaigns.SUITES[suite][1])
    argv = ("verify", suite, "--n", str(n), "--m", str(m), "--samples", "1000", "--exact")
    rc, out = run_cli(capsys, *argv)
    assert rc == 0
    jsonschema.validate(json.loads(out), schema("verify_report.schema.json"))
    # a tolerance every sample violates: the report carries a replay payload
    forcing = "1e6" if campaigns.SPECS[suite].kind == "min_gap" else "-1e6"
    rc, out = run_cli(capsys, *argv, f"--tol={forcing}")
    assert rc == 1
    payload = json.loads(out)
    jsonschema.validate(payload, schema("verify_report.schema.json"))
    assert payload["configs"][0]["failing_sample"] is not None


def test_negative_exponent_tol_as_separate_word(capsys):
    argv = ("verify", "master", "--n", "2", "--m", "2", "--samples", "1000")
    rc_attached, attached = run_cli(capsys, *argv, "--tol=-1e-10")
    rc_separate, separate = run_cli(capsys, *argv, "--tol", "-1e-10")
    assert rc_attached == rc_separate == 0
    assert separate == attached
    assert json.loads(separate)["configs"][0]["tolerance"] == -1e-10


@pytest.mark.parametrize("argv", [
    ("master", "--samples", "0"),
    ("pinch", "--samples", "-5"),
    ("triple_weight", "--samples", "0"),
    ("sectional", "--samples", "0"),
    ("master", "--n", "1", "--samples", "100"),
    ("sectional", "--n", "3", "--m", "1", "--samples", "100"),
    ("pair_claim", "--n", "3", "--m", "0", "--samples", "100"),
    ("regroup", "--m", "2", "--samples", "100"),
    ("triple_weight", "--n", "7", "--samples", "100"),
    ("oracle", "--tol", "inf", "--n", "2", "--samples", "10"),
    ("master", "--tol", "nan", "--n", "2", "--samples", "10"),
])
def test_verify_rejects_vacuous_or_out_of_sweep_input(capsys, argv):
    rc, out = run_cli(capsys, "verify", *argv)
    assert rc == 2
    assert out == ""


def test_flow_subcommand_outputs_and_determinism(capsys, tmp_path):
    scenario = tmp_path / "tiny.cfg"
    scenario.write_text(TINY_SCENARIO)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    rc, _ = run_cli(capsys, "flow", str(scenario), "--out", str(out_a))
    assert rc == 0
    rc, _ = run_cli(capsys, "flow", str(scenario), "--out", str(out_b))
    assert rc == 0
    csv_a = (out_a / "timeseries.csv").read_bytes()
    csv_b = (out_b / "timeseries.csv").read_bytes()
    assert csv_a == csv_b
    verdict = json.loads((out_a / "verdict.json").read_text())
    jsonschema.validate(verdict, schema("flow_verdict.schema.json"))
    assert (out_a / "verdict.json").read_bytes() == (out_b / "verdict.json").read_bytes()
    manifest = json.loads((out_a / "manifest.json").read_text())
    jsonschema.validate(manifest, schema("run_manifest.schema.json"))
    assert set(manifest["outputs"]) == {"timeseries.csv", "verdict.json"}


# A short 128^2 torus run whose monitor is read every 5 steps (6 records),
# pinned by the sha256 of its two deterministic outputs.
SHORT_128_SCENARIO = """
backend = torus
resolution = 128
initial = sine
amplitude = 0.5
t_max = 0.005
cadence = 5
"""
SHORT_128_DIGESTS = {
    "timeseries.csv": "955458fc817a92aaedf005c306e6d307014a38fe0e2d150004c5a8b620e463e5",
    "verdict.json": "493137fe3734b79c4b6f5d81ba6027c4ec3ac53b640ac29a46b421fefb98eafb",
}


def test_short_128_torus_flow_outputs_are_pinned(capsys, tmp_path):
    scenario = tmp_path / "short_128.cfg"
    scenario.write_text(SHORT_128_SCENARIO)
    rc, _ = run_cli(capsys, "flow", str(scenario), "--out", str(tmp_path / "o"))
    assert rc == 1   # stopped at t_max: outcome "timeout"
    digests = {name: hashlib.sha256((tmp_path / "o" / name).read_bytes()).hexdigest()
               for name in SHORT_128_DIGESTS}
    assert digests == SHORT_128_DIGESTS


def test_flow_timings_go_to_manifest_only(capsys, tmp_path):
    scenario = tmp_path / "tiny.cfg"
    scenario.write_text(TINY_SCENARIO)
    rc, out = run_cli(capsys, "flow", str(scenario), "--out", str(tmp_path / "o"))
    assert rc == 0
    config = json.loads((tmp_path / "o" / "manifest.json").read_text())["config"]
    assert config["elapsed_s"] > 0 and config["steps_per_s"] > 0
    verdict = json.loads((tmp_path / "o" / "verdict.json").read_text())
    assert json.loads(out) == verdict
    csv_text = (tmp_path / "o" / "timeseries.csv").read_text()
    for key in ("elapsed_s", "steps_per_s"):
        assert key not in verdict and key not in csv_text


@pytest.mark.parametrize("line", ["wibble = 3", "plots = true", "cadence = 0", "cadence = -3",
                                  "n = 0", "m = 0", "amplitude = nan", "t_max = nan",
                                  "lambda_stop = inf", "monotonicity_c = nan",
                                  "steady_c = -inf", "t_max = 0", "lambda_stop = -1",
                                  "monotonicity_c = -1", "steady_c = -0.5"],
                         ids=lambda line: line.replace(" ", ""))
def test_flow_bad_scenario_is_config_error(capsys, tmp_path, line):
    bad = tmp_path / "bad.cfg"
    bad.write_text(f"backend = torus\n{line}\n")
    rc, _ = run_cli(capsys, "flow", str(bad), "--out", str(tmp_path / "out"))
    assert rc == 2
    assert not (tmp_path / "out").exists()


BAD_PROFILES = {
    "no_target": {"source": "sphere(3)", "spectra": [[1.0, 0.5, 0.0]]},
    "number_model": {"source": 3, "target": "sphere(2)", "spectra": [[1.0, 0.5, 0.0]]},
    "list": [{"source": "sphere(3)", "target": "sphere(2)", "spectra": [[1.0, 0.5, 0.0]]}],
    "no_rows": {"source": "sphere(3)", "target": "sphere(2)", "spectra": []},
    "short_row": {"source": "s(5)", "target": "s(3)", "spectra": [[0.5, 0.4]]},
    "long_row": {"source": "s(5)", "target": "s(3)", "spectra": [[0.5, 0.4, 0.1] + [0.0] * 5]},
}


@pytest.mark.parametrize("argv", [
    *[("criteria", f"@{{tmp}}/{name}.json", "--theorem", "13") for name in BAD_PROFILES],
    ("criteria", "@{tmp}", "--theorem", "13"),
    ("criteria", "hopf_s3_s2:5", "--theorem", "13"),
    ("criteria", "hopf_s15_s8(2)", "--theorem", "ricci"),
    ("flow", "{tmp}", "--out", "{tmp}/out"),
    ("curvature", "cp(2)", "--plane", "0.1", "0.2"),
    ("curvature", "hp(2)", "--plane", "0.5"),
    ("curvature", "s(2)", "--plane", "5", "1", "1"),
    ("curvature", "torus(2)", "--plane", "0.5"),
    ("curvature", "cp(1)", "--plane", "0.3"),
    ("curvature", "hp(1)", "--plane", "0", "0", "0"),
], ids=lambda argv: "-".join(argv[:2]).replace("{tmp}/", "").replace("{tmp}", "dir"))
def test_malformed_input_is_config_error(capsys, tmp_path, argv):
    for name, data in BAD_PROFILES.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(data))
    rc = main([word.format(tmp=tmp_path) for word in argv])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert not (tmp_path / "out").exists()


def test_shipped_scenarios_parse():
    from areaflow.flowsim import parse_scenario
    for name in ("torus_sine_05.cfg", "torus_sine_05_128.cfg",
                 "equivariant_sin_03.cfg", "equivariant_identity.cfg"):
        config = parse_scenario(SCENARIOS / name)
        assert config.cfl <= 0.25


def test_import_does_no_table_work():
    """Importing the CLI builds no pair-operator table and caches no node
    angles: work done at import time is paid by every command's startup."""
    code = ("import areaflow.cli\n"
            "from areaflow import svcore\n"
            "from areaflow.flowsim import state\n"
            "print(len(svcore._PAIR_TABLES), state.node_angles.cache_info().currsize)\n")
    src = str(Path(areaflow.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout.split() == ["0", "0"]
