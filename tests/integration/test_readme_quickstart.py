"""The README quickstart snippet must actually run as documented."""


def test_readme_quickstart_snippet():
    from repro import InhibitorDesigner, get_profile

    designer = InhibitorDesigner.from_profile(get_profile("tiny"), seed=0)
    result = designer.design("YBL051C", seed=1, termination=3)

    assert 0.0 <= result.fitness <= 1.0
    profile = result.inhibition_profile()
    assert profile.target == "YBL051C"
    protein = result.designed_protein()
    assert protein.name == "anti-YBL051C"
    assert len(protein.sequence) == get_profile("tiny").candidate_length


def test_readme_telemetry_snippet(tmp_path, result_block_spans):
    from repro import InhibitorDesigner, get_profile
    from repro.telemetry import MetricsRegistry, export_jsonl, summary

    telemetry = MetricsRegistry()
    designer = InhibitorDesigner.from_profile(
        get_profile("tiny"), seed=0, telemetry=telemetry
    )
    designer.design("YBL051C", seed=1, termination=3)
    report = summary(telemetry)
    # The result blocks' spans of the route this process takes.
    for span in result_block_spans:
        assert span in report
    assert export_jsonl(telemetry, tmp_path / "run.jsonl") > 0


def test_top_level_exports_importable():
    import repro

    for name in repro.__all__:
        assert getattr(repro, name) is not None, name


def test_subpackage_all_exports_resolve():
    import importlib

    for module_name in (
        "repro.sequences",
        "repro.substitution",
        "repro.ppi",
        "repro.ga",
        "repro.parallel",
        "repro.cluster",
        "repro.wetlab",
        "repro.analysis",
        "repro.synthetic",
        "repro.experiments",
        "repro.telemetry",
    ):
        module = importlib.import_module(module_name)
        for name in module.__all__:
            assert getattr(module, name) is not None, f"{module_name}.{name}"
