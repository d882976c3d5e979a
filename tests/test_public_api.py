"""The package's public surface, pinned so removals are deliberate."""

import inspect

import csiaug
import csiaug.cli

PUBLIC_NAMES = {
    "AngularDelayMatrix",
    "AugmentMethod",
    "AugmentMode",
    "AugmentParams",
    "AugmentationRecord",
    "CorruptedFileError",
    "Dataset",
    "Domain",
    "EvalReport",
    "FileFormatError",
    "LinearCodec",
    "Provenance",
    "ScenarioSpec",
    "ShiftDirection",
    "Spectrum",
    "SweepSummary",
    "TrialResult",
    "augment_dataset",
    "bubble_shift_down",
    "bubble_shift_up",
    "decompose",
    "derive_seed",
    "evaluate",
    "fit_codec",
    "fit_spectrum",
    "generate_angular_dataset",
    "generate_dataset",
    "inverse_transform_dataset",
    "load_scenario",
    "make_generator",
    "md_baseline",
    "nmse",
    "parse_ratio",
    "random_generation",
    "read_codec",
    "read_dataset",
    "read_report",
    "read_summary",
    "recompose",
    "save_scenario",
    "sweep",
    "transform_dataset",
    "write_codec",
    "write_dataset",
    "write_report",
    "__version__",
}

# Names perfbench/workloads.py reaches through ``csiaug``.
BENCHMARK_NAMES = (
    "AngularDelayMatrix",
    "AugmentMethod",
    "AugmentMode",
    "AugmentParams",
    "augment_dataset",
    "bubble_shift_down",
    "bubble_shift_up",
    "decompose",
    "evaluate",
    "fit_codec",
    "generate_angular_dataset",
    "generate_dataset",
    "load_scenario",
    "read_codec",
    "read_dataset",
    "read_report",
    "recompose",
    "transform_dataset",
    "write_codec",
    "write_dataset",
)

# Stage functions the benchmark swaps into ``csiaug.cli`` to trace the CLI:
# those the CLI calls.  ``gen``, ``transform`` and ``augment`` stream their
# chunks from source to file without generate_dataset, transform_dataset,
# augment_dataset or write_dataset, ``fit`` fills its features from the
# file's chunks without read_dataset or fit_codec, and ``eval`` reconstructs
# the test file's chunks without read_dataset or evaluate.
CLI_STAGES = (
    "read_codec",
    "write_codec",
)


def test_all_is_pinned_and_resolves():
    assert len(csiaug.__all__) == len(set(csiaug.__all__))
    assert set(csiaug.__all__) == PUBLIC_NAMES
    for name in csiaug.__all__:
        assert hasattr(csiaug, name), name


def test_benchmark_names_stay_exported():
    for name in BENCHMARK_NAMES:
        assert name in csiaug.__all__ and callable(getattr(csiaug, name)), name
    for name in CLI_STAGES:
        assert getattr(csiaug.cli, name) is getattr(csiaug, name), name


def test_no_public_function_takes_a_private_parameter():
    # A knob only the package's own code may turn belongs to a private
    # function, not to the signature every caller reads.
    for name in csiaug.__all__:
        obj = getattr(csiaug, name)
        if inspect.isfunction(obj):
            private = [p for p in inspect.signature(obj).parameters if p.startswith("_")]
            assert not private, (name, private)
