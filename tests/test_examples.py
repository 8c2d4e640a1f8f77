"""Smoke checks for the example scripts.

Each example is imported (not executed -- they only run under
``__main__``) so that API drift in the library breaks the suite, not a
user's first session.
"""

import importlib.util
import pathlib

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).parent.parent / "examples"
EXAMPLES = sorted(EXAMPLES_DIR.glob("*.py"))


@pytest.mark.parametrize(
    "path", EXAMPLES, ids=[p.stem for p in EXAMPLES]
)
def test_example_imports(path):
    spec = importlib.util.spec_from_file_location(f"example_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert hasattr(module, "main"), f"{path.name} must define main()"
    assert callable(module.main)


def test_expected_examples_present():
    names = {p.stem for p in EXAMPLES}
    assert {
        "quickstart",
        "graph_analytics",
        "churn_adaptation",
        "capacity_planning",
        "custom_policy",
        "multihost_pooling",
    } <= names


def test_custom_policy_kill_resume_is_bit_identical(tmp_path):
    """The example policy declares its state, so resume does not diverge."""
    from repro import ExperimentConfig, SyntheticZipfWorkload, run_experiment

    path = EXAMPLES_DIR / "custom_policy.py"
    spec = importlib.util.spec_from_file_location("example_custom_policy", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)

    def workload():
        return SyntheticZipfWorkload(
            num_pages=16_384, alpha=1.2, accesses_per_batch=40_000, seed=4
        )

    def policy():
        return module.SampledLFU(seed=4)

    def config(batches):
        return ExperimentConfig(
            local_fraction=0.08, ratio_label="1:16", max_batches=batches, seed=4
        )

    reference = run_experiment(workload, policy, config(40))
    ckpt = tmp_path / "ck"
    run_experiment(
        workload,
        policy,
        config(17),
        checkpoint_dir=ckpt,
        checkpoint_every_batches=5,
    )
    resumed = run_experiment(workload, policy, config(40), resume_from=ckpt)
    assert reference.pages_migrated > 0
    assert resumed.to_dict() == reference.to_dict()
