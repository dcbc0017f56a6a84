"""The documentation gate: links resolve, examples run, dotted names import.

Delegates to ``tools/check_docs.py`` (the same entry point CI's docs job
uses) so local runs and CI cannot disagree about what "docs pass" means.
The catalogue-completeness half of the docs contract lives next to the
metrics tests (``tests/runtime/test_observe.py::test_every_metric_documented``).
"""

import os
import pathlib
import subprocess
import sys
import textwrap

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


@pytest.mark.fault_stress  # executes the observed-farm walkthrough block
def test_docs_links_and_examples():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "check_docs.py")],
        capture_output=True, text=True, timeout=300, env=env,
    )
    assert proc.returncode == 0, (
        f"docs check failed:\n{proc.stdout}\n{proc.stderr}"
    )


def _check_docs_module():
    """``tools/check_docs.py`` loaded as a module (``tools`` is no package)."""
    import importlib.util

    spec = importlib.util.spec_from_file_location(
        "check_docs", ROOT / "tools" / "check_docs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("dotted", [
    "repro.runtime.channels",                 # a module
    "repro.connectors.library.connector",     # a function
    "repro.fuzz.harness.MODES",               # a module attribute
    "repro.runtime.channels.Channel.connect", # an attribute of a class
])
def test_dotted_name_pass_resolves_live_names(dotted):
    _check_docs_module().resolve(dotted)


def test_dotted_name_pass_flags_a_missing_attribute():
    with pytest.raises(AttributeError):
        _check_docs_module().resolve("repro.connectors.library.get")


def test_dotted_name_pass_flags_a_deleted_module():
    with pytest.raises(ImportError):
        _check_docs_module().resolve("repro.util.timing")


def test_dotted_name_pass_leaves_names_with_missing_third_party_imports_unchecked():
    """CI's docs job installs no dependencies: a name whose import needs
    numpy (``repro.npb``) is unchecked there, not a failure, while a
    deleted repro module still fails."""
    code = textwrap.dedent("""
        import importlib.util, sys
        sys.modules["numpy"] = sys.modules["scipy"] = None  # not installed
        spec = importlib.util.spec_from_file_location("check_docs", sys.argv[1])
        check_docs = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(check_docs)
        errors, unchecked = check_docs.check_dotted_names()
        assert errors == [] and unchecked > 0, (errors, unchecked)
        assert check_docs.resolve("repro.npb.cg") is False
        try:
            check_docs.resolve("repro.util.timing")
        except ImportError:
            pass
        else:
            raise AssertionError("a deleted repro module resolved")
    """)
    proc = subprocess.run(
        [sys.executable, "-c", code, str(ROOT / "tools" / "check_docs.py")],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_dotted_name_pass_reads_the_leading_dotted_name():
    pattern = _check_docs_module().DOTTED_RE
    text = ("`repro.runtime.channels.channel(capacity=1)` and "
            "`python -m repro fig12` and `reprox.foo` and `repro`")
    assert pattern.findall(text) == ["repro.runtime.channels.channel"]
