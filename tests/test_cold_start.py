"""Cold start: a command imports only the modules it runs.

Every check runs in a fresh interpreter, because this test process already
holds numpy and every hombeat module.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import hombeat

# the package's public names, by the submodule that defines them
PUBLIC_NAMES = {
    "hybrid_state": [
        "EmptyStateError", "InvalidStateError", "PhotonLabel", "Pol", "ProductTerm",
        "TwoPhotonState",
        "apply_polarizer_projection", "apply_qwp", "apply_rotating_qplate", "new_spdc_state",
        "run_pipeline", "state_overlap",
    ],
    "phase_match": [
        "BBO_EIMERL_1987", "CrystalConfig", "EmissionCurve", "IntersectionResult",
        "NoSolutionError", "SellmeierSet", "bandwidth_error", "emission_curves",
        "find_intersection", "frequency_grid", "wavelength_um",
    ],
    "joint_spectrum": [
        "JsaGrid", "PhaseMatchGaussian", "PumpSpectrum", "RdeShift", "effective_coherence_time",
        "jsa_grid", "jsa_value", "peak_locations",
    ],
    "hom_interference": [
        "HomConfig", "HomTrace", "QuadratureError", "RestrictedDensityMatrix",
        "coincidence_numeric", "coincidence_plain", "coincidence_rde", "dip_model",
        "fwhm_bandwidth", "observability", "restricted_density_matrix", "trace", "visibility",
    ],
    "rotation_estimator": [
        "EstimateResult", "NoisyTrace", "estimate", "extract_beat", "synthesize_trace",
    ],
}


def python(args, cwd=None):
    env = {**os.environ, "PYTHONPATH": str(Path(hombeat.__file__).parents[1])}
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env, capture_output=True,
                          text=True, timeout=120)


def run_script(script, cwd=None):
    done = python(["-c", textwrap.dedent(script)], cwd=cwd)
    assert done.returncode == 0, done.stderr
    return done


@pytest.mark.parametrize("argv", [["--version"], ["--help"], ["pipeline"]])
def test_commands_without_arrays_import_no_numpy(argv):
    done = python(["-X", "importtime", "-m", "hombeat", *argv])
    assert done.returncode == 0, done.stderr
    # each log line ends in "| <module>", indented by its import depth
    imported = [line.rsplit("|", 1)[-1].strip() for line in done.stderr.splitlines()
                if line.startswith("import time:")]
    assert "hombeat.cli" in imported
    assert not [name for name in imported if name.split(".")[0] == "numpy"]


def test_the_script_entry_point_runs_pipeline_without_numpy():
    # [project.scripts] calls hombeat.cli:main
    done = run_script(
        """
        import sys
        from hombeat.cli import main

        assert main(["pipeline"]) == 0
        assert "numpy" not in sys.modules
        """
    )
    assert "stage 4" in done.stdout


def test_public_names_resolve_to_their_submodules():
    run_script(
        f"""
        import importlib, sys
        import hombeat

        assert "numpy" not in sys.modules
        modules = {PUBLIC_NAMES!r}
        assert sorted(hombeat.__all__) == sorted(n for names in modules.values() for n in names)
        assert set(hombeat.__all__) <= set(dir(hombeat))
        for module, names in modules.items():
            source = importlib.import_module("hombeat." + module)
            for name in names:
                assert getattr(hombeat, name) is getattr(source, name), name
        namespace = {{}}
        exec("from hombeat import *", namespace)
        assert set(hombeat.__all__) <= set(namespace)
        try:
            hombeat.no_such_name
        except AttributeError:
            pass
        else:
            raise AssertionError("an unknown name resolved")
        """
    )


def test_wrappers_set_before_the_first_call_are_called(tmp_path):
    # perfbench's tracer replaces these names from outside before main runs
    done = run_script(
        """
        import hombeat.cli as cli
        import hombeat.svgplot as svgplot

        calls = []

        def wrap(owner, name):
            original = getattr(owner, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)

            setattr(owner, name, wrapper)

        wrap(cli, "jsa_grid")
        wrap(cli, "write_csv")
        wrap(svgplot, "heatmap")
        assert cli.main(["jsa", "--grid", "16", "--out", "jsa.csv", "--svg", "jsa.svg"]) == 0
        print(*calls)
        """,
        cwd=tmp_path,
    )
    assert done.stdout == "jsa_grid write_csv heatmap\n"
    assert (tmp_path / "jsa.svg").exists()


@pytest.mark.parametrize(
    "name,error,argv",
    [("trace", "hom_interference.QuadratureError", ["hom", "--points", "11"]),
     ("emission_curves", "phase_match.NoSolutionError",
      ["phasematch", "--cut-angle", "41", "--points", "11"])],
)
def test_patched_numerical_failures_exit_3(tmp_path, name, error, argv):
    module, cls = error.split(".")
    done = python(["-c", textwrap.dedent(
        f"""
        import sys
        from hombeat import cli
        from hombeat.{module} import {cls}

        def fail(*args, **kwargs):
            raise {cls}("patched")

        cli.{name} = fail
        sys.exit(cli.main({argv + ["--out", "out.csv"]!r}))
        """
    )], cwd=tmp_path)
    assert done.returncode == 3
    assert done.stderr == "numerical failure: patched\n"
    assert not (tmp_path / "out.csv").exists()
