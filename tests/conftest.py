"""Shared fixtures: a fresh build of the compiled kernels, and a way to run
the CLI of a given ``redword`` package in a fresh process."""

import importlib.util
import os
import pathlib
import shutil
import subprocess
import sys
import sysconfig

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _have_compiler() -> bool:
    compiler = os.environ.get("CC") or sysconfig.get_config_var("CC") or "cc"
    compiler = compiler.split()[0]
    header = pathlib.Path(sysconfig.get_paths()["include"], "Python.h")
    return shutil.which(compiler) is not None and header.exists()


def run_package(lib, argv):
    """The backend and the CLI stdout of the ``redword`` package in lib."""
    probe = (
        "import sys, redword.cli, redword.kernels as k; print(k.BACKEND);"
        " redword.cli.run(sys.argv[1:])"
    )
    env = dict(os.environ, PYTHONPATH=str(lib))
    out = subprocess.run(
        [sys.executable, "-c", probe, *argv],
        env=env, capture_output=True, text=True, check=True,
    )
    backend, _, stdout = out.stdout.partition("\n")
    return backend, stdout


@pytest.fixture(scope="session")
def built_package(tmp_path_factory) -> pathlib.Path:
    """A directory holding the ``redword`` package with its extension
    compiled from the current source by ``setup.py``, warnings as errors.

    Skips the tests that use it when no C compiler is available.
    """
    if not _have_compiler():
        pytest.skip("no C compiler to build redword._speedups")
    base = tmp_path_factory.mktemp("build")
    lib = base / "lib"
    shutil.copytree(
        ROOT / "src" / "redword",
        lib / "redword",
        ignore=shutil.ignore_patterns("__pycache__", "*.so", "*.c"),
    )
    env = dict(os.environ, CFLAGS="-std=c99 -Wall -Wextra -Wpedantic -Werror")
    done = subprocess.run(
        [sys.executable, "setup.py", "build_ext",
         "--build-lib", str(lib), "--build-temp", str(base / "obj")],
        cwd=ROOT, env=env, capture_output=True, text=True,
    )
    suffix = sysconfig.get_config_var("EXT_SUFFIX")
    if not (lib / "redword" / f"_speedups{suffix}").exists():
        # the extension is optional, so setup.py succeeds without it
        pytest.fail(f"redword._speedups did not build:\n{done.stderr}")
    return lib


@pytest.fixture(scope="session")
def compiled_backend(built_package):
    """The freshly built ``redword._speedups`` module, loaded beside the
    one the package imported (if any) rather than in its place."""
    suffix = sysconfig.get_config_var("EXT_SUFFIX")
    path = built_package / "redword" / f"_speedups{suffix}"
    spec = importlib.util.spec_from_file_location("redword._speedups", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
