"""A march in Fourier space never loads scipy.

Each case runs the command line in a fresh interpreter whose import system
refuses ``scipy``, and again in one that does not: the exit code, both
streams and every file written must be the same.  A variable-coefficient
study, which factors by sparse LU, shows that the refusal is live.  The
module imports no scipy itself, so it also runs where scipy is absent.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

# argv: "blocked" or "open", then the command line, empty for the import alone
HARNESS = """\
import sys


class RefuseScipy:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "scipy":
            raise ModuleNotFoundError(f"No module named {name!r}", name=name)


if sys.argv[1] == "blocked":
    sys.meta_path.insert(0, RefuseScipy())
import spdefd
from spdefd.cli import main

sys.exit(main(sys.argv[2:]) if sys.argv[2:] else 0)
"""

STOCH_TRANSPORT = """\
[problem]
name = stoch-transport
beta = 0.3
extra_diffusion = 0.05
[time]
n = 16
[space]
points0 = 8
rungs = 3
[reference]
mode = spectral
[run]
seeds = 1,2
out = out
"""

CONFIGS = {
    "stoch-transport.ini": STOCH_TRANSPORT,
    "correctors-k3.ini": STOCH_TRANSPORT + "[correctors]\nk = 3\n",
    "heat1d.ini": "[problem]\nname = heat1d\n[time]\nn = 8\n[run]\nout = out\n",
    # example2's one-sided terms of constant cross coefficients
    "drift1d-example2.ini": "[problem]\nname = drift1d\n[scheme]\n"
                            "constructor = example2\n[time]\nn = 16\n"
                            "[space]\npoints0 = 8\nrungs = 3\n[reference]\n"
                            "mode = spectral\n[run]\nout = out\n",
    "unknown.ini": "[problem]\nname = nope\n",
    "var-coef1d.ini": "[problem]\nname = var-coef1d\n[time]\nn = 8\n"
                      "[space]\npoints0 = 8\nrungs = 2\n[run]\nout = out\n",
}


def run(tmp_path: Path, mode: str, argv: list) -> tuple:
    """Run the harness in a directory of its own; its exit code, streams and
    the files it wrote."""
    cwd = tmp_path / mode
    cwd.mkdir()
    for name, text in CONFIGS.items():
        (cwd / name).write_text(text)
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))
    done = subprocess.run([sys.executable, "-c", HARNESS, mode] + argv, cwd=cwd,
                          env=env, capture_output=True, timeout=120)
    files = {p.relative_to(cwd).as_posix(): p.read_bytes()
             for p in sorted(cwd.rglob("*")) if p.is_file()}
    return done.returncode, done.stdout, done.stderr, files


@pytest.mark.parametrize("argv, code", [
    ([], 0),
    (["accelerate", "--config", "stoch-transport.ini"], 0),
    (["accelerate", "--config", "drift1d-example2.ini"], 0),
    (["correctors", "--config", "correctors-k3.ini"], 0),
    (["solve", "--config", "heat1d.ini"], 0),
    (["converge", "--config", "unknown.ini"], 3),
], ids=["import", "accelerate-spectral", "accelerate-drift1d-example2",
        "correctors-k3", "solve-heat1d",
        "config-error"])
def test_runs_without_scipy(tmp_path, argv, code):
    blocked = run(tmp_path, "blocked", argv)
    assert blocked[0] == code, blocked[2].decode()
    assert blocked == run(tmp_path, "open", argv)


def test_sparse_lu_needs_scipy(tmp_path):
    # a config error, exit 3, in one line and without a traceback
    code, _, err, _ = run(tmp_path, "blocked",
                          ["accelerate", "--config", "var-coef1d.ini"])
    assert code == 3
    assert err.decode() == "missing dependency: No module named 'scipy'\n"
