"""``import purebirth`` loads only the modules that a call uses.

The check runs in a fresh interpreter, since this process has long loaded
every module.  Run as a script, ``python tests/test_lazy_imports.py``, it
checks whichever purebirth the interpreter imports: from a checkout without
PYTHONPATH, that is the installed package.
"""

import os
import pathlib
import subprocess
import sys

ENGINES = ("purebirth.analytic", "purebirth.forward", "purebirth.montecarlo",
           "purebirth.cli", "concurrent.futures")
SUBMODULES = ("analytic", "errors", "forward", "montecarlo", "rates")


def loaded(names):
    return [name for name in names if name in sys.modules]


def check():
    import purebirth

    # the paper's tournament, as the benchmark's start-up probe builds it
    purebirth.yule_scaled(2000, 1.0, 0.31, "hours")
    assert loaded(ENGINES) == [], loaded(ENGINES)

    model = purebirth.hypergeometric_mixing(4, 1.0, 1.0)
    purebirth.estimate_absorption_time(model, 1, 2 * 1024, 7, n_jobs=1)
    assert loaded(["purebirth.montecarlo"]) == ["purebirth.montecarlo"]
    assert loaded(["concurrent.futures"]) == []
    # two blocks run on two threads wherever there are two CPUs
    purebirth.estimate_absorption_time(model, 1, 2 * 1024, 7, n_jobs=2)
    assert (loaded(["concurrent.futures"]) != []) == \
        ((os.cpu_count() or 1) > 1)

    for name in SUBMODULES:
        module = getattr(purebirth, name)
        assert module is sys.modules[f"purebirth.{name}"], name

    # test_rates.test_public_names pins the names themselves
    public = purebirth.__all__
    assert len(public) == 26 and dir(purebirth) == sorted(public)
    for name in public:
        value = getattr(purebirth, name)
        home = value.__module__
        assert home in {f"purebirth.{m}" for m in SUBMODULES}, (name, home)
        assert getattr(sys.modules[home], name) is value, name
    star = {}
    exec("from purebirth import *", star)
    assert sorted(set(star) - {"__builtins__"}) == sorted(public)
    assert all(star[name] is getattr(purebirth, name) for name in public)

    try:
        purebirth.nope
    except AttributeError as error:
        assert "nope" in str(error), error
    else:
        raise AssertionError("purebirth.nope resolved")
    print(f"purebirth from {purebirth.__file__}: loads only what a call uses")


def test_import_loads_only_what_a_call_uses():
    import purebirth

    env = dict(os.environ, PYTHONPATH=str(
        pathlib.Path(purebirth.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, __file__], capture_output=True,
                          text=True, env=env)
    assert done.returncode == 0, done.stderr


if __name__ == "__main__":
    check()
