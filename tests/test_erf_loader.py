"""`skattn.tensor` takes scipy's erf ufunc without running scipy.special's
package init, and it is the very object `scipy.special.erf` names.

Each case runs in a fresh interpreter, since what matters is which modules
an import leaves in `sys.modules`. No memory threshold is asserted: how much
the skipped init weighs depends on the numpy and scipy builds.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

FAIL_BARE_LOAD = textwrap.dedent("""
    import importlib.abc

    class FailOnce(importlib.abc.MetaPathFinder):
        # refuses the first import of the ufunc module, as a scipy whose
        # extension could not load under a bare package would
        hits = 0

        def find_spec(self, name, path=None, target=None):
            if name == "scipy.special._ufuncs" and not FailOnce.hits:
                FailOnce.hits += 1
                raise ImportError("refused for the test")
            return None

    sys.meta_path.insert(0, FailOnce())
""")

CASES = {
    "import_skips_the_package_init": """
        import skattn
        assert "scipy.special" not in sys.modules
        assert "scipy.special._ufuncs" in sys.modules
    """,
    "a_later_import_names_the_same_ufunc": """
        import skattn
        import scipy.special
        assert skattn.tensor.erf is scipy.special.erf
        assert scipy.special.erf is scipy.special._ufuncs.erf
        assert hasattr(scipy.special, "gamma")  # the real package init ran
    """,
    "an_imported_scipy_special_is_taken_as_it_is": """
        import scipy.special
        import skattn
        assert skattn.tensor.erf is scipy.special.erf
    """,
    "a_failed_bare_load_falls_back_to_the_package": FAIL_BARE_LOAD + textwrap.dedent("""
        import skattn
        assert FailOnce.hits == 1
        assert "scipy.special" in sys.modules  # the fallback ran the package init
        import scipy.special
        assert skattn.tensor.erf is scipy.special.erf
        assert hasattr(scipy.special, "gamma")
    """),
}


@pytest.mark.parametrize("case", list(CASES))
def test_erf_loader(case):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    script = "import sys\n" + textwrap.dedent(CASES[case])
    run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True,
                         timeout=120)
    assert run.returncode == 0, run.stderr
