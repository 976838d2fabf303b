import tempfile

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

# property tests draw the same examples on every run and keep no example
# database, so the suite stays deterministic
settings.register_profile("deterministic", derandomize=True, database=None,
                          deadline=None)
settings.load_profile("deterministic")

# what Hypothesis still caches (constants read from the code under test)
# goes to a directory removed when the interpreter exits, not into the
# working directory
_HYPOTHESIS_HOME = tempfile.TemporaryDirectory(prefix="hypothesis-")
set_hypothesis_home_dir(_HYPOTHESIS_HOME.name)
