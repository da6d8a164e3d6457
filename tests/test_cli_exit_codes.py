"""``sgclone.cli.main`` picks every exit code, by one rule.

0 when a command ran and, for a verification suite, every check passed; 1
exactly when the payload is a failed report; 2 on a usage error, which
``main`` returns on ``SGCloneError`` and argparse raises as ``SystemExit(2)``.
Nothing else may escape.  ``main`` is the one place that chooses the code, so
the property calls it in-process, not in a subprocess.  Sizes stay small (tables
of at most 8 x 8, at most 8 nodes per axis, at most 2000 samples), because
``hermgauss(n)`` builds an n x n matrix; verify-mc's samples are binned counts,
whose cost hardly grows with their number, and stay small only to read plainly.
"""

import contextlib
import io

import pytest
from hypothesis import example, given, settings, strategies as st

from sgclone import verify
from sgclone.cli import main

JUNK = st.sampled_from(["inf", "-inf", "nan", "x", "", "1.5", "1e3", "--"])
COUNTS = st.integers(-2, 8).map(str) | JUNK
REALS = st.floats().map(repr) | st.integers(-3, 3).map(str) | JUNK

#: command -> (the tokens it always takes, {option: values}).  verify-fock always
#: takes --nodes and verify-mc --samples: their defaults cost up to half a second a run.
COMMANDS = {
    "fidelity": ([COUNTS] * 2, {}),
    "variance": ([COUNTS] * 2, {"--r": REALS | st.sampled_from(["400", "-400", "1e300"])}),
    "cascade": ([COUNTS] * 3, {}),
    "table": ([COUNTS] * 2, {}),
    "verify-bounds": ([], {}),
    "verify-fock": ([COUNTS.map("--nodes={}".format)],
                    {"--tolerance": REALS, "--cutoff": st.integers(-1, 48).map(str) | JUNK}),
    "verify-mc": ([(st.integers(-1, 2000).map(str) | JUNK).map("--samples={}".format)],
                  {"--seed": st.integers(-2, 2**64).map(str) | JUNK}),
    "no-such-command": ([], {}),
}
FORMATS = st.sampled_from(["text", "csv", "json", "xml"])


@st.composite
def argvs(draw):
    """A command, the tokens it always takes, then each option given or not, as ``--flag=value``."""
    command = draw(st.sampled_from(sorted(COMMANDS)))
    tokens, options = COMMANDS[command]
    argv = [command, *[draw(token) for token in tokens]]
    for flag, values in {**options, "--format": FORMATS}.items():
        if draw(st.booleans()):
            argv.append(f"{flag}={draw(values)}")
    return argv


@settings(max_examples=100, deadline=None)
@example(argv=["verify-mc", "--samples=2"])  # fails its checks: exit 1
@example(argv=["verify-fock", "--nodes=8", "--tolerance=-1", "--format=csv"])  # exit 1
@example(argv=["cascade", "1", "2", "4", "--format=json"])  # exit 0
@given(argv=argvs())
def test_exit_code_is_one_exactly_for_a_failed_report(bounds_report, argv):
    reports = []

    def recorded(suite):
        def run(**options):
            reports.append(suite(**options))
            return reports[-1]
        return run

    # verify-bounds renders the session's report, as a rerun would give the same one
    with pytest.MonkeyPatch.context() as patch, contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        patch.setattr(verify, "verify_bounds", recorded(lambda: bounds_report))
        patch.setattr(verify, "verify_fock", recorded(verify.verify_fock))
        patch.setattr(verify, "verify_mc", recorded(verify.verify_mc))
        try:
            code = main(argv)
        except SystemExit as exc:
            assert exc.code == 2
            return
    if reports:
        assert code == (0 if reports[0].overall else 1)
    else:
        assert code in (0, 2)
