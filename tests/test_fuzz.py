"""Property tests: arbitrary input bytes fail closed, never with a traceback."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from atomcover import InputError, ParseError, read_extxyz
from atomcover.cli import main

FUZZ = settings(
    max_examples=200,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@FUZZ
@given(data=st.binary())
def test_reader_raises_only_documented_errors(tmp_path, data):
    path = tmp_path / "fuzz.xyz"
    path.write_bytes(data)
    try:
        read_extxyz(path)
    except (ParseError, InputError):
        pass


@FUZZ
@given(data=st.binary())
def test_analyze_exits_with_a_documented_code(tmp_path, capsys, data):
    path = tmp_path / "fuzz.xyz"
    path.write_bytes(data)
    # 2: unreadable input; 4: readable, but coincident atoms or a bad cell
    assert main(["analyze", str(path)]) in (0, 2, 4)
    capsys.readouterr()
