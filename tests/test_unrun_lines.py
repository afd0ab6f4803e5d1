"""scripts/unrun_lines.py: the lines a CLI stage never runs."""

import importlib.util
import inspect
from pathlib import Path

from tractfuse import phantom

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "unrun_lines.py"


def load_script():
    spec = importlib.util.spec_from_file_location("unrun_lines", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tube_phantom_leaves_arc_and_helix_centerlines_unrun(tmp_path):
    script = load_script()
    cfg = tmp_path / "tube.cfg"
    cfg.write_text("phantom.kind = straight-tube\nphantom.dims = 20,10,10\n")
    codes, unrun = script.unrun_lines(
        [["--preset", "desk", "--config", str(cfg), "--out", str(tmp_path / "run"), "phantom"]])
    assert codes == [0]
    source, first = inspect.getsourcelines(phantom._centerline)
    start = next(i for i, s in enumerate(source) if 'elif spec.kind == "arc"' in s)
    # the arc and helix branches end where the body's next `if` follows the chain
    stop = next(i for i in range(start, len(source)) if source[i].startswith("    if "))
    path = Path(phantom.__file__)
    curved = set(range(first + start, first + stop)) & script.function_lines(path)
    tube = set(range(first + 1, first + start)) & script.function_lines(path)
    phantom_unrun = {line for p, line in unrun if p == path}
    assert len(curved) > 10 and curved <= phantom_unrun
    assert tube and not tube & phantom_unrun
