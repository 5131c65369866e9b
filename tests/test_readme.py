"""The README's quick tour runs as written and shows what its comments say."""

import contextlib
import io
import re
from pathlib import Path

import numpy as np

from logsphere import beckner_deficit, fit_extremizer

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_quick_tour_runs():
    (block,) = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"),
                          re.MULTILINE | re.DOTALL)
    namespace = {}
    with contextlib.redirect_stdout(io.StringIO()):
        exec(compile(block, str(README), "exec"), namespace)
    u, res, rep = namespace["u"], namespace["res"], namespace["rep"]
    assert abs(beckner_deficit(u).deficit) < 1e-12  # the equality case
    zeta = fit_extremizer(res.coeffs).params.zeta
    assert np.abs(zeta - np.array([0.0, 0.0, 0.3])).max() < 1e-6
    assert rep.sup_w_at_critical < 1e-8
