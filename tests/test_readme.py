"""The README's examples stay runnable: its config example loads through
the harness and its library example runs as written."""

import json
import re
from pathlib import Path

from coopalign.harness import config_from_dict

README = Path(__file__).resolve().parents[1] / "README.md"


def _block(section, lang):
    """The first fenced ``lang`` block under the ``## section`` heading."""
    body = README.read_text().split(f"\n## {section}\n", 1)[1]
    body = body.split("\n## ", 1)[0]
    return re.search(rf"```{lang}\n(.*?)```", body, re.S).group(1)


def test_config_example_loads():
    cfg = config_from_dict(json.loads(_block("Config files", "json")))
    assert cfg.scheme == "rx-coop"


def test_library_example_runs():
    code = compile(_block("Library entry points", "python"), "README.md", "exec")
    exec(code, {})
