"""The installed package carries every data file the source tree has.

The suite runs from the source tree, where a file the package-data globs of
``pyproject.toml`` miss is still found; an installed package would lack it."""

import glob
import tomllib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "medcascade"


def test_every_data_file_matches_a_package_data_glob():
    with open(ROOT / "pyproject.toml", "rb") as fh:
        globs = tomllib.load(fh)["tool"]["setuptools"]["package-data"]["medcascade"]
    shipped = {path for pattern in globs for path in glob.glob(pattern, root_dir=PACKAGE)}
    data = {str(path.relative_to(PACKAGE)) for path in PACKAGE.rglob("*")
            if path.is_file() and path.suffix not in (".py", ".pyc")}
    assert data and data <= shipped, sorted(data - shipped)
