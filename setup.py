import os
import re

from setuptools import find_packages, setup


def read_version() -> str:
    init_path = os.path.join(os.path.dirname(__file__), "src", "repro", "__init__.py")
    with open(init_path, "r", encoding="utf-8") as handle:
        match = re.search(r'^__version__ = "([^"]+)"', handle.read(), re.MULTILINE)
    if match is None:
        raise RuntimeError("cannot find __version__ in src/repro/__init__.py")
    return match.group(1)


setup(
    name="repro",
    version=read_version(),
    description="Reproduction of 'Enhancing Network Management Using Code "
                "Generated by Large Language Models' (HotNets 2023)",
    author="paper-repo-growth",
    license="MIT",
    python_requires=">=3.9",
    package_dir={"": "src"},
    packages=find_packages("src"),
    install_requires=["networkx"],
    entry_points={
        "console_scripts": [
            "repro=repro.cli.main:main",
        ],
    },
)
