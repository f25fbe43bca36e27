"""The package metadata (there is no pyproject.toml).

Kept as a ``setup.py`` because offline environments without the
``wheel`` package cannot perform PEP 660 editable installs;
``python setup.py develop`` still works with plain setuptools.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",  # repro.__version__
    description="A from-scratch reproduction of MinoanER (ICDE 2018)",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.11",
    install_requires=["numpy"],
)
