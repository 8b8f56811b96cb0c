"""Legacy setuptools entry point (kept for offline editable installs)."""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Reproduction of 'Efficient Inter-Device Data-Forwarding in the "
        "Madeleine Communication Library' (IPPS 2001)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy>=1.24"],
)
