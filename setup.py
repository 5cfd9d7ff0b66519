from setuptools import find_packages, setup

setup(
    name="janusaqp-repro",
    version="1.0.0",
    description=("Reproduction of JanusAQP (ICDE 2023): dynamic "
                 "approximate query processing with a partition-tree "
                 "synopsis maintained under insertions and deletions"),
    long_description=open("README.md", encoding="utf-8").read(),
    long_description_content_type="text/markdown",
    python_requires=">=3.9",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    install_requires=["numpy>=1.22"],
    extras_require={
        "test": ["pytest", "pytest-benchmark", "hypothesis"],
    },
    classifiers=[
        "Programming Language :: Python :: 3",
        "Intended Audience :: Science/Research",
        "Topic :: Database",
    ],
)
