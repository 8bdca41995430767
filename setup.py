from setuptools import Extension, setup

# The compiled kernels are optional: when no C compiler can build them,
# installing still succeeds and redword.kernels falls back to the pure
# Python implementation.
setup(
    ext_modules=[
        Extension(
            "redword._speedups", ["src/redword/_speedups.c"], optional=True
        )
    ]
)
