from setuptools import Extension, setup

try:
    from Cython.Build import cythonize

    ext_modules = cythonize(
        [
            Extension(
                "vdwcomplex._kernels._speedups",
                ["src/vdwcomplex/_kernels/_speedups.pyx"],
                language="c++",
                extra_compile_args=["-O2"],
                optional=True,
            )
        ],
        language_level="3",
    )
except ImportError:
    # No Cython: the pure-Python kernels are used at runtime.
    ext_modules = []

setup(ext_modules=ext_modules)
