"""Reference implementations kept as test fixtures.

Each module here holds the straightforward, scalar version of a
production routine that was later rewritten over NumPy arrays or in
closed form.  They are not part of the library: identity suites import
them and require the production code to return equal results on every
input.
"""
