"""Verify parallel Arabic-English corpora with two distance metrics:
a compression code-length ratio and a sentence-length ratio."""

__version__ = "0.1.0"
