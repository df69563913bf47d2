"""The package version, in a module that imports nothing, so that any
module (persist's manifest among them) can read it without a cycle."""

__version__ = "0.1.0"
