"""The release number; a leaf module the package root and the server share."""

__version__ = "2.26.0"
