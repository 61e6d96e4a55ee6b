"""Serving-headline benchmark for the Enzian twin (see README.md)."""
