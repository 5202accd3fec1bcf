"""Frozen reference implementations the product code is tested against."""
