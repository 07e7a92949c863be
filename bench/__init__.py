"""Seeded end-to-end benchmark of the Liger simulator; see README.md."""
