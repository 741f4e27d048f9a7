"""Simulator and analysis toolkit for dual-mode nanodiamond sensing:
photon-level orbital tracking, ODMR thermometry, passive nanorheology,
and directed-motion segmentation. Import objects from their modules."""

__version__ = "0.1.0"
