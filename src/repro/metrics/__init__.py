"""Metrics: latency, throughput, uniformity, Gantt rendering, curves.

The paper's two performance objectives are "minimizing latency and
maximizing uniformity of frame processing over time", with throughput as
the secondary axis of Figure 3.  This package computes all three from
execution results and renders the Figure 4/5-style Gantt charts as ASCII.
"""
