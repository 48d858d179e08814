"""Experimental problems: the tabular toy problem (``toy``) and the
contextual two-stage minimum weight spanning tree on grid graphs
(``spanning_tree``, with its generator and containers in ``datasets``)."""
