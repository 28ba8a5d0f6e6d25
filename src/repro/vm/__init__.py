"""Spring virtual memory architecture (paper sec. 3.3).

Memory objects (mappable store, no paging ops), pager/cache objects (the
two ends of a coherency channel), cache-rights objects, the per-source
cache every cache manager keeps, and the per-node VMM.
"""
