"""Spring naming architecture (paper sec. 3.2).

Public surface: :class:`NamingContext` and :class:`MemoryContext`
(contexts and bindings), :class:`NameCache` (sec. 6.4 name caching), and
the ACL model.  There is no per-domain name space: every domain on a
node resolves through the node's shared root.
"""
