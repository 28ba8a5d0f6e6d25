"""Spring naming architecture (paper sec. 3.2).

Public surface: :class:`NamingContext` and :class:`MemoryContext`
(contexts and bindings), :class:`Namespace` (per-domain views),
:class:`NameCache` (sec. 6.4 name caching), and the ACL model.
"""
