"""Pass-1 package index: module facts stitched into a call graph.

:func:`build_index` runs :mod:`repro.analyze.facts` over every parsed
source file and links the per-module results into a
:class:`PackageIndex` — the whole-package view the interprocedural rules
(:mod:`repro.analyze.concurrency`) query in pass 2:

* **call resolution** through ``repro.*`` imports: bare names, module
  aliases, ``self.method`` (with base-class lookup), and class
  constructors (``Cls(...)`` resolves to ``Cls.__init__``);
* **reachability** (:meth:`PackageIndex.reachable`) including the
  implicit parent→nested-function edges closures introduce;
* **transitive fixpoints**: every lock a function may acquire anywhere
  below it (:meth:`locks_below`) and whether it awaits a barrier
  (:meth:`awaits_barrier_below`);
* **lock-context propagation**: which of a class's locks are provably
  held on entry to each method, from the locks held at every resolvable
  call site (:meth:`propagated_held`).

``repro analyze --graph`` dumps the index as JSON
(:meth:`PackageIndex.to_graph_dict`).
"""

from __future__ import annotations

import ast

from repro.analyze.facts import (
    ClassFacts,
    FunctionFacts,
    ModuleFacts,
    collect_module_facts,
)

__all__ = ["PackageIndex", "build_index", "INDEX_SCHEMA_VERSION"]

#: Version of the ``--graph`` JSON layout.
INDEX_SCHEMA_VERSION = 1


class PackageIndex:
    """Whole-package facts + call graph (see module docstring)."""

    def __init__(self, modules: dict[str, ModuleFacts]):
        #: relpath -> ModuleFacts
        self.modules = modules
        #: qualname ("module:scope") -> FunctionFacts
        self.functions: dict[str, FunctionFacts] = {}
        #: module dotted name -> ModuleFacts
        self._by_module: dict[str, ModuleFacts] = {}
        #: class name -> [(module, ClassFacts)]
        self._classes: dict[str, list[tuple[str, ClassFacts]]] = {}
        #: lock attr name -> {class names declaring it}
        self._lock_attr_owners: dict[str, set[str]] = {}
        for mf in modules.values():
            self._by_module[mf.module] = mf
            for facts in mf.functions.values():
                self.functions[facts.qualname] = facts
            for cf in mf.classes.values():
                self._classes.setdefault(cf.name, []).append((mf.module, cf))
                for attr in cf.lock_attrs:
                    self._lock_attr_owners.setdefault(attr, set()).add(cf.name)
        self._edges_cache: dict[str, list[tuple[str, int, tuple[str, ...]]]] = {}
        self._locks_below_cache: dict[str, frozenset[str]] = {}
        self._awaits_cache: dict[str, bool] = {}

    # ------------------------------------------------------------------ #
    # lock identity
    # ------------------------------------------------------------------ #

    def normalize_lock(self, token: str) -> str:
        """Resolve ``@attr:<name>`` markers to ``Class.<name>`` when exactly
        one indexed class declares that lock attribute."""
        if not token.startswith("@attr:"):
            return token
        attr = token[len("@attr:"):]
        owners = self._lock_attr_owners.get(attr, set())
        if len(owners) == 1:
            return f"{next(iter(owners))}.{attr}"
        return token

    def class_facts(self, name: str) -> list[tuple[str, ClassFacts]]:
        return self._classes.get(name, [])

    # ------------------------------------------------------------------ #
    # call resolution
    # ------------------------------------------------------------------ #

    def _class_method(self, module: str, cls_name: str, method: str) -> str | None:
        """Resolve ``cls_name.method`` starting in ``module``, walking bases."""
        seen: set[str] = set()
        queue = [(module, cls_name)]
        while queue:
            mod, cname = queue.pop(0)
            if (mod, cname) in seen:
                continue
            seen.add((mod, cname))
            mf = self._by_module.get(mod)
            cf = mf.classes.get(cname) if mf else None
            if cf is None:
                # The class may live elsewhere (imported name).
                target = mf.imports.get(cname) if mf else None
                if target and "." in target:
                    tmod, tcls = target.rsplit(".", 1)
                    queue.append((tmod, tcls))
                    continue
                for omod, ocf in self._classes.get(cname, []):
                    if omod != mod:
                        queue.append((omod, ocf.name))
                continue
            scope = f"{cname}.{method}"
            if scope in mf.functions:
                return mf.functions[scope].qualname
            for base in cf.bases:
                base_leaf = base.split(".")[-1]
                target = mf.imports.get(base, mf.imports.get(base.split(".")[0]))
                if target:
                    # `from x import Base` or `import x` + `x.Base`
                    if target.endswith("." + base_leaf) or target == base_leaf:
                        tmod = target.rsplit(".", 1)[0] if "." in target else mod
                        queue.append((tmod, base_leaf))
                        continue
                    queue.append((f"{target}.{base}".rsplit(".", 1)[0], base_leaf))
                else:
                    queue.append((mod, base_leaf))
        return None

    def resolve_call(self, caller: FunctionFacts, name: str) -> list[str]:
        """Qualnames a dotted call expression may target (possibly empty)."""
        mf = self._by_module.get(caller.module)
        if mf is None:
            return []
        parts = name.split(".")
        # self.method()
        if parts[0] == "self" and len(parts) == 2 and caller.cls is not None:
            hit = self._class_method(caller.module, caller.cls, parts[1])
            return [hit] if hit else []
        if len(parts) == 1:
            # Local function / local class constructor.
            if name in mf.functions:
                return [mf.functions[name].qualname]
            if name in mf.classes:
                hit = self._class_method(caller.module, name, "__init__")
                return [hit] if hit else []
            target = mf.imports.get(name)
            if target:
                return self._resolve_dotted(target)
            return []
        # alias.attr...: resolve the head through the import table.
        head = mf.imports.get(parts[0])
        if head:
            return self._resolve_dotted(".".join([head] + parts[1:]))
        return []

    def _resolve_dotted(self, dotted: str) -> list[str]:
        """Resolve an absolute dotted path to function qualnames."""
        if "." not in dotted:
            # A bare imported symbol (e.g. from a module we did not index).
            return []
        mod, leaf = dotted.rsplit(".", 1)
        mf = self._by_module.get(mod)
        if mf is not None:
            if leaf in mf.functions:
                return [mf.functions[leaf].qualname]
            if leaf in mf.classes:
                hit = self._class_method(mod, leaf, "__init__")
                return [hit] if hit else []
        # Maybe `dotted` itself names Class.method or package.__init__ symbol.
        if "." in mod:
            pmod, cls = mod.rsplit(".", 1)
            pmf = self._by_module.get(pmod)
            if pmf is not None and cls in pmf.classes:
                hit = self._class_method(pmod, cls, leaf)
                return [hit] if hit else []
        # Package re-export: follow `pkg/__init__.py` imports one level.
        pkg = self._by_module.get(dotted) or None
        if pkg is None:
            init = self._by_module.get(mod)
            if init is not None and leaf in init.imports:
                target = init.imports[leaf]
                if target != dotted:
                    return self._resolve_dotted(target)
        return []

    # ------------------------------------------------------------------ #
    # graph queries
    # ------------------------------------------------------------------ #

    def call_edges(self, qualname: str) -> list[tuple[str, int, tuple[str, ...]]]:
        """Resolved outgoing edges: ``(callee qualname, lineno, held locks)``.
        Includes implicit edges to nested functions (closures run inside
        their parent's dynamic extent)."""
        cached = self._edges_cache.get(qualname)
        if cached is not None:
            return cached
        facts = self.functions.get(qualname)
        edges: list[tuple[str, int, tuple[str, ...]]] = []
        if facts is not None:
            for call in facts.calls:
                for callee in self.resolve_call(facts, call.name):
                    edges.append((callee, call.lineno, call.held))
            for nested_scope in facts.nested:
                nested_q = f"{facts.module}:{nested_scope}"
                if nested_q in self.functions:
                    edges.append((nested_q, self.functions[nested_q].lineno, ()))
        self._edges_cache[qualname] = edges
        return edges

    def reachable(self, roots: list[str]) -> set[str]:
        """Transitive closure over resolved call edges, roots included."""
        seen: set[str] = set()
        queue = [q for q in roots if q in self.functions]
        while queue:
            q = queue.pop()
            if q in seen:
                continue
            seen.add(q)
            for callee, _lineno, _held in self.call_edges(q):
                if callee not in seen:
                    queue.append(callee)
        return seen

    def callers_of(self, qualname: str, within: set[str]) -> list[tuple[str, int]]:
        """Call sites of ``qualname`` from functions in ``within``."""
        out: list[tuple[str, int]] = []
        for caller in within:
            for callee, lineno, _held in self.call_edges(caller):
                if callee == qualname:
                    out.append((caller, lineno))
        return out

    def locks_below(self, qualname: str) -> frozenset[str]:
        """Every lock ``qualname`` may acquire, directly or in any callee."""
        return self._fix_locks(qualname, set())

    def _fix_locks(self, qualname: str, stack: set[str]) -> frozenset[str]:
        cached = self._locks_below_cache.get(qualname)
        if cached is not None:
            return cached
        if qualname in stack:
            return frozenset()
        facts = self.functions.get(qualname)
        if facts is None:
            return frozenset()
        stack.add(qualname)
        acc = {self.normalize_lock(a.lock) for a in facts.acquires}
        for callee, _lineno, _held in self.call_edges(qualname):
            acc |= self._fix_locks(callee, stack)
        stack.discard(qualname)
        result = frozenset(acc)
        self._locks_below_cache[qualname] = result
        return result

    def awaits_barrier_below(self, qualname: str) -> bool:
        """Whether ``qualname`` awaits a barrier, directly or in any callee."""
        return self._fix_awaits(qualname, set())

    def _fix_awaits(self, qualname: str, stack: set[str]) -> bool:
        cached = self._awaits_cache.get(qualname)
        if cached is not None:
            return cached
        if qualname in stack:
            return False
        facts = self.functions.get(qualname)
        if facts is None:
            return False
        if facts.barrier_waits:
            self._awaits_cache[qualname] = True
            return True
        stack.add(qualname)
        result = any(
            self._fix_awaits(callee, stack)
            for callee, _lineno, _held in self.call_edges(qualname)
        )
        stack.discard(qualname)
        self._awaits_cache[qualname] = result
        return result

    # ------------------------------------------------------------------ #
    # lock-context propagation (RPA013)
    # ------------------------------------------------------------------ #

    def propagated_held(self, class_locks: dict[str, set[str]]) -> dict[str, frozenset[str]]:
        """For each method of each class in ``class_locks`` (class name ->
        its normalized lock ids), the class locks provably held on *every*
        resolvable call path into it.  Fixpoint over the call graph: a
        method's entry context is the intersection over its call sites of
        (locks held at the site) ∪ (the caller's own entry context)."""
        relevant: dict[str, str] = {}  # qualname -> class name
        for cls, _locks in class_locks.items():
            for mod, cf in self.class_facts(cls):
                mf = self._by_module[mod]
                for method in cf.methods:
                    scope = f"{cls}.{method}"
                    if scope in mf.functions:
                        relevant[mf.functions[scope].qualname] = cls

        # Precompute call sites into each relevant method.
        sites: dict[str, list[tuple[str, tuple[str, ...]]]] = {q: [] for q in relevant}
        for caller_q in self.functions:
            for callee, _lineno, held in self.call_edges(caller_q):
                if callee in sites:
                    normalized = tuple(self.normalize_lock(t) for t in held)
                    sites[callee].append((caller_q, normalized))

        held_in: dict[str, frozenset[str]] = {q: frozenset() for q in relevant}
        for _ in range(len(relevant) + 2):
            changed = False
            for q, cls in relevant.items():
                locks = class_locks[cls]
                if not sites[q]:
                    new = frozenset()
                else:
                    acc: frozenset[str] | None = None
                    for caller_q, held in sites[q]:
                        ctx = set(held) | set(held_in.get(caller_q, frozenset()))
                        ctx &= locks
                        acc = frozenset(ctx) if acc is None else acc & frozenset(ctx)
                    new = acc or frozenset()
                if new != held_in[q]:
                    held_in[q] = new
                    changed = True
            if not changed:
                break
        return held_in

    # ------------------------------------------------------------------ #
    # --graph dump
    # ------------------------------------------------------------------ #

    def to_graph_dict(self) -> dict:
        """Human-inspectable dump for ``repro analyze --graph``."""
        return {
            "schema_version": INDEX_SCHEMA_VERSION,
            "modules": sorted(self._by_module),
            "functions": {
                q: {
                    "calls": sorted({c for c, _l, _h in self.call_edges(q)}),
                    "locks_below": sorted(self.locks_below(q)),
                    "awaits_barrier": self.awaits_barrier_below(q),
                    "profiled": f.profiled,
                }
                for q, f in sorted(self.functions.items())
            },
        }


def build_index(trees: dict[str, ast.AST]) -> PackageIndex:
    """Build the package index from ``relpath -> parsed AST`` for every
    file in scope."""
    return PackageIndex(
        {relpath: collect_module_facts(tree, relpath) for relpath, tree in trees.items()}
    )
