"""The contract rules enforcing the paper's I/O and memory discipline.

Each rule is an AST pass scoped to the packages whose discipline it
guards (scoping is by directory name, so lint fixtures in temporary
trees behave like the real packages they imitate):

* **IO001** — no raw file I/O (``open``, ``os.read``, ``np.loadtxt``,
  ``mmap`` ...) outside ``repro/io/``: every disk transfer must flow
  through the :class:`~repro.io.counter.IOCounter`-accounted devices,
  or the ``# of I/Os`` columns of the evaluation silently stop meaning
  anything.
* **MEM001** — no O(|E|) materialization inside ``repro/core/`` and
  ``repro/spanning/``: the semi-external claim is that algorithms hold
  only O(|V|) state (BR⁺-Tree = 3|V|, BR-Tree = 2|V|).
* **IO002** — no bare ``os.replace``/``os.rename`` (or ``shutil.move``)
  outside ``repro/io/atomic.py``: file swaps must go through the
  staged-fsync-replace protocol, or a crash between rename and fsync
  can leave a file the durability story no longer covers.
* **SCAN001** — edge files are consumed by forward block iteration
  only; computed-offset ``seek`` lives solely in ``repro/io/blocks.py``.
* **API001** — public functions in ``repro/core/`` consume
  ``DiskGraph``/``EdgeFile`` objects, never raw paths, so nothing can
  open a side channel around the counted devices.
* **CPU001** — no per-edge ``int()``/``.tolist()`` boxing inside
  ``repro/core/`` edge-scan loops: batches go to a
  ``repro.kernels`` backend as arrays (the one sanctioned per-edge
  loop set lives in ``repro/kernels/scalar.py``, outside this rule's
  scope).
* **THR004** — thread and socket machinery is confined to
  ``repro/service/`` and ``repro/obs/`` (the daemon and the
  observability plane are the only long-lived concurrent components),
  and every queue anywhere is constructed with an explicit bound: an
  unbounded queue is a hidden O(∞) buffer that turns overload into an
  out-of-memory crash instead of back-pressure.

Three whole-program passes live in sibling modules and register here
too (imported at the bottom of this file to break the import cycle):

* **SCAN002/SCAN003** (:mod:`~repro.analysis_static.iocost`) —
  call-graph I/O-complexity inference: nested edge scans and scans in
  unbounded ``while`` retry loops.
* **THR001/THR002** (:mod:`~repro.analysis_static.locks`) —
  lock-discipline race detection over per-class lock models.
* **IO003** (:mod:`~repro.analysis_static.atomicity`) — crash-window
  analysis of the staged-replace protocol.

New rules subclass :class:`Rule` (or :class:`ProgramRule` when they
need the whole module set) and register in :data:`ALL_RULES`.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, FrozenSet, Iterator, List, Sequence, Tuple, Type

from repro.analysis_static.engine import ModuleSource, Violation

#: Module-level exceptions to the rules, keyed by ``repro/...``-rooted
#: path.  Keep this list short, and justify every entry:
DEFAULT_ALLOWLIST: Dict[str, FrozenSet[str]] = {
    # The SNAP text-interchange boundary: converting text dumps to and
    # from the binary layout is this module's entire purpose, and it
    # runs once at import/export time, outside any counted
    # semi-external run.
    "repro/graph/io_text.py": frozenset({"IO001"}),
    # The trace writer persists observability records (JSONL spans and
    # the summary sidecar).  These are diagnostics about a run, not part
    # of it — charging them to the block counter would corrupt the very
    # I/O tallies the trace exists to report.
    "repro/obs/trace.py": frozenset({"IO001"}),
    # The metrics writer is the same class of sink: JSONL snapshots and
    # the Prometheus textfile describe the run's counted I/O and must
    # never be part of it — the regression gate's metrics re-run pins
    # that transparency.
    "repro/obs/sampler.py": frozenset({"IO001"}),
    # The one sanctioned lookahead reader: the background prefetcher
    # seeks once to position its private handle and runs the repo's only
    # permitted reader thread.  Its reads are deferred-accounted by the
    # consumer at dequeue time (BlockDevice.account_prefetched_read), so
    # the counted I/O stays identical to a synchronous scan.
    "repro/io/prefetch.py": frozenset({"SCAN001"}),
}


def _path_parts(relpath: str) -> Tuple[str, ...]:
    return tuple(part for part in relpath.split("/") if part)


def _dir_parts(relpath: str) -> Tuple[str, ...]:
    return _path_parts(relpath)[:-1]


def _terminal_name(node: ast.AST) -> str:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return ""


class Rule:
    """One pluggable contract rule: a scoped AST pass.

    Subclasses set :attr:`rule_id`, :attr:`title` and :attr:`rationale`
    and implement :meth:`applies_to` and :meth:`check`.
    """

    #: Stable identifier named in lint output and ``allow[...]`` pragmas.
    rule_id: str = "RULE000"
    #: One-line human description.
    title: str = ""
    #: Why the rule preserves the paper's model (shown by ``--list-rules``).
    rationale: str = ""

    def applies_to(self, relpath: str) -> bool:
        """Whether this rule checks the module at ``relpath``."""
        raise NotImplementedError

    def check(self, tree: ast.AST, relpath: str) -> List[Violation]:
        """Return this rule's violations in the parsed module."""
        raise NotImplementedError

    def violation(self, node: ast.AST, relpath: str, message: str) -> Violation:
        """Build a :class:`Violation` anchored at ``node``."""
        return Violation(
            path=relpath,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            rule=self.rule_id,
            message=message,
        )


class ProgramRule(Rule):
    """A rule that analyzes every module of the run at once.

    Subclasses implement :meth:`check_program` over the full parsed
    module set (call edges resolve across files); :meth:`applies_to`
    governs which modules the rule may *emit* for, not which it sees.
    :meth:`check` adapts single-module engine paths by wrapping the one
    module as a batch.
    """

    def check(self, tree: ast.AST, relpath: str) -> List[Violation]:
        """Run :meth:`check_program` over this one module."""
        return self.check_program(
            [ModuleSource(relpath=relpath, source="", tree=tree)]
        )

    def check_program(
        self, modules: Sequence[ModuleSource]
    ) -> List[Violation]:
        """Return violations across the whole module batch."""
        raise NotImplementedError


# ----------------------------------------------------------------------
# IO001
# ----------------------------------------------------------------------

_RAW_OS_CALLS = frozenset(
    {"open", "fdopen", "read", "write", "pread", "pwrite", "lseek", "sendfile"}
)
_RAW_NUMPY_CALLS = frozenset(
    {"loadtxt", "savetxt", "genfromtxt", "fromfile", "memmap"}
)
_RAW_PATH_METHODS = frozenset(
    {"read_text", "read_bytes", "write_text", "write_bytes"}
)


class RawIORule(Rule):
    """IO001: raw file I/O outside ``repro/io/``."""

    rule_id = "IO001"
    title = "raw file I/O outside repro/io/"
    rationale = (
        "every disk transfer must flow through the IOCounter-accounted "
        "BlockDevice/EdgeFile so the reported # of I/Os stays faithful"
    )

    def applies_to(self, relpath: str) -> bool:
        """Everywhere except inside the ``io`` package itself."""
        return "io" not in _dir_parts(relpath)

    def check(self, tree: ast.AST, relpath: str) -> List[Violation]:
        """Flag calls that move bytes to or from disk behind the counter."""
        remedy = "; route the transfer through repro.io (IOCounter-accounted)"
        out: List[Violation] = []
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name) and func.id == "open":
                out.append(
                    self.violation(node, relpath, "raw open() call" + remedy)
                )
                continue
            if not isinstance(func, ast.Attribute):
                continue
            base = _terminal_name(func.value)
            if base == "os" and func.attr in _RAW_OS_CALLS:
                out.append(
                    self.violation(node, relpath, f"raw os.{func.attr}() call" + remedy)
                )
            elif base in ("np", "numpy") and func.attr in _RAW_NUMPY_CALLS:
                out.append(
                    self.violation(
                        node, relpath, f"raw numpy {func.attr}() file access" + remedy
                    )
                )
            elif base == "io" and func.attr == "open":
                out.append(
                    self.violation(node, relpath, "raw io.open() call" + remedy)
                )
            elif base == "mmap" and func.attr == "mmap":
                out.append(
                    self.violation(
                        node,
                        relpath,
                        "mmap bypasses block-granular accounting" + remedy,
                    )
                )
            elif func.attr == "tofile":
                out.append(
                    self.violation(node, relpath, "raw ndarray.tofile() call" + remedy)
                )
            elif func.attr in _RAW_PATH_METHODS:
                out.append(
                    self.violation(
                        node, relpath, f"raw Path.{func.attr}() call" + remedy
                    )
                )
        return out


# ----------------------------------------------------------------------
# IO002
# ----------------------------------------------------------------------

_RENAME_OS_CALLS = frozenset({"replace", "rename", "renames"})


class BareRenameRule(Rule):
    """IO002: bare file renames outside the atomic-rewrite module.

    ``os.replace`` alone is not crash-safe: the staged bytes may still
    sit in the page cache when power is lost, and the directory entry
    swap itself needs a directory fsync to be durable.
    :mod:`repro.io.atomic` wraps the full stage -> fsync -> replace ->
    dir-fsync protocol (plus the sidecar manifest that
    ``recover_staging`` cleans up), so every rename in the tree must go
    through it.  Deliberate exceptions are excused line-by-line with
    ``# repro: allow[IO002]`` or a :data:`DEFAULT_ALLOWLIST` entry.
    """

    rule_id = "IO002"
    title = "bare os.replace/os.rename outside repro/io/atomic.py"
    rationale = (
        "file swaps must use the staged fsync+replace protocol of "
        "repro.io.atomic; a bare rename can lose data on power failure "
        "and bypasses torn-write recovery"
    )

    def applies_to(self, relpath: str) -> bool:
        """Everywhere except the one module that implements the protocol."""
        parts = _path_parts(relpath)
        return not (parts and parts[-1] == "atomic.py" and "io" in parts[:-1])

    def check(self, tree: ast.AST, relpath: str) -> List[Violation]:
        """Flag ``os.replace``/``os.rename``/``shutil.move`` calls."""
        remedy = (
            "; swap files via repro.io.atomic.replace_file (staged "
            "fsync + atomic replace + directory fsync)"
        )
        out: List[Violation] = []
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not isinstance(func, ast.Attribute):
                continue
            base = _terminal_name(func.value)
            if base == "os" and func.attr in _RENAME_OS_CALLS:
                out.append(
                    self.violation(
                        node, relpath,
                        f"bare os.{func.attr}() call" + remedy,
                    )
                )
            elif base == "shutil" and func.attr == "move":
                out.append(
                    self.violation(
                        node, relpath, "bare shutil.move() call" + remedy
                    )
                )
        return out


# ----------------------------------------------------------------------
# MEM001
# ----------------------------------------------------------------------

_EDGE_NAME_RE = re.compile(r"(^|_)edges?($|_)")
_SCAN_METHODS = frozenset({"scan", "scan_edges", "iter_edges"})
_CONTAINER_FACTORIES = frozenset(
    {"list", "set", "dict", "defaultdict", "OrderedDict", "Counter", "deque"}
)
_ACCUMULATE_METHODS = frozenset(
    {"add", "append", "extend", "update", "setdefault", "insert", "appendleft"}
)


def _is_scan_call(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in _SCAN_METHODS
    )


def _is_edge_expr(node: ast.AST) -> bool:
    if _is_scan_call(node):
        return True
    name = _terminal_name(node)
    return bool(name) and _EDGE_NAME_RE.search(name) is not None


def _scope_walk(scope: ast.AST) -> Iterator[ast.AST]:
    """Yield the nodes of one scope, skipping nested function/class bodies."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef,
                             ast.Lambda)):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


class EdgeMaterializationRule(Rule):
    """MEM001: O(|E|) materialization inside the algorithm packages."""

    rule_id = "MEM001"
    title = "O(|E|) materialization in repro/core/ or repro/spanning/"
    rationale = (
        "semi-external algorithms may hold only O(|V|) state; the edge "
        "set is streamed block-by-block, never resident"
    )

    def applies_to(self, relpath: str) -> bool:
        """Only the algorithm packages carry the O(|V|) memory contract."""
        dirs = _dir_parts(relpath)
        return "core" in dirs or "spanning" in dirs

    def check(self, tree: ast.AST, relpath: str) -> List[Violation]:
        """Flag whole-edge-list materialization and per-edge accumulation."""
        out: List[Violation] = []
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if (
                isinstance(func, ast.Name)
                and func.id in ("list", "sorted", "tuple")
                and node.args
                and _is_edge_expr(node.args[0])
            ):
                out.append(
                    self.violation(
                        node,
                        relpath,
                        f"{func.id}() over an edge iterator materializes "
                        "O(|E|) state; stream per-block batches instead",
                    )
                )
            elif isinstance(func, ast.Attribute) and func.attr == "read_all":
                out.append(
                    self.violation(
                        node,
                        relpath,
                        "read_all() loads the whole edge list into memory; "
                        "consume edges with scan()",
                    )
                )
            elif (
                isinstance(func, ast.Attribute)
                and func.attr == "tolist"
                and _is_edge_expr(func.value)
            ):
                out.append(
                    self.violation(
                        node,
                        relpath,
                        "tolist() on an edge array materializes O(|E|) "
                        "Python objects; keep edges in per-block batches",
                    )
                )
        out.extend(self._scan_loop_accumulation(tree, relpath))
        return out

    # ------------------------------------------------------------------
    def _scan_loop_accumulation(
        self, tree: ast.AST, relpath: str
    ) -> List[Violation]:
        """Flag containers grown across a full edge scan (per-edge keyed)."""
        out: List[Violation] = []
        scopes = [tree] if isinstance(tree, ast.Module) else []
        scopes.extend(
            node
            for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        )
        for scope in scopes:
            scan_loops = [
                node
                for node in _scope_walk(scope)
                if isinstance(node, ast.For) and _is_scan_call(node.iter)
            ]
            if not scan_loops:
                continue
            inside: set = set()
            for loop in scan_loops:
                for node in ast.walk(loop):
                    inside.add(id(node))
            containers: set = set()
            for node in _scope_walk(scope):
                if id(node) in inside:
                    continue
                targets: List[ast.expr] = []
                value: ast.expr | None = None
                if isinstance(node, ast.Assign):
                    targets, value = node.targets, node.value
                elif isinstance(node, ast.AnnAssign) and node.value is not None:
                    targets, value = [node.target], node.value
                if value is None:
                    continue
                is_container = isinstance(
                    value,
                    (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp,
                     ast.SetComp),
                ) or (
                    isinstance(value, ast.Call)
                    and isinstance(value.func, ast.Name)
                    and value.func.id in _CONTAINER_FACTORIES
                )
                if not is_container:
                    continue
                for target in targets:
                    if isinstance(target, ast.Name):
                        containers.add(target.id)
            if not containers:
                continue
            for loop in scan_loops:
                for node in ast.walk(loop):
                    if (
                        isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and node.func.attr in _ACCUMULATE_METHODS
                        and isinstance(node.func.value, ast.Name)
                        and node.func.value.id in containers
                    ):
                        out.append(
                            self.violation(
                                node,
                                relpath,
                                f"'{node.func.value.id}' accumulates per-edge "
                                "state across a full edge scan (O(|E|) "
                                "growth); keep only O(|V|) state",
                            )
                        )
                    elif isinstance(node, (ast.Assign, ast.AugAssign)):
                        assign_targets = (
                            node.targets
                            if isinstance(node, ast.Assign)
                            else [node.target]
                        )
                        for target in assign_targets:
                            if (
                                isinstance(target, ast.Subscript)
                                and isinstance(target.value, ast.Name)
                                and target.value.id in containers
                            ):
                                out.append(
                                    self.violation(
                                        node,
                                        relpath,
                                        f"'{target.value.id}' is keyed "
                                        "per-edge inside a full edge scan "
                                        "(O(|E|) growth); keep only O(|V|) "
                                        "state",
                                    )
                                )
        return out


# ----------------------------------------------------------------------
# SCAN001
# ----------------------------------------------------------------------


class SequentialScanRule(Rule):
    """SCAN001: seeks and lookahead readers outside their sanctioned homes.

    Two access patterns can silently break the "forward block scans
    only" discipline the tallies rely on: computed-offset ``seek``
    (random access), and a concurrent reader thread (a lookahead side
    channel whose reads nothing accounts for).  Seeks belong solely to
    ``repro/io/blocks.py``; the one sanctioned reader thread lives in
    ``repro/io/prefetch.py`` (allowlisted), whose reads are
    deferred-accounted by the consuming scan.
    """

    rule_id = "SCAN001"
    title = "seek/lookahead access outside repro/io/{blocks,prefetch}.py"
    rationale = (
        "the I/O model charges sequential block scans; arbitrary seeks "
        "and unaccounted reader threads are the random/side-channel "
        "accesses the paper's algorithms exist to avoid"
    )

    def applies_to(self, relpath: str) -> bool:
        """Everywhere except the one block device that legitimately seeks."""
        parts = _path_parts(relpath)
        return not (parts and parts[-1] == "blocks.py" and "io" in parts[:-1])

    def check(self, tree: ast.AST, relpath: str) -> List[Violation]:
        """Flag ``.seek()`` calls and reader-thread construction."""
        # The service daemon's worker threads are not lookahead readers:
        # they answer queries from resident state and reach disk only
        # through counted devices.  Their thread discipline (confinement
        # + bounded queues) is THR004's job, so this rule leaves the
        # service package to it.
        in_service = "service" in _dir_parts(relpath)
        out: List[Violation] = []
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr == "seek":
                out.append(
                    self.violation(
                        node,
                        relpath,
                        "seek() breaks the forward-scan discipline; consume "
                        "edge files via block iteration (EdgeFile.scan)",
                    )
                )
            elif _terminal_name(func) == "Thread" and not in_service:
                out.append(
                    self.violation(
                        node,
                        relpath,
                        "spawning a thread opens an unaccounted lookahead "
                        "side channel; repro/io/prefetch.py hosts the one "
                        "sanctioned (consumer-accounted) reader thread",
                    )
                )
        return out


# ----------------------------------------------------------------------
# API001
# ----------------------------------------------------------------------

_PATH_PARAM_RE = re.compile(
    r"^(path|paths|filename|file_name|filepath|file_path|fname|pathname)$"
    r"|(^path_)|(_path$)|(_filename$)"
)
_GRAPH_TYPES = ("DiskGraph", "EdgeFile", "BlockDevice", "Digraph")


class CoreAPIRule(Rule):
    """API001: public ``repro/core/`` functions must not take raw paths."""

    rule_id = "API001"
    title = "public core API accepting a raw file path"
    rationale = (
        "core entry points consume DiskGraph/EdgeFile so every byte they "
        "touch is counted; a raw path invites uncounted side channels"
    )

    def applies_to(self, relpath: str) -> bool:
        """Only the ``core`` package exposes the counted public API."""
        return "core" in _dir_parts(relpath)

    def check(self, tree: ast.AST, relpath: str) -> List[Violation]:
        """Flag path-like parameters on public functions and methods."""
        out: List[Violation] = []
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if node.name.startswith("_"):
                continue
            arguments = node.args
            params = list(arguments.posonlyargs) + list(arguments.args)
            params += list(arguments.kwonlyargs)
            for param in params:
                if param.arg in ("self", "cls"):
                    continue
                annotation = (
                    ast.unparse(param.annotation) if param.annotation else ""
                )
                if any(graph_type in annotation for graph_type in _GRAPH_TYPES):
                    continue
                path_like = bool(_PATH_PARAM_RE.search(param.arg))
                path_like = path_like or "PathLike" in annotation
                path_like = path_like or re.search(r"\bPath\b", annotation)
                if path_like:
                    out.append(
                        self.violation(
                            node,
                            relpath,
                            f"public function '{node.name}' takes raw path "
                            f"parameter '{param.arg}'; accept a DiskGraph/"
                            "EdgeFile so I/O stays counted",
                        )
                    )
        return out


# ----------------------------------------------------------------------
# CPU001
# ----------------------------------------------------------------------


class PerEdgeBoxingRule(Rule):
    """CPU001: per-edge Python boxing inside core edge-scan loops.

    The scan loops are the CPU hot path — every counted block funnels
    through them.  ``int(...)`` and ``.tolist()`` inside a
    ``for ... in <file>.scan(...)`` body box ndarray lanes into Python
    objects one edge at a time, which is the cost the vectorized
    kernels (``repro/kernels/``) exist to remove.  Core loops hand the
    whole batch to a :class:`~repro.kernels.base.ScanKernels` backend
    instead; the one sanctioned per-edge loop set is
    ``repro/kernels/scalar.py``, which this rule does not scope.
    Per-*batch* reductions that box a handful of scalars per block are
    excused line-by-line with ``# repro: allow[CPU001]``.
    """

    rule_id = "CPU001"
    title = "per-edge int()/.tolist() boxing inside a core edge-scan loop"
    rationale = (
        "edge batches must reach the repro.kernels backends as arrays; "
        "boxing each edge into Python ints inside the scan loop "
        "re-creates the per-edge CPU cost the vector kernels remove"
    )

    def applies_to(self, relpath: str) -> bool:
        """Only the ``core`` scan loops carry the batched-kernel contract."""
        return "core" in _dir_parts(relpath)

    def check(self, tree: ast.AST, relpath: str) -> List[Violation]:
        """Flag int()/.tolist() calls lexically inside edge-scan loops."""
        remedy = (
            "; hand the batch to a repro.kernels backend (the sanctioned "
            "per-edge loops live in repro/kernels/scalar.py)"
        )
        out: List[Violation] = []
        seen: set = set()
        for node in ast.walk(tree):
            if not (isinstance(node, ast.For) and _is_scan_call(node.iter)):
                continue
            for inner in ast.walk(node):
                if not isinstance(inner, ast.Call) or id(inner) in seen:
                    continue
                func = inner.func
                if isinstance(func, ast.Name) and func.id == "int":
                    seen.add(id(inner))
                    out.append(
                        self.violation(
                            inner,
                            relpath,
                            "per-edge int() boxing inside an edge-scan loop"
                            + remedy,
                        )
                    )
                elif isinstance(func, ast.Attribute) and func.attr == "tolist":
                    seen.add(id(inner))
                    out.append(
                        self.violation(
                            inner,
                            relpath,
                            "per-edge .tolist() boxing inside an edge-scan "
                            "loop" + remedy,
                        )
                    )
        return out


# ----------------------------------------------------------------------
# THR004
# ----------------------------------------------------------------------

_SOCKET_MODULES = ("socket", "socketserver")
_THREAD_FACTORIES = frozenset({"Thread", "Timer"})
_BOUNDED_QUEUE_TYPES = frozenset(
    {"Queue", "LifoQueue", "PriorityQueue", "JoinableQueue"}
)
#: Directory names whose modules may host threads and sockets.
_CONCURRENCY_HOMES = ("service", "obs")


class ThreadSocketDisciplineRule(Rule):
    """THR004: thread/socket containment and mandatory queue bounds.

    Two defects, one discipline:

    * **Containment** — ``threading.Thread``/``Timer`` construction and
      ``socket``/``socketserver`` imports are confined to
      ``repro/service/`` (the query daemon) and ``repro/obs/`` (the
      sampler/heartbeat/exposition plane).  Those are the repo's only
      long-lived concurrent components; a thread or listening socket
      anywhere else is an execution side channel with no owner for its
      lifecycle, shutdown, or back-pressure.
    * **Bounds** — every queue, *everywhere*, is constructed with an
      explicit capacity: a positional bound or ``maxsize=`` for
      ``queue.Queue``-family and ``multiprocessing`` queues, and
      ``SimpleQueue`` (unboundable by design) is rejected outright.  An
      unbounded queue converts overload into unbounded memory growth;
      a bounded one converts it into back-pressure the admission /
      shedding layers can see and act on.
    """

    rule_id = "THR004"
    title = "thread/socket outside repro/{service,obs}/, or unbounded queue"
    rationale = (
        "long-lived concurrency belongs to the service daemon and the "
        "observability plane, where shutdown and back-pressure have "
        "owners; and every queue needs an explicit maxsize, because an "
        "unbounded queue turns overload into an OOM crash instead of "
        "load shedding"
    )

    def applies_to(self, relpath: str) -> bool:
        """Everywhere: containment is scoped inside :meth:`check`."""
        return True

    def check(self, tree: ast.AST, relpath: str) -> List[Violation]:
        """Flag stray threads/sockets and unbounded queue construction."""
        out: List[Violation] = []
        dirs = _dir_parts(relpath)
        if not any(home in dirs for home in _CONCURRENCY_HOMES):
            out.extend(self._containment(tree, relpath))
        out.extend(self._queue_bounds(tree, relpath))
        return out

    def _containment(self, tree: ast.AST, relpath: str) -> List[Violation]:
        remedy = (
            "; long-lived concurrency lives in repro/service/ (daemon) "
            "or repro/obs/ (sampler/exposition)"
        )
        out: List[Violation] = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name in _SOCKET_MODULES:
                        out.append(
                            self.violation(
                                node, relpath,
                                f"import of {alias.name} outside the "
                                "sanctioned concurrency homes" + remedy,
                            )
                        )
            elif isinstance(node, ast.ImportFrom):
                if (node.module or "") in _SOCKET_MODULES:
                    out.append(
                        self.violation(
                            node, relpath,
                            f"import from {node.module} outside the "
                            "sanctioned concurrency homes" + remedy,
                        )
                    )
            elif (
                isinstance(node, ast.Call)
                and _terminal_name(node.func) in _THREAD_FACTORIES
            ):
                out.append(
                    self.violation(
                        node, relpath,
                        f"{_terminal_name(node.func)}() construction outside "
                        "the sanctioned concurrency homes" + remedy,
                    )
                )
        return out

    def _queue_bounds(self, tree: ast.AST, relpath: str) -> List[Violation]:
        out: List[Violation] = []
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = _terminal_name(node.func)
            if name == "SimpleQueue":
                out.append(
                    self.violation(
                        node, relpath,
                        "SimpleQueue cannot be bounded; use Queue(maxsize=N) "
                        "so overload becomes back-pressure, not memory growth",
                    )
                )
            elif name in _BOUNDED_QUEUE_TYPES:
                bounded = bool(node.args) or any(
                    kw.arg == "maxsize" for kw in node.keywords
                )
                if not bounded:
                    out.append(
                        self.violation(
                            node, relpath,
                            f"{name}() constructed without an explicit "
                            "maxsize; an unbounded queue hides overload "
                            "until the process OOMs",
                        )
                    )
        return out


# The whole-program passes subclass ProgramRule above, so these imports
# must come after its definition; both import orders resolve because
# everything they need from this module is already bound by this line.
from repro.analysis_static.atomicity import StagingProtocolRule  # noqa: E402
from repro.analysis_static.iocost import (  # noqa: E402
    NestedScanRule,
    UnboundedScanLoopRule,
)
from repro.analysis_static.locks import (  # noqa: E402
    UnguardedReadRule,
    UnguardedWriteRule,
)

#: Every registered rule, in reporting order.
ALL_RULES: List[Type[Rule]] = [
    RawIORule,
    BareRenameRule,
    EdgeMaterializationRule,
    SequentialScanRule,
    CoreAPIRule,
    PerEdgeBoxingRule,
    ThreadSocketDisciplineRule,
    NestedScanRule,
    UnboundedScanLoopRule,
    UnguardedWriteRule,
    UnguardedReadRule,
    StagingProtocolRule,
]
