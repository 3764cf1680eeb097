from repro.analysis import DispatchSite, Hierarchy, LockComponent, LockDecl, Spec

SPEC = Spec(
    scan=(".",),
    lock_components=(
        LockComponent(
            module="good.py",
            cls="Stats",
            locks=(
                LockDecl(attr="_lock", kind="Lock", guards=("count", "rows"), rank=10),
                LockDecl(attr="_aux", kind="Lock", guards=(), rank=20),
            ),
        ),
    ),
    hierarchies=(
        Hierarchy(name="node", module="good.py", root="Node"),
        Hierarchy(name="leaf", module="good.py", root="Leaf", frozen=True),
    ),
    dispatch_sites=(
        DispatchSite(
            name="render",
            module="good.py",
            hierarchy="node",
            functions=("render",),
        ),
    ),
    hygiene_scan=("",),
)
