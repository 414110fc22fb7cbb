"""The package's public surface: every exported name resolves, and every
module stays small enough to compile cheaply."""

from pathlib import Path

import citebias

# CPython keeps the memory each module's compile freed, and it adds up
# across modules, so a run from source (no bytecode cached) peaks with the
# total source compiled; the limit caps what any one compile takes on top
MAX_MODULE_BYTES = 24 * 1024


def test_every_name_in_all_resolves_on_the_package():
    assert [name for name in citebias.__all__ if not hasattr(citebias, name)] == []
    assert len(set(citebias.__all__)) == len(citebias.__all__)
    namespace: dict = {}
    exec("from citebias import *", namespace)
    assert set(citebias.__all__) <= namespace.keys()


def test_every_module_is_at_most_24_kib():
    sizes = {path.name: path.stat().st_size for path in Path(citebias.__file__).parent.glob("*.py")}
    over = {name: size for name, size in sorted(sizes.items()) if size > MAX_MODULE_BYTES}
    assert over == {}, (
        f"modules over {MAX_MODULE_BYTES} B: {over}. Compiling a module from source costs "
        "tens of times its size in memory that the process keeps, adding to what earlier "
        "compiles kept: split the module at a seam instead of raising the limit"
    )
