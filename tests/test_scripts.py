import importlib.util
from pathlib import Path

from rcfilter import save_instance

ROOT = Path(__file__).resolve().parent.parent


def _load_script(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_make_instances_reproduces_committed_files(tmp_path):
    built = list(_load_script("make_instances").build())
    assert sorted(name for name, _ in built) == sorted(
        p.name for p in (ROOT / "instances").glob("*.json")
    )
    for name, inst in built:
        save_instance(inst, tmp_path / name)
        assert (tmp_path / name).read_bytes() == (ROOT / "instances" / name).read_bytes()
