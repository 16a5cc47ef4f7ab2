"""The benchmark's per-layer counters read the package's partition objects;
check them on a real partition so a change of those objects shows here."""
import importlib.util
from pathlib import Path

from colored_descents.algebra import des_partition, verify_closure
from colored_descents.group import group_order, word_des

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_counters() -> dict:
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.COUNTERS


def test_partition_and_closure_counters():
    counters = load_counters()
    partition = des_partition(2, 3)
    size = group_order(2, 3)

    [(name, elements)] = counters["algebra.partition_by"]
    assert name == "elements"
    assert elements((2, 3, "des", word_des), {}, partition) == size

    [(name, products)] = counters["algebra.verify_closure"]
    assert name == "products"
    report = verify_closure(partition)
    assert products((partition,), {}, report) == size**2
    assert products((), {"partition": partition}, report) == size**2
    # the pair check composes every pair, so the tracer's |G|^2 is the
    # report's own count
    assert products((partition,), {}, report) == report.products
