"""Unit tests for interface extraction and test-driver generation."""

import pytest

from repro.dart.driver import (
    DRIVER_ENTRY,
    build_test_program,
    generate_driver,
    render_declarator,
    render_type,
)
from repro.dart.interface import extract_interface
from repro.minic import compile_program
from repro.minic import typesys as ts
from repro.minic.errors import SemanticError


SOURCE = """
struct packet { int kind; char payload; };
extern int config_flag;
int remote_lookup(int key);
int process(struct packet *p, int mode) {
  if (p == NULL) return -1;
  if (config_flag) return remote_lookup(mode);
  return p->kind;
}
"""


class TestInterfaceExtraction:
    def test_toplevel_params(self):
        iface, _ = extract_interface(SOURCE, "process")
        assert iface.toplevel == "process"
        assert len(iface.param_types) == 2
        assert iface.param_types[0].is_pointer()
        assert iface.param_types[1] == ts.INT

    def test_external_functions_found(self):
        iface, _ = extract_interface(SOURCE, "process")
        assert set(iface.external_functions) == {"remote_lookup"}

    def test_external_variables_found(self):
        iface, _ = extract_interface(SOURCE, "process")
        assert set(iface.external_variables) == {"config_flag"}

    def test_missing_toplevel_rejected(self):
        with pytest.raises(SemanticError, match="toplevel"):
            extract_interface(SOURCE, "no_such_function")

    def test_array_param_decays(self):
        iface, _ = extract_interface(
            "int f(int data[8]) { return data[0]; }", "f"
        )
        assert iface.param_types[0] == ts.PointerType(ts.INT)


class TestTypeRendering:
    def test_scalars(self):
        assert render_type(ts.INT) == "int"
        assert render_type(ts.PointerType(ts.CHAR)) == "char *"
        assert render_declarator(ts.UINT, "x") == "unsigned int x"

    def test_struct_pointer(self):
        struct = ts.StructType("foo")
        assert render_declarator(ts.PointerType(struct), "p") \
            == "struct foo *p"

    def test_array(self):
        assert render_declarator(ts.ArrayType(ts.INT, 4), "a") == "int a[4]"

    def test_array_of_pointers(self):
        t = ts.ArrayType(ts.PointerType(ts.CHAR), 3)
        assert render_declarator(t, "argv") == "char *argv[3]"

    def test_double_pointer(self):
        t = ts.PointerType(ts.PointerType(ts.INT))
        assert render_declarator(t, "pp") == "int **pp"


class TestDriverGeneration:
    def test_driver_compiles_with_program(self):
        module = build_test_program(SOURCE, "process")
        assert DRIVER_ENTRY in module.functions

    def test_driver_defines_stub_for_external_function(self):
        iface, _ = extract_interface(SOURCE, "process")
        driver = generate_driver(iface)
        assert "int remote_lookup(int __dart_p0)" in driver

    def test_driver_initializes_external_variable(self):
        iface, _ = extract_interface(SOURCE, "process")
        driver = generate_driver(iface)
        assert "&config_flag" in driver

    def test_driver_depth_loop(self):
        iface, _ = extract_interface(SOURCE, "process")
        driver = generate_driver(iface, depth=3)
        assert "__dart_depth_i < 3" in driver

    def test_pointer_init_uses_coin_and_malloc(self):
        iface, _ = extract_interface(SOURCE, "process")
        driver = generate_driver(iface)
        assert "__dart_ptr_choice()" in driver
        assert "malloc(sizeof(struct packet))" in driver

    def test_recursive_type_generates_without_looping(self):
        source = """
        struct node { int value; struct node *next; };
        int length(struct node *head) {
          int n; n = 0;
          while (head != NULL && n < 100) { n = n + 1; head = head->next; }
          return n;
        }
        """
        module = build_test_program(source, "length")
        assert "__dart_init_s_node" in module.functions
        assert "__dart_init_p_s_node" in module.functions

    def test_bounded_init_depth_threads_counter(self):
        source = """
        struct node { int value; struct node *next; };
        int probe(struct node *head) { return head == NULL; }
        """
        iface, _ = extract_interface(source, "probe")
        driver = generate_driver(iface, max_init_depth=4)
        assert "__dart_d < 4" in driver
        assert "__dart_d + 1" in driver
        compile_program(source + driver)  # must be valid mini-C

    def test_void_pointer_param(self):
        source = "int f(void *p) { return p == NULL; }"
        module = build_test_program(source, "f")
        assert DRIVER_ENTRY in module.functions

    def test_struct_by_value_param(self):
        source = """
        struct pair { int a; int b; };
        int add(struct pair p) { return p.a + p.b; }
        """
        module = build_test_program(source, "add")
        assert DRIVER_ENTRY in module.functions

    def test_array_of_struct_field(self):
        source = """
        struct vec { int xs[3]; };
        int total(struct vec *v) {
          if (v == NULL) return 0;
          return v->xs[0] + v->xs[1] + v->xs[2];
        }
        """
        module = build_test_program(source, "total")
        assert DRIVER_ENTRY in module.functions

    def test_external_function_returning_pointer(self):
        source = """
        int *next_cell(void);
        int f(void) {
          int *p;
          p = next_cell();
          if (p == NULL) return 0;
          return *p;
        }
        """
        module = build_test_program(source, "f")
        assert "next_cell" in module.functions  # stubbed by the driver

    def test_external_void_function(self):
        source = """
        void notify(int code);
        int f(int x) { notify(x); return x; }
        """
        module = build_test_program(source, "f")
        assert "notify" in module.functions

    def test_char_param(self):
        module = build_test_program(
            "int f(char c) { return c + 1; }", "f"
        )
        assert DRIVER_ENTRY in module.functions
