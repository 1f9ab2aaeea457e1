"""Tests for the QASM reader: statements, expressions, declarations and errors."""

import math

import pytest

from repro.qasm.loader import (
    QasmParseError,
    QasmSemanticError,
    QasmSyntaxError,
    circuit_from_qasm,
    evaluate_expression,
    load_qasm_file,
)


HEADER = 'OPENQASM 2.0;\ninclude "qelib1.inc";\n'


class TestBasicLoading:
    def test_flattened_registers(self):
        circuit = circuit_from_qasm(HEADER + "qreg a[2];\nqreg b[3];\ncx a[1], b[0];\n")
        assert circuit.num_qubits == 5
        assert circuit.gates[0].qubits == (1, 2)

    def test_paper_fig1_trace(self):
        source = HEADER + (
            "qreg q[6];\n"
            "CX q[0],q[1];\nCX q[2],q[3];\nCX q[1],q[2];\n"
            "CX q[3],q[5];\nCX q[0],q[2];\nCX q[1],q[5];\n"
        )
        circuit = circuit_from_qasm(source)
        assert len(circuit) == 6
        assert all(g.name == "cx" for g in circuit)
        assert circuit.gates[3].qubits == (3, 5)

    def test_whole_register_broadcast(self):
        circuit = circuit_from_qasm(HEADER + "qreg q[4];\nh q;\n")
        assert len(circuit) == 4
        assert {g.qubits[0] for g in circuit} == {0, 1, 2, 3}

    def test_register_to_register_broadcast(self):
        circuit = circuit_from_qasm(HEADER + "qreg a[3];\nqreg b[3];\ncx a, b;\n")
        assert len(circuit) == 3
        assert circuit.gates[1].qubits == (1, 4)

    def test_measurements_excluded_by_default(self):
        source = HEADER + "qreg q[1];\ncreg c[1];\nh q[0];\nmeasure q[0] -> c[0];\n"
        assert len(circuit_from_qasm(source)) == 1
        assert len(circuit_from_qasm(source, include_measurements=True)) == 2

    def test_barrier_preserved(self):
        circuit = circuit_from_qasm(HEADER + "qreg q[2];\nh q[0];\nbarrier q[0],q[1];\n")
        assert circuit.gates[1].is_barrier

    def test_unknown_register_rejected(self):
        with pytest.raises(QasmSemanticError):
            circuit_from_qasm(HEADER + "qreg q[2];\nh r[0];\n")

    def test_out_of_range_index_rejected(self):
        with pytest.raises(QasmSemanticError):
            circuit_from_qasm(HEADER + "qreg q[2];\nh q[5];\n")

    def test_no_quantum_register_rejected(self):
        with pytest.raises(QasmSemanticError):
            circuit_from_qasm(HEADER + "creg c[2];\n")


class TestGateExpansion:
    def test_user_gate_expanded_inline(self):
        source = HEADER + (
            "gate bell a, b { h a; cx a, b; }\n"
            "qreg q[2];\nbell q[0], q[1];\n"
        )
        circuit = circuit_from_qasm(source)
        assert [g.name for g in circuit] == ["h", "cx"]

    def test_nested_user_gates(self):
        source = HEADER + (
            "gate inner a, b { cx a, b; }\n"
            "gate outer a, b { inner a, b; inner b, a; }\n"
            "qreg q[2];\nouter q[0], q[1];\n"
        )
        circuit = circuit_from_qasm(source)
        assert [g.qubits for g in circuit] == [(0, 1), (1, 0)]

    def test_parameter_substitution(self):
        source = HEADER + (
            "gate rot(theta) a { rz(theta/2) a; rz(theta/2) a; }\n"
            "qreg q[1];\nrot(pi) q[0];\n"
        )
        circuit = circuit_from_qasm(source)
        assert circuit.gates[0].params[0] == pytest.approx(math.pi / 2)

    def test_arity_mismatch_rejected(self):
        source = HEADER + "gate g a, b { cx a, b; }\nqreg q[2];\ng q[0];\n"
        with pytest.raises(QasmSemanticError):
            circuit_from_qasm(source)

    def test_ccx_is_decomposed_to_two_qubit_gates(self):
        circuit = circuit_from_qasm(HEADER + "qreg q[3];\nccx q[0],q[1],q[2];\n")
        assert all(g.num_qubits <= 2 for g in circuit)
        assert sum(1 for g in circuit if g.name == "cx") == 6

    def test_ccx_kept_when_decomposition_disabled(self):
        circuit = circuit_from_qasm(
            HEADER + "qreg q[3];\nccx q[0],q[1],q[2];\n", decompose_multiqubit=False
        )
        assert len(circuit) == 1 and circuit.gates[0].num_qubits == 3


class TestFileLoading:
    def test_load_qasm_file(self, tmp_path):
        path = tmp_path / "bell.qasm"
        path.write_text(HEADER + "qreg q[2];\nh q[0];\ncx q[0],q[1];\n")
        circuit = load_qasm_file(path)
        assert circuit.name == "bell"
        assert len(circuit) == 2


def ops(circuit):
    return [(g.name, g.qubits) for g in circuit]


class TestTokens:
    def test_keywords_are_not_register_names(self):
        assert circuit_from_qasm("OPENQASM 2.0; qreg q[3];").num_qubits == 3
        with pytest.raises(QasmParseError, match="expected identifier"):
            circuit_from_qasm("qreg gate[3];")

    def test_user_gate_names_are_identifiers(self):
        circuit = circuit_from_qasm("gate mygate a { h a; }\nqreg q[1];\nmygate q[0];\n")
        assert ops(circuit) == [("h", (0,))]

    def test_number_forms(self):
        assert [evaluate_expression(text) for text in ("1", "2.5", ".5", "3e4")] == [
            1.0, 2.5, 0.5, 30000.0,
        ]
        circuit = circuit_from_qasm("qreg q[1];\nu3(1, 2.5, .5) q[0];\nrz(3e4) q[0];\n")
        assert [g.params for g in circuit] == [(1.0, 2.5, 0.5), (30000.0,)]

    def test_comments_are_skipped(self):
        circuit = circuit_from_qasm("qreg q[1];\nh q[0]; // apply hadamard\nx q[0];")
        assert [g.name for g in circuit] == ["h", "x"]

    def test_errors_name_the_line(self):
        with pytest.raises(QasmParseError, match="line 4"):
            circuit_from_qasm("qreg q[2];\nh q[0];\n\ncx q[0] q[1];")

    def test_include_takes_a_string(self):
        assert len(circuit_from_qasm(HEADER + "qreg q[1];\nh q[0];\n")) == 1
        with pytest.raises(QasmParseError, match="expected string"):
            circuit_from_qasm("include qelib1;\nqreg q[1];\n")

    def test_measure_arrow(self):
        source = "qreg q[1];\ncreg c[1];\nmeasure q[0] -> c[0];\n"
        assert circuit_from_qasm(source, include_measurements=True).gates[0].is_measurement
        with pytest.raises(QasmParseError, match="'->'"):
            circuit_from_qasm("qreg q[1];\ncreg c[1];\nmeasure q[0] c[0];\n")

    def test_unexpected_character(self):
        with pytest.raises(QasmSyntaxError, match="'@' on line 2"):
            circuit_from_qasm("qreg q[1];\nh q[0]; @")

    def test_stray_character_is_reported_before_any_other_error(self):
        with pytest.raises(QasmSyntaxError, match="'@' on line 3") as info:
            circuit_from_qasm("qreg q[1];\nh r[0];\nx q[0]; @")
        assert type(info.value) is QasmSyntaxError

    def test_malformed_statement_is_reported_before_a_meaningless_one(self):
        with pytest.raises(QasmParseError, match="line 3") as info:
            circuit_from_qasm("qreg q[1];\nh r[0];\nx q[0]")
        assert type(info.value) is QasmParseError

    def test_unevaluable_call_parameter_is_reported_before_a_bad_gate(self):
        # (-1) ^ 0.5 is complex, which Gate rejects with TypeError while
        # building; the later 1/0 is an error of the text, so it comes first.
        source = "qreg q[1];\ngate g(t) a { rz(t ^ 0.5) a; }\ng(-1) q[0];\nrz(1/0) q[0];\n"
        with pytest.raises(ZeroDivisionError):
            circuit_from_qasm(source)

    def test_strings_only_name_include_files(self):
        with pytest.raises(QasmParseError):
            circuit_from_qasm('qreg q[1];\nrz("pi") q[0];\n')
        with pytest.raises(QasmParseError):
            circuit_from_qasm('qreg q[1];\nh q[0]";"\n')


class TestStatements:
    def test_registers(self):
        circuit = circuit_from_qasm(HEADER + "qreg q[5];\ncreg c[5];\nh q[4];\n")
        assert circuit.num_qubits == 5
        assert ops(circuit) == [("h", (4,))]

    def test_gate_calls(self):
        circuit = circuit_from_qasm(HEADER + "qreg q[2];\nh q[0];\ncx q[0],q[1];\n")
        assert ops(circuit) == [("h", (0,)), ("cx", (0, 1))]

    def test_parameterised_gate_call(self):
        circuit = circuit_from_qasm(HEADER + "qreg q[1];\nrz(pi/2) q[0];\n")
        assert circuit.gates[0].params[0] == pytest.approx(math.pi / 2)

    def test_barrier(self):
        circuit = circuit_from_qasm(HEADER + "qreg q[3];\nbarrier q[0],q[2];\nbarrier;\n")
        assert ops(circuit) == [("barrier", (0, 2)), ("barrier", (0, 1, 2))]

    def test_measure_of_a_whole_register(self):
        source = HEADER + "qreg q[2];\ncreg c[2];\nmeasure q -> c;\n"
        circuit = circuit_from_qasm(source, include_measurements=True)
        assert ops(circuit) == [("measure", (0,)), ("measure", (1,))]

    def test_reset(self):
        assert ops(circuit_from_qasm("qreg q[2];\nreset q;\n")) == [("reset", (0,)), ("reset", (1,))]

    def test_opaque_is_skipped(self):
        circuit = circuit_from_qasm(HEADER + "qreg q[1];\nopaque magic a;\nh q[0];\n")
        assert ops(circuit) == [("h", (0,))]

    def test_classical_condition_keeps_quantum_part(self):
        circuit = circuit_from_qasm(HEADER + "qreg q[1];\ncreg c[1];\nif (c == 1) x q[0];\n")
        assert ops(circuit) == [("x", (0,))]

    def test_missing_semicolon_rejected(self):
        with pytest.raises(QasmParseError):
            circuit_from_qasm(HEADER + "qreg q[2]\nh q[0];")

    def test_gate_declaration(self):
        source = HEADER + "gate mygate a, b { cx a, b; h a; }\nqreg q[2];\nmygate q[0], q[1];\n"
        assert ops(circuit_from_qasm(source)) == [("cx", (0, 1)), ("h", (0,))]

    def test_parameterised_declaration(self):
        source = HEADER + "gate rot(theta) a { rz(theta/2) a; }\nqreg q[1];\nrot(pi) q[0];\n"
        assert circuit_from_qasm(source).gates[0].params == (math.pi / 2,)

    def test_barrier_inside_gate_body_is_ignored(self):
        source = HEADER + "gate g a, b { cx a, b; barrier a, b; cx b, a; }\nqreg q[2];\ng q[0], q[1];\n"
        assert ops(circuit_from_qasm(source)) == [("cx", (0, 1)), ("cx", (1, 0))]


class TestDeclarationOrder:
    """Declarations are read first, so where a statement stands does not matter."""

    def test_register_used_before_its_declaration(self):
        circuit = circuit_from_qasm("qreg a[1];\nh b[1];\nqreg b[2];\n")
        assert circuit.num_qubits == 3 and ops(circuit) == [("h", (2,))]

    def test_barrier_spans_registers_declared_after_it(self):
        assert ops(circuit_from_qasm("qreg a[1];\nbarrier;\nqreg b[2];\n")) == [
            ("barrier", (0, 1, 2))
        ]

    def test_gate_used_before_its_declaration(self):
        source = "qreg q[1];\ng q[0];\ngate g a { x a; }\n"
        assert ops(circuit_from_qasm(source)) == [("x", (0,))]

    def test_last_gate_definition_wins(self):
        source = "qreg q[1];\ngate g a { h a; }\ng q[0];\ngate g a { x a; }\ng q[0];\n"
        assert ops(circuit_from_qasm(source)) == [("x", (0,)), ("x", (0,))]


class TestExpressions:
    def test_numbers(self):
        assert evaluate_expression("3") == 3.0
        assert evaluate_expression("2.5") == 2.5

    def test_pi(self):
        assert evaluate_expression("pi/2") == pytest.approx(math.pi / 2)

    def test_arithmetic(self):
        assert evaluate_expression("1 + 2 * 3") == 7.0
        assert evaluate_expression("(1 + 2) * 3") == 9.0
        assert evaluate_expression("-pi/4") == pytest.approx(-math.pi / 4)
        assert evaluate_expression("2^3") == 8.0
        assert evaluate_expression("2^3^2") == 512.0
        assert evaluate_expression("-2^2") == -4.0

    def test_environment_names(self):
        assert evaluate_expression("theta/2", {"theta": 1.0}) == 0.5

    def test_unknown_name_rejected(self):
        with pytest.raises(QasmParseError):
            evaluate_expression("theta")

    def test_openqasm_functions(self):
        for name, function in [
            ("sin", math.sin), ("cos", math.cos), ("tan", math.tan),
            ("exp", math.exp), ("ln", math.log), ("sqrt", math.sqrt),
        ]:
            assert evaluate_expression(f"{name}(0.3)") == function(0.3)
        with pytest.raises(QasmParseError, match="unknown name 'sin'"):
            evaluate_expression("sin")

    def test_trailing_tokens_rejected(self):
        with pytest.raises(QasmParseError):
            evaluate_expression("1 2")
        with pytest.raises(QasmSyntaxError):
            evaluate_expression("1 @")


class TestErrors:
    def test_error_classes_form_one_hierarchy(self):
        assert issubclass(QasmSemanticError, QasmParseError)
        assert issubclass(QasmParseError, QasmSyntaxError)
        assert issubclass(QasmSyntaxError, ValueError)

    def test_register_declared_twice_rejected(self):
        with pytest.raises(QasmSemanticError, match="'q' is declared twice .*line 4"):
            circuit_from_qasm(HEADER + "qreg q[3];\nqreg q[2];\ncx q[0],q[1];\n")

    def test_quantum_and_classical_registers_share_names(self):
        with pytest.raises(QasmSemanticError, match="'c' is declared twice .*line 2"):
            circuit_from_qasm("creg c[2];\nqreg c[2];\nh c[0];\n")

    def test_undeclared_gate_argument_rejected(self):
        source = "qreg q[2];\ngate g x,y {\n  cx x,z;\n}\ng q[0],q[1];\n"
        with pytest.raises(QasmSemanticError, match="gate 'g' .*'z' on line 3"):
            circuit_from_qasm(source)

    def test_expression_errors_name_the_statement_line(self):
        with pytest.raises(QasmParseError, match="unknown name 'foo' .*line 4"):
            circuit_from_qasm(HEADER + "qreg q[1];\nrz(foo(0.3)) q[0];\n")
        source = HEADER + "gate g(t) a {\n  rz(t + phi) a;\n}\nqreg q[1];\ng(1) q[0];\n"
        with pytest.raises(QasmParseError, match="unknown name 'phi' .*line 4"):
            circuit_from_qasm(source)

    def test_openqasm_functions_in_parameters(self):
        circuit = circuit_from_qasm(HEADER + "qreg q[1];\nrz(sin(0.3)) q[0];\n")
        assert circuit.gates[0].params == (math.sin(0.3),)

    def test_gate_on_an_empty_register_rejected(self):
        with pytest.raises(QasmSemanticError, match="empty register"):
            circuit_from_qasm("qreg a[0];\nqreg b[2];\nh a;\n")

    def test_semantic_errors_name_the_line(self):
        with pytest.raises(QasmSemanticError, match="'r' on line 3"):
            circuit_from_qasm("qreg q[1];\nh q[0];\nh r[0];\n")
        with pytest.raises(QasmSemanticError, match="out of range .*line 2"):
            circuit_from_qasm("qreg q[1];\nh q[1];\n")
