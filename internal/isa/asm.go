package isa

import (
	"fmt"
	"strconv"
	"strings"
)

// Assemble parses one line of ENMC assembly into an instruction.
// Syntax mirrors the paper's listings:
//
//	INIT reg_7, 42          QUERY reg_7
//	LDR feat_i4, 0x1000     STR out, 0x2000
//	MOVE out, psum_f32      MUL_ADD_INT4 feat_i4, wgt_i4
//	FILTER psum_i4          SOFTMAX   BARRIER   RETURN   CLR
//
// Comments start with '#' or '//'. Buffers accept either the symbolic
// names above or buffer_N.
func Assemble(line string) (Instruction, error) {
	if i := strings.Index(line, "#"); i >= 0 {
		line = line[:i]
	}
	if i := strings.Index(line, "//"); i >= 0 {
		line = line[:i]
	}
	line = strings.TrimSpace(line)
	if line == "" {
		return Instruction{}, errEmptyLine
	}
	fields := strings.Fields(strings.ReplaceAll(line, ",", " "))
	if len(fields) == 0 {
		return Instruction{}, fmt.Errorf("isa: no mnemonic: %q", line)
	}
	mnemonic := strings.ToUpper(fields[0])
	args := fields[1:]

	switch mnemonic {
	case "INIT":
		if len(args) != 2 {
			return Instruction{}, fmt.Errorf("isa: INIT wants reg, value: %q", line)
		}
		r, err := parseReg(args[0])
		if err != nil {
			return Instruction{}, err
		}
		v, err := parseUint(args[1])
		if err != nil {
			return Instruction{}, err
		}
		return Init(r, v), nil
	case "QUERY":
		if len(args) != 1 {
			return Instruction{}, fmt.Errorf("isa: QUERY wants reg: %q", line)
		}
		r, err := parseReg(args[0])
		if err != nil {
			return Instruction{}, err
		}
		return Query(r), nil
	case "LDR", "STR":
		if len(args) != 2 {
			return Instruction{}, fmt.Errorf("isa: %s wants buffer, addr: %q", mnemonic, line)
		}
		b, err := parseBuf(args[0])
		if err != nil {
			return Instruction{}, err
		}
		a, err := parseUint(args[1])
		if err != nil {
			return Instruction{}, err
		}
		if mnemonic == "LDR" {
			return Ldr(b, a), nil
		}
		return Str(b, a), nil
	case "FILTER":
		if len(args) != 1 {
			return Instruction{}, fmt.Errorf("isa: FILTER wants buffer: %q", line)
		}
		b, err := parseBuf(args[0])
		if err != nil {
			return Instruction{}, err
		}
		return Filter(b), nil
	case "MOVE", "MUL_ADD_INT4", "MUL_ADD_FP32", "ADD_INT4", "MUL_INT4", "ADD_FP32", "MUL_FP32":
		if len(args) != 2 {
			return Instruction{}, fmt.Errorf("isa: %s wants two buffers: %q", mnemonic, line)
		}
		b0, err := parseBuf(args[0])
		if err != nil {
			return Instruction{}, err
		}
		b1, err := parseBuf(args[1])
		if err != nil {
			return Instruction{}, err
		}
		op := map[string]Opcode{
			"MOVE": OpMOVE, "MUL_ADD_INT4": OpMULADDINT4, "MUL_ADD_FP32": OpMULADDFP32,
			"ADD_INT4": OpADDINT4, "MUL_INT4": OpMULINT4, "ADD_FP32": OpADDFP32, "MUL_FP32": OpMULFP32,
		}[mnemonic]
		return Compute(op, b0, b1), nil
	case "SOFTMAX", "SIGMOID", "BARRIER", "NOP", "RETURN", "CLR":
		if len(args) != 0 {
			return Instruction{}, fmt.Errorf("isa: %s takes no operands: %q", mnemonic, line)
		}
		op := map[string]Opcode{
			"SOFTMAX": OpSOFTMAX, "SIGMOID": OpSIGMOID, "BARRIER": OpBARRIER,
			"NOP": OpNOP, "RETURN": OpRETURN, "CLR": OpCLR,
		}[mnemonic]
		return Simple(op), nil
	default:
		return Instruction{}, fmt.Errorf("isa: unknown mnemonic %q", mnemonic)
	}
}

// errEmptyLine signals a blank/comment-only line to AssembleProgram.
var errEmptyLine = fmt.Errorf("isa: empty line")

// AssembleProgram assembles a multi-line source, skipping blank lines
// and comments; errors carry the 1-based line number.
func AssembleProgram(src string) ([]Instruction, error) {
	var out []Instruction
	for n, line := range strings.Split(src, "\n") {
		in, err := Assemble(line)
		if err == errEmptyLine {
			continue
		}
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", n+1, err)
		}
		out = append(out, in)
	}
	return out, nil
}

// Disassemble renders a program as text that Assemble round-trips.
func Disassemble(prog []Instruction) string {
	var sb strings.Builder
	for _, in := range prog {
		sb.WriteString(in.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}

func parseReg(s string) (Reg, error) {
	s = strings.ToLower(strings.TrimSpace(s))
	if !strings.HasPrefix(s, "reg_") {
		return 0, fmt.Errorf("isa: bad register %q", s)
	}
	n, err := strconv.Atoi(s[4:])
	if err != nil || n < 0 || n >= NumRegs {
		return 0, fmt.Errorf("isa: bad register %q", s)
	}
	return Reg(n), nil
}

func parseBuf(s string) (Buffer, error) {
	s = strings.ToLower(strings.TrimSpace(s))
	for b, name := range bufNames {
		if s == name {
			return b, nil
		}
	}
	if strings.HasPrefix(s, "buffer_") {
		n, err := strconv.Atoi(s[7:])
		if err == nil && Buffer(n).Valid() {
			return Buffer(n), nil
		}
	}
	return 0, fmt.Errorf("isa: bad buffer %q", s)
}

func parseUint(s string) (uint64, error) {
	v, err := strconv.ParseUint(strings.TrimSpace(s), 0, 64)
	if err != nil {
		return 0, fmt.Errorf("isa: bad value %q", s)
	}
	return v, nil
}
