// Package debuginfo defines the MiniC debug-information format — the
// DWARF analog the compiler emits and the debugger consumes.
//
// It has the two sections the paper's metrics depend on:
//
//   - a line table mapping code addresses to source lines, with one row
//     per change point (address runs with line 0 carry no source
//     attribution, like DWARF rows the compiler dropped);
//   - per-variable location lists: address ranges in which the variable
//     can be found in a register, a stack slot, or as a known constant.
//
// The format reproduces DWARF's relevant pathologies deliberately:
// at -O0 variables get whole-scope slot locations that extend beyond
// their live ranges (the baseline inflation corrected by the hybrid
// metric), and under the gcc-like profile register ranges are optimistic
// — present in the section but not guaranteed to materialize at runtime,
// which is what static metrics over-count.
package debuginfo

import (
	"encoding/binary"
	"fmt"
	"sort"
)

// LocKind classifies a location-list entry.
type LocKind uint8

// Location kinds.
const (
	// LocNone marks the variable explicitly optimized out over a range.
	LocNone LocKind = iota
	// LocReg places the variable in a register; it materializes only if
	// the register still holds the variable's value at runtime.
	LocReg
	// LocSlot places the variable in its -O0 frame slot; home slots
	// always read successfully (including before the first assignment —
	// the DWARF whole-scope defect).
	LocSlot
	// LocSpill places the variable in a register-allocator spill slot;
	// shared spill slots may hold another variable's value, checked at
	// runtime like registers.
	LocSpill
	// LocConst records a compile-time-known value.
	LocConst
	// LocGlobal places the variable in static storage, always readable.
	LocGlobal
)

func (k LocKind) String() string {
	switch k {
	case LocNone:
		return "none"
	case LocReg:
		return "reg"
	case LocSlot:
		return "slot"
	case LocSpill:
		return "spill"
	case LocConst:
		return "const"
	case LocGlobal:
		return "global"
	}
	return "?"
}

// LocEntry is one location-list row over the half-open address range
// [Start, End).
type LocEntry struct {
	Start, End uint32
	Kind       LocKind
	Operand    int64 // register, slot, constant, or global index
}

// Variable is one variable's debug record.
type Variable struct {
	SymID   int32
	Name    string
	FuncIdx int32 // index into Funcs, or -1 for globals
	Entries []LocEntry
}

// FuncDebug describes one function's debug extent.
type FuncDebug struct {
	Name      string
	Start     uint32
	End       uint32
	StartLine int32
	// PrologueEnd is the address after frame setup; slot and spill
	// locations are invalid before it (shrink-wrapping moves it).
	PrologueEnd uint32
	// LinkageName is emitted under -fdebug-info-for-profiling and lets
	// sample profiles attribute addresses even when line rows are
	// missing.
	LinkageName string
}

// LineEntry is a line-table row: from Addr (inclusive) until the next
// row's address, the code is attributed to Line (0 = no attribution).
type LineEntry struct {
	Addr uint32
	Line int32
}

// Table is the decoded debug-information section.
type Table struct {
	Funcs []FuncDebug
	Lines []LineEntry
	Vars  []Variable
	// ForProfiling mirrors -fdebug-info-for-profiling: function start
	// lines and linkage names are always present.
	ForProfiling bool
}

// LineForAddr returns the source line attributed to the address, or 0.
func (t *Table) LineForAddr(addr uint32) int32 {
	i := sort.Search(len(t.Lines), func(i int) bool {
		return t.Lines[i].Addr > addr
	}) - 1
	if i < 0 {
		return 0
	}
	return t.Lines[i].Line
}

// FuncForAddr returns the function containing the address, or nil.
func (t *Table) FuncForAddr(addr uint32) *FuncDebug {
	for i := range t.Funcs {
		f := &t.Funcs[i]
		if addr >= f.Start && addr < f.End {
			return f
		}
	}
	return nil
}

// SteppableLines returns the set of distinct source lines present in the
// line table — the lines a debugger can place a breakpoint on.
func (t *Table) SteppableLines() map[int]bool {
	lines := make(map[int]bool)
	for _, e := range t.Lines {
		if e.Line > 0 {
			lines[int(e.Line)] = true
		}
	}
	return lines
}

// BreakAddrs returns, for every steppable line, the addresses where a
// row for that line begins — the is_stmt candidates a debugger uses for
// line breakpoints.
func (t *Table) BreakAddrs() map[int][]uint32 {
	addrs := make(map[int][]uint32)
	for _, e := range t.Lines {
		if e.Line > 0 {
			addrs[int(e.Line)] = append(addrs[int(e.Line)], e.Addr)
		}
	}
	return addrs
}

// LocAt returns the variable's location entry covering the address, or
// nil. When ranges overlap the last-emitted entry wins, matching how the
// emitter appends refinements.
func (v *Variable) LocAt(addr uint32) *LocEntry {
	var found *LocEntry
	for i := range v.Entries {
		e := &v.Entries[i]
		if addr >= e.Start && addr < e.End {
			found = e
		}
	}
	return found
}

// ---- Serialization ----

const magic = 0xDB61F0

// Encode serializes the table.
func (t *Table) Encode() []byte {
	var buf []byte
	u := func(x uint64) { buf = binary.AppendUvarint(buf, x) }
	i := func(x int64) { buf = binary.AppendVarint(buf, x) }
	s := func(x string) {
		u(uint64(len(x)))
		buf = append(buf, x...)
	}
	u(magic)
	if t.ForProfiling {
		u(1)
	} else {
		u(0)
	}
	u(uint64(len(t.Funcs)))
	for _, f := range t.Funcs {
		s(f.Name)
		u(uint64(f.Start))
		u(uint64(f.End))
		i(int64(f.StartLine))
		u(uint64(f.PrologueEnd))
		s(f.LinkageName)
	}
	u(uint64(len(t.Lines)))
	prev := uint32(0)
	for _, e := range t.Lines {
		u(uint64(e.Addr - prev)) // delta-encoded, rows sorted by address
		prev = e.Addr
		i(int64(e.Line))
	}
	u(uint64(len(t.Vars)))
	for _, v := range t.Vars {
		i(int64(v.SymID))
		s(v.Name)
		i(int64(v.FuncIdx))
		u(uint64(len(v.Entries)))
		for _, e := range v.Entries {
			u(uint64(e.Start))
			u(uint64(e.End))
			u(uint64(e.Kind))
			i(e.Operand)
		}
	}
	return buf
}

// Decode parses a serialized table.
func Decode(data []byte) (*Table, error) {
	pos := 0
	fail := func(what string) error {
		return fmt.Errorf("debuginfo: truncated or corrupt section at %q (offset %d)", what, pos)
	}
	u := func() (uint64, bool) {
		x, n := binary.Uvarint(data[pos:])
		if n <= 0 {
			return 0, false
		}
		pos += n
		return x, true
	}
	i := func() (int64, bool) {
		x, n := binary.Varint(data[pos:])
		if n <= 0 {
			return 0, false
		}
		pos += n
		return x, true
	}
	s := func() (string, bool) {
		n, ok := u()
		if !ok || pos+int(n) > len(data) {
			return "", false
		}
		x := string(data[pos : pos+int(n)])
		pos += int(n)
		return x, true
	}
	m, ok := u()
	if !ok || m != magic {
		return nil, fmt.Errorf("debuginfo: bad magic")
	}
	t := &Table{}
	fp, ok := u()
	if !ok {
		return nil, fail("flags")
	}
	t.ForProfiling = fp != 0
	nf, ok := u()
	if !ok {
		return nil, fail("func count")
	}
	for k := uint64(0); k < nf; k++ {
		var f FuncDebug
		var okName, okLink bool
		var start, end, pe uint64
		var sl int64
		f.Name, okName = s()
		start, _ = u()
		end, _ = u()
		sl, _ = i()
		pe, ok = u()
		f.LinkageName, okLink = s()
		if !okName || !ok || !okLink {
			return nil, fail("func record")
		}
		f.Start, f.End, f.PrologueEnd = uint32(start), uint32(end), uint32(pe)
		f.StartLine = int32(sl)
		t.Funcs = append(t.Funcs, f)
	}
	nl, ok := u()
	if !ok {
		return nil, fail("line count")
	}
	prev := uint64(0)
	for k := uint64(0); k < nl; k++ {
		d, ok1 := u()
		ln, ok2 := i()
		if !ok1 || !ok2 {
			return nil, fail("line row")
		}
		prev += d
		t.Lines = append(t.Lines, LineEntry{Addr: uint32(prev), Line: int32(ln)})
	}
	nv, ok := u()
	if !ok {
		return nil, fail("var count")
	}
	for k := uint64(0); k < nv; k++ {
		var v Variable
		sym, ok1 := i()
		name, ok2 := s()
		fi, ok3 := i()
		ne, ok4 := u()
		if !ok1 || !ok2 || !ok3 || !ok4 {
			return nil, fail("var record")
		}
		v.SymID, v.Name, v.FuncIdx = int32(sym), name, int32(fi)
		for e := uint64(0); e < ne; e++ {
			st, ok1 := u()
			en, ok2 := u()
			kd, ok3 := u()
			op, ok4 := i()
			if !ok1 || !ok2 || !ok3 || !ok4 {
				return nil, fail("loc entry")
			}
			v.Entries = append(v.Entries, LocEntry{
				Start: uint32(st), End: uint32(en),
				Kind: LocKind(kd), Operand: op,
			})
		}
		t.Vars = append(t.Vars, v)
	}
	return t, nil
}
