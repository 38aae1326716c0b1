package codegen

import (
	"cmp"
	"slices"
	"time"

	"debugtuner/internal/ast"
	"debugtuner/internal/debuginfo"
	"debugtuner/internal/ir"
	"debugtuner/internal/telemetry"
	"debugtuner/internal/vm"
)

// Compile lowers an optimized IR program all the way to an executable
// binary with its debug-information section. The IR program is not
// modified — critical edges are split on the machine IR during lowering
// — so one module can be compiled again and again, as verify-each does
// after every middle-end pass. With telemetry enabled, each optional
// backend stage reports its wall time and debug damage to the ledger
// under the toggle name that enabled it.
func Compile(prog *ir.Program, opts Options) *vm.Binary {
	snk := telemetry.Active()
	span := telemetry.Begin("codegen", "compile")
	fidx := map[string]int64{}
	for i, f := range prog.Funcs {
		fidx[f.Name] = int64(i)
	}
	var mfuncs []*MFunc
	var snap mirSnap
	for _, f := range prog.Funcs {
		mf := lowerFunc(prog, f, &opts, fidx)
		if opts.MachineSink {
			runStage(snk, &opts, &snap, "machine-sink", mf, func() { machineSink(mf) })
		}
		// Register allocation runs on reverse postorder — inlining
		// appends callee blocks far from their call sites, and the
		// linear-scan intervals must not be stretched by accidental
		// block placement. The optional hot-path layout is a post-RA
		// pass, as in LLVM's MachineBlockPlacement.
		if opts.Schedule {
			runStage(snk, &opts, &snap, "schedule", mf, func() { schedule(mf) })
		}
		rpoSort(mf)
		regalloc(mf, &opts)
		if opts.Layout {
			runStage(snk, &opts, &snap, "layout", mf, func() { layout(mf) })
		}
		if opts.ShrinkWrap {
			t0 := time.Now()
			shrinkWrap(mf)
			shrinkWrapDamage(snk, &opts, mf, time.Since(t0))
		} else {
			mf.prologBlock = mf.Blocks[0]
		}
		if opts.CrossJump {
			runStage(snk, &opts, &snap, "crossjump", mf, func() { crossJump(mf) })
		}
		mfuncs = append(mfuncs, mf)
	}
	bin := emit(prog, mfuncs, &opts)
	span.End()
	return bin
}

// emit assembles the machine functions into a flat binary and builds the
// debug tables.
func emit(prog *ir.Program, mfuncs []*MFunc, opts *Options) *vm.Binary {
	bin := &vm.Binary{}
	for _, g := range prog.Globals {
		bin.Globals = append(bin.Globals, vm.GlobalInfo{
			Name: g.Name, IsArray: g.IsArray, Init: g.Init,
		})
	}
	dbg := &debuginfo.Table{ForProfiling: opts.ForProfiling}
	locs := &locLists{local: make([]int32, len(prog.Symbols)), precise: !opts.OptimisticRanges}

	type fixup struct {
		idx    int
		target *MBlock
	}
	for fi, mf := range mfuncs {
		start := len(bin.Code)
		var fixups []fixup
		blockAddr := map[*MBlock]int{}

		// Insert the prologue at the front of its block.
		if mf.prologBlock != nil {
			pb := mf.prologBlock
			pb.Instrs = append([]*MInstr{{
				Op: vm.OpProlog, A: -1, B: -1, C: -1, D: -1,
			}}, pb.Instrs...)
		}

		// Location-list builder state.
		homeSlot := map[int]int{} // symID -> home slot
		for slot, sym := range mf.SlotVars {
			if sym != nil {
				if _, dup := homeSlot[sym.ID]; !dup {
					homeSlot[sym.ID] = slot
				}
			}
		}
		locs.begin(int32(fi))

		prologueEnd := start
		var lastEmitted *vm.Instr
		var pendingPre []vm.OwnerTag
		for bi, b := range mf.Blocks {
			blockAddr[b] = len(bin.Code)
			lastEmitted = nil
			for _, in := range b.Instrs {
				if in.Op == mDbg {
					sym := in.Var
					if _, isHome := homeSlot[sym.ID]; isHome {
						continue // the -O0 home slot location wins
					}
					addr := len(bin.Code)
					switch in.Sub {
					case dbgNone:
						locs.open(sym, addr, debuginfo.LocNone, 0)
					case dbgVReg:
						locs.open(sym, addr, debuginfo.LocReg, int64(in.A))
						tag := vm.OwnerTag{Reg: int8(in.A), Slot: -1, Var: int32(sym.ID) + 1}
						if lastEmitted != nil {
							lastEmitted.Own = append(lastEmitted.Own, tag)
						} else {
							tag.Pre = true
							pendingPre = append(pendingPre, tag)
						}
					case dbgConst:
						locs.open(sym, addr, debuginfo.LocConst, in.Imm)
					case dbgSpill:
						locs.open(sym, addr, debuginfo.LocSpill, in.Imm)
						tag := vm.OwnerTag{Reg: -1, Slot: int32(in.Imm), Var: int32(sym.ID) + 1}
						if lastEmitted != nil {
							lastEmitted.Own = append(lastEmitted.Own, tag)
						} else {
							tag.Pre = true
							pendingPre = append(pendingPre, tag)
						}
					}
					continue
				}
				addr := len(bin.Code)
				out := vm.Instr{
					Op: in.Op, Sub: in.Sub, Imm: in.Imm, Line: int32(in.Line),
				}
				setReg := func(dst *uint8, v int) {
					if v >= 0 {
						*dst = uint8(v)
					}
				}
				setReg(&out.A, in.A)
				setReg(&out.B, in.B)
				setReg(&out.C, in.C)
				setReg(&out.D, in.D)
				switch in.Op {
				case vm.OpProlog:
					prologueEnd = addr + 1
				case vm.OpJmp:
					// handled below (fallthrough elision)
				case vm.OpBr:
				}
				if d := defOf(in); d >= 0 {
					locs.clobberReg(d, addr)
				}
				if in.Op == vm.OpStoreSlot {
					locs.clobberSlot(in.Imm, addr)
				}
				if in.Op == vm.OpJmp || in.Op == vm.OpBr {
					// emit with fixup below
				}
				if len(pendingPre) > 0 {
					out.Own = append(out.Own, pendingPre...)
					pendingPre = nil
				}
				bin.Code = append(bin.Code, out)
				lastEmitted = &bin.Code[len(bin.Code)-1]
				switch in.Op {
				case vm.OpJmp:
					fixups = append(fixups, fixup{addr, b.Succs[0]})
				case vm.OpBr:
					fixups = append(fixups, fixup{addr, b.Succs[0]})
				}
			}
			// Control-flow continuation: a Br falls through to Succs[1].
			// When layout placed the taken side next instead, invert the
			// branch (jump-if-zero to the false side) so the hot edge
			// falls through; otherwise append a jump for the false side.
			if t := b.Term(); t != nil && t.Op == vm.OpBr {
				var next *MBlock
				if bi+1 < len(mf.Blocks) {
					next = mf.Blocks[bi+1]
				}
				brIdx := len(bin.Code) - 1
				switch {
				case next == b.Succs[1]:
					// natural fallthrough
				case next == b.Succs[0]:
					bin.Code[brIdx].Sub = 1
					fixups[len(fixups)-1].target = b.Succs[1]
				default:
					addr := len(bin.Code)
					bin.Code = append(bin.Code, vm.Instr{Op: vm.OpJmp})
					fixups = append(fixups, fixup{addr, b.Succs[1]})
				}
			}
		}
		end := len(bin.Code)
		// Elide jumps to the immediately following address.
		// (Done by rewriting to Nop is wasteful; instead patch targets
		// first, then compact.)
		for _, fx := range fixups {
			bin.Code[fx.idx].Imm = int64(blockAddr[fx.target])
		}
		compactFallthroughs(bin, start, &end, locs.vars)

		bin.Funcs = append(bin.Funcs, vm.FuncInfo{
			Name: mf.Name, Start: start, End: end,
			NumSlots: mf.NumSlots, NParams: mf.NParams,
		})
		fd := debuginfo.FuncDebug{
			Name: mf.Name, Start: uint32(start), End: uint32(end),
			StartLine: int32(mf.StartLine), PrologueEnd: uint32(prologueEnd),
		}
		if opts.ForProfiling {
			fd.LinkageName = mf.Name
			// -fdebug-info-for-profiling guarantees the entry address
			// maps to the function's start line even if the first
			// instruction is artificial.
			if start < len(bin.Code) && bin.Code[start].Line == 0 {
				bin.Code[start].Line = int32(mf.StartLine)
			}
		}
		dbg.Funcs = append(dbg.Funcs, fd)

		// Close open entries at function end and register variables.
		for n := range locs.vars {
			locs.close(n, end)
		}
		// Home-slot variables: whole-function slot locations (the DWARF
		// -O0 whole-scope defect, intentionally reproduced).
		for slot, sym := range mf.SlotVars {
			if sym == nil {
				continue
			}
			if homeSlot[sym.ID] != slot {
				continue
			}
			if n := locs.num(sym); n >= 0 {
				r := locs.vars[n]
				r.Entries = append(r.Entries, debuginfo.LocEntry{
					Start: uint32(start), End: uint32(end),
					Kind: debuginfo.LocSlot, Operand: int64(slot),
				})
			}
		}
		dbg.Vars = locs.finish(dbg.Vars)
	}

	// Globals: static storage, always readable.
	for _, g := range prog.Globals {
		if g.Sym == nil {
			continue
		}
		dbg.Vars = append(dbg.Vars, debuginfo.Variable{
			SymID: int32(g.Sym.ID), Name: g.Name, FuncIdx: -1,
			Entries: []debuginfo.LocEntry{{
				Start: 0, End: uint32(len(bin.Code)),
				Kind: debuginfo.LocGlobal, Operand: int64(g.Index),
			}},
		})
	}

	// Line table: one row per change point.
	prevLine := int32(-1)
	for i := range bin.Code {
		if l := bin.Code[i].Line; l != prevLine {
			dbg.Lines = append(dbg.Lines, debuginfo.LineEntry{
				Addr: uint32(i), Line: l,
			})
			prevLine = l
		}
	}
	bin.Debug = dbg.Encode()
	return bin
}

// compactFallthroughs removes jumps whose target is the next address,
// remapping all addresses (jump targets, location entries) accordingly.
func compactFallthroughs(bin *vm.Binary, start int, end *int, vars []*debuginfo.Variable) {
	n := *end - start
	drop := make([]bool, n)
	for i := start; i < *end; i++ {
		if bin.Code[i].Op == vm.OpJmp && bin.Code[i].Imm == int64(i+1) {
			// Keep owner tags by migrating them to the next instruction.
			if len(bin.Code[i].Own) > 0 && i+1 < *end {
				for _, t := range bin.Code[i].Own {
					t.Pre = true
					bin.Code[i+1].Own = append(bin.Code[i+1].Own, t)
				}
			}
			drop[i-start] = true
		}
	}
	// New address mapping within [start, end).
	remap := make([]int, n+1)
	w := start
	for i := 0; i < n; i++ {
		remap[i] = w
		if !drop[i] {
			w++
		}
	}
	remap[n] = w
	if w == *end {
		return
	}
	mapAddr := func(a int) int {
		if a < start || a > *end {
			return a
		}
		return remap[a-start]
	}
	// Rewrite code.
	out := bin.Code[:start]
	for i := start; i < *end; i++ {
		if drop[i-start] {
			continue
		}
		in := bin.Code[i]
		if in.Op == vm.OpJmp || in.Op == vm.OpBr {
			in.Imm = int64(mapAddr(int(in.Imm)))
		}
		out = append(out, in)
	}
	bin.Code = out
	// Rewrite open location entries built so far for this function.
	for _, r := range vars {
		for k := range r.Entries {
			r.Entries[k].Start = uint32(mapAddr(int(r.Entries[k].Start)))
			r.Entries[k].End = uint32(mapAddr(int(r.Entries[k].End)))
		}
	}
	*end = w
}

// locLists builds one function's location lists at a time. A variable
// gets a dense local number when first seen; local maps symbol IDs to
// those numbers plus one (0: not seen in this function) and is cleared
// for the next function by finish. Symbols outside the program's table
// are not described.
type locLists struct {
	local   []int32
	precise bool // close entries when their storage is written
	fi      int32
	vars    []*debuginfo.Variable // by local number
	openAt  []int                 // by local number: index of the open entry, or -1
	// Under the precise policy a register or spill-slot write closes the
	// entries open on it: regOpen[r] and slotOpen[s] list the local
	// numbers whose entries were opened there since the last write,
	// checked against openAt when the write comes.
	regOpen  [vm.NumRegs][]int
	slotOpen [][]int
}

// begin starts the lists of function fi.
func (l *locLists) begin(fi int32) {
	l.fi = fi
	l.vars, l.openAt = l.vars[:0], l.openAt[:0]
	for r := range l.regOpen {
		l.regOpen[r] = l.regOpen[r][:0]
	}
	l.slotOpen = l.slotOpen[:0]
}

// num returns the local number of sym, creating its record, or -1 for a
// symbol outside the table.
func (l *locLists) num(sym *ast.Symbol) int {
	if sym.ID < 0 || sym.ID >= len(l.local) {
		return -1
	}
	if l.local[sym.ID] == 0 {
		l.vars = append(l.vars, &debuginfo.Variable{
			SymID: int32(sym.ID), Name: sym.Name, FuncIdx: l.fi,
		})
		l.openAt = append(l.openAt, -1)
		l.local[sym.ID] = int32(len(l.vars))
	}
	return int(l.local[sym.ID]) - 1
}

// close ends variable n's open entry, if any, at addr.
func (l *locLists) close(n, addr int) {
	if e := l.openAt[n]; e >= 0 {
		l.vars[n].Entries[e].End = uint32(addr)
		l.openAt[n] = -1
	}
}

// open starts a new entry for sym at addr, closing its previous one.
func (l *locLists) open(sym *ast.Symbol, addr int, kind debuginfo.LocKind, operand int64) {
	n := l.num(sym)
	if n < 0 {
		return
	}
	l.close(n, addr)
	r := l.vars[n]
	r.Entries = append(r.Entries, debuginfo.LocEntry{
		Start: uint32(addr), End: uint32(addr), Kind: kind, Operand: operand,
	})
	l.openAt[n] = len(r.Entries) - 1
	if !l.precise {
		return
	}
	switch kind {
	case debuginfo.LocReg:
		l.regOpen[operand] = append(l.regOpen[operand], n)
	case debuginfo.LocSpill:
		for int64(len(l.slotOpen)) <= operand {
			l.slotOpen = append(l.slotOpen, nil)
		}
		l.slotOpen[operand] = append(l.slotOpen[operand], n)
	}
}

// clobber closes, after addr, the entries of list still open on the
// given storage, and returns the emptied list.
func (l *locLists) clobber(list []int, kind debuginfo.LocKind, operand int64, addr int) []int {
	for _, n := range list {
		if e := l.openAt[n]; e >= 0 {
			if le := &l.vars[n].Entries[e]; le.Kind == kind && le.Operand == operand {
				l.close(n, addr+1)
			}
		}
	}
	return list[:0]
}

// clobberReg applies a write of register r at addr (precise policy).
func (l *locLists) clobberReg(r, addr int) {
	if l.precise {
		l.regOpen[r] = l.clobber(l.regOpen[r], debuginfo.LocReg, int64(r), addr)
	}
}

// clobberSlot applies a store to frame slot s at addr (precise policy).
func (l *locLists) clobberSlot(s int64, addr int) {
	if l.precise && s >= 0 && s < int64(len(l.slotOpen)) {
		l.slotOpen[s] = l.clobber(l.slotOpen[s], debuginfo.LocSpill, s, addr)
	}
}

// finish appends the function's variables with at least one entry to
// out in symbol-ID order, and clears the local numbering.
func (l *locLists) finish(out []debuginfo.Variable) []debuginfo.Variable {
	slices.SortFunc(l.vars, func(a, b *debuginfo.Variable) int { return cmp.Compare(a.SymID, b.SymID) })
	out = slices.Grow(out, len(l.vars))
	for _, r := range l.vars {
		l.local[r.SymID] = 0
		if len(r.Entries) > 0 {
			out = append(out, *r)
		}
	}
	return out
}
