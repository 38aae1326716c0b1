// Block decoding for the execution core (exec.go).
//
// Each Binary decodes once into blocks of straight-line code. Leaders
// are function starts, branch and jump targets, and the instruction
// after a branch, jump, call, return, prolog, NewArr or unknown opcode.
// The block of a leader runs to the next of those block-ending
// instructions, through any leaders in between, so the blocks entered
// further down one straight line are suffixes of its block. Control
// only enters a block at its leader, and every instruction that can
// leave the block, fail, or charge a data-dependent cost ends it; all
// else the per-step loop of referenceRun charges inside it is static:
// step count, opcode costs, load-use stalls between neighbours, the
// i-cache lines touched, and the slot-op count. The block records their
// sums once.
package vm

import "sync"

// block is the straight-line code[start:end] entered at leader start.
type block struct {
	start, end int32
	// next is the block a taken branch, a jump or a call continues at,
	// and fall the block at end; out of range (so that using them
	// panics, as running off the code does) when there is none.
	next, fall int32
	// link is next when the block ends in a jump the fast path follows
	// without returning to dispatch, else -1. Links never form a cycle.
	link int32
	// own sums the block alone; chain sums it and the blocks its links
	// lead through.
	own, chain sums
	readMask   uint16 // stall read mask of the first instruction
	loadOut    uint16 // load mask after the last instruction
	// term is set when the last instruction ends the block, which only
	// a block running off the end of the code lacks.
	term bool
}

// sums are the static charges of a run of blocks.
type sums struct {
	steps int32
	// cycles is the static cycle sum: opcode costs (0 for prolog,
	// NewArr, call, branch and unknown ops, whose costs are charged as
	// they run) plus stalls.
	cycles int32
	stalls int32 // load-use stalls between neighbouring instructions
	slots  int32 // slot loads and stores
	jmps   int32 // jumps followed through links
	// bound caps what the run charges before its last instruction's
	// dynamic cost: cycles plus a worst-case entry stall and a miss on
	// every line.
	bound int32
}

// xinstr is an instruction as the block core's body runs it: 16 bytes,
// with the hottest binary operations given opcodes of their own so they
// run without a second dispatch on Sub.
type xinstr struct {
	op              uint8 // an Op, or xBin/xBinImm + Sub
	sub, a, b, c, d uint8
	imm             int64
}

// Opcode bases of the specialized binary operations.
const (
	xBin    = 32
	xBinImm = 48
)

// decodeInstr lowers one instruction for the block body.
func decodeInstr(in *Instr) xinstr {
	x := xinstr{op: uint8(in.Op), sub: in.Sub, a: in.A, b: in.B, c: in.C, d: in.D, imm: in.Imm}
	switch in.Sub {
	case BinAdd, BinSub, BinMul, BinLt, BinEq:
		switch in.Op {
		case OpBin:
			x.op = xBin + in.Sub
		case OpBinImm:
			x.op = xBinImm + in.Sub
		}
	}
	return x
}

// prog is a binary's decoded form, shared by every machine running it.
type prog struct {
	code    []xinstr
	blocks  []block
	blockOf []int32 // address -> the block starting at the closest leader at or before it

	fxOnce sync.Once
	fx     [][]ownFx // per block owner effects, built on first use
}

// decCache holds the lazily decoded prog; Code must not change after
// the first execution.
type decCache struct {
	once sync.Once
	p    *prog
}

func (b *Binary) prog() *prog {
	b.dec.once.Do(func() { b.dec.p = b.decode() })
	return b.dec.p
}

// endsBlock reports whether the instruction after in is a leader.
func endsBlock(op Op) bool {
	switch op {
	case OpJmp, OpBr, OpCall, OpRet, OpNewArr, OpProlog:
		return true
	}
	return op > OpPrint
}

func (b *Binary) decode() *prog {
	n := len(b.Code)
	p := &prog{code: make([]xinstr, n), blockOf: make([]int32, n)}
	for i := range b.Code {
		p.code[i] = decodeInstr(&b.Code[i])
	}
	// blockOf doubles as the leader set until the blocks are numbered.
	lead := p.blockOf
	for i := range b.Funcs {
		if s := b.Funcs[i].Start; s >= 0 && s < n {
			lead[s] = 1
		}
	}
	for i := range b.Code {
		in := &b.Code[i]
		if (in.Op == OpJmp || in.Op == OpBr) && in.Imm >= 0 && in.Imm < int64(n) {
			lead[in.Imm] = 1
		}
		if endsBlock(in.Op) && i+1 < n {
			lead[i+1] = 1
		}
	}
	// A block runs from its leader to the next instruction that ends a
	// block, through any leaders in between: blocks entered further down
	// the same straight line are suffixes of it. Address 0 leads too, so
	// every address has a block for SetBreak to count in.
	var starts []int
	for i := range n {
		if i == 0 || lead[i] != 0 {
			starts = append(starts, i)
		}
	}
	for k, start := range starts {
		end := start + 1
		for end < n && !endsBlock(b.Code[end-1].Op) {
			end++
		}
		bl := block{
			start: int32(start), end: int32(end), next: -1, link: -1,
			readMask: readMask(&b.Code[start]), loadOut: loadBit(&b.Code[end-1]),
			term: endsBlock(b.Code[end-1].Op),
		}
		s := &bl.own
		s.steps = int32(end - start)
		var prev uint16
		for i := start; i < end; i++ {
			in := &b.Code[i]
			s.cycles += int32(stepCost(in))
			if prev&readMask(in) != 0 {
				s.stalls += costLoadUse
			}
			prev = loadBit(in)
			if in.Op == OpLoadSlot || in.Op == OpStoreSlot {
				s.slots++
			}
		}
		s.cycles += s.stalls
		lines := int32((end-1)>>icacheLineShift - start>>icacheLineShift + 1)
		s.bound = s.cycles + costLoadUse + lines*costICacheMiss
		p.blocks = append(p.blocks, bl)
		next := n
		if k+1 < len(starts) {
			next = starts[k+1]
		}
		for i := start; i < next; i++ {
			p.blockOf[i] = int32(k)
		}
	}
	// Resolve each block's successors.
	for bi := range p.blocks {
		bl := &p.blocks[bi]
		in := &b.Code[bl.end-1]
		t := int64(-1)
		switch in.Op {
		case OpJmp, OpBr:
			t = in.Imm
		case OpCall:
			if in.Imm >= 0 && in.Imm < int64(len(b.Funcs)) {
				t = int64(b.Funcs[in.Imm].Start)
			}
		}
		if t >= 0 && t < int64(n) {
			bl.next = p.blockOf[t]
		}
		bl.fall = int32(len(p.blocks))
		if int(bl.end) < n {
			bl.fall = p.blockOf[bl.end]
		}
		if in.Op == OpJmp && bl.next >= 0 {
			bl.link = bl.next
		}
	}
	p.chainLinks()
	return p
}

// chainLinks cuts the links that close a cycle and sums each block's
// chain. A jump leaves no load behind, so no stall crosses a link.
func (p *prog) chainLinks() {
	const unseen, onPath, done = 0, 1, 2
	state := make([]uint8, len(p.blocks))
	var path []int32
	for bi := range p.blocks {
		path = path[:0]
		for c := int32(bi); c >= 0 && state[c] == unseen; c = p.blocks[c].link {
			state[c] = onPath
			path = append(path, c)
			if l := p.blocks[c].link; l >= 0 && state[l] == onPath {
				p.blocks[c].link = -1
			}
		}
		for k := len(path) - 1; k >= 0; k-- {
			bl := &p.blocks[path[k]]
			bl.chain = bl.own
			if bl.link >= 0 {
				nx := &p.blocks[bl.link].chain
				c := &bl.chain
				c.steps += nx.steps
				c.cycles += nx.cycles
				c.stalls += nx.stalls
				c.slots += nx.slots
				c.jmps += nx.jmps + 1
				c.bound += nx.bound - costLoadUse
			}
			state[path[k]] = done
		}
	}
}

// stepCost returns an instruction's static cycle cost, or 0 when the
// cost depends on the run (prolog, NewArr, call, branch) or the opcode
// is unknown (it traps before charging).
func stepCost(in *Instr) int64 {
	switch in.Op {
	case OpProlog, OpNewArr, OpCall, OpBr:
		return 0
	case OpBin, OpBinImm, OpVBin:
		return binCost(in.Sub)
	case OpLoadSlot, OpGLoad, OpALoad:
		return costLoad
	case OpStoreSlot, OpGStore, OpAStore:
		return costStore
	case OpVLoad2:
		return costVLoad
	case OpVStore2:
		return costVStore
	case OpJmp:
		return costJmp
	case OpRet:
		return costRet
	case OpPrint:
		return costPrint
	}
	if in.Op > OpPrint {
		return 0
	}
	return costDefault
}

// readMask reproduces the reference interpreter's load-use stall rules
// exactly: the registers listed here are the ones referenceRun's second
// switch treats as read, which is deliberately not the full semantic
// read set (e.g. OpSelect's condition C is excluded by the model).
func readMask(in *Instr) uint16 {
	bit := func(r uint8) uint16 { return 1 << (r & 15) }
	switch in.Op {
	case OpMov, OpNeg, OpNot, OpStoreSlot, OpGStore, OpNewArr,
		OpLen, OpArg, OpPrint, OpBr, OpBinImm:
		return bit(in.A)
	case OpBin, OpSelect, OpALoad, OpVLoad2, OpVBin:
		return bit(in.A) | bit(in.B)
	case OpAStore, OpVStore2:
		return bit(in.A) | bit(in.B) | bit(in.C)
	case OpRet:
		if in.Sub != 0 {
			return bit(in.A)
		}
	}
	return 0
}

// loadBit returns the dest-register bit for load instructions — the ops
// referenceRun records in lastLoadReg.
func loadBit(in *Instr) uint16 {
	switch in.Op {
	case OpLoadSlot, OpGLoad, OpALoad, OpVLoad2:
		return 1 << (in.D & 15)
	}
	return 0
}

// ownFx is one owner-tag write: register reg (slot < 0) or spill slot
// slot (reg < 0) now holds variable v (0: none).
type ownFx struct {
	reg  int8
	slot int32
	v    int32
}

// ownerFx appends, in execution order, the owner writes an instruction
// makes in its own frame: pre-tags, the clear of a written register or
// stored slot, post-tags. A call defers its post-tags to the matching
// return, and a return's post-tags and the clear of the register its
// value lands in belong to the caller; exec.go applies those.
func ownerFx(fx []ownFx, in *Instr) []ownFx {
	tag := func(t OwnerTag) {
		if t.Reg >= 0 && int(t.Reg) < NumRegs {
			fx = append(fx, ownFx{reg: t.Reg, slot: -1, v: t.Var})
		}
		if t.Slot >= 0 {
			fx = append(fx, ownFx{reg: -1, slot: t.Slot, v: t.Var})
		}
	}
	for _, t := range in.Own {
		if t.Pre {
			tag(t)
		}
	}
	switch in.Op {
	case OpStoreSlot:
		fx = append(fx, ownFx{reg: -1, slot: int32(in.Imm)})
	case OpConst, OpMov, OpBin, OpBinImm, OpNeg, OpNot, OpSelect, OpLoadSlot,
		OpLoadParam, OpGLoad, OpNewArr, OpALoad, OpLen, OpVLoad2, OpVBin:
		fx = append(fx, ownFx{reg: int8(in.D), slot: -1})
	}
	if in.Op != OpCall && in.Op != OpRet {
		for _, t := range in.Own {
			if !t.Pre {
				tag(t)
			}
		}
	}
	return fx
}

// applyFx replays owner writes on a frame; slot writes past the frame's
// slots are dropped, as applyTag drops them.
func applyFx(fr *Frame, fx []ownFx) {
	for _, e := range fx {
		if e.reg >= 0 {
			fr.Owner[e.reg] = e.v
		} else if int(e.slot) < len(fr.SlotOwn) {
			fr.SlotOwn[e.slot] = e.v
		}
	}
}

// blockFx returns each block's owner writes collapsed to the last write
// per register and slot: nothing reads owner tags inside a block without
// a breakpoint, so applying them once after the block is exact.
func (p *prog) blockFx(code []Instr) [][]ownFx {
	p.fxOnce.Do(func() {
		p.fx = make([][]ownFx, len(p.blocks))
		var all []ownFx
		seen := map[int64]bool{}
		for bi, bl := range p.blocks {
			all = all[:0]
			for i := bl.start; i < bl.end; i++ {
				all = ownerFx(all, &code[i])
			}
			clear(seen)
			var fx []ownFx
			for i := len(all) - 1; i >= 0; i-- {
				k := int64(all[i].reg)<<32 | int64(uint32(all[i].slot))
				if !seen[k] {
					seen[k] = true
					fx = append(fx, all[i])
				}
			}
			p.fx[bi] = fx
		}
	})
	return p.fx
}
