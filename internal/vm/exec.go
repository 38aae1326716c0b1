// Block-at-a-time execution core. See decode.go for block formation and
// machine.go (referenceRun) for the executable specification this core
// is differentially tested against: identical output, cycles, steps,
// stalls, i-cache misses, branch/slot/jump counters, PC samples,
// coverage edges and breakpoint observations on every program.
package vm

import "fmt"

// exec runs the active Call one block at a time. A block, with the
// blocks its jump links lead through, is charged its steps, static
// cycles and i-cache lines up front and then runs with no
// per-instruction bookkeeping, unless one of three triggers sends it
// down the per-step path: it holds a live breakpoint, it could reach
// the next sample boundary, or it cannot finish inside the step budget.
func (m *Machine) exec() (int64, error) {
	p := m.Bin.prog()
	bi := p.blockOf[m.pc]
	for {
		b := &p.blocks[bi]
		// Owner tags are only read by OnBreak, and no breakpoint can be
		// added during a Call except by OnBreak, so once none can fire
		// the rest of the Call skips their bookkeeping. Jump links are
		// followed only then, so a breakpoint count stays per block.
		watched := m.OnBreak != nil && m.nbreaks > 0
		s, link := &b.chain, b.link
		if watched {
			s, link = &b.own, -1
		}
		var next int32
		var err error
		if m.Steps+int64(s.steps) > m.StepBudget ||
			watched && m.bcount[bi] != 0 ||
			m.SampleEvery > 0 && m.Cycles+int64(s.bound) >= m.nextSample {
			next, err = m.stepBlock(p, bi)
		} else {
			m.Steps += int64(s.steps)
			if m.lastLoadMask&b.readMask != 0 {
				m.Cycles += costLoadUse
				m.StallCycles += costLoadUse
			}
			m.Cycles += int64(s.cycles)
			m.StallCycles += int64(s.stalls)
			m.SlotOpsRun += int64(s.slots)
			m.JmpsRun += int64(s.jmps)
			fr := m.frames[len(m.frames)-1]
			c := bi
			for {
				cb := &p.blocks[c]
				m.icache(int(cb.start))
				if first := cb.start >> icacheLineShift; (cb.end-1)>>icacheLineShift != first {
					m.moreLines(int(first), int(cb.end-1)>>icacheLineShift)
				}
				if link < 0 {
					break
				}
				if cb.end-cb.start > 1 {
					m.body(p.code[cb.start:cb.end-1], fr)
				}
				m.edge(int(cb.end-1), int(p.blocks[link].start))
				c, link = link, p.blocks[link].link
			}
			cb := &p.blocks[c]
			if in := &p.code[cb.end-1]; cb.term && Op(in.op) == OpBr {
				// Branches end most blocks. Running them here, as run's
				// OpBr case does, saves a call per block.
				if cb.end-cb.start > 1 {
					m.body(p.code[cb.start:cb.end-1], fr)
				}
				i := int(cb.end) - 1
				m.pc = i
				if (fr.Regs[in.a] != 0) != (in.sub != 0) {
					m.charge(costBrTaken)
					m.TakenBr++
					m.edge(i, int(in.imm))
					next = cb.next
				} else {
					m.charge(costBrFall)
					m.FallBr++
					m.edge(i, i+1)
					next = cb.fall
				}
			} else {
				next, err = m.run(p, c, int(cb.start), int(cb.end), fr, watched)
			}
			switch {
			case next >= 0:
				m.lastLoadMask = cb.loadOut
				if watched {
					applyFx(fr, p.blockFx(m.Bin.Code)[bi])
				}
			case cb.end-cb.start > 1:
				// An outermost return or a trap leaves the load state of
				// the instruction before it, as the per-step loop does.
				m.lastLoadMask = loadBit(&m.Bin.Code[cb.end-2])
			case c != bi:
				m.lastLoadMask = 0 // that instruction was a jump
			}
		}
		if next < 0 {
			return m.retVal, err
		}
		bi = next
	}
}

// moreLines checks, in order, the i-cache lines of a block after its
// first line, up to last.
func (m *Machine) moreLines(first, last int) {
	for l := first + 1; l <= last; l++ {
		m.icache(l << icacheLineShift)
	}
}

// stepBlock runs block bi one instruction at a time with the reference
// loop's per-step bookkeeping, and returns the block execution continues
// at (-1 once the Call is over).
func (m *Machine) stepBlock(p *prog, bi int32) (int32, error) {
	b := &p.blocks[bi]
	for pc := int(b.start); ; pc++ {
		in := &m.Bin.Code[pc]
		m.pc = pc
		m.Steps++
		if m.Steps > m.StepBudget {
			return -1, ErrStepBudget
		}
		if m.breaks != nil && m.breaks[pc] != 0 && m.OnBreak != nil {
			m.OnBreak(m, pc)
		}
		m.icache(pc)
		if m.lastLoadMask&readMask(in) != 0 {
			m.Cycles += costLoadUse
			m.StallCycles += costLoadUse
		}
		if in.Op == OpLoadSlot || in.Op == OpStoreSlot {
			m.SlotOpsRun++
		}
		if c := stepCost(in); c != 0 {
			m.charge(c)
		}
		fr := m.frames[len(m.frames)-1]
		watched := m.OnBreak != nil && m.nbreaks > 0
		next, err := m.run(p, bi, pc, pc+1, fr, watched)
		if next < 0 {
			return next, err
		}
		if watched {
			m.fxBuf = ownerFx(m.fxBuf[:0], in)
			applyFx(fr, m.fxBuf)
		}
		m.lastLoadMask = loadBit(in)
		if pc+1 == int(b.end) {
			return next, nil
		}
	}
}

// run executes the semantics of code[lo:hi], a run of block bi, in
// frame fr, charging only dynamic costs. Only the block's last
// instruction can transfer control, trap or charge. run returns the
// block execution continues at (bi itself for a run that stops short
// of the block's end), or -1 once the outermost frame has returned (its
// value in m.retVal) or a trap ends the Call. When watched, a return
// also writes the caller's owner tags; the frame's own are left to the
// caller.
func (m *Machine) run(p *prog, bi int32, lo, hi int, fr *Frame, watched bool) (int32, error) {
	b := &p.blocks[bi]
	if hi < int(b.end) || !b.term {
		m.body(p.code[lo:hi], fr)
		if hi < int(b.end) {
			return bi, nil
		}
		return b.fall, nil
	}
	i := hi - 1
	if i > lo {
		m.body(p.code[lo:i], fr)
	}
	in := &p.code[i]
	m.pc = i
	switch Op(in.op) {
	case OpBr:
		if (fr.Regs[in.a] != 0) != (in.sub != 0) {
			m.charge(costBrTaken)
			m.TakenBr++
			m.edge(i, int(in.imm))
			return b.next, nil
		}
		m.charge(costBrFall)
		m.FallBr++
		m.edge(i, hi)
	case OpJmp:
		m.JmpsRun++
		m.edge(i, int(in.imm))
		return b.next, nil
	case OpProlog:
		fr.PrologueDone = true
		m.charge(2 + int64(len(fr.Slots))/8)
	case OpCall:
		callee := &m.Bin.Funcs[in.imm]
		nf := m.newFrame(int(in.imm), callee.NumSlots, hi, in.d)
		nf.Params = append(nf.Params, m.argBuf...)
		m.argBuf = m.argBuf[:0]
		nf.retTags = m.Bin.Code[i].Own
		m.frames = append(m.frames, nf)
		m.charge(costCallBase + costCallArg*int64(len(nf.Params)))
		m.edge(i, callee.Start)
		return b.next, nil
	case OpRet:
		var rv int64
		if in.sub != 0 {
			rv = fr.Regs[in.a]
		}
		ret, rr, retTags := fr.retAddr, fr.retReg, fr.retTags
		m.frames = m.frames[:len(m.frames)-1]
		m.freeFrame(fr)
		if len(m.frames) == m.depth0 {
			m.retVal = rv
			return -1, nil
		}
		caller := m.frames[len(m.frames)-1]
		caller.Regs[rr], caller.Lanes[rr] = rv, 0
		if watched {
			// The caller's side of the return: its result register loses
			// its owner, then the call's and return's post tags land.
			caller.Owner[rr] = 0
			for _, t := range retTags {
				if !t.Pre {
					m.applyTag(caller, t)
				}
			}
			for _, t := range m.Bin.Code[i].Own {
				if !t.Pre {
					m.applyTag(caller, t)
				}
			}
		}
		m.edge(i, ret)
		return p.blockOf[ret], nil
	case OpNewArr:
		n := max(fr.Regs[in.a], 0)
		if m.HeapBudget > 0 && m.heapWords+n > m.HeapBudget {
			return -1, ErrHeapBudget
		}
		fr.Regs[in.d], fr.Lanes[in.d] = m.alloc(fr.Regs[in.a]), 0
		m.charge(costNewArrMin + n/8)
	default:
		return -1, fmt.Errorf("vm: bad opcode %v at %d", m.Bin.Code[i].Op, i)
	}
	return b.fall, nil
}

// body runs straight-line instructions in frame fr. None of them
// charges a cost, traps or transfers control.
func (m *Machine) body(code []xinstr, fr *Frame) {
	regs, lanes := &fr.Regs, &fr.Lanes
	for k := range code {
		in := &code[k]
		switch in.op {
		case uint8(OpConst):
			regs[in.d], lanes[in.d] = in.imm, 0
		case uint8(OpMov):
			regs[in.d], lanes[in.d] = regs[in.a], lanes[in.a]
		case xBin + BinAdd:
			regs[in.d], lanes[in.d] = regs[in.a]+regs[in.b], 0
		case xBin + BinSub:
			regs[in.d], lanes[in.d] = regs[in.a]-regs[in.b], 0
		case xBin + BinMul:
			regs[in.d], lanes[in.d] = regs[in.a]*regs[in.b], 0
		case xBin + BinLt:
			regs[in.d], lanes[in.d] = b2i(regs[in.a] < regs[in.b]), 0
		case xBin + BinEq:
			regs[in.d], lanes[in.d] = b2i(regs[in.a] == regs[in.b]), 0
		case xBinImm + BinAdd:
			regs[in.d], lanes[in.d] = regs[in.a]+in.imm, 0
		case xBinImm + BinSub:
			regs[in.d], lanes[in.d] = regs[in.a]-in.imm, 0
		case xBinImm + BinMul:
			regs[in.d], lanes[in.d] = regs[in.a]*in.imm, 0
		case xBinImm + BinLt:
			regs[in.d], lanes[in.d] = b2i(regs[in.a] < in.imm), 0
		case xBinImm + BinEq:
			regs[in.d], lanes[in.d] = b2i(regs[in.a] == in.imm), 0
		case uint8(OpNeg):
			regs[in.d], lanes[in.d] = -regs[in.a], 0
		case uint8(OpNot):
			regs[in.d], lanes[in.d] = b2i(regs[in.a] == 0), 0
		case uint8(OpSelect):
			v := regs[in.c]
			if regs[in.a] != 0 {
				v = regs[in.b]
			}
			regs[in.d], lanes[in.d] = v, 0
		case uint8(OpLoadSlot):
			regs[in.d], lanes[in.d] = fr.Slots[in.imm], 0
		case uint8(OpStoreSlot):
			fr.Slots[in.imm] = regs[in.a]
		case uint8(OpLoadParam):
			var v int64
			if int(in.imm) < len(fr.Params) {
				v = fr.Params[in.imm]
			}
			regs[in.d], lanes[in.d] = v, 0
		case uint8(OpGLoad):
			regs[in.d], lanes[in.d] = m.Globals[in.imm], 0
		case uint8(OpGStore):
			m.Globals[in.imm] = regs[in.a]
		case uint8(OpALoad):
			regs[in.d], lanes[in.d] = m.aload(regs[in.a], regs[in.b]), 0
		case uint8(OpAStore):
			m.astore(regs[in.a], regs[in.b], regs[in.c])
		case uint8(OpLen):
			regs[in.d], lanes[in.d] = int64(len(m.Heap(regs[in.a]))), 0
		case uint8(OpVLoad2):
			h, idx := regs[in.a], regs[in.b]
			regs[in.d], lanes[in.d] = m.aload(h, idx), m.aload(h, idx+1)
		case uint8(OpVBin):
			regs[in.d], lanes[in.d] = evalBin(in.sub, regs[in.a], regs[in.b]),
				evalBin(in.sub, lanes[in.a], lanes[in.b])
		case uint8(OpVStore2):
			h, idx := regs[in.a], regs[in.b]
			m.astore(h, idx, regs[in.c])
			m.astore(h, idx+1, lanes[in.c])
		case uint8(OpArg):
			m.argBuf = append(m.argBuf, regs[in.a])
		case uint8(OpPrint):
			m.out = append(m.out, regs[in.a])
		case uint8(OpBin):
			regs[in.d], lanes[in.d] = evalBin(in.sub, regs[in.a], regs[in.b]), 0
		case uint8(OpBinImm):
			regs[in.d], lanes[in.d] = evalBin(in.sub, regs[in.a], in.imm), 0
		}
	}
}
