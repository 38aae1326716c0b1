package codegen

import (
	"sort"

	"debugtuner/internal/vm"
)

// Back-end transformation passes over machine IR. Each corresponds to a
// DebugTuner toggle; their debug costs are the mechanisms the paper's
// rankings surface for back-end passes (annotated '*' in Tables V/VI).

// machineSink moves pure single-use machine instructions into the block
// containing their use, skipping work on paths that do not need it.
// Sunk instructions lose their line attribution, as LLVM's
// MachineSinking does.
func machineSink(mf *MFunc) {
	for iter := 0; iter < 3; iter++ {
		// useBlock[v]: unique using block, or nil/multi.
		type useInfo struct {
			block *MBlock
			multi bool
			n     int
		}
		uses := map[int]*useInfo{}
		defCount := map[int]int{}
		var reads []int
		for _, b := range mf.Blocks {
			for _, in := range b.Instrs {
				if in.Op != mDbg {
					if d := defOf(in); d >= 0 {
						defCount[d]++
					}
				}
				reads = readsOf(in, reads[:0])
				for _, r := range reads {
					if r < 0 || in.Op == mDbg {
						continue
					}
					u := uses[r]
					if u == nil {
						u = &useInfo{}
						uses[r] = u
					}
					u.n++
					switch {
					case u.multi:
					case u.block == nil:
						u.block = b
					case u.block != b:
						u.block = nil
						u.multi = true
					}
				}
			}
		}
		changed := false
		moved := map[*MBlock][]*MInstr{}
		for _, b := range mf.Blocks {
			// laterDefs[r] counts defs of r at or after the current scan
			// position; an instruction whose operand is redefined later
			// in the block (a phi move) must not move past that write.
			laterDefs := map[int]int{}
			for _, in := range b.Instrs {
				if in.Op != mDbg {
					if d := defOf(in); d >= 0 {
						laterDefs[d]++
					}
				}
			}
			kept := b.Instrs[:0]
			for _, in := range b.Instrs {
				d := defOf(in)
				if d >= 0 && in.Op != mDbg {
					laterDefs[d]--
				}
				sinkable := d >= 0 && !hasSideEffect(in) && !isMemRead(in) &&
					in.Op != mDbg && defCount[d] == 1
				if sinkable {
					reads = readsOf(in, reads[:0])
					for _, r := range reads {
						if r >= 0 && laterDefs[r] > 0 {
							sinkable = false // anti-dependency on a later write
							break
						}
					}
				}
				if !sinkable {
					kept = append(kept, in)
					continue
				}
				u := uses[d]
				// The target must be a single-pred direct successor so
				// the operands still dominate the sunk position.
				if u == nil || u.multi || u.block == nil || u.block == b ||
					!isSucc(b, u.block) || len(u.block.Preds) != 1 {
					kept = append(kept, in)
					continue
				}
				// Sink to the top of the using block, losing the line.
				// Batched so dependent sunk instructions keep their
				// relative order.
				in.Line = 0
				moved[u.block] = append(moved[u.block], in)
				changed = true
			}
			b.Instrs = kept
		}
		for target, ins := range moved {
			target.Instrs = append(append([]*MInstr{}, ins...), target.Instrs...)
		}
		if !changed {
			return
		}
	}
}

func isSucc(b, s *MBlock) bool {
	for _, x := range b.Succs {
		if x == s {
			return true
		}
	}
	return false
}

// schedule performs per-block list scheduling to separate loads from
// their consumers, hiding the machine's load-use stall. An instruction
// that moves above code attributed to a different source line loses its
// own line — mirroring how aggressive scheduling degrades line-table
// precision (the paper's schedule-insns2, top-3 at O2/O3 in gcc).
func schedule(mf *MFunc) {
	for _, b := range mf.Blocks {
		scheduleBlock(b)
	}
}

func scheduleBlock(b *MBlock) {
	// Delay-slot filling: when a load's result is consumed by the very
	// next instruction (a pipeline stall on this machine), look a short
	// window ahead for an independent pure instruction and hoist it in
	// between. The bounded window keeps register-pressure growth small,
	// unlike full list scheduling before allocation.
	instrs := b.Instrs
	var reads []int
	readsVreg := func(in *MInstr, v int) bool {
		reads = readsOf(in, reads[:0])
		for _, r := range reads {
			if r == v {
				return true
			}
		}
		return false
	}
	const window = 6
	for i := 0; i+1 < len(instrs); i++ {
		ld := instrs[i]
		if !isMemRead(ld) {
			continue
		}
		d := defOf(ld)
		use := i + 1
		for use < len(instrs) && instrs[use].Op == mDbg {
			use++
		}
		if use >= len(instrs) || !readsVreg(instrs[use], d) {
			continue
		}
		// Find a pure, independent instruction to hoist between the
		// load and its consumer.
		for j := use + 1; j < len(instrs) && j <= use+window; j++ {
			cand := instrs[j]
			if cand.Op == mDbg || hasSideEffect(cand) || isMemRead(cand) {
				continue
			}
			cd := defOf(cand)
			if cd < 0 {
				continue
			}
			ok := true
			for k := use; k < j; k++ {
				mid := instrs[k]
				md := defOf(mid)
				// cand must not read anything defined in between, and
				// nothing in between may read or redefine cand's def.
				if md >= 0 && readsVreg(cand, md) {
					ok = false
					break
				}
				if readsVreg(mid, cd) || (md == cd && mid.Op != mDbg) {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			// Hoist cand to sit right after the load; crossing code of a
			// different source line drops its own line attribution, the
			// measured debug cost of scheduling.
			for k := use; k < j; k++ {
				if instrs[k].Line > 0 && cand.Line > 0 && instrs[k].Line != cand.Line {
					cand.Line = 0
					break
				}
			}
			copy(instrs[use+1:j+1], instrs[use:j])
			instrs[use] = cand
			break
		}
	}
}

// rpoSort arranges the blocks in reverse postorder, the canonical linear
// order for interval construction and a sane default code layout.
func rpoSort(mf *MFunc) {
	seen := map[*MBlock]bool{}
	var order []*MBlock
	var visit func(b *MBlock)
	visit = func(b *MBlock) {
		seen[b] = true
		for _, s := range b.Succs {
			if !seen[s] {
				visit(s)
			}
		}
		order = append(order, b)
	}
	visit(mf.Blocks[0])
	for _, b := range mf.Blocks {
		if !seen[b] {
			seen[b] = true
			order = append(order, b)
		}
	}
	for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
		order[i], order[j] = order[j], order[i]
	}
	// The reversal puts any unreachable stragglers first; rotate them to
	// the end so the entry block leads.
	for len(order) > 0 && order[0] != mf.Blocks[0] {
		order = append(order[1:], order[0])
	}
	mf.Blocks = order
}

// layout performs greedy trace placement: starting from the entry, each
// block is followed by its most probable unplaced successor, so hot
// paths run fall-through (with branch inversion at emission) and cold
// blocks sink to the end. Placement quality tracks the branch
// probabilities it is fed — the coupling the AutoFDO study exploits.
func layout(mf *MFunc) {
	if len(mf.Blocks) < 3 {
		return
	}
	placed := map[*MBlock]bool{}
	inPending := map[*MBlock]bool{}
	var pending []*MBlock
	var order []*MBlock
	note := func(b *MBlock) {
		if !placed[b] && !inPending[b] {
			inPending[b] = true
			pending = append(pending, b)
		}
	}
	cur := mf.Blocks[0]
	for cur != nil {
		placed[cur] = true
		order = append(order, cur)
		// Follow the hottest unplaced successor (trace formation).
		var next *MBlock
		switch len(cur.Succs) {
		case 1:
			if !placed[cur.Succs[0]] {
				next = cur.Succs[0]
			}
		case 2:
			hot, cold := cur.Succs[0], cur.Succs[1]
			if cur.Prob < 0.5 {
				hot, cold = cold, hot
			}
			if !placed[hot] {
				next = hot
				note(cold)
			} else if !placed[cold] {
				next = cold
			}
		}
		if next == nil {
			// Dead end: continue with the hottest pending block.
			best := -1
			for i, b := range pending {
				if placed[b] {
					continue
				}
				if best < 0 || b.Freq > pending[best].Freq ||
					(b.Freq == pending[best].Freq && b.ID < pending[best].ID) {
					best = i
				}
			}
			if best < 0 {
				// Fall back to the original order for anything missed.
				for _, b := range mf.Blocks {
					if !placed[b] {
						next = b
						break
					}
				}
			} else {
				next = pending[best]
				pending = append(pending[:best], pending[best+1:]...)
			}
		}
		cur = next
	}
	mf.Blocks = order
}

// shrinkWrap moves the prologue from the entry to the closest block that
// dominates all frame accesses, hoisted out of loops. Paths that return
// before reaching it skip the frame-setup cost, and slot locations on
// those paths cannot materialize — the measured debug cost of
// shrink-wrapping.
func shrinkWrap(mf *MFunc) {
	var needs []*MBlock
	for _, b := range mf.Blocks {
		for _, in := range b.Instrs {
			if in.Op == vm.OpLoadSlot || in.Op == vm.OpStoreSlot {
				needs = append(needs, b)
				break
			}
		}
	}
	if len(needs) == 0 {
		mf.prologBlock = nil // leaf frame: no prologue at all
		return
	}
	idom := mirDominators(mf)
	place := needs[0]
	for _, b := range needs[1:] {
		place = commonDom(idom, place, b)
	}
	// Hoist out of loops: a block is a loop member if one of its
	// (transitive) predecessors is dominated by it.
	for place != mf.Blocks[0] && inMIRLoop(mf, idom, place) {
		place = idom[place]
	}
	mf.prologBlock = place
}

func mirDominators(mf *MFunc) map[*MBlock]*MBlock {
	// Cooper-Harvey-Kennedy over MIR blocks.
	var order []*MBlock
	seen := map[*MBlock]bool{}
	var visit func(b *MBlock)
	visit = func(b *MBlock) {
		seen[b] = true
		for _, s := range b.Succs {
			if !seen[s] {
				visit(s)
			}
		}
		order = append(order, b)
	}
	visit(mf.Blocks[0])
	for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
		order[i], order[j] = order[j], order[i]
	}
	index := map[*MBlock]int{}
	for i, b := range order {
		index[b] = i
	}
	idom := map[*MBlock]*MBlock{order[0]: order[0]}
	intersect := func(a, b *MBlock) *MBlock {
		for a != b {
			for index[a] > index[b] {
				a = idom[a]
			}
			for index[b] > index[a] {
				b = idom[b]
			}
		}
		return a
	}
	for changed := true; changed; {
		changed = false
		for _, b := range order[1:] {
			var nd *MBlock
			for _, p := range b.Preds {
				if idom[p] == nil {
					continue
				}
				if nd == nil {
					nd = p
				} else {
					nd = intersect(nd, p)
				}
			}
			if nd != nil && idom[b] != nd {
				idom[b] = nd
				changed = true
			}
		}
	}
	return idom
}

func commonDom(idom map[*MBlock]*MBlock, a, b *MBlock) *MBlock {
	seen := map[*MBlock]bool{}
	for x := a; ; x = idom[x] {
		seen[x] = true
		if idom[x] == x {
			break
		}
	}
	for x := b; ; x = idom[x] {
		if seen[x] {
			return x
		}
		if idom[x] == x {
			return x
		}
	}
}

func inMIRLoop(mf *MFunc, idom map[*MBlock]*MBlock, b *MBlock) bool {
	// b is in a loop if some block it dominates has an edge back to it,
	// or any ancestor-dominating back edge encloses it; approximate with
	// the standard back-edge test over all blocks.
	for _, x := range mf.Blocks {
		for _, s := range x.Succs {
			if mirDominates(idom, s, x) {
				// back edge x->s: loop body = blocks reachable backward
				// from x up to s; b is inside if s dominates b and b
				// reaches x.
				if mirDominates(idom, s, b) && reachesBackward(x, s, b) {
					return true
				}
			}
		}
	}
	return false
}

func mirDominates(idom map[*MBlock]*MBlock, a, b *MBlock) bool {
	for {
		if a == b {
			return true
		}
		n := idom[b]
		if n == nil || n == b {
			return false
		}
		b = n
	}
}

// reachesBackward reports whether b is in the natural loop of back edge
// latch->header.
func reachesBackward(latch, header, b *MBlock) bool {
	if b == header || b == latch {
		return true
	}
	seen := map[*MBlock]bool{header: true, latch: true}
	stack := []*MBlock{latch}
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, p := range x.Preds {
			if p == b {
				return true
			}
			if !seen[p] {
				seen[p] = true
				stack = append(stack, p)
			}
		}
	}
	return false
}

// crossJump merges identical instruction suffixes of blocks that share a
// jump target (run post-RA, when "identical" means identical machine
// words). The merged tail keeps the first block's source lines; the
// other block's lines vanish from the line table — cross-jumping's
// characteristic debug cost.
func crossJump(mf *MFunc) {
	changed := true
	for rounds := 0; changed && rounds < 4; rounds++ {
		changed = false
		// Group blocks by their control-flow continuation.
		groups := map[string][]*MBlock{}
		for _, b := range mf.Blocks {
			t := b.Term()
			if t == nil {
				continue
			}
			var key string
			switch t.Op {
			case vm.OpJmp:
				key = "j" + itoa(b.Succs[0].ID)
			case vm.OpRet:
				key = "r"
			default:
				continue
			}
			groups[key] = append(groups[key], b)
		}
		var keys []string
		for k := range groups {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			g := groups[k]
			if len(g) < 2 {
				continue
			}
			sort.Slice(g, func(i, j int) bool { return g[i].ID < g[j].ID })
			for i := 0; i < len(g); i++ {
				for j := i + 1; j < len(g); j++ {
					if mergeTails(mf, g[i], g[j]) {
						changed = true
					}
				}
			}
		}
	}
}

func itoa(x int) string {
	if x == 0 {
		return "0"
	}
	var buf [12]byte
	i := len(buf)
	for x > 0 {
		i--
		buf[i] = byte('0' + x%10)
		x /= 10
	}
	return string(buf[i:])
}

// realSuffix returns the non-marker instructions of the block, suffix
// aligned (markers excluded from matching but retained in x's tail).
func realInstrs(b *MBlock) []*MInstr {
	var out []*MInstr
	for _, in := range b.Instrs {
		if in.Op != mDbg {
			out = append(out, in)
		}
	}
	return out
}

func sameInstr(a, b *MInstr) bool {
	return a.Op == b.Op && a.Sub == b.Sub && a.A == b.A && a.B == b.B &&
		a.C == b.C && a.D == b.D && a.Imm == b.Imm
}

// mergeTails merges the common suffix of x and y (including their
// terminators) into a new shared tail block when at least two real
// instructions match. The tail is built from x's instructions, so x's
// lines and markers survive and y's disappear.
func mergeTails(mf *MFunc, x, y *MBlock) bool {
	if x == y {
		return false
	}
	rx, ry := realInstrs(x), realInstrs(y)
	n := 0
	for n < len(rx) && n < len(ry) {
		if !sameInstr(rx[len(rx)-1-n], ry[len(ry)-1-n]) {
			break
		}
		n++
	}
	// Require the terminator plus at least one more instruction, and
	// leave at least one real instruction in each block (a jump must
	// remain expressible).
	if n < 2 || n >= len(rx) && n >= len(ry) {
		return false
	}
	if n >= len(rx) || n >= len(ry) {
		return false
	}
	tail := &MBlock{ID: 1 << 16, Freq: x.Freq + y.Freq}
	for _, b := range mf.Blocks {
		if b.ID >= tail.ID {
			tail.ID = b.ID + 1
		}
	}
	// The tail takes x's suffix instructions (markers included).
	cut := len(x.Instrs)
	realSeen := 0
	for cut > 0 && realSeen < n {
		cut--
		if x.Instrs[cut].Op != mDbg {
			realSeen++
		}
	}
	tail.Instrs = append(tail.Instrs, x.Instrs[cut:]...)
	x.Instrs = x.Instrs[:cut]
	// Drop y's suffix (and any markers inside it).
	cut = len(y.Instrs)
	realSeen = 0
	for cut > 0 && realSeen < n {
		cut--
		if y.Instrs[cut].Op != mDbg {
			realSeen++
		}
	}
	y.Instrs = y.Instrs[:cut]

	// Rewire control flow: tail inherits x's successors; x and y jump
	// to the tail.
	tail.Succs = x.Succs
	for _, s := range tail.Succs {
		for i, p := range s.Preds {
			if p == x {
				s.Preds[i] = tail
			}
		}
		// Remove y from succ preds; y no longer reaches them directly.
		for i := len(s.Preds) - 1; i >= 0; i-- {
			if s.Preds[i] == y {
				s.Preds = append(s.Preds[:i], s.Preds[i+1:]...)
			}
		}
	}
	x.Succs = []*MBlock{tail}
	y.Succs = []*MBlock{tail}
	tail.Preds = []*MBlock{x, y}
	x.Instrs = append(x.Instrs, &MInstr{Op: vm.OpJmp, A: -1, B: -1, C: -1, D: -1})
	y.Instrs = append(y.Instrs, &MInstr{Op: vm.OpJmp, A: -1, B: -1, C: -1, D: -1})
	// Insert the tail right after x in layout order.
	for i, b := range mf.Blocks {
		if b == x {
			mf.Blocks = append(mf.Blocks[:i+1],
				append([]*MBlock{tail}, mf.Blocks[i+1:]...)...)
			break
		}
	}
	return true
}
