// Package dataflow is a generic iterative dataflow framework over
// bitset lattices: a worklist solver parameterized by direction
// (forward/backward) and meet (union for may-problems, intersection
// for must-problems), with CFG construction over both the SSA IR
// (IRCFG) and the emitted register-machine code (BinCFG).
//
// Three concrete analyses live on top of it:
//
//   - OwnerFacts: register/slot reaching-definitions with owner-tag
//     tracking — for every address and storage location, the set of
//     variable owners the machine's ownership state may hold there.
//     Clobber queries and must-availability (the may-set collapsed to
//     a singleton) derive from the same solution.
//   - must-prologue-done: a one-bit intersection problem deciding
//     whether every path to an address has executed the prologue
//     (slot and spill reads require it).
//   - Liveness: backward may-analysis of registers read before
//     written, the framework's backward instance.
//
// The analyses mirror internal/vm's reference semantics exactly; the
// staticdbg soundness test locks the correspondence dynamically.
package dataflow

import "math/bits"

// BitSet is a fixed-width bit vector. The zero value of a width-w set
// is obtained from NewBitSet; all operands of a binary op must share
// one width.
type BitSet struct {
	words []uint64
}

// NewBitSet returns an empty set able to hold bits [0, n).
func NewBitSet(n int) *BitSet {
	return &BitSet{words: make([]uint64, (n+63)/64)}
}

// Has reports whether bit i is set.
func (s *BitSet) Has(i int) bool {
	w := i >> 6
	if w < 0 || w >= len(s.words) {
		return false
	}
	return s.words[w]&(1<<(uint(i)&63)) != 0
}

// Set sets bit i; out-of-range indices are ignored, so analyses over
// corrupt binaries degrade to weaker facts instead of panicking.
func (s *BitSet) Set(i int) {
	w := i >> 6
	if w < 0 || w >= len(s.words) {
		return
	}
	s.words[w] |= 1 << (uint(i) & 63)
}

// Clear clears bit i (out-of-range indices are ignored, as in Set).
func (s *BitSet) Clear(i int) {
	w := i >> 6
	if w < 0 || w >= len(s.words) {
		return
	}
	s.words[w] &^= 1 << (uint(i) & 63)
}

// Reset empties the set.
func (s *BitSet) Reset() {
	for i := range s.words {
		s.words[i] = 0
	}
}

// Fill sets every bit below n (the set's logical width).
func (s *BitSet) Fill(n int) {
	for i := range s.words {
		s.words[i] = ^uint64(0)
	}
	if tail := uint(n) & 63; tail != 0 && len(s.words) > 0 {
		s.words[len(s.words)-1] = (1 << tail) - 1
	}
}

// Copy overwrites s with o.
func (s *BitSet) Copy(o *BitSet) { copy(s.words, o.words) }

// Equal reports whether both sets hold exactly the same bits.
func (s *BitSet) Equal(o *BitSet) bool {
	for i, w := range s.words {
		if w != o.words[i] {
			return false
		}
	}
	return true
}

// UnionWith adds o's bits into s and reports whether s changed.
func (s *BitSet) UnionWith(o *BitSet) bool {
	changed := false
	for i, w := range o.words {
		if nw := s.words[i] | w; nw != s.words[i] {
			s.words[i] = nw
			changed = true
		}
	}
	return changed
}

// AndNot removes o's bits from s.
func (s *BitSet) AndNot(o *BitSet) {
	for i, w := range o.words {
		s.words[i] &^= w
	}
}

// IntersectWith keeps only bits present in both and reports change.
func (s *BitSet) IntersectWith(o *BitSet) bool {
	changed := false
	for i, w := range o.words {
		if nw := s.words[i] & w; nw != s.words[i] {
			s.words[i] = nw
			changed = true
		}
	}
	return changed
}

// Count returns the number of set bits.
func (s *BitSet) Count() int {
	n := 0
	for _, w := range s.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// ForEach calls fn for every set bit in ascending order.
func (s *BitSet) ForEach(fn func(i int)) {
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			fn(wi*64 + b)
			w &= w - 1
		}
	}
}

// ClearRange clears bits [lo, hi), a word at a time. Like Clear it
// ignores the part of the range outside the set's words.
func (s *BitSet) ClearRange(lo, hi int) {
	if lo < 0 {
		lo = 0
	}
	if top := len(s.words) * 64; hi > top {
		hi = top
	}
	if lo >= hi {
		return
	}
	first, last := lo>>6, (hi-1)>>6
	loMask := ^uint64(0) << (uint(lo) & 63)      // bits >= lo in the first word
	hiMask := ^uint64(0) >> (63 - uint(hi-1)&63) // bits < hi in the last word
	if first == last {
		s.words[first] &^= loMask & hiMask
		return
	}
	s.words[first] &^= loMask
	clear(s.words[first+1 : last])
	s.words[last] &^= hiMask
}
