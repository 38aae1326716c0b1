package pipeline

import (
	"encoding/binary"
	"math"

	"debugtuner/internal/ast"
	"debugtuner/internal/ir"
	"debugtuner/internal/passes"
)

// A pass state is everything a pipeline entry reads and writes: the
// module and the pass settings. stateEnc writes a state as canonical
// bytes — every field of the module's globals, functions, blocks and
// values, including the ID counters and the block probabilities, plus
// the settings — so that two states are equal exactly when their
// encodings are. The fork set compares states this way, never by a
// pass's changed result (toplevel-reorder reports false while setting
// UnitAtATime) and never by a hash (a collision would hand a toggle the
// reference's binary). state_test.go checks that every field is encoded
// or excluded below with its reason.
//
// Excluded fields:
//   - Context.PassName, Context.RunLabel: ledger attribution, set only
//     while a pass runs.
//   - Context.InlineOnce, InlineSmall, InlineGrowth: the gcc inliner
//     knobs, set from the configuration before the first entry and
//     written by no pass. They differ from the reference only under an
//     inliner-knob toggle, and such a build is compared only past the
//     last inline entry, their only reader.
//   - Context.SampleLines: the read-only FDO profile, the same map for
//     the reference and every toggle.
//   - Program.Symbols: sema's symbol table, shared by every clone.
//   - Func.Prog, Block.Func: back pointers to the owner.
//
// Symbols (Value.Var, Global.Sym, Func.SlotVars, Func.ParamVars) are
// written as their ID, unique within a program; blocks (Value.Block,
// Block.Preds, Block.Succs) and values (Value.Args) as theirs, unique
// within a function and never reused.
type stateEnc struct {
	buf   []byte
	shape []int32
}

// encode writes ctx's state into the encoder's reused buffer.
func (e *stateEnc) encode(ctx *passes.Context) []byte {
	b := e.buf[:0]
	b = appendBool(b, ctx.Salvage)
	b = appendBool(b, ctx.UnitAtATime)
	b = appendInt(b, int64(ctx.InlineBudget))
	b = appendInt(b, int64(ctx.UnrollFactor))
	b = appendInt(b, ctx.SampleMax)
	p := ctx.Prog
	b = appendInt(b, int64(p.MaxLine))
	b = appendInt(b, int64(len(p.Globals)))
	for _, g := range p.Globals {
		b = appendString(b, g.Name)
		b = appendInt(b, int64(g.Index))
		b = appendBool(b, g.IsArray)
		b = appendInt(b, g.Init)
		b = appendSym(b, g.Sym)
	}
	b = appendInt(b, int64(len(p.Funcs)))
	for _, f := range p.Funcs {
		b = appendFunc(b, f)
	}
	e.buf = b
	return b
}

func appendFunc(b []byte, f *ir.Func) []byte {
	b = appendString(b, f.Name)
	b = appendInt(b, int64(f.NParams))
	b = appendInt(b, int64(f.NumSlots))
	b = appendBool(b, f.Pure)
	b = appendInt(b, int64(f.StartLine))
	b = appendInt(b, int64(f.NumValueIDs()))
	b = appendInt(b, int64(f.NumBlockIDs()))
	b = appendInt(b, int64(len(f.SlotVars)))
	for _, s := range f.SlotVars {
		b = appendSym(b, s)
	}
	b = appendInt(b, int64(len(f.ParamVars)))
	for _, s := range f.ParamVars {
		b = appendSym(b, s)
	}
	b = appendInt(b, int64(len(f.Blocks)))
	for _, blk := range f.Blocks {
		b = appendInt(b, int64(blk.ID))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(blk.Prob))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(blk.Freq))
		b = appendInt(b, int64(len(blk.Preds)))
		for _, p := range blk.Preds {
			b = appendInt(b, int64(p.ID))
		}
		b = appendInt(b, int64(len(blk.Succs)))
		for _, s := range blk.Succs {
			b = appendInt(b, int64(s.ID))
		}
		b = appendInt(b, int64(len(blk.Instrs)))
		for _, v := range blk.Instrs {
			b = appendInt(b, int64(v.Op))
			b = appendInt(b, int64(v.ID))
			if v.Block == nil {
				b = append(b, 0)
			} else {
				b = appendInt(b, int64(v.Block.ID)+1)
			}
			b = appendInt(b, v.AuxInt)
			b = appendString(b, v.Aux)
			b = appendInt(b, int64(v.Line))
			b = appendSym(b, v.Var)
			b = appendInt(b, int64(len(v.Args)))
			for _, a := range v.Args {
				b = appendInt(b, int64(a.ID))
			}
		}
	}
	return b
}

// appendInt writes x zigzag-varint encoded, one byte for the small
// values (opcodes, IDs, counts) most fields hold.
func appendInt(b []byte, x int64) []byte {
	u := uint64(x<<1) ^ uint64(x>>63)
	if u < 0x80 {
		return append(b, byte(u))
	}
	return binary.AppendUvarint(b, u)
}

func appendBool(b []byte, x bool) []byte {
	if x {
		return append(b, 1)
	}
	return append(b, 0)
}

func appendString(b []byte, s string) []byte {
	return append(appendInt(b, int64(len(s))), s...)
}

func appendSym(b []byte, s *ast.Symbol) []byte {
	if s == nil {
		return append(b, 0)
	}
	return appendInt(b, int64(s.ID)+1)
}

// appendShape appends prog's shape — per function, the value- and
// block-ID counters and the block and instruction counts. States with
// different shapes differ, so most mismatches are rejected without
// encoding.
func appendShape(dst []int32, prog *ir.Program) []int32 {
	for _, f := range prog.Funcs {
		n := 0
		for _, b := range f.Blocks {
			n += len(b.Instrs)
		}
		dst = append(dst, int32(f.NumValueIDs()), int32(f.NumBlockIDs()),
			int32(len(f.Blocks)), int32(n))
	}
	return dst
}
