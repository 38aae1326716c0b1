package ir

import (
	"fmt"

	"debugtuner/internal/ast"
)

// Value is one SSA value / instruction. Constants and parameters are
// Values too (materialized in the entry block by the builder).
type Value struct {
	Op     Op
	ID     int
	Block  *Block
	Args   []*Value
	AuxInt int64  // constant value, param/slot/global index, or vector sub-op
	Aux    string // callee name for OpCall

	// Line is the 1-based source line this instruction is attributed to.
	// Zero means artificial: passes that move code across blocks drop the
	// line, exactly as LLVM's hoist/sink utilities do, and the line table
	// loses the entry.
	Line int

	// Var binds an OpDbgValue to its source variable.
	Var *ast.Symbol
}

func (v *Value) String() string {
	if v == nil {
		return "<nil>"
	}
	return fmt.Sprintf("v%d", v.ID)
}

// Block is a basic block: a phi prefix, a body, and one terminator.
type Block struct {
	ID     int
	Func   *Func
	Instrs []*Value
	Preds  []*Block
	Succs  []*Block

	// Prob is the estimated probability that an OpBr terminator takes
	// Succs[0]; it is 0.5 until the branch-probability pass runs.
	Prob float64
	// Freq is the estimated execution frequency relative to entry = 1.
	Freq float64
}

// Term returns the block terminator, or nil when the block is still being
// built.
func (b *Block) Term() *Value {
	if n := len(b.Instrs); n > 0 && b.Instrs[n-1].Op.IsTerminator() {
		return b.Instrs[n-1]
	}
	return nil
}

// Phis returns the block's phi prefix.
func (b *Block) Phis() []*Value {
	for i, v := range b.Instrs {
		if v.Op != OpPhi {
			return b.Instrs[:i]
		}
	}
	return b.Instrs
}

func (b *Block) String() string { return fmt.Sprintf("b%d", b.ID) }

// Func is one IR function.
type Func struct {
	Name    string
	NParams int
	Blocks  []*Block // Blocks[0] is the entry
	Prog    *Program

	// NumSlots counts pre-mem2reg local slots.
	NumSlots int
	// SlotVars maps slot index -> source variable (nil for temporaries).
	SlotVars []*ast.Symbol
	// ParamVars maps param index -> source variable.
	ParamVars []*ast.Symbol

	// Pure is set by the ipa-pure-const pass: no memory writes, no
	// prints, and only pure callees — calls to it may be CSE'd or
	// removed when unused.
	Pure bool

	// StartLine is the source line of the function header.
	StartLine int

	nextValueID int
	nextBlockID int
}

// NewValue allocates a value in block b.
func (f *Func) NewValue(b *Block, op Op, line int, args ...*Value) *Value {
	v := &Value{Op: op, ID: f.nextValueID, Block: b, Args: args, Line: line}
	f.nextValueID++
	return v
}

// NumValueIDs returns an upper bound for value IDs, for dense maps.
func (f *Func) NumValueIDs() int { return f.nextValueID }

// NewBlock allocates a block and appends it to the function.
func (f *Func) NewBlock() *Block {
	b := &Block{ID: f.nextBlockID, Func: f, Prob: 0.5, Freq: 1}
	f.nextBlockID++
	f.Blocks = append(f.Blocks, b)
	return b
}

// NumBlockIDs returns an upper bound for block IDs, for dense maps.
func (f *Func) NumBlockIDs() int { return f.nextBlockID }

// Entry returns the entry block.
func (f *Func) Entry() *Block { return f.Blocks[0] }

// Global is a module-level variable.
type Global struct {
	Name    string
	Index   int
	IsArray bool
	Init    int64 // scalar initial value, or array length
	Sym     *ast.Symbol
}

// Program is a whole IR module.
type Program struct {
	Funcs   []*Func
	Globals []*Global
	// Symbols is the semantic symbol table, shared with sema.Info.
	Symbols []*ast.Symbol
	// MaxLine is the last line of the source the module was built from
	// (or the synthetic line count after debugify injection). When
	// nonzero, Verify rejects any instruction line outside [0, MaxLine]:
	// a line beyond the source extent is stale garbage, not attribution.
	MaxLine int
}

// Func returns the function with the given name, or nil.
func (p *Program) Func(name string) *Func {
	for _, f := range p.Funcs {
		if f.Name == name {
			return f
		}
	}
	return nil
}

// Clone deep-copies the program so that destructive pass pipelines can
// run on a private copy. Debug metadata (lines, variable bindings) is
// preserved; symbol pointers are shared (they are immutable after sema).
func (p *Program) Clone() *Program {
	np := &Program{Symbols: p.Symbols, MaxLine: p.MaxLine}
	np.Globals = append(np.Globals, make([]*Global, 0, len(p.Globals))...)
	for _, g := range p.Globals {
		cg := *g
		np.Globals = append(np.Globals, &cg)
	}
	for _, f := range p.Funcs {
		np.Funcs = append(np.Funcs, f.clone(np))
	}
	return np
}

func (f *Func) clone(prog *Program) *Func {
	nf := &Func{
		Name: f.Name, NParams: f.NParams, Prog: prog,
		NumSlots: f.NumSlots, Pure: f.Pure, StartLine: f.StartLine,
		nextValueID: f.nextValueID, nextBlockID: f.nextBlockID,
	}
	nf.SlotVars = append(nf.SlotVars, f.SlotVars...)
	nf.ParamVars = append(nf.ParamVars, f.ParamVars...)
	blockMap := make(map[*Block]*Block, len(f.Blocks))
	valueMap := make(map[*Value]*Value)
	for _, b := range f.Blocks {
		nb := &Block{ID: b.ID, Func: nf, Prob: b.Prob, Freq: b.Freq}
		blockMap[b] = nb
		nf.Blocks = append(nf.Blocks, nb)
	}
	for _, b := range f.Blocks {
		nb := blockMap[b]
		for _, v := range b.Instrs {
			nv := &Value{
				Op: v.Op, ID: v.ID, Block: nb, AuxInt: v.AuxInt,
				Aux: v.Aux, Line: v.Line, Var: v.Var,
			}
			valueMap[v] = nv
			nb.Instrs = append(nb.Instrs, nv)
		}
	}
	for _, b := range f.Blocks {
		nb := blockMap[b]
		for _, p := range b.Preds {
			nb.Preds = append(nb.Preds, blockMap[p])
		}
		for _, s := range b.Succs {
			nb.Succs = append(nb.Succs, blockMap[s])
		}
		for _, v := range b.Instrs {
			nv := valueMap[v]
			for _, a := range v.Args {
				na := valueMap[a]
				if na == nil {
					if v.Op == OpDbgValue {
						// A binding whose referent is placed in no block is
						// exactly what a DCE that forgets its dbg.value users
						// leaves behind (staticdbg's dbg-orphan rule). Clone
						// the referent detached so the corruption survives
						// for the analyzer to report — crashing a copy
						// utility on already-corrupt debug metadata would
						// turn a diagnosable finding into a dead pipeline.
						na = &Value{
							Op: a.Op, ID: a.ID, AuxInt: a.AuxInt,
							Aux: a.Aux, Line: a.Line, Var: a.Var,
						}
						valueMap[a] = na
					} else {
						// Real dataflow with a dangling arg is a verifier
						// error; keep the panic loud during development.
						panic(fmt.Sprintf("clone: unmapped arg %v of %v in %s", a, v, f.Name))
					}
				}
				nv.Args = append(nv.Args, na)
			}
		}
	}
	return nf
}
