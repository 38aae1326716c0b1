package pipeline

import (
	"bytes"
	"reflect"
	"slices"
	"sync"

	"debugtuner/internal/codegen"
	"debugtuner/internal/ir"
	"debugtuner/internal/passes"
	"debugtuner/internal/telemetry"
	"debugtuner/internal/vm"
)

// Forks is one reference build recorded for the per-pass ranking
// matrix, so that a single-toggle build runs only what the toggle can
// change. NewForks runs the reference middle end once and keeps its
// effect record: the pass state ahead of every pipeline entry, encoded
// exactly (state.go), one stored encoding per distinct state. An entry
// the toggle disables that left the reference state unchanged is a
// no-op under the toggle too, so:
//
//   - a toggle forks at its first entry that runs differently under it
//     and changed the reference state, resuming from a saved copy of the
//     state there;
//   - a toggle with no such entry and no back-end difference builds
//     nothing: its binary is the reference's;
//   - a build stops as soon as its state equals the reference's ahead of
//     the same entry, past its last such entry, because from there on it
//     runs the reference's passes on the reference's state.
//
// The gcc inliner knobs (inline-fncs-called-once, inline-small-functions,
// inline-functions) change the pass settings before the first entry.
// Those builds restart from the O0 module and rejoin only past the last
// inline entry, the knobs' only reader. Every binary equals the
// from-scratch Build of the toggled configuration bit for bit.
//
// A saved state is cloned for each of its users but the last, which gets
// the state itself; a toggle built again after that (a cell recomputed
// after a quarantine evicted it) restarts from the O0 module. Forks is
// safe for concurrent use.
type Forks struct {
	ir0 *ir.Program
	ref Config
	es  []entry
	// final is the reference middle end's output, shared by every
	// toggle whose module ends up equal to it: Compile leaves its input
	// untouched.
	final *ir.Program
	// states holds the distinct reference states in pipeline order, and
	// at[i] indexes the one ahead of entry i (at[len(es)]: the final
	// one), so entry i changed the state iff at[i] != at[i+1].
	states []refState
	at     []int
	// lastInline is the index of the last inline entry, or -1.
	lastInline int
	snaps      map[int]*snapshot // fork index → saved state
}

type refState struct {
	shape []int32 // see appendShape
	enc   []byte
}

type snapshot struct {
	mu    sync.Mutex
	ctx   *passes.Context // nil once handed to its last user
	users int
}

// encoders recycles the state encoders' buffers across builds.
var encoders = sync.Pool{New: func() any { return new(stateEnc) }}

// Fork outcomes, counted in telemetry as forks.<outcome>.
const (
	forkUnchanged = "unchanged" // nothing built: the reference's binary
	forkBackend   = "backend"   // the reference's module compiled with other back-end options
	forkResumed   = "resumed"   // resumed from a saved state and run to the end
	forkRestarted = "restarted" // restarted from the O0 module and run to the end
	forkRejoined  = "rejoined"  // resumed or restarted, stopped on rejoining the reference
)

// NewForks runs ref's middle end on a private clone of ir0, records its
// effects, and saves the state at the fork index of each toggle.
func NewForks(ir0 *ir.Program, ref Config, toggles []string) *Forks {
	var span *telemetry.Span
	if telemetry.Enabled() {
		span = telemetry.Begin("pipeline", "forks/"+ref.Name())
	}
	es := pipelines(ref.Profile, ref.Level)
	f := &Forks{
		ir0: ir0, ref: ref, es: es, at: make([]int, len(es)+1),
		lastInline: -1, snaps: map[int]*snapshot{},
	}
	for i, e := range es {
		if e.name == "inline" {
			f.lastInline = i
		}
	}
	// waiting[i] holds the toggles whose next entry that runs differently
	// from the reference is i; inliner-knob toggles restart and wait on
	// none. A toggle forks at the first such entry that changes the
	// state, and waits on its next one otherwise.
	cfgs := make([]Config, len(toggles))
	waiting := make([][]int, len(es))
	wait := func(t, from int) {
		for i := from; i < len(es); i++ {
			if f.differs(i, cfgs[t]) {
				waiting[i] = append(waiting[i], t)
				return
			}
		}
	}
	for t, name := range toggles {
		cfgs[t] = ref.disabling(name)
		if !f.knobs(cfgs[t]) {
			wait(t, 0)
		}
	}
	ctx := newContext(ir0.Clone(), ref)
	enc := encoders.Get().(*stateEnc)
	var snap *snapshot // a saved copy of the current state; nil once it changes
	runPasses(ctx, ref, 0, func(i int, ran bool) bool {
		if i == 0 || ran {
			f.record(ctx, enc)
		}
		f.at[i] = len(f.states) - 1
		if i > 0 {
			changed := f.at[i] != f.at[i-1]
			for _, t := range waiting[i-1] {
				if changed {
					f.snaps[i-1] = snap
					snap.users++
				} else {
					wait(t, i)
				}
			}
			if changed {
				snap = nil
			}
		}
		if i < len(es) && len(waiting[i]) > 0 && snap == nil {
			snap = &snapshot{ctx: ctx.Clone()}
		}
		return false
	}, nil)
	encoders.Put(enc)
	f.final = ctx.Prog
	span.End()
	return f
}

// record appends ctx's state to the effect record unless it equals the
// latest one.
func (f *Forks) record(ctx *passes.Context, enc *stateEnc) {
	if n := len(f.states); n > 0 && f.holds(n-1, ctx, enc) {
		return
	}
	f.states = append(f.states, refState{
		shape: appendShape(nil, ctx.Prog),
		enc:   bytes.Clone(enc.encode(ctx)),
	})
}

// holds reports whether ctx's state is the k-th recorded one.
func (f *Forks) holds(k int, ctx *passes.Context, enc *stateEnc) bool {
	s := &f.states[k]
	enc.shape = appendShape(enc.shape[:0], ctx.Prog)
	return slices.Equal(enc.shape, s.shape) && bytes.Equal(enc.encode(ctx), s.enc)
}

// differs reports whether entry i runs differently under cfg, which
// disables more than the reference (disabling only removes entries).
func (f *Forks) differs(i int, cfg Config) bool {
	e := f.es[i]
	return !e.backend && e.enabled(f.ref) != e.enabled(cfg)
}

// knobs reports whether cfg starts from other pass settings than the
// reference: the gcc inliner knobs, which configureInliner sets before
// the first entry.
func (f *Forks) knobs(cfg Config) bool {
	return !reflect.DeepEqual(newContext(nil, f.ref), newContext(nil, cfg))
}

// Reference compiles the recorded reference middle end: the binary
// Build(ir0, ref) returns.
func (f *Forks) Reference() *vm.Binary {
	return codegen.Compile(f.final, backendOptions(f.ref, backendToggles(f.ref)))
}

// Build compiles the reference configuration with toggle t disabled. It
// returns nil when that binary is the reference's: t leaves the back-end
// options alone and its middle end ends in the reference's module.
func (f *Forks) Build(t string) *vm.Binary {
	cfg := f.ref.disabling(t)
	var span *telemetry.Span
	if telemetry.Enabled() {
		span = telemetry.Begin("pipeline", "build/"+cfg.Name())
	}
	bin, outcome := f.build(cfg)
	telemetry.Add("forks."+outcome, 1)
	span.End()
	return bin
}

// build is Build, also naming the outcome.
func (f *Forks) build(cfg Config) (*vm.Binary, string) {
	first, last := -1, -1
	for i := range f.es {
		if f.differs(i, cfg) && f.at[i] != f.at[i+1] {
			if first < 0 {
				first = i
			}
			last = i
		}
	}
	knobs := f.knobs(cfg)
	prog, outcome := f.final, forkUnchanged
	if first >= 0 || knobs {
		var ctx *passes.Context
		if !knobs {
			ctx = f.take(first)
		}
		from := first
		outcome = forkResumed
		if ctx == nil {
			from, outcome = 0, forkRestarted
			ctx = newContext(f.ir0.Clone(), cfg)
		}
		rejoin := last + 1
		if knobs && f.lastInline >= rejoin {
			rejoin = f.lastInline + 1
		}
		enc := encoders.Get().(*stateEnc)
		// Past rejoin, an entry cfg skips left the reference state as it
		// was, so only a run can make the two states meet.
		stopped := runPasses(ctx, cfg, from, func(i int, ran bool) bool {
			return i >= rejoin && (ran || i == rejoin) && f.holds(f.at[i], ctx, enc)
		}, nil)
		encoders.Put(enc)
		if stopped {
			outcome = forkRejoined
		} else {
			prog = ctx.Prog
		}
	}
	if prog == f.final {
		if slices.Equal(backendToggles(cfg), backendToggles(f.ref)) {
			return nil, outcome
		}
		if outcome == forkUnchanged {
			outcome = forkBackend
		}
	}
	return codegen.Compile(prog, backendOptions(cfg, backendToggles(cfg))), outcome
}

// take hands out the state saved at fork index i: a clone while other
// toggles still need it, the snapshot itself to its last user, and nil
// when none was saved or it is spent.
func (f *Forks) take(i int) *passes.Context {
	s := f.snaps[i]
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ctx == nil {
		return nil
	}
	if s.users--; s.users > 0 {
		return s.ctx.Clone()
	}
	ctx := s.ctx
	s.ctx = nil
	return ctx
}

// disabling returns the configuration with one more toggle disabled.
func (c Config) disabling(name string) Config {
	d := make(map[string]bool, len(c.Disabled)+1)
	for n, off := range c.Disabled {
		d[n] = off
	}
	d[name] = true
	c.Disabled = d
	return c
}
