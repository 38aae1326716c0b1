package pipeline

import (
	"reflect"
	"sync"

	"debugtuner/internal/codegen"
	"debugtuner/internal/ir"
	"debugtuner/internal/passes"
	"debugtuner/internal/telemetry"
	"debugtuner/internal/vm"
)

// Forks is one reference build paused wherever a single-toggle build
// departs from it — the shared prefixes of the per-pass ranking matrix.
// Disabling toggle t changes nothing before t's fork index (see
// forkIndex), so NewForks runs the reference middle end once and keeps
// a clone of the module and pass context at every fork index, and
// Build(t) reruns only the suffix. Every binary equals the from-scratch
// Build of the toggled configuration bit for bit.
//
// A snapshot is cloned for each of its users but the last, which gets
// the snapshot itself; a toggle built again after that (a retried
// cell) starts over from the O0 module. Forks is safe for concurrent
// use.
type Forks struct {
	ir0 *ir.Program
	ref Config
	// final is the reference middle end's output, shared by every
	// toggle that only changes back-end options: Compile leaves its
	// input untouched.
	final *ir.Program
	snaps map[int]*snapshot // fork index → saved state
}

type snapshot struct {
	mu    sync.Mutex
	ctx   *passes.Context // nil once handed to its last user
	users int
}

// NewForks runs ref's middle end on a private clone of ir0 and saves the
// state at the fork index of each toggle.
func NewForks(ir0 *ir.Program, ref Config, toggles []string) *Forks {
	var span *telemetry.Span
	if telemetry.Enabled() {
		span = telemetry.Begin("pipeline", "forks/"+ref.Name())
	}
	f := &Forks{ir0: ir0, ref: ref, snaps: map[int]*snapshot{}}
	end := len(pipelines(ref.Profile, ref.Level))
	for _, t := range toggles {
		// Index 0 is a fresh start and the end is the final module:
		// neither needs a saved state.
		if i := forkIndex(ref, ref.disabling(t)); i > 0 && i < end {
			if f.snaps[i] == nil {
				f.snaps[i] = &snapshot{}
			}
			f.snaps[i].users++
		}
	}
	ctx := newContext(ir0.Clone(), ref)
	runPasses(ctx, ref, 0, func(i int) {
		if s := f.snaps[i]; s != nil {
			s.ctx = ctx.Clone()
		}
	}, nil)
	f.final = ctx.Prog
	span.End()
	return f
}

// Build compiles the reference configuration with toggle t disabled,
// resuming the pass loop from t's fork.
func (f *Forks) Build(t string) *vm.Binary {
	cfg := f.ref.disabling(t)
	var span *telemetry.Span
	if telemetry.Enabled() {
		span = telemetry.Begin("pipeline", "build/"+cfg.Name())
	}
	prog := f.final
	if i := forkIndex(f.ref, cfg); i < len(pipelines(cfg.Profile, cfg.Level)) {
		ctx := f.take(i)
		if ctx == nil {
			i, ctx = 0, newContext(f.ir0.Clone(), cfg)
		}
		runPasses(ctx, cfg, i, nil, nil)
		prog = ctx.Prog
	}
	bin := codegen.Compile(prog, backendOptions(cfg, backendToggles(cfg)))
	span.End()
	return bin
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

// forkIndex is the first pipeline entry whose execution under cfg
// differs from its execution under ref, two configurations of one
// profile and level. It is 0 when they start from different pass
// contexts (the gcc inliner knobs: configureInliner reads them before
// the first pass), and the pipeline's length when only back-end options
// differ.
func forkIndex(ref, cfg Config) int {
	if !reflect.DeepEqual(newContext(nil, ref), newContext(nil, cfg)) {
		return 0
	}
	es := pipelines(ref.Profile, ref.Level)
	for i, e := range es {
		if !e.backend && e.enabled(ref) != e.enabled(cfg) {
			return i
		}
	}
	return len(es)
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
