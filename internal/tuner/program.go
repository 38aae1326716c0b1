// Package tuner is the DebugTuner core (§III): it evaluates the debug-
// information impact of disabling each optimization pass across a test
// suite, ranks passes by average per-program rank, constructs Ox-dy
// debug-friendly configurations from the top of the ranking, and computes
// the debuggability/performance Pareto front.
package tuner

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"sort"
	"sync"

	"debugtuner/internal/dbgtrace"
	"debugtuner/internal/debugger"
	"debugtuner/internal/evalcache"
	"debugtuner/internal/ir"
	"debugtuner/internal/metrics"
	"debugtuner/internal/pipeline"
	"debugtuner/internal/resilience"
	"debugtuner/internal/sema"
	"debugtuner/internal/vm"
)

// Program is one test-suite subject: source, semantic info, harness
// inputs, and a cached -O0 baseline trace.
type Program struct {
	Name string
	Src  []byte
	Info *sema.Info
	DR   *sema.DefRanges
	IR0  *ir.Program
	// Inputs per harness. Empty map (or empty Entry harnesses) means a
	// main-style program traced via its entry function. Inputs and Entry
	// are fixed once the program is first measured or keyed: its cell
	// keys digest them, with Src, once per process.
	Inputs map[string][][]int64
	Entry  string // used when no harnesses exist; default "main"
	// Budget is the VM step budget per trace. Unlike the inputs it is
	// read at every measurement, so it may be set after loading.
	Budget int64

	mu       sync.Mutex
	baseline *dbgtrace.Trace
	// keyOnce computes srcHash and inDigest, the digests of Src and of
	// Inputs and Entry that every cell key carries, at the first key.
	keyOnce           sync.Once
	srcHash, inDigest uint64
	// scores content-addresses full measurements by cell key, so table
	// generators revisiting the same Ox-dy configuration reuse one
	// build+trace, in this process and from the store. Safe because
	// builds are deterministic and the VM is cycle-exact.
	scores evalcache.Cache[cellKey, Measurement]
}

// Measurement is one cached build+trace outcome.
type Measurement struct {
	// TextHash identifies the built binary's semantic instruction
	// stream; AnalyzeLevel uses it to prune no-effect pass toggles.
	TextHash uint64
	Scores   metrics.Scores
}

// LoadProgram front-ends a subject once; builds are cloned from its IR.
func LoadProgram(name string, src []byte, inputs map[string][][]int64) (*Program, error) {
	info, err := pipeline.Frontend(name+".mc", src)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	ir0, err := pipeline.BuildIR(info)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	return &Program{
		Name: name, Src: src, Info: info,
		DR: sema.ComputeDefRanges(info), IR0: ir0,
		Inputs: inputs, Entry: "main", Budget: 1 << 26,
		scores: evalcache.Cache[cellKey, Measurement]{Namespace: "tuner.scores"},
	}, nil
}

// Build compiles the program under the configuration.
func (p *Program) Build(cfg pipeline.Config) *vm.Binary {
	return pipeline.Build(p.IR0, cfg)
}

// Trace runs a full debug session over all harnesses and inputs.
func (p *Program) Trace(bin *vm.Binary) (*dbgtrace.Trace, error) {
	s, err := debugger.NewSession(bin)
	if err != nil {
		return nil, err
	}
	merged := dbgtrace.NewTrace()
	merged.Steppable = s.SteppableLines()
	ran := false
	for _, h := range p.Info.Harnesses {
		ins := p.Inputs[h]
		if len(ins) == 0 {
			continue
		}
		tr, err := s.Trace(h, ins, p.Budget)
		if err != nil {
			return nil, fmt.Errorf("%s/%s: %w", p.Name, h, err)
		}
		merged.Merge(tr)
		ran = true
	}
	if !ran {
		tr, err := s.TraceMain(p.Entry, p.Budget)
		if err != nil {
			return nil, fmt.Errorf("%s/%s: %w", p.Name, p.Entry, err)
		}
		merged.Merge(tr)
	}
	return merged, nil
}

// Baseline returns the cached -O0 trace (profile-independent: no passes
// run and only home-slot locations are emitted at -O0).
func (p *Program) Baseline() (*dbgtrace.Trace, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.baseline == nil {
		bin := p.Build(pipeline.MustConfig(pipeline.GCC, "O0"))
		tr, err := p.Trace(bin)
		if err != nil {
			return nil, err
		}
		p.baseline = tr
	}
	return p.baseline, nil
}

// Product computes the hybrid product metric of a build against the -O0
// baseline — the paper's headline quality score.
func (p *Program) Product(cfg pipeline.Config) (float64, error) {
	s, err := p.Scores(cfg)
	if err != nil {
		return 0, err
	}
	return s.Product, nil
}

// Scores computes the full hybrid metrics of a configuration.
func (p *Program) Scores(cfg pipeline.Config) (metrics.Scores, error) {
	m, err := p.Measure(cfg)
	return m.Scores, err
}

// Measure builds, traces, and scores the configuration. Results are
// content-addressed by the config fingerprint. Each measurement runs as
// one resilience cell; the wrapper sits inside the cache's singleflight
// so concurrent requests coalesce, and a quarantined result
// (Uncacheable) evicts itself instead of pinning the failure.
func (p *Program) Measure(cfg pipeline.Config) (Measurement, error) {
	return p.measureBuilt(cfg, func() (*vm.Binary, error) { return p.Build(cfg), nil })
}

// measureBuilt is Measure with the binary, on a miss, from build, which
// must return the binary Build(cfg) does.
func (p *Program) measureBuilt(cfg pipeline.Config, build func() (*vm.Binary, error)) (Measurement, error) {
	key := p.cellKey(cfg.Fingerprint())
	return p.scores.Do(key, func() (Measurement, error) {
		return resilience.Run(context.Background(),
			key.String(), func(context.Context) (Measurement, error) {
				return p.measure(build)
			})
	})
}

// cellKey declares every input of one (program, config) measurement and
// of one ranking-matrix cell: the program's name and source, its harness
// inputs and entry (the corpus budget changes the inputs), the VM step
// budget (it truncates the traces) and the config fingerprint.
// Everything else is code, which the store's tool hash covers.
type cellKey struct {
	Name   string
	Src    uint64 // source hash
	Inputs uint64 // harness inputs and entry (inputsDigest)
	Budget int64
	Config string // config fingerprint
}

// String is the cell's quarantine key, stable across processes so the
// chaos schedule and a rerun address the same cells.
func (k cellKey) String() string {
	return fmt.Sprintf("tuner|%s#%016x|in%016x|b%d|%s", k.Name, k.Src, k.Inputs, k.Budget, k.Config)
}

func (p *Program) cellKey(fp string) cellKey {
	p.keyOnce.Do(func() { p.srcHash, p.inDigest = resilience.HashBytes(p.Src), p.inputsDigest() })
	return cellKey{Name: p.Name, Src: p.srcHash, Inputs: p.inDigest, Budget: p.Budget, Config: fp}
}

// CellKey is the quarantine key of one (program, config) measurement.
func (p *Program) CellKey(fp string) string { return p.cellKey(fp).String() }

// inputsDigest hashes what the traces run: the harness names in sorted
// order, each with its input vectors, then the entry function.
func (p *Program) inputsDigest() uint64 {
	h := fnv.New64a()
	var w [8]byte
	word := func(x uint64) {
		binary.LittleEndian.PutUint64(w[:], x)
		h.Write(w[:])
	}
	names := make([]string, 0, len(p.Inputs))
	for name := range p.Inputs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		word(uint64(len(name)))
		h.Write([]byte(name))
		word(uint64(len(p.Inputs[name])))
		for _, in := range p.Inputs[name] {
			word(uint64(len(in)))
			for _, x := range in {
				word(uint64(x))
			}
		}
	}
	h.Write([]byte(p.Entry))
	return h.Sum64()
}

func (p *Program) measure(build func() (*vm.Binary, error)) (Measurement, error) {
	base, err := p.Baseline()
	if err != nil {
		return Measurement{}, err
	}
	bin, err := build()
	if err != nil {
		return Measurement{}, err
	}
	tr, err := p.Trace(bin)
	if err != nil {
		return Measurement{}, err
	}
	return Measurement{
		TextHash: bin.TextHash(),
		Scores:   metrics.Hybrid(tr, base, p.DR),
	}, nil
}
