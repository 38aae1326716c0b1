// Package specsuite provides the performance benchmarks standing in for
// the paper's SPEC CPU 2017 C/C++ integer set (the eight benchmarks left
// after excluding 520.omnetpp), plus the "selfcomp" large workload used
// for the Figure 4 study. Each benchmark is a deterministic CPU-bound
// MiniC program with a distinctive execution profile.
package specsuite

import (
	"context"
	"embed"
	"fmt"
	"sync"

	"debugtuner/internal/evalcache"
	"debugtuner/internal/ir"
	"debugtuner/internal/pipeline"
	"debugtuner/internal/resilience"
	"debugtuner/internal/vm"
)

//go:embed benchmarks/*.mc
var benchFS embed.FS

// Names lists the SPEC stand-ins in the paper's order.
var Names = []string{
	"500.perlbench", "502.gcc", "505.mcf", "523.xalancbmk",
	"525.x264", "531.deepsjeng", "541.leela", "557.xz",
}

// files maps benchmark names to their sources.
var files = map[string]string{
	"500.perlbench": "perlbench.mc",
	"502.gcc":       "gcc_bench.mc",
	"505.mcf":       "mcf.mc",
	"523.xalancbmk": "xalancbmk.mc",
	"525.x264":      "x264.mc",
	"531.deepsjeng": "deepsjeng.mc",
	"541.leela":     "leela.mc",
	"557.xz":        "xz.mc",
	"selfcomp":      "selfcomp.mc",
}

// Source returns a benchmark's MiniC source.
func Source(name string) ([]byte, error) {
	f, ok := files[name]
	if !ok {
		return nil, fmt.Errorf("specsuite: unknown benchmark %q", name)
	}
	return benchFS.ReadFile("benchmarks/" + f)
}

// benchmark is one benchmark's loaded state: the hash of its source,
// which keys its stored cycle counts, and its O0 IR, front-ended at the
// first build, so a run whose counts all come from the store never
// front-ends it.
type benchmark struct {
	src uint64
	ir  func() (*ir.Program, error)
}

// benchmarks memoizes each benchmark's state. Routing through evalcache
// gives singleflight semantics: concurrent loaders of the same benchmark
// block on one load instead of serializing every benchmark behind a
// single package mutex.
var benchmarks evalcache.Cache[string, *benchmark]

func load(name string) (*benchmark, error) {
	return benchmarks.Do(name, func() (*benchmark, error) {
		src, err := Source(name)
		if err != nil {
			return nil, err
		}
		return &benchmark{src: resilience.HashBytes(src), ir: sync.OnceValues(func() (*ir.Program, error) {
			info, err := pipeline.Frontend(name, src)
			if err != nil {
				return nil, err
			}
			return pipeline.BuildIR(info)
		})}, nil
	})
}

// LoadIR front-ends a benchmark once and caches the O0 IR.
func LoadIR(name string) (*ir.Program, error) {
	b, err := load(name)
	if err != nil {
		return nil, err
	}
	return b.ir()
}

// Result is one benchmark execution's outcome.
type Result struct {
	Name   string
	Cycles int64
	Steps  int64
	Output []int64
}

// Run builds the benchmark under the configuration and executes its ref
// workload, returning cycle counts.
func Run(name string, cfg pipeline.Config) (*Result, error) {
	ir0, err := LoadIR(name)
	if err != nil {
		return nil, err
	}
	bin := pipeline.Build(ir0, cfg)
	return RunBinary(name, bin)
}

// RunBinary executes an already-built benchmark binary.
func RunBinary(name string, bin *vm.Binary) (*Result, error) {
	m := vm.New(bin)
	m.StepBudget = 1 << 33
	if _, err := m.Call("main"); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	return &Result{Name: name, Cycles: m.Cycles, Steps: m.Steps, Output: m.Output()}, nil
}

// cycleKey declares every input of one ref-workload cycle count.
type cycleKey struct {
	Bench  string
	Src    uint64 // source hash
	Config string // config fingerprint
}

// cycleCache content-addresses ref-workload cycle counts. The VM is
// cycle-exact and builds are deterministic, so a configuration's cycle
// count is a pure function of its key; every table that revisits an
// Ox-dy config (Fig2, Tables VIII/XI/XII) reuses one execution, and the
// process store keeps counts across processes. The source hash in the
// key is what keeps a shared cache directory honest about benchmark
// edits.
var cycleCache = evalcache.Cache[cycleKey, int64]{Namespace: "specsuite"}

// Cycles returns the benchmark's ref-workload cycle count under the
// configuration, cached by content.
func Cycles(name string, cfg pipeline.Config) (int64, error) {
	b, err := load(name)
	if err != nil {
		return 0, err
	}
	return cycleCache.Do(cycleKey{Bench: name, Src: b.src, Config: cfg.Fingerprint()}, func() (int64, error) {
		r, err := Run(name, cfg)
		if err != nil {
			return 0, err
		}
		return r.Cycles, nil
	})
}

// OverO0 is the paper's speedup over O0: the benchmark's O0 cycle count
// under cfg's profile over its count under cfg. It runs as one
// resilience cell, spec|<name>|<fingerprint>, so a panicking or runaway
// build quarantines this (benchmark, config) measurement alone.
func OverO0(name string, cfg pipeline.Config) (float64, error) {
	compute := func(context.Context) (float64, error) {
		base, err := Cycles(name, pipeline.MustConfig(cfg.Profile, "O0"))
		if err != nil {
			return 0, err
		}
		opt, err := Cycles(name, cfg)
		if err != nil {
			return 0, err
		}
		return float64(base) / float64(opt), nil
	}
	return resilience.Run(context.Background(), "spec|"+name+"|"+cfg.Fingerprint(), compute)
}
