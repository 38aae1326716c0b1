// Package pipeline defines the two compiler profiles' optimization
// levels and drives a complete build: MiniC source → optimized IR →
// binary with debug information.
//
// The gcc-like and clang-like profiles differ exactly where the paper's
// cross-compiler observations need them to:
//
//   - pass composition and ordering per level (gcc's Og is a weakened O1;
//     clang's levels are strictly incremental);
//   - debug salvage policy (the clang profile rewires variable bindings
//     across blocks on RAUW; the gcc profile drops them), which drives
//     the sharper metric decline of gcc at O2/O3 in Table IV;
//   - location-range policy (the gcc profile emits optimistic register
//     ranges, reproducing the static-method overestimation growth on gcc
//     in Table I).
//
// Every entry is a DebugTuner toggle; disabling a name removes all of
// its pipeline occurrences, like the paper's -fno-<pass> /
// OptPassGate machinery (§III.C).
package pipeline

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"debugtuner/internal/autofdo"
	"debugtuner/internal/codegen"
	"debugtuner/internal/ir"
	"debugtuner/internal/irbuild"
	"debugtuner/internal/parser"
	"debugtuner/internal/passes"
	"debugtuner/internal/sema"
	"debugtuner/internal/source"
	"debugtuner/internal/telemetry"
	"debugtuner/internal/vm"
)

// Profile identifies the compiler personality.
type Profile string

// The two compiler profiles.
const (
	GCC   Profile = "gcc"
	Clang Profile = "clang"
)

// Levels lists the optimization levels of a profile.
func Levels(p Profile) []string {
	if p == GCC {
		return []string{"Og", "O1", "O2", "O3"}
	}
	return []string{"O1", "O2", "O3"}
}

// entry is one pipeline element.
type entry struct {
	name string
	// internal entries are always-on cleanups (CFG canonicalization),
	// not user-visible toggles.
	internal bool
	// expensive entries belong to gcc's expensive-optimizations group:
	// disabling "expensive-opts" skips them all.
	expensive bool
	// backend entries are consumed by codegen.Options rather than run
	// as IR passes.
	backend bool
}

func mid(name string) entry      { return entry{name: name} }
func internal(name string) entry { return entry{name: name, internal: true} }
func expensive(name string) entry {
	return entry{name: name, expensive: true}
}
func backend(name string) entry { return entry{name: name, backend: true} }

// pipelines returns the ordered pass list for a profile and level.
func pipelines(p Profile, level string) []entry {
	clean := internal("simplifycfg")
	if p == GCC {
		switch level {
		case "Og":
			return []entry{
				internal("tree-ssa"), clean,
				mid("guess-branch-probability"),
				mid("ipa-pure-const"),
				mid("inline"), // weakened: called-once bodies only
				mid("tree-forwprop"), clean,
				mid("tree-fre"),
				mid("dce"), clean,
				mid("thread-jumps"), clean,
				mid("dce"),
				// Late clean-up DCE, not user-disableable: gcc's RTL
				// dead-code elimination still runs under -fno-tree-dce.
				internal("dce"),
				backend("tree-coalesce-vars"),
				backend("reorder-blocks"),
				backend("shrink-wrap"),
				backend("ira-share-spill-slots"),
			}
		case "O1":
			return []entry{
				mid("toplevel-reorder"),
				mid("ipa-pure-const"),
				mid("inline"),
				internal("tree-ssa"), clean,
				mid("tree-forwprop"), clean,
				mid("tree-fre"),
				mid("tree-dominator-opts"), clean,
				mid("tree-ch"),
				mid("tree-sink"),
				mid("tree-loop-optimize"), clean,
				mid("tree-forwprop"),
				mid("dse"),
				mid("dce"), clean,
				mid("thread-jumps"), clean,
				mid("guess-branch-probability"),
				mid("dce"),
				internal("dce"),
				backend("tree-ter"),
				backend("tree-coalesce-vars"),
				backend("reorder-blocks"),
				backend("shrink-wrap"),
				backend("ira-share-spill-slots"),
			}
		case "O2":
			return []entry{
				mid("toplevel-reorder"),
				mid("ipa-pure-const"),
				mid("inline"),
				mid("inline-small-functions"),
				mid("inline-functions"),
				internal("tree-ssa"), clean,
				mid("tree-forwprop"), clean,
				mid("tree-fre"),
				mid("tree-dominator-opts"), clean,
				mid("tree-ch"),
				expensive("gvn"),
				mid("tree-sink"),
				mid("tree-loop-optimize"), clean,
				expensive("tree-forwprop"),
				mid("if-conversion"), clean,
				mid("dse"),
				mid("dce"), clean,
				mid("thread-jumps"), clean,
				expensive("tree-fre"),
				mid("dce"),
				mid("guess-branch-probability"),
				internal("dce"),
				backend("tree-ter"),
				backend("tree-coalesce-vars"),
				backend("schedule-insns2"),
				backend("reorder-blocks"),
				backend("crossjumping"),
				backend("shrink-wrap"),
				backend("ira-share-spill-slots"),
			}
		case "O3":
			return []entry{
				mid("toplevel-reorder"),
				mid("ipa-pure-const"),
				mid("inline"),
				mid("inline-small-functions"),
				mid("inline-functions"),
				internal("tree-ssa"), clean,
				mid("tree-forwprop"), clean,
				mid("tree-fre"),
				mid("tree-dominator-opts"), clean,
				mid("tree-ch"),
				expensive("gvn"),
				mid("tree-sink"),
				mid("tree-loop-optimize"), clean,
				mid("loop-unroll"), clean,
				mid("tree-slp-vectorize"),
				expensive("tree-forwprop"),
				mid("if-conversion"), clean,
				mid("dse"),
				mid("dce"), clean,
				mid("thread-jumps"), clean,
				expensive("tree-fre"),
				mid("dce"),
				mid("guess-branch-probability"),
				internal("dce"),
				backend("tree-ter"),
				backend("tree-coalesce-vars"),
				backend("schedule-insns2"),
				backend("reorder-blocks"),
				backend("crossjumping"),
				backend("shrink-wrap"),
				backend("ira-share-spill-slots"),
			}
		}
		return nil
	}
	// clang: levels are strictly incremental.
	base := []entry{
		mid("ipa-pure-const"),
		internal("sroa"), clean,
		mid("early-cse"),
		mid("inline"),
		internal("sroa"), clean,
		mid("instcombine"), clean,
		mid("sccp"),
		mid("loop-rotate"),
		mid("licm"),
		mid("loop-strength-reduce"),
		mid("instcombine"), clean,
		mid("dce"), clean,
		mid("guess-branch-probability"),
		internal("dce"),
		backend("machine-sink"),
		backend("machine-cfg-opt"),
		backend("block-placement"),
	}
	o2extra := []entry{
		mid("gvn"),
		mid("jump-threading"), clean,
		mid("dse"),
		mid("if-conversion"), clean,
		mid("loop-unroll"), clean,
		mid("tree-slp-vectorize"),
		mid("instcombine"),
		mid("dce"), clean,
		backend("schedule-insns2"),
	}
	switch level {
	case "O1":
		return base
	case "O2", "O3":
		out := append([]entry{}, base[:len(base)-3]...) // mid-end prefix
		out = append(out, o2extra...)
		out = append(out,
			mid("guess-branch-probability"),
			internal("dce"),
			backend("machine-sink"),
			backend("schedule-insns2"),
			backend("machine-cfg-opt"),
			backend("block-placement"),
		)
		return out
	}
	return nil
}

// Config is one concrete build configuration.
type Config struct {
	Profile Profile
	Level   string // O0, Og (gcc only), O1, O2, O3
	// Disabled lists pass toggles to skip, the Ox-dy mechanism.
	Disabled map[string]bool
	// ForProfiling mirrors -fdebug-info-for-profiling.
	ForProfiling bool
	// FDO, when set, enables AutoFDO: the sample profile steers the
	// inliner and replaces static branch probabilities before code
	// generation.
	FDO *autofdo.Profile
	// SalvageOverride forces the debug salvage policy independent of
	// the profile, for ablation studies of the gcc/clang divergence.
	SalvageOverride *bool
	// OptimisticOverride forces the location-range policy likewise.
	OptimisticOverride *bool
}

// Name renders "gcc-O2" or "clang-O1-d3"-style labels.
func (c Config) Name() string {
	s := fmt.Sprintf("%s-%s", c.Profile, c.Level)
	if len(c.Disabled) > 0 {
		s += fmt.Sprintf("-d%d", len(c.Disabled))
	}
	return s
}

// Fingerprint returns a content-addressed cache key covering everything
// that influences the build: profile, level, the sorted disabled set,
// and the flag/override fields. Unlike Name (which collapses every
// same-size disabled set to "-dN"), two configs share a fingerprint only
// if they produce identical binaries from identical IR. ok is false when
// the config carries an FDO profile, whose sample data has no stable
// identity — such builds must not be cached.
func (c Config) Fingerprint() (key string, ok bool) {
	if c.FDO != nil {
		return "", false
	}
	var sb strings.Builder
	sb.WriteString(string(c.Profile))
	sb.WriteByte('/')
	sb.WriteString(c.Level)
	if len(c.Disabled) > 0 {
		names := make([]string, 0, len(c.Disabled))
		for n, off := range c.Disabled {
			if off {
				names = append(names, n)
			}
		}
		sort.Strings(names)
		for _, n := range names {
			sb.WriteString("/-")
			sb.WriteString(n)
		}
	}
	if c.ForProfiling {
		sb.WriteString("/prof")
	}
	if c.SalvageOverride != nil {
		fmt.Fprintf(&sb, "/salvage=%t", *c.SalvageOverride)
	}
	if c.OptimisticOverride != nil {
		fmt.Fprintf(&sb, "/optimistic=%t", *c.OptimisticOverride)
	}
	return sb.String(), true
}

// EnabledPasses returns the distinct user-visible toggle names of a
// profile/level pipeline, in first-occurrence order, including gcc's
// group toggle. The slice is built once per process and shared by every
// caller, so it must not be modified; it is clipped, so an append to it
// copies.
func EnabledPasses(p Profile, level string) []string {
	return levelToggles[levelKey{p, level}]
}

// levelKey names one profile/level pipeline.
type levelKey struct {
	profile Profile
	level   string
}

// levelToggles holds EnabledPasses of every pipeline the profiles
// define. The pipeline tables are static, so the toggles are derived
// once, at start-up, instead of for every config NewConfig validates.
var levelToggles = func() map[levelKey][]string {
	m := map[levelKey][]string{}
	for _, p := range []Profile{GCC, Clang} {
		for _, level := range append([]string{"O0"}, Levels(p)...) {
			m[levelKey{p, level}] = slices.Clip(enabledPasses(p, level))
		}
	}
	return m
}()

// enabledPasses derives EnabledPasses from the pipeline table.
func enabledPasses(p Profile, level string) []string {
	var names []string
	seen := map[string]bool{}
	hasExpensive := false
	for _, e := range pipelines(p, level) {
		if e.internal || seen[e.name] {
			if e.expensive {
				hasExpensive = true
			}
			continue
		}
		if e.expensive {
			hasExpensive = true
		}
		seen[e.name] = true
		names = append(names, e.name)
	}
	if hasExpensive && p == GCC {
		names = append(names, "expensive-opts")
	}
	return names
}

// Frontend parses and checks a source file, returning the semantic info.
// Each call counts as pipeline.frontend, so a run's metrics show how
// many sources it front-ended.
func Frontend(name string, src []byte) (*sema.Info, error) {
	telemetry.Add("pipeline.frontend", 1)
	prog, err := parser.Parse(source.NewFile(name, src))
	if err != nil {
		return nil, err
	}
	return sema.Check(prog)
}

// BuildIR lowers checked source to the O0 IR.
func BuildIR(info *sema.Info) (*ir.Program, error) {
	return irbuild.Build(info)
}

// Build compiles O0 IR under the configuration. The input program is not
// modified: optimization runs on a private clone.
func Build(ir0 *ir.Program, cfg Config) *vm.Binary {
	var span *telemetry.Span
	if telemetry.Enabled() {
		span = telemetry.Begin("pipeline", "build/"+cfg.Name())
	}
	prog, opts := OptimizeIR(ir0, cfg)
	bin := codegen.Compile(prog, opts)
	span.End()
	return bin
}

// OptimizeIR runs the configuration's middle-end pipeline on a private
// clone and returns the optimized IR together with the back-end options
// the configuration implies. Exposed for tools that inspect IR
// (minicc -emit-ir).
func OptimizeIR(ir0 *ir.Program, cfg Config) (*ir.Program, codegen.Options) {
	return optimizeIR(ir0, cfg, nil)
}

// optimizeIR is OptimizeIR with an optional observation hook (see
// runPasses). The verify-each mode hangs the static analyzer there; a
// nil hook is the ordinary build path.
func optimizeIR(ir0 *ir.Program, cfg Config, hook func(label string, prog *ir.Program)) (*ir.Program, codegen.Options) {
	ctx := newContext(ir0.Clone(), cfg)
	runPasses(ctx, cfg, 0, nil, hook)
	return ctx.Prog, backendOptions(cfg, backendToggles(cfg))
}

// newContext is the pass context a build of cfg starts from, over prog.
func newContext(prog *ir.Program, cfg Config) *passes.Context {
	ctx := &passes.Context{
		Prog:    prog,
		Salvage: cfg.Profile == Clang,
	}
	if cfg.SalvageOverride != nil {
		ctx.Salvage = *cfg.SalvageOverride
	}
	if cfg.FDO != nil {
		ctx.SampleLines = cfg.FDO.LineSamples
		ctx.SampleMax = cfg.FDO.MaxLine()
	}
	if cfg.Level != "O0" {
		configureInliner(ctx, cfg)
	}
	return ctx
}

// runPasses is the middle end's one pass loop. It runs cfg's enabled
// middle-end entries from index from to the end of the pipeline on
// ctx.Prog, then applies the FDO profile. at, when set, sees the state
// ahead of every entry i >= from, run or skipped, and the final state
// (i == len(pipeline)) ahead of the FDO profile; ran reports whether
// entry i-1 ran. If at returns true the loop stops there, the FDO
// profile is not applied, and runPasses returns true. hook, when set,
// is called after every executed pass with the ledger-style label
// ("cleanup/<name>" for always-on runs) and the program in its
// post-pass state.
func runPasses(ctx *passes.Context, cfg Config, from int,
	at func(i int, ran bool) bool, hook func(label string, prog *ir.Program)) (stopped bool) {
	es := pipelines(cfg.Profile, cfg.Level)
	ran := false
	for i := from; i < len(es); i++ {
		if at != nil && at(i, ran) {
			return true
		}
		ran = false
		e := es[i]
		if e.backend || !e.enabled(cfg) {
			continue
		}
		p := passes.Lookup(e.name)
		if p == nil {
			panic(fmt.Sprintf("pipeline: unknown pass %q", e.name))
		}
		label := e.name
		if e.internal && telemetry.Enabled() {
			// Ledger attribution for always-on cleanup runs is kept
			// apart from the user-visible toggle of the same name.
			label = "cleanup/" + e.name
			ctx.RunLabel = label
		}
		ps := telemetry.Begin("pass", label)
		p.Run(ctx)
		ps.End()
		ctx.RunLabel = ""
		ran = true
		if hook != nil {
			hl := e.name
			if e.internal {
				hl = "cleanup/" + e.name
			}
			hook(hl, ctx.Prog)
		}
	}
	if at != nil && at(len(es), ran) {
		return true
	}
	if cfg.FDO != nil {
		autofdo.ApplyToIR(ctx.Prog, cfg.FDO)
	}
	return false
}

// enabled reports whether the entry runs under cfg: a disabled toggle
// removes all of its occurrences, "expensive-opts" removes every
// expensive entry, and always-on entries cannot be disabled by name.
func (e entry) enabled(cfg Config) bool {
	if !e.internal && cfg.Disabled[e.name] {
		return false
	}
	return !e.expensive || !cfg.Disabled["expensive-opts"]
}

// backendOptions returns cfg's code-generation options with the named
// back-end toggles enabled.
func backendOptions(cfg Config, toggles []string) codegen.Options {
	opts := codegen.Options{
		OptimisticRanges: cfg.Profile == GCC,
		ForProfiling:     cfg.ForProfiling,
	}
	if cfg.OptimisticOverride != nil {
		opts.OptimisticRanges = *cfg.OptimisticOverride
	}
	for _, name := range toggles {
		enableBackend(&opts, name)
	}
	return opts
}

// backendToggles returns the enabled backend toggle names of the
// configuration, in pipeline order.
func backendToggles(cfg Config) []string {
	var names []string
	for _, e := range pipelines(cfg.Profile, cfg.Level) {
		if e.backend && e.enabled(cfg) {
			names = append(names, e.name)
		}
	}
	return names
}

// configureInliner sets the Context inlining knobs for the level,
// honoring the fine-grained gcc toggles.
func configureInliner(ctx *passes.Context, cfg Config) {
	d := cfg.Disabled
	if cfg.Profile == Clang {
		switch cfg.Level {
		case "O1":
			ctx.InlineBudget = 40
		case "O2":
			ctx.InlineBudget = 80
			ctx.UnrollFactor = 2
		case "O3":
			ctx.InlineBudget = 140
			ctx.UnrollFactor = 4
		}
		ctx.UnitAtATime = true // clang is always unit-at-a-time
		return
	}
	switch cfg.Level {
	case "Og":
		ctx.InlineOnce = true
	case "O1":
		ctx.InlineOnce = !d["inline-fncs-called-once"]
	case "O2":
		ctx.InlineOnce = !d["inline-fncs-called-once"]
		ctx.InlineSmall = !d["inline-small-functions"]
		ctx.InlineGrowth = !d["inline-functions"]
		ctx.InlineBudget = 80
		ctx.UnrollFactor = 0
	case "O3":
		ctx.InlineOnce = !d["inline-fncs-called-once"]
		ctx.InlineSmall = !d["inline-small-functions"]
		ctx.InlineGrowth = !d["inline-functions"]
		ctx.InlineBudget = 140
		ctx.UnrollFactor = 2
	}
}

func enableBackend(opts *codegen.Options, name string) {
	// note records which toggle enabled a backend stage so telemetry
	// attributes the stage's damage to the profile's name for it
	// ("reorder-blocks" vs "block-placement"). Only allocated when a
	// sink is installed: the disabled path must stay allocation-free.
	note := func(stage string) {
		if !telemetry.Enabled() {
			return
		}
		if opts.PassNames == nil {
			opts.PassNames = map[string]string{}
		}
		opts.PassNames[stage] = name
	}
	switch name {
	case "tree-ter":
		opts.TER = true
	case "tree-coalesce-vars":
		opts.CoalesceVars = true
	case "schedule-insns2":
		opts.Schedule = true
		note("schedule")
	case "reorder-blocks", "block-placement":
		opts.Layout = true
		note("layout")
	case "crossjumping", "machine-cfg-opt":
		opts.CrossJump = true
		note("crossjump")
	case "shrink-wrap":
		opts.ShrinkWrap = true
		note("shrink-wrap")
	case "ira-share-spill-slots":
		opts.ShareSpillSlots = true
	case "machine-sink":
		opts.MachineSink = true
		note("machine-sink")
	default:
		panic(fmt.Sprintf("pipeline: unknown backend toggle %q", name))
	}
}

// DisplayName maps a registry toggle name to the name the paper's tables
// use for the profile.
func DisplayName(p Profile, name string) string {
	if p == Clang {
		switch name {
		case "inline":
			return "Inliner"
		case "sroa":
			return "SROA"
		case "simplifycfg":
			return "SimplifyCFG"
		case "instcombine":
			return "InstCombine"
		case "early-cse":
			return "EarlyCSE"
		case "gvn":
			return "GVN"
		case "jump-threading":
			return "JumpThreading"
		case "loop-rotate":
			return "LoopRotate"
		case "licm":
			return "LICM"
		case "loop-strength-reduce":
			return "LoopStrengthReduce"
		case "loop-unroll":
			return "LoopUnroll"
		case "dse":
			return "DSE"
		case "sccp":
			return "SCCP"
		case "machine-sink":
			return "Machine code sinking"
		case "machine-cfg-opt":
			return "Control Flow Optimizer"
		case "block-placement":
			return "Branch Prob BB Placement"
		case "tree-slp-vectorize":
			return "SLPVectorizer"
		}
	}
	return name
}

// IsBackend reports whether the toggle is annotated as a back-end pass
// ('*' in the paper's tables).
func IsBackend(name string) bool {
	if p := passes.Lookup(name); p != nil {
		return p.Backend
	}
	switch name {
	case "schedule-insns2", "reorder-blocks", "block-placement",
		"crossjumping", "machine-cfg-opt", "machine-sink", "shrink-wrap",
		"ira-share-spill-slots", "tree-ter", "tree-coalesce-vars":
		return true
	}
	return false
}

// CompileSource is the one-call convenience: source to binary.
func CompileSource(name string, src []byte, cfg Config) (*vm.Binary, *sema.Info, error) {
	info, err := Frontend(name, src)
	if err != nil {
		return nil, nil, err
	}
	ir0, err := BuildIR(info)
	if err != nil {
		return nil, nil, err
	}
	return Build(ir0, cfg), info, nil
}
