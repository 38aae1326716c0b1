package difftest

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"

	"debugtuner/internal/evalcache"
	"debugtuner/internal/ir"
	"debugtuner/internal/pipeline"
	"debugtuner/internal/resilience"
	"debugtuner/internal/sema"
	"debugtuner/internal/synth"
	"debugtuner/internal/telemetry"
	"debugtuner/internal/vm"
)

// Subject is one program under differential test: a MiniC source plus
// the run protocol (harnesses with input vectors, or a zero-argument
// entry point).
type Subject struct {
	Name string
	Src  []byte
	// Harnesses to drive with Inputs; empty means run Entry once.
	Harnesses []string
	Inputs    map[string][][]int64
	// Entry is the zero-argument entry point ("main" when empty).
	Entry string

	feOnce sync.Once
	feErr  error
	info   *sema.Info
	ir0    *ir.Program
}

// SynthSubject wraps a generated program (deterministic per seed) as a
// subject. Synth programs print their state, so the print stream carries
// the whole observable behavior.
func SynthSubject(seed int64) *Subject {
	return &Subject{
		Name: fmt.Sprintf("synth-%04d", seed),
		Src:  []byte(synth.Generate(seed, synth.DefaultOptions())),
	}
}

// SourceSubject wraps an arbitrary MiniC source (reducer fixtures).
func SourceSubject(name string, src []byte) *Subject {
	return &Subject{Name: name, Src: src}
}

// frontend parses, checks, and lowers the subject once; the O0 IR is
// shared across configurations (pipeline.Build clones before mutating).
func (s *Subject) frontend() (*ir.Program, *sema.Info, error) {
	s.feOnce.Do(func() {
		info, err := pipeline.Frontend(s.Name+".mc", s.Src)
		if err != nil {
			s.feErr = err
			return
		}
		ir0, err := pipeline.BuildIR(info)
		if err != nil {
			s.feErr = err
			return
		}
		s.info, s.ir0 = info, ir0
	})
	return s.ir0, s.info, s.feErr
}

func (s *Subject) entry() string {
	if s.Entry != "" {
		return s.Entry
	}
	return "main"
}

// Finding kinds.
const (
	// KindBehavior is an observable-behavior divergence from the O0
	// reference (output stream, return value, or termination).
	KindBehavior = "behavior"
	// KindInvariant is a malformed-debug-info finding.
	KindInvariant = "invariant"
	// KindReference is a divergence between the O0 build and the IR
	// interpreter — the reference itself is not trustworthy.
	KindReference = "reference"
	// KindQuarantine is a cell the resilience layer quarantined because
	// it panicked or failed: the comparison did not run, and the report
	// says so explicitly instead of leaving a silently-passing hole.
	KindQuarantine = "quarantine"
)

// Finding is one oracle result.
type Finding struct {
	Subject string
	Config  string
	Kind    string
	Detail  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s [%s] %s: %s", f.Subject, f.Config, f.Kind, f.Detail)
}

// Observation is the observable behavior of a subject under one binary:
// the print stream, per-run return values, and whether any run exhausted
// the step budget (runs stop at the first exhaustion, so Output is the
// observable prefix up to that point).
type Observation struct {
	Output []int64
	Rets   []int64
	Budget bool
}

// caseResult is one (subject, config) evaluation. Raw observations are
// never stored: the store holds a subject's findings.
type caseResult struct {
	Obs        Observation
	Violations []string
}

// Oracle drives subjects through a configuration matrix.
type Oracle struct {
	Configs []pipeline.Config
	// Budget is the per-run VM step budget.
	Budget int64
	// TraceBudget is the step budget for the (slower) debug-trace
	// session behind the dynamic invariant check.
	TraceBudget int64

	// units holds each subject's findings over the whole matrix:
	// CheckContext's unit of work, the unit an interrupt stops between,
	// and, in an oracle from NewOracle, what a rerun reads back from the
	// process store.
	units evalcache.Cache[subjectUnit, []Finding]
}

// NewOracle returns an oracle over the configuration set with the
// default budgets, its subject units kept in the process store.
func NewOracle(configs []pipeline.Config) *Oracle {
	return &Oracle{
		Configs:     configs,
		Budget:      DefaultBudget,
		TraceBudget: DefaultTraceBudget,
		units:       evalcache.Cache[subjectUnit, []Finding]{Namespace: "difftest"},
	}
}

// subjectUnit declares every input of one subject's findings over the
// matrix. The O0 reference and the checks are code, which the store's
// tool hash covers.
type subjectUnit struct {
	Name        string // findings carry it
	Src         uint64 // source hash
	Inputs      uint64 // harness order, input vectors and entry point
	Matrix      uint64 // label and fingerprint of every config, in order
	Budget      int64
	TraceBudget int64
}

// matrixDigest hashes the configs' labels and fingerprints, in order.
func (o *Oracle) matrixDigest() uint64 {
	parts := make([]string, 0, 2*len(o.Configs))
	for _, cfg := range o.Configs {
		parts = append(parts, configLabel(cfg), cfg.Fingerprint())
	}
	return resilience.HashString(parts...)
}

// unit declares subject s's unit under the oracle's current settings.
func (o *Oracle) unit(s *Subject, matrix uint64) subjectUnit {
	// Marshal cannot fail on strings and integers; it sorts map keys.
	in, _ := json.Marshal([]any{s.Harnesses, s.Inputs, s.entry()})
	return subjectUnit{
		Name: s.Name, Src: resilience.HashBytes(s.Src), Inputs: resilience.HashBytes(in),
		Matrix: matrix, Budget: o.Budget, TraceBudget: o.TraceBudget,
	}
}

// CheckSubject evaluates one subject under every configuration and
// returns its findings in matrix order. The error path is reserved for
// harness failures (front-end errors on a subject that must compile).
func (o *Oracle) CheckSubject(s *Subject) ([]Finding, error) {
	span := telemetry.Begin("difftest", "subject/"+s.Name)
	defer span.End()

	ir0, _, err := s.frontend()
	if err != nil {
		return nil, fmt.Errorf("difftest: subject %s: %w", s.Name, err)
	}

	var findings []Finding
	// Reference: the O0 build, itself cross-checked against the IR
	// interpreter so a codegen bug at O0 cannot become the baseline.
	refCfg := pipeline.MustConfig(pipeline.GCC, "O0")
	ref, err := o.observe(s, refCfg)
	if resilience.IsQuarantined(err) {
		// Without a reference every comparison for this subject is
		// meaningless: report one explicit gap covering the whole subject
		// and skip its matrix rather than diffing against garbage.
		return []Finding{{
			Subject: s.Name, Config: refCfg.Name(), Kind: KindQuarantine,
			Detail: "O0 reference quarantined, subject skipped: " + err.Error(),
		}}, nil
	}
	if err != nil {
		return nil, err
	}
	interp := o.interpret(s, ir0)
	if d := compareObs(interp, ref.Obs); d != "" {
		findings = append(findings, Finding{
			Subject: s.Name, Config: refCfg.Name(), Kind: KindReference,
			Detail: "O0 build vs IR interpreter: " + d,
		})
	}
	for _, vio := range ref.Violations {
		findings = append(findings, Finding{
			Subject: s.Name, Config: refCfg.Name(), Kind: KindInvariant, Detail: vio,
		})
	}

	for _, cfg := range o.Configs {
		res, err := o.observe(s, cfg)
		if resilience.IsQuarantined(err) {
			findings = append(findings, Finding{
				Subject: s.Name, Config: configLabel(cfg), Kind: KindQuarantine,
				Detail: "cell quarantined: " + err.Error(),
			})
			continue
		}
		if err != nil {
			return nil, err
		}
		if d := compareObs(ref.Obs, res.Obs); d != "" {
			telemetry.Add("difftest.mismatch", 1)
			findings = append(findings, Finding{
				Subject: s.Name, Config: configLabel(cfg), Kind: KindBehavior, Detail: d,
			})
		}
		for _, vio := range res.Violations {
			telemetry.Add("difftest.violation", 1)
			findings = append(findings, Finding{
				Subject: s.Name, Config: configLabel(cfg), Kind: KindInvariant, Detail: vio,
			})
		}
	}
	return findings, nil
}

// DiffOne evaluates the subject under a single configuration against
// the O0 reference, returning the findings (nil when clean).
func (o *Oracle) DiffOne(s *Subject, cfg pipeline.Config) ([]Finding, error) {
	saved := o.Configs
	o.Configs = []pipeline.Config{cfg}
	findings, err := o.CheckSubject(s)
	o.Configs = saved
	return findings, err
}

// observe builds the subject under the configuration, runs it and
// checks the binary's debug information, as one resilience cell that
// quarantines on a panic or an error.
func (o *Oracle) observe(s *Subject, cfg pipeline.Config) (*caseResult, error) {
	return resilience.Run(context.Background(), cellKey(s, cfg.Fingerprint()),
		func(context.Context) (*caseResult, error) {
			ir0, _, err := s.frontend()
			if err != nil {
				return nil, err
			}
			bin := pipeline.Build(ir0, cfg)
			res := &caseResult{Obs: o.execute(s, bin), Violations: CheckBinary(bin)}
			res.Violations = append(res.Violations, o.checkDynamic(s, bin)...)
			return res, nil
		})
}

// cellKey is the quarantine key of one (subject, config) cell: subject
// name and source hash × config fingerprint. The chaos schedule is a
// function of it, so it is stable across processes.
func cellKey(s *Subject, fp string) string {
	return fmt.Sprintf("difftest|%s#%016x|%s", s.Name, resilience.HashBytes(s.Src), fp)
}

// execute runs the subject's protocol on a fresh VM per input, matching
// the fuzzer's execution model, and collects the observable behavior.
func (o *Oracle) execute(s *Subject, bin *vm.Binary) Observation {
	var obs Observation
	run := func(name string, args ...int64) bool {
		m := vm.New(bin)
		m.StepBudget = o.Budget
		ret, err := m.Call(name, args...)
		obs.Output = append(obs.Output, m.Output()...)
		if errors.Is(err, vm.ErrBudget) {
			obs.Budget = true
			return false
		}
		// Other errors cannot occur on well-formed binaries; encode
		// defensively as a budget-class stop so the comparison flags it.
		if err != nil {
			obs.Budget = true
			return false
		}
		obs.Rets = append(obs.Rets, ret)
		return true
	}
	if len(s.Harnesses) == 0 {
		run(s.entry())
		return obs
	}
	for _, h := range s.Harnesses {
		for _, in := range s.Inputs[h] {
			m := vm.New(bin)
			m.StepBudget = o.Budget
			hd := m.NewArray(in)
			ret, err := m.Call(h, hd, int64(len(in)))
			obs.Output = append(obs.Output, m.Output()...)
			if err != nil {
				obs.Budget = true
				return obs
			}
			obs.Rets = append(obs.Rets, ret)
		}
	}
	return obs
}

// interpret runs the same protocol on the IR interpreter.
func (o *Oracle) interpret(s *Subject, prog *ir.Program) Observation {
	var obs Observation
	if len(s.Harnesses) == 0 {
		in := ir.NewInterp(prog, o.Budget)
		ret, err := in.Call(s.entry())
		obs.Output = append(obs.Output, in.Output()...)
		if err != nil {
			obs.Budget = true
		} else {
			obs.Rets = append(obs.Rets, ret)
		}
		return obs
	}
	for _, h := range s.Harnesses {
		for _, input := range s.Inputs[h] {
			in := ir.NewInterp(prog, o.Budget)
			hd := in.NewArray(input)
			ret, err := in.Call(h, hd, int64(len(input)))
			obs.Output = append(obs.Output, in.Output()...)
			if err != nil {
				obs.Budget = true
				return obs
			}
			obs.Rets = append(obs.Rets, ret)
		}
	}
	return obs
}

// compareObs cross-checks an observation against the reference. A run
// that exhausted its budget is compared on its observable prefix: the
// partial output must be a prefix of the completed run's output. Two
// completed runs must agree exactly on outputs and return values.
func compareObs(ref, got Observation) string {
	switch {
	case !ref.Budget && !got.Budget:
		if d := diffStream("output", ref.Output, got.Output); d != "" {
			return d
		}
		if d := diffStream("return", ref.Rets, got.Rets); d != "" {
			return d
		}
	case ref.Budget && !got.Budget:
		if d := prefixOf(ref.Output, got.Output); d != "" {
			return "reference budget-bounded; " + d
		}
	case !ref.Budget && got.Budget:
		// The reference terminated: a variant that does not is a
		// termination divergence unless its partial output is still a
		// prefix of the reference's (then report only the hang).
		if d := prefixOf(got.Output, ref.Output); d != "" {
			return "termination: variant exhausted step budget; " + d
		}
		return "termination: variant exhausted step budget (reference terminated)"
	default:
		n := len(ref.Output)
		if len(got.Output) < n {
			n = len(got.Output)
		}
		if d := diffStream("output(prefix)", ref.Output[:n], got.Output[:n]); d != "" {
			return d
		}
	}
	return ""
}

// diffStream reports the first position where two int64 streams differ.
func diffStream(what string, a, b []int64) string {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return fmt.Sprintf("%s[%d]: reference %d, got %d", what, i, a[i], b[i])
		}
	}
	if len(a) != len(b) {
		return fmt.Sprintf("%s length: reference %d, got %d", what, len(a), len(b))
	}
	return ""
}

// prefixOf checks that partial is a prefix of full.
func prefixOf(partial, full []int64) string {
	if len(partial) > len(full) {
		return fmt.Sprintf("partial output longer than completed run (%d > %d)",
			len(partial), len(full))
	}
	for i, v := range partial {
		if full[i] != v {
			return fmt.Sprintf("output[%d]: partial %d, completed %d", i, v, full[i])
		}
	}
	return ""
}

// ConfigLabel renders the unambiguous configuration label findings
// carry in their Config field — exported so campaign drivers can map
// labels back to configurations and parse the disabled-toggle suffix.
func ConfigLabel(cfg pipeline.Config) string { return configLabel(cfg) }

// ParseConfigLabel inverts ConfigLabel: "gcc-O2!licm!dse" becomes the
// gcc O2 configuration with licm and dse disabled.
func ParseConfigLabel(label string) (pipeline.Config, error) {
	parts := strings.Split(label, "!")
	profile, level, ok := strings.Cut(parts[0], "-")
	if !ok {
		var zero pipeline.Config
		return zero, fmt.Errorf("difftest: bad config label %q", label)
	}
	var opts []pipeline.Option
	if len(parts) > 1 {
		opts = append(opts, pipeline.Disable(parts[1:]...))
	}
	return pipeline.NewConfig(pipeline.Profile(profile), level, opts...)
}

// configLabel renders an unambiguous configuration label: unlike
// Config.Name (which collapses every disabled set to "-dN"), the label
// spells out the disabled toggles, so findings are actionable.
func configLabel(cfg pipeline.Config) string {
	s := fmt.Sprintf("%s-%s", cfg.Profile, cfg.Level)
	if len(cfg.Disabled) > 0 {
		var names []string
		for n, off := range cfg.Disabled {
			if off {
				names = append(names, n)
			}
		}
		sort.Strings(names)
		s += "!" + strings.Join(names, "!")
	}
	return s
}

// Matrix builds the full differential configuration matrix: for every
// profile and level, the plain level plus one variant per single
// disabled toggle (including gcc's expensive-opts group toggle and the
// fine-grained called-once inliner knob where the level defines it).
func Matrix() []pipeline.Config {
	var out []pipeline.Config
	for _, p := range []pipeline.Profile{pipeline.GCC, pipeline.Clang} {
		for _, level := range pipeline.Levels(p) {
			out = append(out, levelMatrix(p, level)...)
		}
	}
	return out
}

// levelMatrix is the plain level plus its single-toggle variants.
func levelMatrix(p pipeline.Profile, level string) []pipeline.Config {
	out := []pipeline.Config{pipeline.MustConfig(p, level)}
	toggles := pipeline.EnabledPasses(p, level)
	if p == pipeline.GCC && level != "Og" {
		toggles = append(toggles, "inline-fncs-called-once")
	}
	for _, name := range toggles {
		out = append(out, pipeline.MustConfig(p, level, pipeline.Disable(name)))
	}
	return out
}

// ParseMatrix resolves a -configs spec:
//
//	"" or "full"  the complete matrix (Matrix)
//	"levels"      both profiles x all levels, no toggles
//	otherwise     comma-separated items: "gcc-O2" for one config,
//	              "gcc-O2*" for the level plus its single-toggle variants
func ParseMatrix(spec string) ([]pipeline.Config, error) {
	switch spec {
	case "", "full":
		return Matrix(), nil
	case "levels":
		var out []pipeline.Config
		for _, p := range []pipeline.Profile{pipeline.GCC, pipeline.Clang} {
			for _, level := range pipeline.Levels(p) {
				out = append(out, pipeline.MustConfig(p, level))
			}
		}
		return out, nil
	}
	var out []pipeline.Config
	for _, item := range strings.Split(spec, ",") {
		item = strings.TrimSpace(item)
		expand := strings.HasSuffix(item, "*")
		item = strings.TrimSuffix(item, "*")
		profile, level, ok := strings.Cut(item, "-")
		if !ok {
			return nil, fmt.Errorf("difftest: bad config spec %q (want profile-level)", item)
		}
		if expand {
			if !validLevel(pipeline.Profile(profile), level) {
				return nil, fmt.Errorf("difftest: unknown config %q", item)
			}
			out = append(out, levelMatrix(pipeline.Profile(profile), level)...)
			continue
		}
		cfg, err := pipeline.NewConfig(pipeline.Profile(profile), level)
		if err != nil {
			return nil, err
		}
		out = append(out, cfg)
	}
	return out, nil
}

func validLevel(p pipeline.Profile, level string) bool {
	for _, l := range pipeline.Levels(p) {
		if l == level {
			return true
		}
	}
	return false
}
