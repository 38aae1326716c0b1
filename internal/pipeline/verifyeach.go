package pipeline

import (
	"math"

	"debugtuner/internal/codegen"
	"debugtuner/internal/ir"
	"debugtuner/internal/staticdbg"
	"debugtuner/internal/vm"
)

// VerifyStep is one verified pipeline step: a middle-end pass run (with
// its ledger-style label) or a back-end stage. Losses are deltas against
// the previous step's survival, so each step is charged only for what it
// destroyed; a negative loss means the step re-materialized baseline
// metadata (e.g. unrolling duplicating attributed code).
type VerifyStep struct {
	Label   string
	Backend bool
	// VerifyErr is the ir.Verify structural failure after the pass, "".
	VerifyErr string
	// NewViolations are analyzer findings absent before this step.
	NewViolations []staticdbg.Violation
	LinesLost     int
	VarsLost      int
	// InstrDelta is the step's code growth (IR instructions for
	// middle-end steps, machine instructions for back-end ones),
	// dbg.values excluded — the churn term of the damage score.
	InstrDelta int
}

// VerifyReport is the outcome of one verified build.
type VerifyReport struct {
	// Total is the baseline size (the 100% mark).
	Total staticdbg.Survival
	// InitialViolations are analyzer findings on the input module —
	// front-end debt, not attributable to any pass.
	InitialViolations []staticdbg.Violation
	Steps             []VerifyStep
	// FinalIR is survival after the last middle-end pass; Final is
	// survival in the emitted debug section.
	FinalIR staticdbg.Survival
	Final   staticdbg.Survival
	// Bin is the built binary. It is never encoded: a stored report
	// (experiments debugify) is read back without it.
	Bin *vm.Binary `json:"-"`
}

// Violations returns every violation the build introduced, in step
// order (initial front-end findings first).
func (r *VerifyReport) Violations() []staticdbg.Violation {
	out := append([]staticdbg.Violation{}, r.InitialViolations...)
	for _, st := range r.Steps {
		out = append(out, st.NewViolations...)
	}
	return out
}

// VerifyErrs returns the structural ir.Verify failures with their step
// labels, in step order.
func (r *VerifyReport) VerifyErrs() []string {
	var out []string
	for _, st := range r.Steps {
		if st.VerifyErr != "" {
			out = append(out, st.Label+": "+st.VerifyErr)
		}
	}
	return out
}

// BuildVerified compiles like Build but runs ir.Verify plus the
// staticdbg analyzer after every middle-end pass and back-end stage,
// attributing each new violation and each metadata loss to the step
// that introduced it. With debugify set the build runs on a debugified
// clone (synthetic 100% baseline, see staticdbg.Inject); otherwise the
// module's real front-end metadata is the baseline.
//
// Back-end stages cannot be observed mid-flight (one Compile call runs
// them all), so they are attributed by prefix compilation: the final IR
// is compiled once per enabled backend toggle, each compile enabling one
// more toggle in pipeline order, and successive debug sections are
// diffed. The always-on remainder (lowering, register allocation,
// emission) is the "codegen" step. The extra compiles are the price of
// attribution and scale with the handful of backend toggles, not with
// program size; Build's output is bit-identical to the last prefix.
//
// Verify-each is deliberately a separate entry point rather than a
// Config field: Config fingerprints cache binaries, and a verification
// mode must never alias or split cache entries.
func BuildVerified(ir0 *ir.Program, cfg Config, debugify bool) *VerifyReport {
	return BuildVerifiedTamper(ir0, cfg, debugify, nil)
}

// BuildVerifiedTamper is BuildVerified with a tamper hook invoked after
// each middle-end pass runs and before the analyzer measures that step,
// receiving the pass label and the live module. It exists for the hunt
// campaign's planted-bug drills: a tamper that corrupts metadata after
// pass P is caught by the very next analyzer run and attributed to P,
// exactly as a real bug in P would be — an end-to-end self-test of the
// attribution machinery. A nil tamper is BuildVerified.
func BuildVerifiedTamper(ir0 *ir.Program, cfg Config, debugify bool,
	tamper func(label string, prog *ir.Program)) *VerifyReport {
	work := ir0
	var bl *staticdbg.Baseline
	if debugify {
		work, bl = staticdbg.Inject(ir0)
	} else {
		bl = staticdbg.Capture(ir0)
	}
	rep := &VerifyReport{Total: bl.Total()}
	rep.InitialViolations = staticdbg.CheckModule(work)
	prevSet := violSet(rep.InitialViolations)
	prevSurv := bl.MeasureIR(work)
	prevInstrs := countInstrs(work)

	// Mid-chain binary attribution: the flow-sensitive rules (loc-stale,
	// line-unreachable) only exist at the binary level, so a middle-end
	// pass that corrupts metadata in a way only those rules catch would
	// otherwise be invisible until the backend prefix compiles — and the
	// "codegen" base step would take the blame. After each pass that
	// actually changed the module (gated by a cheap structural
	// fingerprint: an unchanged module compiles to the same binary), the
	// live IR is compiled once at base options — Compile leaves it
	// untouched — and only the flow-sensitive rules run on the binary;
	// their findings are diffed against the previous compile's. The
	// input module's own compile seeds the set, so pre-existing debt
	// charges to the front-end bucket, and the backend chain below
	// starts from the mid-chain's final set rather than empty.
	baseOpts := backendOptions(cfg, nil)
	lastFP := irFingerprint(work)
	midSet := map[string]bool{}
	for _, v := range dataflowRules(staticdbg.CheckBinaryDataflow(codegen.Compile(work, baseOpts))) {
		midSet[v.String()] = true
		rep.InitialViolations = append(rep.InitialViolations, v)
	}

	hook := func(label string, prog *ir.Program) {
		if tamper != nil {
			tamper(label, prog)
		}
		st := VerifyStep{Label: label}
		if err := ir.VerifyProgram(prog); err != nil {
			st.VerifyErr = err.Error()
		}
		vs := staticdbg.CheckModule(prog)
		for _, v := range vs {
			if !prevSet[v.String()] {
				st.NewViolations = append(st.NewViolations, v)
			}
		}
		prevSet = violSet(vs)
		if fp := irFingerprint(prog); fp != lastFP {
			lastFP = fp
			dfv := dataflowRules(staticdbg.CheckBinaryDataflow(codegen.Compile(prog, baseOpts)))
			for _, v := range dfv {
				if !midSet[v.String()] {
					st.NewViolations = append(st.NewViolations, v)
				}
			}
			midSet = violSet(dfv)
		}
		surv := bl.MeasureIR(prog)
		st.LinesLost = prevSurv.Lines - surv.Lines
		st.VarsLost = prevSurv.Vars - surv.Vars
		prevSurv = surv
		n := countInstrs(prog)
		st.InstrDelta = n - prevInstrs
		prevInstrs = n
		rep.Steps = append(rep.Steps, st)
	}
	prog, _ := optimizeIR(work, cfg, hook)
	rep.FinalIR = prevSurv

	// Back-end attribution by prefix compilation. Binary-level findings
	// start from an empty set: the "codegen" base step owns everything
	// the always-on stages introduce.
	toggles := backendToggles(cfg)
	binPrevSet := make(map[string]bool, len(midSet))
	for s := range midSet {
		binPrevSet[s] = true
	}
	binPrevSurv := prevSurv
	binPrevCode := 0
	bin := codegen.Compile(prog, baseOpts)
	step := backendStep("codegen", bl, bin, &binPrevSet, &binPrevSurv, &binPrevCode)
	step.InstrDelta = 0 // lowering expansion is not churn
	rep.Steps = append(rep.Steps, step)
	for i := range toggles {
		bin = codegen.Compile(prog, backendOptions(cfg, toggles[:i+1]))
		rep.Steps = append(rep.Steps,
			backendStep(toggles[i], bl, bin, &binPrevSet, &binPrevSurv, &binPrevCode))
	}
	rep.Final = bl.MeasureBinary(bin)
	rep.Bin = bin
	return rep
}

// backendStep diffs one prefix compile against the previous one.
func backendStep(label string, bl *staticdbg.Baseline, bin *vm.Binary,
	prevSet *map[string]bool, prevSurv *staticdbg.Survival, prevCode *int) VerifyStep {
	st := VerifyStep{Label: label, Backend: true}
	vs := staticdbg.CheckBinary(bin)
	for _, v := range vs {
		// Advisories (loc-extendable) are range-improvement hints; a
		// prefix compile's shorter-than-provable range is not damage to
		// charge a stage with.
		if !v.Rule.Advisory() && !(*prevSet)[v.String()] {
			st.NewViolations = append(st.NewViolations, v)
		}
	}
	*prevSet = violSet(vs)
	surv := bl.MeasureBinary(bin)
	st.LinesLost = prevSurv.Lines - surv.Lines
	st.VarsLost = prevSurv.Vars - surv.Vars
	*prevSurv = surv
	st.InstrDelta = len(bin.Code) - *prevCode
	*prevCode = len(bin.Code)
	return st
}

// dataflowRules keeps only the flow-sensitive non-advisory binary
// rules — the ones mid-chain attribution compiles for. Structural rules
// are left to the backend prefix diff, where they originate.
func dataflowRules(vs []staticdbg.Violation) []staticdbg.Violation {
	var out []staticdbg.Violation
	for _, v := range vs {
		if v.Rule == staticdbg.RuleLocStale || v.Rule == staticdbg.RuleLineUnreachable {
			out = append(out, v)
		}
	}
	return out
}

// irFingerprint hashes the module structure that codegen consumes —
// function shapes, block order, edges and frequencies, each value's op,
// operands, line, and bound variable. Two modules with equal
// fingerprints compile to the same base-options binary, so the
// mid-chain attribution loop skips recompiling after passes that
// changed nothing (analysis-only passes, no-op cleanups). Block
// frequencies are included because the always-on register allocator
// weights its spill choice by them; a pass that only re-estimates them
// (guess-branch-probability) can change the base binary. Branch
// probabilities are excluded: only the optional block placement reads
// them, and base options leave it off.
func irFingerprint(prog *ir.Program) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(x uint64) {
		h ^= x
		h *= prime64
	}
	mixInt := func(x int64) { mix(uint64(x)) }
	mixStr := func(s string) {
		for i := 0; i < len(s); i++ {
			mix(uint64(s[i]))
		}
		mix(0xff)
	}
	for _, g := range prog.Globals {
		mixStr(g.Name)
		mixInt(g.Init)
		if g.IsArray {
			mix(1)
		}
	}
	for _, f := range prog.Funcs {
		mixStr(f.Name)
		mixInt(int64(f.NParams))
		mixInt(int64(f.NumSlots))
		for _, b := range f.Blocks {
			mixInt(int64(b.ID))
			mix(math.Float64bits(b.Freq))
			for _, s := range b.Succs {
				mixInt(int64(s.ID))
			}
			for _, v := range b.Instrs {
				mixInt(int64(v.Op))
				mixInt(int64(v.ID))
				mixInt(v.AuxInt)
				mixInt(int64(v.Line))
				mixStr(v.Aux)
				if v.Var != nil {
					mixInt(int64(v.Var.ID))
				}
				for _, a := range v.Args {
					if a != nil {
						mixInt(int64(a.ID))
					} else {
						mix(0xfe)
					}
				}
			}
		}
	}
	return h
}

func violSet(vs []staticdbg.Violation) map[string]bool {
	m := make(map[string]bool, len(vs))
	for _, v := range vs {
		m[v.String()] = true
	}
	return m
}

func countInstrs(prog *ir.Program) int {
	n := 0
	for _, f := range prog.Funcs {
		for _, b := range f.Blocks {
			for _, v := range b.Instrs {
				if v.Op != ir.OpDbgValue {
					n++
				}
			}
		}
	}
	return n
}
