package hunt

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"debugtuner/internal/dbgtrace"
	"debugtuner/internal/debugger"
	"debugtuner/internal/debuginfo"
	"debugtuner/internal/difftest"
	"debugtuner/internal/evalcache"
	"debugtuner/internal/ir"
	"debugtuner/internal/metrics"
	"debugtuner/internal/pipeline"
	"debugtuner/internal/resilience"
	"debugtuner/internal/sema"
	"debugtuner/internal/staticdbg"
	"debugtuner/internal/synth"
	"debugtuner/internal/telemetry"
)

// huntTraceBudget bounds the O0 baseline trace behind the stepped-o0
// denominator; synthetic candidates finish well inside it.
const huntTraceBudget int64 = 1 << 24

// candidate is one generated program of the campaign.
type candidate struct {
	Name string
	Src  []byte
}

// generate derives one epoch's candidates from the campaign seed: even
// indices are plain default-profile programs (coverage floor), odd
// indices are mutated under the feedback weights (directed search).
// Everything is a pure function of (campaign fingerprint, epoch, index,
// weights), so a resumed or re-rendered run regenerates the exact set.
func (c *campaign) generate(epoch int, w synth.Weights) []candidate {
	out := make([]candidate, 0, c.opts.Candidates)
	for i := 0; i < c.opts.Candidates; i++ {
		sub := int64(resilience.HashString(c.fp, "cand",
			fmt.Sprint(epoch), fmt.Sprint(i)) >> 1)
		prof := synth.DefaultOptions()
		if i%2 == 1 {
			prof = synth.Mutate(rand.New(rand.NewSource(sub)), prof, w)
		}
		out = append(out, candidate{
			Name: fmt.Sprintf("hunt-e%dc%02d", epoch, i),
			Src:  []byte(synth.Generate(sub, prof)),
		})
	}
	return out
}

// weightsFor is the current feedback signal: the calibration baseline
// plus a boost per known bucket's pass family (state buckets and the
// ones this run already found). Deterministic on a rerun because stored
// cells reproduce earlier epochs' buckets exactly.
func (c *campaign) weightsFor() synth.Weights {
	w := c.base
	boost := func(pass string) {
		const step, cap = 0.5, 3.0
		switch passFamily(pass) {
		case "loops":
			if w.Loops < cap {
				w.Loops += step
			}
		case "calls":
			if w.Calls < cap {
				w.Calls += step
			}
		case "vars":
			if w.Vars < cap {
				w.Vars += step
			}
		default:
			if w.Exprs < cap {
				w.Exprs += step
			}
		}
	}
	var passes []string
	for key := range c.state.Buckets {
		if _, pass, ok := strings.Cut(key, "@"); ok {
			passes = append(passes, pass)
		}
	}
	for _, key := range c.order {
		passes = append(passes, c.buckets[key].Pass)
	}
	sort.Strings(passes)
	for _, p := range passes {
		boost(p)
	}
	return w
}

// calibrate builds a few fixed synthetic programs under the primary
// config with a scoped telemetry sink and turns the damage ledger into
// family weights: families whose passes dropped bindings or zeroed
// lines get proportionally more generation effort. Only count fields
// are read — wall-clock would make the weights (and so the whole
// campaign) nondeterministic.
func calibrate(primary pipeline.Config) synth.Weights {
	snk := telemetry.NewSink()
	prev := telemetry.Install(snk)
	for seed := int64(101); seed <= 103; seed++ {
		src := []byte(synth.Generate(seed, synth.DefaultOptions()))
		if ir0, _, err := frontendIR("calib.mc", src); err == nil {
			pipeline.Build(ir0, primary)
		}
	}
	telemetry.Install(prev)

	fam := map[string]int64{}
	var total int64
	for pass, d := range snk.DamageByPass() {
		score := d.DbgDropped + d.LinesZeroed
		fam[passFamily(pass)] += score
		total += score
	}
	w := synth.Neutral()
	if total == 0 {
		return w
	}
	scale := func(s int64) float64 { return 1 + 2*float64(s)/float64(total) }
	w.Loops = scale(fam["loops"])
	w.Calls = scale(fam["calls"])
	w.Vars = scale(fam["vars"])
	w.Exprs = scale(fam["exprs"])
	return w
}

// passFamily maps a pass (or step label) to the synth construct family
// its transformations feed on.
func passFamily(pass string) string {
	p := strings.TrimPrefix(pass, "cleanup/")
	switch {
	case strings.Contains(p, "loop"), strings.Contains(p, "unroll"),
		strings.Contains(p, "licm"), p == "tree-ch", p == "gvn":
		return "loops"
	case strings.Contains(p, "inline"), strings.Contains(p, "ipa"):
		return "calls"
	case strings.Contains(p, "dse"), strings.Contains(p, "dce"),
		strings.Contains(p, "sink"), strings.Contains(p, "ter"),
		strings.Contains(p, "coalesce"), strings.Contains(p, "spill"),
		strings.Contains(p, "shrink"), strings.Contains(p, "reg"):
		return "vars"
	default:
		return "exprs"
	}
}

// cellFinding is one attributed finding; fields are exported so the
// store round-trips the cell result through JSON.
type cellFinding struct {
	Rule   string
	Pass   string
	Config string
	Kind   string
	Detail string
}

// cellResult is one candidate's stored evaluation. Scored marks a
// completed measurement: quarantined and frontend-failed cells carry no
// score, and folding their zero into the geomean would zero it.
type cellResult struct {
	Name     string
	Findings []cellFinding
	Score    float64
	Scored   bool
}

// candidateKey declares every input of one stored candidate
// evaluation. The campaign fingerprint covers the matrix, the primary
// config, the denominator and the plant.
type candidateKey struct {
	Name     string // findings and the witness carry it
	Src      uint64 // source hash
	Campaign string
}

// String is the candidate's quarantine key.
func (k candidateKey) String() string {
	return fmt.Sprintf("hunt|%s#%016x|%s", k.Name, k.Src, k.Campaign)
}

// runCell evaluates one candidate as a resilience cell, kept in the
// store and — when the candidate is pathological — retried, timed out,
// and finally quarantined into an explicit bucket entry instead of
// killing the run. A result with a quarantine in it (an outer one, or
// one inside the differential oracle) is never stored.
func (c *campaign) runCell(cand candidate) (*cellResult, error) {
	key := candidateKey{Name: cand.Name, Src: resilience.HashBytes(cand.Src), Campaign: c.fp}
	res, err := c.cells.Do(key, func() (*cellResult, error) {
		res, err := resilience.Run(c.ex, context.Background(), key.String(),
			func(context.Context) (*cellResult, error) {
				return c.evaluate(cand)
			})
		if err == nil && res.quarantined() {
			return nil, evalcache.Unstored[*cellResult]{Value: res}
		}
		return res, err
	})
	if resilience.IsQuarantined(err) {
		return &cellResult{Name: cand.Name, Findings: []cellFinding{{
			Rule: "quarantine", Pass: "cell", Config: c.plabel,
			Kind:   difftest.KindQuarantine,
			Detail: "candidate quarantined: " + err.Error(),
		}}}, nil
	}
	return res, err
}

// quarantined reports whether a cell of the differential oracle was
// quarantined while evaluating the candidate.
func (r *cellResult) quarantined() bool {
	for _, f := range r.Findings {
		if f.Kind == difftest.KindQuarantine {
			return true
		}
	}
	return false
}

// evaluate runs both detection channels over one candidate and scores
// it. Channel one is the differential oracle across the full matrix;
// channel two is the verify-each build under the primary config, which
// attributes every analyzer violation to the exact pass (and is where a
// planted bug is injected). Findings are sorted so the stored value is
// canonical.
func (c *campaign) evaluate(cand candidate) (*cellResult, error) {
	res := &cellResult{Name: cand.Name}
	ir0, info, err := frontendIR(cand.Name+".mc", cand.Src)
	if err != nil {
		// A generator bug degrades into a bucket entry, not a dead run.
		res.Findings = []cellFinding{{
			Rule: "frontend", Pass: "frontend", Config: c.plabel,
			Kind: "harness", Detail: err.Error(),
		}}
		return res, nil
	}

	// Channel one: the differential oracle.
	o := difftest.NewOracle(c.configs)
	oracleFindings, err := o.CheckSubject(difftest.SourceSubject(cand.Name, cand.Src))
	if err != nil {
		return nil, err
	}
	failing := map[string]bool{}
	for _, f := range oracleFindings {
		failing[f.Kind+"\x00"+oracleRule(f)+"\x00"+f.Config] = true
	}
	for _, f := range oracleFindings {
		res.Findings = append(res.Findings, c.attributeOracle(f, failing))
	}

	// Channel two: verify-each under the primary config, planted bug
	// included. Violations carry exact step attribution.
	rep := pipeline.BuildVerifiedTamper(ir0, c.primary, false, c.plantHook())
	for _, v := range rep.InitialViolations {
		res.Findings = append(res.Findings, cellFinding{
			Rule: string(v.Rule), Pass: "frontend", Config: c.plabel,
			Kind: "verify", Detail: v.String(),
		})
	}
	for _, st := range rep.Steps {
		if st.VerifyErr != "" {
			res.Findings = append(res.Findings, cellFinding{
				Rule: "ir-verify", Pass: st.Label, Config: c.plabel,
				Kind: "verify", Detail: st.VerifyErr,
			})
		}
		for _, v := range st.NewViolations {
			res.Findings = append(res.Findings, cellFinding{
				Rule: string(v.Rule), Pass: st.Label, Config: c.plabel,
				Kind: "verify", Detail: v.String(),
			})
		}
	}

	score, err := c.score(rep.Bin.Debug, ir0, info)
	if err != nil {
		return nil, err
	}
	res.Score = score
	res.Scored = true

	sort.Slice(res.Findings, func(i, j int) bool {
		a, b := res.Findings[i], res.Findings[j]
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		if a.Pass != b.Pass {
			return a.Pass < b.Pass
		}
		if a.Config != b.Config {
			return a.Config < b.Config
		}
		return a.Detail < b.Detail
	})
	return res, nil
}

// plantableLabels probes the primary config's verified pipeline for the
// step labels the tamper hook actually fires with — the ground truth
// for plant-spec validation. Pass listings include back-end stages,
// which are prefix-compiled and never see the hook; a plant aimed there
// would silently never fire and the drill would report a hunt that
// "found nothing" instead of a bad spec.
func plantableLabels(primary pipeline.Config) map[string]bool {
	labels := map[string]bool{}
	src := []byte(synth.Generate(1, synth.DefaultOptions()))
	ir0, _, err := frontendIR("probe.mc", src)
	if err != nil {
		return labels
	}
	pipeline.BuildVerifiedTamper(ir0, primary, false,
		func(label string, _ *ir.Program) { labels[label] = true })
	return labels
}

// plantHook is the verify-each tamper that injects the planted bug
// right after the configured pass; nil when the drill is off.
func (c *campaign) plantHook() func(label string, prog *ir.Program) {
	if c.opts.Plant == "" {
		return nil
	}
	return func(label string, prog *ir.Program) {
		if label == c.plantPass {
			// Plant errors only on unsupported rules, rejected at option
			// parse time.
			staticdbg.Plant(prog, c.plantRule)
		}
	}
}

// score runs the static measurement of the primary build under the
// campaign denominator.
func (c *campaign) score(debug []byte, ir0 *ir.Program, info *sema.Info) (float64, error) {
	table, err := debuginfo.Decode(debug)
	if err != nil {
		return 0, fmt.Errorf("hunt: decode debug section: %w", err)
	}
	stmt := sema.StatementLines(info)
	dr := sema.ComputeDefRanges(info)
	var base *dbgtrace.Trace
	if c.opts.Denom == metrics.DenomSteppedO0 {
		bin0 := pipeline.Build(ir0, pipeline.MustConfig(pipeline.GCC, "O0"))
		sess, err := debugger.NewSession(bin0)
		if err != nil {
			return 0, err
		}
		base, err = sess.TraceMain("main", huntTraceBudget)
		if err != nil {
			return 0, err
		}
	}
	sc, err := metrics.StaticWith(table, c.opts.Denom, stmt, base, dr)
	if err != nil {
		return 0, err
	}
	return sc.Product, nil
}

// attributeOracle maps one oracle finding to its responsible pass. A
// finding under a toggle-disabled config names the toggle directly; a
// finding under a plain config is attributed to the first matrix toggle
// whose disabling makes the same (kind, rule) finding disappear — no
// extra builds, the matrix already ran. When every variant still fails
// (or the matrix has no toggles), the whole level owns it.
func (c *campaign) attributeOracle(f difftest.Finding, failing map[string]bool) cellFinding {
	rule := oracleRule(f)
	pass := "level"
	switch f.Kind {
	case difftest.KindReference:
		// The O0 build diverged from the IR interpreter: a back-end bug by
		// construction (no middle-end pass runs at O0).
		pass = "codegen"
	case difftest.KindQuarantine:
		pass = "cell"
	default:
		if _, toggle, ok := strings.Cut(f.Config, "!"); ok {
			pass = toggle
			if i := strings.IndexByte(pass, '!'); i >= 0 {
				pass = pass[:i]
			}
		} else {
			for _, t := range c.toggles[f.Config] {
				if !failing[f.Kind+"\x00"+rule+"\x00"+f.Config+"!"+t] {
					pass = t
					break
				}
			}
		}
	}
	return cellFinding{Rule: rule, Pass: pass, Config: f.Config, Kind: f.Kind, Detail: f.Detail}
}

// oracleRule derives the bucket rule ID of an oracle finding: invariant
// details carry a "[rule]" prefix from the staticdbg analyzer; dynamic
// availability checks and session failures have none and bucket as
// dynamic-avail; the remaining kinds are their own rule class.
func oracleRule(f difftest.Finding) string {
	if f.Kind == difftest.KindInvariant {
		if strings.HasPrefix(f.Detail, "[") {
			if i := strings.IndexByte(f.Detail, ']'); i > 1 {
				return f.Detail[1:i]
			}
		}
		return "dynamic-avail"
	}
	return f.Kind
}

// frontendIR is the shared front-end step: parse, check, lower.
func frontendIR(name string, src []byte) (*ir.Program, *sema.Info, error) {
	info, err := pipeline.Frontend(name, src)
	if err != nil {
		return nil, nil, err
	}
	ir0, err := pipeline.BuildIR(info)
	if err != nil {
		return nil, nil, err
	}
	return ir0, info, nil
}
