// Package hunt is the feedback-directed campaign driver on top of the
// correctness layers: it generates candidate programs (plain synthetic
// seeds plus mutations biased toward the construct families whose
// optimization passes historically produced findings), runs each
// candidate through the differential oracle and the verify-each static
// analyzer, buckets every finding by (rule ID, responsible pass),
// auto-reduces one witness per new bucket under a hard probe budget,
// and maintains a committed regression corpus plus a trend report
// across campaign runs.
//
// Robustness contract: every candidate evaluation and every reduction
// is one resilience cell and one unit of the evaluation store, keyed by
// candidate name × source hash × campaign fingerprint, so a campaign
// killed mid-run and rerun on the same store reads completed cells back
// and produces a byte-identical final report. A unit with a quarantine
// in it is never stored. A cancelled Interrupt context stops the
// campaign between candidates: work in flight finishes into the store,
// the report covers everything completed, and Report.Interrupted tells
// the caller to exit with the distinct interrupted code. A candidate
// that crashes a pass or fails its build runs once and degrades into a
// quarantine bucket entry instead of killing the campaign; the VM's
// step budget bounds one that runs away.
package hunt

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strings"

	"debugtuner/internal/difftest"
	"debugtuner/internal/evalcache"
	"debugtuner/internal/metrics"
	"debugtuner/internal/pipeline"
	"debugtuner/internal/resilience"
	"debugtuner/internal/staticdbg"
	"debugtuner/internal/synth"
	"debugtuner/internal/workerpool"
)

// Options bounds one campaign run.
type Options struct {
	// Seed is the campaign seed; every candidate derives from it.
	Seed int64
	// Epochs × Candidates is the campaign size. Feedback updates between
	// epochs: buckets found in epoch e bias generation in epoch e+1.
	Epochs     int
	Candidates int
	// Spec selects the differential configuration matrix
	// (difftest.ParseMatrix); the first entry is the primary config the
	// verify-each channel and the score run under.
	Spec string
	// Denom selects the line-coverage denominator for the per-candidate
	// static score (metrics.StaticWith).
	Denom metrics.Denom
	// Plant, "rule@pass", arms the planted-bug drill: the named
	// violation is injected into every candidate right after the named
	// pass runs, end-to-end testing that the campaign finds it, buckets
	// it under exactly (rule, pass), and reduces a witness.
	Plant string
	// CorpusDir is the committed regression corpus, which keeps its
	// cross-run trend state in hunt-state.json; "" disables fixture and
	// state writing.
	CorpusDir string
	// ReduceProbes caps ddmin predicate evaluations per witness. Wall
	// budgets would make reduction timing-dependent; the probe cap keeps
	// it deterministic.
	ReduceProbes int
	// Interrupt, when non-nil and cancelled, stops the campaign between
	// candidates (the SIGINT/SIGTERM drain).
	Interrupt context.Context
}

// DefaultOptions is the default campaign: 2 epochs of 8 candidates
// over the 27-config gcc-O2* matrix, with 300-probe reductions. Cold,
// with no store, it takes minutes: 286 s on a 2-CPU host. ci.sh and
// the tests run 3–4-candidate single-config campaigns instead.
func DefaultOptions() Options {
	return Options{
		Seed: 1, Epochs: 2, Candidates: 8,
		Spec:         "gcc-O2*",
		Denom:        metrics.DenomStmtLines,
		ReduceProbes: 300,
	}
}

// Report is the deterministic outcome of a campaign run.
type Report struct {
	Candidates int // evaluated (excludes interrupted skips)
	Findings   int
	Buckets    int // distinct buckets seen this run
	NewBuckets int // not in the loaded state
	// Interrupted: the campaign stopped early on the Interrupt context;
	// the report covers completed work and nothing was committed.
	Interrupted bool
}

// bucket is one (rule, pass) finding class.
type bucket struct {
	Rule, Pass string
	Count      int
	Witness    string // first candidate name, in campaign order
	WitnessSrc []byte
	Config     string // config label of the first finding
	Kind       string // oracle finding kind, or "verify"
	Detail     string
	Reduced    []byte // nil until reduction ran
	Fixture    string // corpus filename (printed even when not committed)
}

// campaign is the in-flight run state.
type campaign struct {
	opts    Options
	configs []pipeline.Config
	primary pipeline.Config
	plabel  string
	// toggles maps a plain config label to the single-toggle variant
	// names present in the matrix, sorted — the attribution index.
	toggles map[string][]string
	fp      string

	plantRule staticdbg.Rule
	plantPass string

	// cells and reductions keep candidate evaluations and witness
	// reductions in the process store.
	cells      evalcache.Cache[candidateKey, *cellResult]
	reductions evalcache.Cache[reductionKey, string]

	state   *stateFile
	base    synth.Weights // calibration weights (damage ledger)
	buckets map[string]*bucket
	order   []string // bucket keys in discovery order
	scores  []float64

	epochLines  []string
	interrupted bool
}

// Run executes the campaign and writes the deterministic report.
func Run(w io.Writer, opts Options) (*Report, error) {
	c, err := newCampaign(opts)
	if err != nil {
		return nil, err
	}

	total, findings := 0, 0
	for e := 0; e < c.opts.Epochs; e++ {
		if c.stopped() {
			c.interrupted = true
			break
		}
		weights := c.weightsFor()
		cands := c.generate(e, weights)
		results, err := workerpool.Map(context.Background(), cands,
			func(_ context.Context, _ int, cand candidate) (*cellResult, error) {
				if c.stopped() {
					return nil, nil
				}
				return c.runCell(cand)
			})
		if err != nil {
			return nil, err
		}
		// Fold in candidate order: bucket witnesses and discovery order
		// must not depend on worker scheduling.
		epochFindings, epochNew := 0, 0
		for i, res := range results {
			if res == nil {
				c.interrupted = true
				continue
			}
			total++
			if res.Scored {
				c.scores = append(c.scores, res.Score)
			}
			for _, f := range res.Findings {
				epochFindings++
				key := f.Rule + "@" + f.Pass
				b := c.buckets[key]
				if b == nil {
					b = &bucket{
						Rule: f.Rule, Pass: f.Pass,
						Witness: res.Name, WitnessSrc: cands[i].Src,
						Config: f.Config, Kind: f.Kind, Detail: f.Detail,
					}
					b.Fixture = difftest.FixtureName(b.Rule, b.Pass)
					c.buckets[key] = b
					c.order = append(c.order, key)
					if !c.known(key) {
						epochNew++
					}
				}
				b.Count++
			}
		}
		findings += epochFindings
		c.epochLines = append(c.epochLines, fmt.Sprintf(
			"epoch %d: %d candidates, %d findings, %d new buckets",
			e, len(results), epochFindings, epochNew))
	}

	if !c.interrupted {
		if err := c.reduceNew(); err != nil {
			return nil, err
		}
	}

	rep := &Report{
		Candidates:  total,
		Findings:    findings,
		Buckets:     len(c.order),
		Interrupted: c.interrupted,
	}
	for _, key := range c.order {
		if !c.known(key) {
			rep.NewBuckets++
		}
	}

	// Render before commit: commit folds this run into the trend state,
	// and the report must describe the run against the state it started
	// from (otherwise every new bucket prints as already known).
	c.render(w, rep)
	if !c.interrupted {
		if err := c.commit(rep); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

func newCampaign(opts Options) (*campaign, error) {
	if opts.Epochs <= 0 || opts.Candidates <= 0 {
		return nil, fmt.Errorf("hunt: campaign needs positive epochs and candidates")
	}
	if opts.Denom == "" {
		opts.Denom = metrics.DenomStmtLines
	}
	if _, err := metrics.ParseDenom(string(opts.Denom)); err != nil {
		return nil, err
	}
	if opts.Spec == "" {
		opts.Spec = "gcc-O2*"
	}
	configs, err := difftest.ParseMatrix(opts.Spec)
	if err != nil {
		return nil, err
	}
	if len(configs) == 0 {
		return nil, fmt.Errorf("hunt: empty configuration matrix")
	}
	c := &campaign{
		opts:       opts,
		configs:    configs,
		primary:    configs[0],
		buckets:    map[string]*bucket{},
		toggles:    map[string][]string{},
		cells:      evalcache.Cache[candidateKey, *cellResult]{Namespace: "hunt"},
		reductions: evalcache.Cache[reductionKey, string]{Namespace: "hunt-reduce"},
	}
	if c.primary.Level == "O0" {
		return nil, fmt.Errorf("hunt: primary config %s is unoptimized; lead the matrix with an optimizing config",
			difftest.ConfigLabel(c.primary))
	}
	c.plabel = difftest.ConfigLabel(c.primary)
	for _, cfg := range configs {
		label := difftest.ConfigLabel(cfg)
		if base, toggle, ok := strings.Cut(label, "!"); ok && !strings.Contains(toggle, "!") {
			c.toggles[base] = append(c.toggles[base], toggle)
		}
	}
	for _, ts := range c.toggles {
		sort.Strings(ts)
	}
	if opts.Plant != "" {
		rule, pass, ok := strings.Cut(opts.Plant, "@")
		if !ok {
			return nil, fmt.Errorf("hunt: bad plant spec %q (want rule@pass)", opts.Plant)
		}
		c.plantRule, err = parseRule(rule)
		if err != nil {
			return nil, err
		}
		if !staticdbg.Plantable(c.plantRule) {
			return nil, fmt.Errorf("hunt: rule %s has no plant recipe", rule)
		}
		if !plantableLabels(c.primary)[pass] {
			return nil, fmt.Errorf("hunt: plant pass %q is not a tamperable middle-end step of %s",
				pass, c.plabel)
		}
		c.plantPass = pass
	}
	c.fp = fmt.Sprintf("%016x", resilience.HashString(
		"hunt", fmt.Sprint(opts.Seed), fmt.Sprint(opts.Epochs),
		fmt.Sprint(opts.Candidates), opts.Spec, string(opts.Denom),
		opts.Plant, fmt.Sprint(opts.ReduceProbes)))

	c.state, err = loadState(opts.CorpusDir)
	if err != nil {
		return nil, err
	}
	c.base = calibrate(c.primary)
	return c, nil
}

// stopped reports whether the Interrupt context has been cancelled.
func (c *campaign) stopped() bool {
	return c.opts.Interrupt != nil && c.opts.Interrupt.Err() != nil
}

// known reports whether the bucket key was already in the loaded state.
func (c *campaign) known(key string) bool {
	_, ok := c.state.Buckets[key]
	return ok
}

func parseRule(s string) (staticdbg.Rule, error) {
	for _, r := range staticdbg.Rules() {
		if string(r) == s {
			return r, nil
		}
	}
	return "", fmt.Errorf("hunt: unknown rule %q", s)
}

// render writes the deterministic campaign report: header, per-epoch
// lines, score aggregate, sorted bucket lines, trend, and the verdict.
// Nothing time- or host-dependent is printed.
func (c *campaign) render(w io.Writer, rep *Report) {
	fmt.Fprintf(w, "hunt: seed %d, %d epochs x %d candidates, configs %s, denom %s\n",
		c.opts.Seed, c.opts.Epochs, c.opts.Candidates, c.opts.Spec, c.opts.Denom)
	if c.opts.Plant != "" {
		fmt.Fprintf(w, "plant: %s\n", c.opts.Plant)
	}
	for _, l := range c.epochLines {
		fmt.Fprintln(w, l)
	}
	if len(c.scores) > 0 {
		fmt.Fprintf(w, "score geomean: %.4f (%d candidates)\n",
			metrics.GeoMean(c.scores), len(c.scores))
	}
	if len(c.order) > 0 {
		keys := append([]string(nil), c.order...)
		sort.Strings(keys)
		fmt.Fprintf(w, "buckets (%d):\n", len(keys))
		for _, key := range keys {
			b := c.buckets[key]
			line := fmt.Sprintf("  [%s @ %s] count %d, witness %s", b.Rule, b.Pass, b.Count, b.Witness)
			if c.known(key) {
				line += fmt.Sprintf(" (known since run %d)", c.state.Buckets[key].FirstRun)
			} else if b.Reduced != nil {
				line += fmt.Sprintf(", reduced %d -> %d lines, fixture %s",
					countLines(b.WitnessSrc), countLines(b.Reduced), b.Fixture)
			} else {
				line += " (not reduced)"
			}
			fmt.Fprintln(w, line)
		}
	}
	if c.opts.CorpusDir != "" && !c.interrupted {
		fmt.Fprintln(w, "trend:")
		for _, r := range c.trendRuns(rep) {
			fmt.Fprintf(w, "  run %d: %d candidates, %d findings, %d new buckets\n",
				r.Run, r.Candidates, r.Findings, r.NewBuckets)
		}
	}
	switch {
	case c.interrupted:
		fmt.Fprintf(w, "HUNT INTERRUPTED: %d candidates evaluated, %d findings; resume to complete\n",
			rep.Candidates, rep.Findings)
	case rep.Findings > 0:
		fmt.Fprintf(w, "HUNT FINDINGS(%d) in %d buckets (%d new)\n",
			rep.Findings, rep.Buckets, rep.NewBuckets)
	default:
		fmt.Fprintln(w, "HUNT CLEAN")
	}
}

// trendRuns is the state's run history plus the current run.
func (c *campaign) trendRuns(rep *Report) []stateRun {
	runs := append([]stateRun(nil), c.state.Runs...)
	return append(runs, stateRun{
		Run:        len(c.state.Runs) + 1,
		Candidates: rep.Candidates,
		Findings:   rep.Findings,
		NewBuckets: rep.NewBuckets,
	})
}

func countLines(src []byte) int {
	return strings.Count(strings.TrimRight(string(src), "\n"), "\n") + 1
}
