package hunt

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"

	"debugtuner/internal/difftest"
	"debugtuner/internal/evalcache"
	"debugtuner/internal/pipeline"
	"debugtuner/internal/resilience"
)

// reductionKey declares every input of one stored witness reduction:
// the bucket's predicate (rule@pass, finding kind, config label), the
// witness source and the campaign, whose fingerprint covers the primary
// config, the plant and the probe budget.
type reductionKey struct {
	Bucket   string
	Kind     string
	Config   string
	Src      uint64 // witness source hash
	Campaign string
}

// String is the reduction's quarantine key.
func (k reductionKey) String() string {
	return fmt.Sprintf("hunt-reduce|%s#%016x|%s|%s|%s", k.Bucket, k.Src, k.Kind, k.Config, k.Campaign)
}

// reduceNew ddmin-reduces one witness per bucket that is new to this
// campaign (absent from the loaded state), each as its own resilience
// cell and store unit, so reductions resume like evaluations. A
// reduction during which a probe's oracle cell was quarantined is used
// but not stored: that probe's verdict may differ on a rerun.
// Quarantine buckets have nothing to reduce — the cell never produced a
// verdict.
func (c *campaign) reduceNew() error {
	for _, key := range c.order {
		if c.stopped() {
			c.interrupted = true
			return nil
		}
		b := c.buckets[key]
		if c.known(key) || b.Rule == "quarantine" || b.Rule == "frontend" {
			continue
		}
		var gaps atomic.Bool
		pred := c.reducePredicate(b, &gaps)
		if pred == nil {
			continue
		}
		src := b.WitnessSrc
		rkey := reductionKey{Bucket: key, Kind: b.Kind, Config: b.Config,
			Src: resilience.HashBytes(src), Campaign: c.fp}
		reduced, err := c.reductions.Do(rkey, func() (string, error) {
			r, err := resilience.Run(context.Background(), rkey.String(),
				func(context.Context) (string, error) {
					return string(difftest.Reduce(src, pred, c.opts.ReduceProbes)), nil
				})
			if err == nil && gaps.Load() {
				return "", evalcache.Unstored[string]{Value: r}
			}
			return r, err
		})
		if resilience.IsQuarantined(err) {
			continue // reported as "(not reduced)"
		}
		if err != nil {
			return err
		}
		b.Reduced = []byte(reduced)
	}
	return nil
}

// reducePredicate builds the bucket's failure predicate: the reduced
// source must still front-end and still reproduce a finding of the same
// (rule, pass) class through the channel that found it. A probe whose
// oracle reports a quarantined cell sets gaps.
func (c *campaign) reducePredicate(b *bucket, gaps *atomic.Bool) func([]byte) bool {
	if b.Kind == "verify" {
		return c.verifyPredicate(b.Rule, b.Pass)
	}
	cfg, err := difftest.ParseConfigLabel(b.Config)
	if err != nil {
		return nil
	}
	kind, rule := b.Kind, b.Rule
	return func(src []byte) bool {
		o := difftest.NewOracle(nil)
		fs, err := o.DiffOne(difftest.SourceSubject("reduce", src), cfg)
		if err != nil {
			return false
		}
		found := false
		for _, f := range fs {
			if f.Kind == difftest.KindQuarantine {
				gaps.Store(true)
			}
			if f.Kind == kind && oracleRule(f) == rule {
				found = true
			}
		}
		return found
	}
}

// verifyPredicate reproduces a verify-channel bucket: the candidate's
// verified build (planted tamper included) must still introduce a
// violation of the rule at the same step.
func (c *campaign) verifyPredicate(rule, pass string) func([]byte) bool {
	return func(src []byte) bool {
		ir0, _, err := frontendIR("reduce.mc", src)
		if err != nil {
			return false
		}
		rep := pipeline.BuildVerifiedTamper(ir0, c.primary, false, c.plantHook())
		if pass == "frontend" {
			for _, v := range rep.InitialViolations {
				if string(v.Rule) == rule {
					return true
				}
			}
			return false
		}
		for _, st := range rep.Steps {
			if st.Label != pass {
				continue
			}
			if rule == "ir-verify" && st.VerifyErr != "" {
				return true
			}
			for _, v := range st.NewViolations {
				if string(v.Rule) == rule {
					return true
				}
			}
		}
		return false
	}
}

// commit writes the regression corpus: one fixture per new reduced
// bucket plus the updated trend state. State is written atomically
// (temp + rename), so a kill mid-commit leaves the previous state
// intact rather than a torn file.
func (c *campaign) commit(rep *Report) error {
	if c.opts.CorpusDir == "" {
		return nil
	}
	for _, key := range c.order {
		b := c.buckets[key]
		if c.known(key) || b.Reduced == nil {
			continue
		}
		if err := writeFixture(c.opts.CorpusDir, b, c.opts.Seed, c.fp, c.opts.Plant); err != nil {
			return err
		}
	}
	run := len(c.state.Runs) + 1
	c.state.Runs = append(c.state.Runs, stateRun{
		Run: run, Candidates: rep.Candidates,
		Findings: rep.Findings, NewBuckets: rep.NewBuckets,
	})
	for _, key := range c.order {
		b := c.buckets[key]
		sb := c.state.Buckets[key]
		if sb == nil {
			sb = &stateBucket{FirstRun: run, Fixture: b.Fixture}
			c.state.Buckets[key] = sb
		}
		sb.Count += b.Count
	}
	return saveState(statePath(c.opts.CorpusDir), c.state)
}

// writeFixture stores one reduced witness with a provenance header. The
// plant line (present when the drill was armed) is what lets a replay
// re-arm the same tamper and check the fixture still reproduces.
func writeFixture(dir string, b *bucket, seed int64, fp, plant string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "// hunt witness: [%s @ %s]\n", b.Rule, b.Pass)
	fmt.Fprintf(&buf, "// campaign: seed %d (fp %s), witness %s under %s\n",
		seed, fp, b.Witness, b.Config)
	if plant != "" {
		fmt.Fprintf(&buf, "// plant: %s\n", plant)
	}
	fmt.Fprintf(&buf, "// finding: %s\n", b.Detail)
	buf.Write(b.Reduced)
	return os.WriteFile(filepath.Join(dir, b.Fixture), buf.Bytes(), 0o644)
}

// stateFile is the cross-run trend state. No timestamps: state content
// must be identical for identical campaign histories.
type stateFile struct {
	V       int                     `json:"v"`
	Runs    []stateRun              `json:"runs"`
	Buckets map[string]*stateBucket `json:"buckets"`
}

type stateRun struct {
	Run        int `json:"run"`
	Candidates int `json:"candidates"`
	Findings   int `json:"findings"`
	NewBuckets int `json:"new_buckets"`
}

type stateBucket struct {
	Count    int    `json:"count"`
	FirstRun int    `json:"first_run"`
	Fixture  string `json:"fixture"`
}

// statePath is where a corpus keeps its trend state.
func statePath(corpusDir string) string {
	return filepath.Join(corpusDir, "hunt-state.json")
}

// loadState reads the trend state of the corpus in corpusDir; no corpus
// or a missing file is an empty history, a corrupt file is an error —
// silently restarting the trend would hide corpus history loss.
func loadState(corpusDir string) (*stateFile, error) {
	st := &stateFile{V: 1, Buckets: map[string]*stateBucket{}}
	if corpusDir == "" {
		return st, nil
	}
	path := statePath(corpusDir)
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return st, nil
	}
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(data, st); err != nil {
		return nil, fmt.Errorf("hunt: state %s: %w", path, err)
	}
	if st.Buckets == nil {
		st.Buckets = map[string]*stateBucket{}
	}
	return st, nil
}

// saveState writes the state atomically.
func saveState(path string, st *stateFile) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(st, "", "  ")
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, append(data, '\n'), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}
