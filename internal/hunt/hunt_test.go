package hunt

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"debugtuner/internal/resilience"
	"debugtuner/internal/workerpool"
)

func cancelledContext() context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return ctx
}

// smallOpts is a campaign small enough for unit tests.
func smallOpts() Options {
	o := DefaultOptions()
	o.Epochs = 1
	o.Candidates = 3
	o.Spec = "gcc-O2"
	o.ReduceProbes = 120
	return o
}

func runCampaign(t *testing.T, opts Options) (string, *Report) {
	t.Helper()
	var buf bytes.Buffer
	rep, err := Run(&buf, opts)
	if err != nil {
		t.Fatalf("hunt.Run: %v\n%s", err, buf.String())
	}
	return buf.String(), rep
}

// TestPlantedBugFoundBucketedReduced is the campaign acceptance drill:
// a violation planted after a known pass must be found by every
// candidate, bucketed under exactly (rule, pass), reduced, and
// committed to the corpus with trend state.
func TestPlantedBugFoundBucketedReduced(t *testing.T) {
	dir := t.TempDir()
	opts := smallOpts()
	opts.Plant = "scope-nesting@dse"
	opts.CorpusDir = dir

	out, rep := runCampaign(t, opts)
	if rep.Findings == 0 || rep.NewBuckets == 0 {
		t.Fatalf("planted bug not found:\n%s", out)
	}
	if !strings.Contains(out, "[scope-nesting @ dse] count 3") {
		t.Fatalf("planted bug not bucketed under (scope-nesting, dse):\n%s", out)
	}
	if !strings.Contains(out, "reduced ") {
		t.Fatalf("witness not reduced:\n%s", out)
	}
	fixture := filepath.Join(dir, "scope-nesting-dse.mc")
	data, err := os.ReadFile(fixture)
	if err != nil {
		t.Fatalf("fixture not committed: %v\n%s", err, out)
	}
	if !strings.HasPrefix(string(data), "// hunt witness: [scope-nesting @ dse]") {
		t.Fatalf("fixture missing provenance header:\n%s", data)
	}
	if _, err := os.Stat(filepath.Join(dir, "hunt-state.json")); err != nil {
		t.Fatalf("trend state not committed: %v", err)
	}
}

// TestPlantedLocStaleDrill: the binary-level loc-stale plant exercises
// the mid-chain attribution path — the corruption is invisible to
// CheckModule and only the per-pass base-options compile inside
// BuildVerifiedTamper can catch it, so a passing drill proves the
// flow-sensitive rules participate in find/bucket/reduce end to end.
func TestPlantedLocStaleDrill(t *testing.T) {
	dir := t.TempDir()
	opts := smallOpts()
	opts.Plant = "loc-stale@dse"
	opts.CorpusDir = dir

	out, rep := runCampaign(t, opts)
	if rep.Findings == 0 || rep.NewBuckets == 0 {
		t.Fatalf("planted loc-stale not found:\n%s", out)
	}
	if !strings.Contains(out, "[loc-stale @ dse] count 3") {
		t.Fatalf("planted loc-stale not bucketed under (loc-stale, dse):\n%s", out)
	}
	if !strings.Contains(out, "reduced ") {
		t.Fatalf("witness not reduced:\n%s", out)
	}
	data, err := os.ReadFile(filepath.Join(dir, "loc-stale-dse.mc"))
	if err != nil {
		t.Fatalf("fixture not committed: %v\n%s", err, out)
	}
	if !strings.HasPrefix(string(data), "// hunt witness: [loc-stale @ dse]") {
		t.Fatalf("fixture missing provenance header:\n%s", data)
	}
}

// TestCampaignDeterministicAcrossWorkers: report bytes must not depend
// on the worker-pool size.
func TestCampaignDeterministicAcrossWorkers(t *testing.T) {
	opts := smallOpts()
	workerpool.SetWorkers(1)
	a, _ := runCampaign(t, opts)
	workerpool.SetWorkers(4)
	b, _ := runCampaign(t, opts)
	workerpool.SetWorkers(0)
	if a != b {
		t.Fatalf("report differs between -j1 and -j4:\n--- j1:\n%s--- j4:\n%s", a, b)
	}
	c, _ := runCampaign(t, opts)
	if a != c {
		t.Fatalf("report differs between runs:\n%s\nvs\n%s", a, c)
	}
}

// runJournaled runs one campaign with a journal opened by open at jpath
// installed on the active executor, and returns the rendered report.
func runJournaled(t *testing.T, open func(string) (*resilience.Journal, error), jpath string, opts Options) string {
	t.Helper()
	j, err := open(jpath)
	if err != nil {
		t.Fatal(err)
	}
	ex := resilience.NewExecutor(resilience.DefaultPolicy())
	ex.Journal = j
	prev := resilience.Install(ex)
	defer resilience.Install(prev)
	out, _ := runCampaign(t, opts)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestResumeByteIdentical: a journaled campaign resumed from its own
// journal replays every cell from disk and renders identical bytes.
func TestResumeByteIdentical(t *testing.T) {
	jpath := filepath.Join(t.TempDir(), "hunt.jsonl")
	opts := smallOpts()
	opts.Plant = "dbg-orphan@dce"

	first := runJournaled(t, resilience.CreateJournal, jpath, opts)
	resumed := runJournaled(t, resilience.ResumeJournal, jpath, opts)
	if first != resumed {
		t.Fatalf("resumed report differs:\n--- first:\n%s--- resumed:\n%s", first, resumed)
	}
}

// TestWorkerLeaseMergeDedup: two campaign runs sharing one journal
// compute each cell once — the second is a pure replay, so the journal
// holds one record per cell — and the replayed run commits exactly one
// fixture and matches the single-process run byte for byte. Each run
// commits to a fresh corpus, so all three render against the same empty
// trend state.
func TestWorkerLeaseMergeDedup(t *testing.T) {
	opts := smallOpts()
	// The dse plant stays a single bucket: later passes do not clone the
	// planted binding (an early-pass plant gets duplicated by downstream
	// unrolling/jump-threading into extra per-pass buckets).
	opts.Plant = "scope-nesting@dse"

	// Reference: plain single-process run with a commit dir.
	refOpts := opts
	refOpts.CorpusDir = t.TempDir()
	want, _ := runCampaign(t, refOpts)

	jpath := filepath.Join(t.TempDir(), "hunt.jsonl")
	firstOpts := opts
	firstOpts.CorpusDir = t.TempDir()
	runJournaled(t, resilience.CreateJournal, jpath, firstOpts)
	outDir := t.TempDir()
	replayOpts := opts
	replayOpts.CorpusDir = outDir
	got := runJournaled(t, resilience.ResumeJournal, jpath, replayOpts)

	data, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]int{}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		var rec resilience.Record
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("journal line %q: %v", line, err)
		}
		seen[rec.Key]++
	}
	if len(seen) == 0 {
		t.Fatal("journal holds no records")
	}
	for k, n := range seen {
		if n > 1 {
			t.Fatalf("journal holds %d records for cell %s", n, k)
		}
	}

	if got != want {
		t.Fatalf("replayed render differs from single-process run:\n--- replayed:\n%s--- plain:\n%s", got, want)
	}
	entries, err := os.ReadDir(outDir)
	if err != nil {
		t.Fatal(err)
	}
	fixtures := 0
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".mc") {
			fixtures++
		}
	}
	if fixtures != 1 {
		t.Fatalf("want exactly 1 fixture from the replayed render, got %d", fixtures)
	}
}

// TestInterruptedCampaignReportsAndSkipsCommit: a cancelled Interrupt
// context stops the run, marks the report interrupted, and commits
// nothing.
func TestInterruptedCampaignReportsAndSkipsCommit(t *testing.T) {
	dir := t.TempDir()
	opts := smallOpts()
	opts.CorpusDir = dir
	opts.Interrupt = cancelledContext()

	var buf bytes.Buffer
	rep, err := Run(&buf, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Interrupted {
		t.Fatal("report not marked interrupted")
	}
	if !strings.Contains(buf.String(), "HUNT INTERRUPTED") {
		t.Fatalf("missing interrupted banner:\n%s", buf.String())
	}
	if _, err := os.Stat(filepath.Join(dir, "hunt-state.json")); !os.IsNotExist(err) {
		t.Fatal("interrupted run committed state")
	}
}

// TestCommittedCorpusReplays: every reduced witness committed under
// testdata/hunt must still reproduce a finding of its recorded
// (rule, pass) class — the regression corpus is only worth committing
// if it keeps regressing.
func TestCommittedCorpusReplays(t *testing.T) {
	dir := filepath.Join("..", "..", "testdata", "hunt")
	entries, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		t.Skip("no committed corpus")
	}
	if err != nil {
		t.Fatal(err)
	}
	replayed := 0
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".mc") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		var rule, pass, plant string
		for _, line := range strings.Split(string(data), "\n") {
			if s, ok := strings.CutPrefix(line, "// hunt witness: ["); ok {
				if r, p, ok := strings.Cut(strings.TrimSuffix(s, "]"), " @ "); ok {
					rule, pass = r, p
				}
			}
			if s, ok := strings.CutPrefix(line, "// plant: "); ok {
				plant = s
			}
		}
		if rule == "" {
			t.Errorf("%s: missing witness header", e.Name())
			continue
		}
		opts := smallOpts()
		opts.Plant = plant
		c, err := newCampaign(opts)
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		if !c.verifyPredicate(rule, pass)(data) {
			t.Errorf("%s: no longer reproduces [%s @ %s]", e.Name(), rule, pass)
		}
		replayed++
	}
	if replayed == 0 {
		t.Fatal("committed corpus has no fixtures")
	}
}

// TestBadOptionsRejected: bad specs fail at option time, not mid-run.
func TestBadOptionsRejected(t *testing.T) {
	for _, mod := range []func(*Options){
		func(o *Options) { o.Plant = "nonsense" },
		func(o *Options) { o.Plant = "loc-overlap@dse" },            // no plant recipe
		func(o *Options) { o.Plant = "scope-nesting@no-such" },      // unknown pass
		func(o *Options) { o.Plant = "scope-nesting@crossjumping" }, // back-end stage: hook never fires
		func(o *Options) { o.Spec = "gcc-O9" },
		func(o *Options) { o.Denom = "line-table" },
		func(o *Options) { o.Epochs = 0 },
		func(o *Options) { o.Spec = "gcc-O0" }, // unoptimized primary
	} {
		opts := smallOpts()
		mod(&opts)
		if _, err := Run(&bytes.Buffer{}, opts); err == nil {
			t.Fatalf("options %+v accepted", opts)
		}
	}
}
