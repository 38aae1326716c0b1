package hunt

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"debugtuner/internal/difftest"
	"debugtuner/internal/evalcache"
	"debugtuner/internal/resilience"
	"debugtuner/internal/synth"
	"debugtuner/internal/telemetry"
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

// runOnStore runs one campaign with the store in dir as the
// process-wide store, as a process started with -cachedir dir does, and
// returns the rendered report and the run's telemetry.
func runOnStore(t *testing.T, dir string, opts Options) (string, *telemetry.Sink) {
	t.Helper()
	d, err := evalcache.OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer evalcache.SetDefaultDisk(evalcache.DefaultDisk())
	evalcache.SetDefaultDisk(d)
	snk := telemetry.NewSink()
	defer telemetry.Install(telemetry.Install(snk))
	out, _ := runCampaign(t, opts)
	return out, snk
}

// TestResumeByteIdentical: a campaign rerun on the store a first run
// filled reads every cell back instead of evaluating it and renders
// identical bytes.
func TestResumeByteIdentical(t *testing.T) {
	dir := t.TempDir()
	opts := smallOpts()
	opts.Plant = "dbg-orphan@dce"

	first, cold := runOnStore(t, dir, opts)
	resumed, warm := runOnStore(t, dir, opts)
	if first != resumed {
		t.Fatalf("resumed report differs:\n--- first:\n%s--- resumed:\n%s", first, resumed)
	}
	if n := cold.Counter("diskcache.hunt.write"); n != int64(opts.Candidates) {
		t.Fatalf("first run stored %d candidates, want %d", n, opts.Candidates)
	}
	if n := warm.Counter("diskcache.hunt.hit"); n != int64(opts.Candidates) {
		t.Fatalf("rerun read %d candidates, want %d", n, opts.Candidates)
	}
}

// TestSecondCampaignReadsStore: a second campaign on one store computes
// no cell — every candidate and every reduction is read back — matches
// a storeless run byte for byte, and commits exactly one fixture. Each
// run commits to a fresh corpus, so all three render against the same
// empty trend state.
func TestSecondCampaignReadsStore(t *testing.T) {
	opts := smallOpts()
	// The dse plant stays a single bucket: later passes do not clone the
	// planted binding (an early-pass plant gets duplicated by downstream
	// unrolling/jump-threading into extra per-pass buckets).
	opts.Plant = "scope-nesting@dse"

	refOpts := opts
	refOpts.CorpusDir = t.TempDir()
	want, _ := runCampaign(t, refOpts)

	dir := t.TempDir()
	firstOpts := opts
	firstOpts.CorpusDir = t.TempDir()
	runOnStore(t, dir, firstOpts)
	outDir := t.TempDir()
	secondOpts := opts
	secondOpts.CorpusDir = outDir
	got, snk := runOnStore(t, dir, secondOpts)

	if got != want {
		t.Fatalf("second run differs from a storeless run:\n--- second:\n%s--- storeless:\n%s", got, want)
	}
	for _, name := range []string{"hunt.miss", "hunt-reduce.miss", "miss", "write"} {
		if n := snk.Counter("diskcache." + name); n != 0 {
			t.Errorf("second run: diskcache.%s = %d, want 0", name, n)
		}
	}
	if snk.Counter("diskcache.hunt-reduce.hit") == 0 {
		t.Error("second run read no reduction from the store")
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
		t.Fatalf("want exactly 1 fixture from the second run, got %d", fixtures)
	}
}

// TestChaosRunStoresNoQuarantine: a campaign under fault injection, the
// differential oracle's own cells included, fills a store; a clean
// rerun on that store must print the cold run's bytes. A stored
// candidate whose oracle cell was quarantined would replay as a phantom
// [quarantine @ cell] bucket.
func TestChaosRunStoresNoQuarantine(t *testing.T) {
	opts := smallOpts()
	opts.Plant = "scope-nesting@dse"
	cold, _ := runCampaign(t, opts)

	dir := t.TempDir()
	ex := resilience.NewExecutor(&resilience.Chaos{Rate: 0.12, Seed: 4})
	prev := resilience.Install(ex)
	chaos, _ := runOnStore(t, dir, opts)
	resilience.Install(prev)
	inner := false
	for _, ce := range ex.Quarantined() {
		inner = inner || strings.HasPrefix(ce.Key, "difftest|")
	}
	if !inner || !strings.Contains(chaos, "[quarantine @ cell]") {
		t.Fatalf("chaos run quarantined no oracle cell (%d quarantines):\n%s", len(ex.Quarantined()), chaos)
	}

	clean, snk := runOnStore(t, dir, opts)
	if clean != cold {
		t.Fatalf("clean rerun on the chaos run's store differs from a cold run:\n--- rerun:\n%s--- cold:\n%s", clean, cold)
	}
	if snk.Counter("diskcache.hunt.hit") == 0 {
		t.Fatal("clean rerun read no candidate from the store")
	}
}

// TestReducePredicateFlagsQuarantine: a reduction probe whose oracle
// reports a quarantined cell sets the gap flag that keeps the
// reduction out of the store: the probe's verdict may differ on a
// clean rerun.
func TestReducePredicateFlagsQuarantine(t *testing.T) {
	c, err := newCampaign(smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	b := &bucket{Rule: difftest.KindBehavior, Pass: "level", Kind: difftest.KindBehavior, Config: c.plabel}
	src := []byte(synth.Generate(1, synth.DefaultOptions()))
	var gaps atomic.Bool
	if c.reducePredicate(b, &gaps)(src); gaps.Load() {
		t.Fatal("a fault-free probe set the gap flag")
	}
	defer resilience.Install(resilience.Install(resilience.NewExecutor(&resilience.Chaos{Rate: 0.4, Seed: 5})))
	if c.reducePredicate(b, &gaps)(src); !gaps.Load() {
		t.Fatal("a probe with a quarantined oracle cell left the gap flag clear")
	}
}

// TestCellKeys: a stored candidate's and reduction's quarantine keys
// keep their exact strings, since the chaos schedule hashes them.
func TestCellKeys(t *testing.T) {
	cand := candidateKey{Name: "hunt-e0c00", Src: 0x5eed, Campaign: "fp"}
	if got, want := cand.String(), "hunt|hunt-e0c00#0000000000005eed|fp"; got != want {
		t.Errorf("candidate quarantine key %q, want %q", got, want)
	}
	red := reductionKey{Bucket: "loc-stale@dse", Kind: "verify", Config: "gcc-O2", Src: 0x5eed, Campaign: "fp"}
	if got, want := red.String(), "hunt-reduce|loc-stale@dse#0000000000005eed|verify|gcc-O2|fp"; got != want {
		t.Errorf("reduction quarantine key %q, want %q", got, want)
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
