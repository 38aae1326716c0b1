package experiments

import (
	"bytes"
	"testing"

	"debugtuner/internal/evalcache"
	"debugtuner/internal/pipeline"
	"debugtuner/internal/resilience"
	"debugtuner/internal/telemetry"
	"debugtuner/internal/workerpool"
)

// TestDebugifyScoreboardOverlapsLedger locks the cross-check between
// the two attribution systems: the static preservation scoreboard
// (synthetic metadata destroyed, measured per pass) and the telemetry
// damage ledger (real metadata damage events, recorded per pass) must
// largely agree on which gcc-O2 passes are the top offenders. They
// measure different proxies — the ledger sees dynamic events like
// binding drops, the scoreboard sees surviving distinct lines — so
// exact agreement is not expected, but fewer than 6 shared entries in
// the top 10 would mean one of them is attributing damage to the wrong
// passes.
func TestDebugifyScoreboardOverlapsLedger(t *testing.T) {
	rep, err := Debugify(DebugifyOptions{
		Profiles: []pipeline.Profile{pipeline.GCC},
		Levels:   []string{"O2"},
		Verify:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Findings) != 0 {
		t.Fatalf("gcc-O2 matrix not clean: %v", rep.Findings)
	}
	static := map[string]bool{}
	for _, r := range rep.Rows {
		if r.AlwaysOn {
			continue
		}
		static[r.Pass] = true
		if len(static) == 10 {
			break
		}
	}
	rows, err := PassReport(pipeline.GCC, "O2")
	if err != nil {
		t.Fatal(err)
	}
	var ledger []string
	for _, r := range rows {
		if r.Cleanup {
			continue
		}
		ledger = append(ledger, r.Pass)
		if len(ledger) == 10 {
			break
		}
	}
	overlap := 0
	for _, p := range ledger {
		if static[p] {
			overlap++
		}
	}
	if overlap < 6 {
		t.Errorf("static top-10 %v overlaps ledger top-10 %v by only %d, want >= 6",
			keys(static), ledger, overlap)
	}
}

func keys(m map[string]bool) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

// TestDebugifySuiteClean is the suite-wide gate: every subject of the
// test suite, built under both profiles at every level, preserves 100%
// of the injectable invariants — zero findings, no allowlist.
func TestDebugifySuiteClean(t *testing.T) {
	if testing.Short() {
		t.Skip("full 91-cell matrix in -short mode")
	}
	rep, err := Debugify(DefaultDebugifyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Quarantined != 0 {
		t.Fatalf("%d cells quarantined", rep.Quarantined)
	}
	for _, f := range rep.Findings {
		t.Errorf("FAIL %s", f)
	}
}

// TestWriteDebugifyDeterministic pins the report to be byte-identical
// at any worker-pool size.
func TestWriteDebugifyDeterministic(t *testing.T) {
	opts := DebugifyOptions{
		Subjects: []string{"libpng", "zlib"},
		Verify:   true,
	}
	render := func(workers int) string {
		workerpool.SetWorkers(workers)
		defer workerpool.SetWorkers(0)
		var buf bytes.Buffer
		if _, err := WriteDebugify(&buf, opts); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	serial := render(1)
	parallel := render(4)
	if serial != parallel {
		t.Fatalf("report differs between -j1 and -j4:\n--- j1 ---\n%s--- j4 ---\n%s",
			serial, parallel)
	}
}

// debugifyOnStore renders debugify with the store in dir as the
// process-wide store, as a process started with -cachedir dir does, and
// ex (nil for none) as the resilience executor.
func debugifyOnStore(t *testing.T, dir string, ex *resilience.Executor, opts DebugifyOptions) (string, *DebugifyReport, *telemetry.Sink) {
	t.Helper()
	d, err := evalcache.OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer evalcache.SetDefaultDisk(evalcache.DefaultDisk())
	evalcache.SetDefaultDisk(d)
	defer resilience.Install(resilience.Install(ex))
	snk := telemetry.NewSink()
	defer telemetry.Install(telemetry.Install(snk))
	var buf bytes.Buffer
	rep, err := WriteDebugify(&buf, opts)
	if err != nil {
		t.Fatal(err)
	}
	return buf.String(), rep, snk
}

// storeDebugifyOpts is a small matrix for the store tests.
var storeDebugifyOpts = DebugifyOptions{
	Subjects: []string{"libpng", "zlib"},
	Profiles: []pipeline.Profile{pipeline.GCC},
	Verify:   true,
}

// TestDebugifyStoreKeysVerify: a plain debugify (verify-each off) into a
// store, then a verified one from it, must print a cold verified run's
// bytes. A key without the verify flag reads the plain run's empty
// reports and prints 100% survival with no scoreboard.
func TestDebugifyStoreKeysVerify(t *testing.T) {
	var cold bytes.Buffer
	if _, err := WriteDebugify(&cold, storeDebugifyOpts); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	plain := storeDebugifyOpts
	plain.Verify = false
	debugifyOnStore(t, dir, nil, plain)
	got, _, _ := debugifyOnStore(t, dir, nil, storeDebugifyOpts)
	if got != cold.String() {
		t.Fatalf("verified run on a plain run's store differs from a cold one:\n--- store:\n%s--- cold:\n%s", got, cold.String())
	}
}

// TestDebugifyChaosRunStoresNoQuarantine: a debugify under fault
// injection fills a store, and a clean rerun on it must print the cold
// run's bytes: finished cells are read back, quarantined ones were
// never stored and are rebuilt.
func TestDebugifyChaosRunStoresNoQuarantine(t *testing.T) {
	var cold bytes.Buffer
	if _, err := WriteDebugify(&cold, storeDebugifyOpts); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	ex := resilience.NewExecutor(resilience.DefaultPolicy())
	ex.Chaos = &resilience.Chaos{Rate: 0.5, Seed: 3}
	if _, rep, _ := debugifyOnStore(t, dir, ex, storeDebugifyOpts); rep.Quarantined == 0 {
		t.Fatal("chaos quarantined nothing; the test exercises no policy")
	}
	clean, rep, snk := debugifyOnStore(t, dir, nil, storeDebugifyOpts)
	if clean != cold.String() || rep.Quarantined != 0 {
		t.Fatalf("clean rerun on the chaos run's store differs from a cold run:\n--- rerun:\n%s--- cold:\n%s", clean, cold.String())
	}
	if snk.Counter("diskcache.debugify.hit") == 0 || snk.Counter("diskcache.debugify.miss") == 0 {
		t.Fatalf("rerun read %d and rebuilt %d cells, want some of each",
			snk.Counter("diskcache.debugify.hit"), snk.Counter("diskcache.debugify.miss"))
	}
}
