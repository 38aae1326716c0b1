// Command bench runs the DebugTuner benchmark. It times the three
// user paths through the programs' outside interfaces only — the
// experiments CLI and tunerd's v1 HTTP API — checks their outputs, and
// prints one JSON result line. With -trace 1 it instead runs the
// program's own telemetry export and an in-process replay (cmd/replay)
// and prints per-layer metrics. See perfbench/NOTES.md.
//
// Run it through perfbench/run.sh, which builds it and the programs:
//
//	bash perfbench/run.sh --workload tables|debugify|serve --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh --workload all    # every workload, one summary table
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"debugtuner/perfbench/report"
	"debugtuner/perfbench/stats"
)

type (
	metric = report.Metric
	result = report.Result
)

// val is a metric of value v in unit.
func val(v float64, unit string) metric { return metric{Value: v, Unit: unit} }

// env is what every workload needs: where things live and the run's
// parameters.
type env struct {
	ctx     context.Context
	root    string // checkout root
	bin     string // directory of the built programs
	dir     string // this run's private scratch directory
	seed    int64
	seconds float64
	digests map[string]string
}

// runStats is one workload's timed run.
type runStats struct {
	attempted, failed int
	problems          []string
	wallS             float64   // the cold pass
	warmS             []float64 // each warm pass
	cpuS              float64   // user+sys of the process that ran the cold pass
	rssMiB            []float64 // peak RSS of each measured pass's process
	setupS            []float64 // each set-up
	latMS             []float64 // serve: per-request latency of the cold pass
	coldOut           []byte    // batch workloads: the cold pass's stdout
}

// fail counts n failed operations and records why.
func (s *runStats) fail(n int, format string, args ...any) {
	s.failed += n
	s.problems = append(s.problems, fmt.Sprintf(format, args...))
}

// addProc records the peak RSS of a process that ran a measured pass.
func (s *runStats) addProc(p proc) {
	s.rssMiB = append(s.rssMiB, float64(p.RSSKiB)/1024)
}

// endToEnd is the gated metric set; every workload reports all of it.
func (s *runStats) endToEnd() map[string]metric {
	return map[string]metric{
		"wall_s":      val(s.wallS, "s"),
		"warm_s":      val(stats.Median(s.warmS), "s"),
		"cpu_s":       val(s.cpuS, "s"),
		"peak_rss_mb": val(stats.Median(s.rssMiB), "MiB"),
		"setup_s":     val(stats.Median(s.setupS), "s"),
	}
}

// summary adds the ungated figures users read beside the gated ones:
// the failure ratio everywhere, request percentiles for serve.
func (s *runStats) summary() map[string]metric {
	m := s.endToEnd()
	m["fail_ratio"] = val(float64(s.failed)/float64(max(s.attempted, 1)), "ratio")
	if len(s.latMS) > 0 {
		for _, p := range []float64{50, 90} {
			if v, err := stats.Percentile(s.latMS, p); err == nil {
				m[fmt.Sprintf("p%.0f_ms", p)] = val(v, "ms")
			}
		}
	}
	return m
}

var workloads = map[string]func(*env, bool) (*runStats, error){
	"tables":   tables,
	"debugify": debugify,
	"serve":    serve,
}

func main() {
	workload := flag.String("workload", "", "tables, debugify, serve, or all")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 20, "minimum measured time per run")
	trace := flag.Int("trace", 0, "1 = traced run: telemetry export plus replay, per-layer metrics")
	root := flag.String("root", ".", "checkout root")
	bin := flag.String("bin", ".bench_build/bin", "directory of the built programs")
	tmp := flag.String("tmp", ".bench_build/tmp", "scratch directory")
	flag.Parse()
	if err := mainErr(*workload, *seed, *seconds, *trace == 1, *root, *bin, *tmp); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func mainErr(workload string, seed int64, seconds float64, traced bool, root, bin, tmp string) error {
	raw, err := os.ReadFile(filepath.Join(root, "perfbench", "digests.json"))
	if err != nil {
		return err
	}
	var digests map[string]string
	if err := json.Unmarshal(raw, &digests); err != nil {
		return fmt.Errorf("digests.json: %w", err)
	}
	runs := filepath.Join(tmp, "runs")
	// A run killed from outside leaves its directory behind; clear them.
	if err := os.RemoveAll(runs); err != nil {
		return err
	}
	// Every run must end inside 180 s; leave headroom for teardown.
	ctx, cancel := context.WithTimeout(context.Background(), 172*time.Second)
	defer cancel()
	mk := func(name string) (*env, error) {
		dir := filepath.Join(runs, name)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		return &env{ctx: ctx, root: root, bin: bin, dir: dir, seed: seed,
			seconds: seconds, digests: digests}, nil
	}
	defer os.RemoveAll(runs)

	if workload == "all" {
		return runAll(mk)
	}
	fn, ok := workloads[workload]
	if !ok {
		return fmt.Errorf("unknown workload %q (want tables, debugify, serve or all)", workload)
	}
	e, err := mk(workload)
	if err != nil {
		return err
	}
	steal0, stealOK := stealSeconds()
	start := time.Now()
	var res result
	if traced {
		res, err = traceRun(e, workload, fn)
	} else {
		var s *runStats
		s, err = fn(e, false)
		if err == nil {
			printSummary(workload, s)
			res = result{Correct: s.failed == 0, Attempted: s.attempted,
				Failed: s.failed, Metrics: s.endToEnd()}
		}
	}
	if err != nil {
		return err
	}
	printContext(workload, seed, traced, time.Since(start), steal0, stealOK)
	line, err := report.Line(res)
	if err != nil {
		return err
	}
	fmt.Println(line)
	return nil
}

// runAll runs every workload once and prints one table of every
// end-to-end figure, gated or not.
func runAll(mk func(string) (*env, error)) error {
	names := []string{"tables", "debugify", "serve"}
	all := result{Correct: true, Metrics: map[string]metric{}}
	for _, name := range names {
		e, err := mk(name)
		if err != nil {
			return err
		}
		s, err := workloads[name](e, false)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		printSummary(name, s)
		all.Attempted += s.attempted
		all.Failed += s.failed
		all.Correct = all.Correct && s.failed == 0
		for k, v := range s.summary() {
			all.Metrics[name+"."+k] = v
		}
	}
	line, err := report.Line(all)
	if err != nil {
		return err
	}
	fmt.Println(line)
	return nil
}

// printSummary writes the run's figures, by name with their units, and
// any failed output checks to standard error.
func printSummary(workload string, s *runStats) {
	m := s.summary()
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	var b strings.Builder
	fmt.Fprintf(&b, "%s:", workload)
	for _, k := range names {
		fmt.Fprintf(&b, " %s=%.4g%s", k, m[k].Value, m[k].Unit)
	}
	fmt.Fprintf(&b, " attempted=%d failed=%d", s.attempted, s.failed)
	fmt.Fprintln(os.Stderr, b.String())
	for _, p := range s.problems {
		fmt.Fprintf(os.Stderr, "%s: FAILED CHECK: %s\n", workload, p)
	}
}

// printContext records the machine the run saw, so a spread can be
// traced back to the host. Context only: nothing here is gated.
func printContext(workload string, seed int64, traced bool, d time.Duration, steal0 float64, stealOK bool) {
	ctx := report.Context{
		Workload:   workload,
		Seed:       seed,
		Traced:     traced,
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		RunS:       d.Seconds(),
	}
	if steal1, ok := stealSeconds(); ok && stealOK {
		steal := steal1 - steal0
		ctx.StealS = &steal
	}
	line, _ := report.Line(ctx) // a struct of plain values always marshals
	fmt.Fprintf(os.Stderr, "context: %s\n", line)
}

// digest is the hex SHA-256 of b.
func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// checkDigest compares b against the digest committed under key.
func (e *env) checkDigest(key string, b []byte) error {
	want, ok := e.digests[key]
	if !ok {
		return fmt.Errorf("no committed digest %q", key)
	}
	if got := digest(b); got != want {
		return fmt.Errorf("%s digest %s, committed %s", key, got, want)
	}
	return nil
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// inf is a failed request's latency: it misses every limit.
var inf = math.Inf(1)
