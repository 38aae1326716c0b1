package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"

	"debugtuner/perfbench/spans"
	"debugtuner/perfbench/stats"
)

// telemetryFile is the part of the program's telemetry export (the
// experiments -metrics file, tunerd's /debug/metrics) the trace reads.
type telemetryFile struct {
	WallSeconds float64            `json:"wall_seconds"`
	Counters    map[string]float64 `json:"counters"`
	Damage      []struct {
		Pass   string `json:"pass"`
		WallNS int64  `json:"wall_ns"`
	} `json:"damage"`
}

// cleanupS is the time the always-on cleanup passes spent, from the
// pass damage ledger.
func (t *telemetryFile) cleanupS() float64 {
	var ns int64
	for _, d := range t.Damage {
		if strings.HasPrefix(d.Pass, "cleanup/") {
			ns += d.WallNS
		}
	}
	return float64(ns) / 1e9
}

// telemetry is one workload's telemetry run: the timed command again
// with the program's own export switched on.
type telemetry struct {
	runStats
	cold, warm telemetryFile // warm: tables only
	cleanupS   float64       // time in the always-on cleanup passes
	body       [][]byte      // serve: response bodies
}

// sub makes a child environment with its own directory.
func (e *env) sub(name string) (*env, error) {
	c := *e
	c.dir = filepath.Join(e.dir, name)
	return &c, os.MkdirAll(c.dir, 0o755)
}

// traceRun is the traced run: an untraced reference pass, the telemetry
// run, and the serial replay, folded into per-layer metrics.
func traceRun(e *env, workload string, fn func(*env, bool) (*runStats, error)) (result, error) {
	re, err := e.sub("reference")
	if err != nil {
		return result{}, err
	}
	ref, err := fn(re, true)
	if err != nil {
		return result{}, err
	}
	te, err := e.sub("telemetry")
	if err != nil {
		return result{}, err
	}
	var tel *telemetry
	switch workload {
	case "tables":
		tel, err = tablesTelemetry(te, ref)
	case "debugify":
		tel, err = debugifyTelemetry(te, ref)
	default:
		tel, err = serveTelemetry(te)
	}
	if err != nil {
		return result{}, err
	}
	rep, err := runReplay(e, workload, tel)
	if err != nil {
		return result{}, err
	}
	m := perLayer(ref, tel, rep)
	fmt.Fprintf(os.Stderr, "%s: untraced wall %.3fs cpu %.3fs; telemetry wall %.3fs\n",
		workload, ref.wallS, ref.cpuS, tel.wallS)
	for _, p := range append(ref.problems, tel.problems...) {
		fmt.Fprintf(os.Stderr, "%s: FAILED CHECK: %s\n", workload, p)
	}
	res := result{
		Attempted: ref.attempted + tel.attempted,
		Failed:    ref.failed + tel.failed,
		Metrics:   m,
	}
	res.Attempted++ // the replay is one operation
	if probs := replayProblems(workload, rep, tel); len(probs) > 0 {
		res.Failed++
		for _, p := range probs {
			fmt.Fprintf(os.Stderr, "%s: FAILED CHECK: replay: %s\n", workload, p)
		}
	}
	res.Correct = res.Failed == 0
	return res, nil
}

func readTelemetry(path string) (telemetryFile, error) {
	var t telemetryFile
	raw, err := os.ReadFile(path)
	if err != nil {
		return t, err
	}
	return t, json.Unmarshal(raw, &t)
}

// tablesTelemetry runs the cold and warm passes with -metrics and
// asserts the hermetic cache state: no disk hit when cold, no disk miss
// or write when warm.
func tablesTelemetry(e *env, ref *runStats) (*telemetry, error) {
	t := &telemetry{}
	bin, cache, err := stage(e, &t.runStats)
	if err != nil {
		return nil, err
	}
	for i, f := range []*telemetryFile{&t.cold, &t.warm} {
		path := filepath.Join(e.dir, fmt.Sprintf("metrics%d.json", i))
		p, err := run(e.ctx, bin, "-quick", "-cachedir", cache, "-metrics", path, "all")
		if err != nil {
			return nil, err
		}
		t.attempted++
		if p.Code != 0 || !bytes.Equal(p.Stdout, ref.coldOut) {
			t.fail(1, "telemetry pass %d: exit %d or stdout differs from the untraced pass", i, p.Code)
			continue
		}
		if *f, err = readTelemetry(path); err != nil {
			return nil, err
		}
		if i == 0 {
			t.wallS = p.Wall.Seconds()
		}
	}
	t.cleanupS = t.cold.cleanupS()
	if n := t.cold.Counters["diskcache.hit"]; n != 0 {
		t.fail(1, "cold pass: diskcache.hit = %v, want 0", n)
	}
	if n, w := t.warm.Counters["diskcache.miss"], t.warm.Counters["diskcache.write"]; n != 0 || w != 0 {
		t.fail(1, "warm pass: diskcache.miss = %v, diskcache.write = %v, want 0", n, w)
	}
	return t, nil
}

// debugifyTelemetry runs the matrix once with -metrics.
func debugifyTelemetry(e *env, ref *runStats) (*telemetry, error) {
	t := &telemetry{}
	bin, _, err := stage(e, &t.runStats)
	if err != nil {
		return nil, err
	}
	path := filepath.Join(e.dir, "metrics.json")
	p, err := run(e.ctx, bin, "-cachedir", "off", "-metrics", path, "debugify")
	if err != nil {
		return nil, err
	}
	t.attempted++
	t.wallS = p.Wall.Seconds()
	if p.Code != 0 || !bytes.Equal(p.Stdout, ref.coldOut) {
		t.fail(1, "telemetry run: exit %d or stdout differs from the untraced run", p.Code)
		return t, nil
	}
	t.cold, err = readTelemetry(path)
	t.cleanupS = t.cold.cleanupS()
	return t, err
}

// serveTelemetry runs the cold pass on a fresh tunerd and reads
// /debug/metrics before and after it; the counters are the difference.
func serveTelemetry(e *env) (*telemetry, error) {
	reqs, bodies := inputs(e)
	srv, _, err := startTunerd(e, filepath.Join(e.dir, "cache"))
	if err != nil {
		return nil, err
	}
	read := func() (telemetryFile, error) {
		var t telemetryFile
		raw, err := srv.get("/debug/metrics")
		if err == nil {
			err = json.Unmarshal(raw, &t)
		}
		return t, err
	}
	before, err := read()
	if err != nil {
		srv.stop()
		return nil, err
	}
	lat, got, wall, problems := srv.pass(e.ctx, reqs, bodies)
	after, err := read()
	if _, serr := srv.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return nil, err
	}
	t := &telemetry{cold: after, body: got}
	t.attempted, t.latMS, t.wallS = len(bodies), lat, wall.Seconds()
	for _, p := range problems {
		t.fail(1, "%s", p)
	}
	for k, v := range before.Counters {
		t.cold.Counters[k] -= v
	}
	t.cleanupS = after.cleanupS() - before.cleanupS()
	return t, nil
}

// runReplay builds cmd/replay and runs it on the workload's inputs.
func runReplay(e *env, workload string, tel *telemetry) (*spans.Replay, error) {
	bin := filepath.Join(e.bin, "replay")
	build := exec.CommandContext(e.ctx, "go", "build", "-o", bin, "./cmd/replay")
	build.Dir = filepath.Join(e.root, "perfbench")
	if out, err := build.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("building the replay: %v\n%s", err, out)
	}
	out := filepath.Join(e.dir, "replay.json")
	args := []string{"-workload", workload, "-out", out, "-tmp", filepath.Join(e.dir, "replay-store")}
	if err := os.MkdirAll(filepath.Join(e.dir, "replay-store"), 0o755); err != nil {
		return nil, err
	}
	if workload == "serve" {
		_, reqBodies := inputs(e)
		bodies := filepath.Join(e.dir, "requests.jsonl")
		if err := os.WriteFile(bodies, append(bytes.Join(reqBodies, []byte("\n")), '\n'), 0o644); err != nil {
			return nil, err
		}
		args = append(args, "-bodies", bodies, "-responses", filepath.Join(e.dir, "responses.jsonl"))
	}
	p, err := run(e.ctx, bin, args...)
	if err != nil {
		return nil, err
	}
	if p.Code != 0 {
		return nil, fmt.Errorf("replay exited %d: %s", p.Code, tail(p.Stderr))
	}
	r, err := spans.ReadFile(out)
	if err != nil {
		return nil, err
	}
	if workload == "serve" {
		resp, err := os.ReadFile(filepath.Join(e.dir, "responses.jsonl"))
		if err != nil {
			return nil, err
		}
		if !bytes.Equal(resp, bytes.Join(tel.body, nil)) {
			r.Counts["serve.response_mismatches"] = 1
		}
	}
	return r, nil
}

// replayProblems are the replay's own output checks.
func replayProblems(workload string, r *spans.Replay, tel *telemetry) []string {
	var out []string
	if n := r.Counts["oracle.mismatches"]; n > 0 {
		out = append(out, fmt.Sprintf("%v Machine.Call outputs differ from ir.Interp", n))
	}
	if workload == "tables" && r.Counts["oracle.checked"] == 0 {
		out = append(out, "no Machine.Call output was checked against ir.Interp")
	}
	if n := r.Counts["staticdbg.findings"]; n > 0 {
		out = append(out, fmt.Sprintf("%v non-advisory static findings", n))
	}
	if r.Counts["serve.response_mismatches"] > 0 {
		out = append(out, "in-process responses differ from tunerd's")
	}
	if workload == "serve" && len(r.TuneMS) != len(tel.latMS) {
		out = append(out, fmt.Sprintf("replayed %d requests, sent %d", len(r.TuneMS), len(tel.latMS)))
	}
	return out
}

// perLayer folds the reference, telemetry and replay into the per-layer
// metric set. Every workload reports every metric; a layer a workload
// does not reach reads 0.
func perLayer(ref *runStats, tel *telemetry, r *spans.Replay) map[string]metric {
	layers := spans.SelfTimes(r.Spans)
	self := func(l string) float64 { return float64(layers[l].SelfNS) / 1e9 }
	calls := func(l string) float64 { return float64(layers[l].Calls) }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	var total float64
	for name, l := range layers {
		if name != "oracle" { // the oracle checks the program; it is not program work
			total += float64(l.SelfNS) / 1e9
		}
	}
	cold, warm := tel.cold.Counters, tel.warm.Counters
	workers := float64(runtime.GOMAXPROCS(0))
	m := map[string]metric{
		"frontend.calls":        val(calls("frontend"), "count"),
		"frontend.self_s":       val(self("frontend"), "s"),
		"corpus.self_s":         val(self("corpus"), "s"),
		"passes.calls":          val(calls("passes"), "count"),
		"passes.self_s":         val(self("passes"), "s"),
		"passes.cleanup_s":      val(tel.cleanupS, "s"),
		"passes.ir_instrs":      val(r.Counts["passes.ir_instrs"], "count"),
		"codegen.calls":         val(calls("codegen"), "count"),
		"codegen.self_s":        val(self("codegen"), "s"),
		"codegen.instrs":        val(r.Counts["codegen.instrs"], "count"),
		"vm.calls":              val(calls("vm"), "count"),
		"vm.self_s":             val(self("vm"), "s"),
		"vm.steps":              val(cold["vm.steps"], "count"),
		"vm.steps_per_s":        val(ratio(r.Counts["vm.steps"], self("vm")), "1/s"),
		"debugger.calls":        val(calls("debugger"), "count"),
		"debugger.self_s":       val(self("debugger"), "s"),
		"metrics.calls":         val(calls("metrics"), "count"),
		"metrics.self_s":        val(self("metrics"), "s"),
		"tuner.cells":           val(r.Counts["tuner.cells"], "count"),
		"tuner.pruned_ratio":    val(ratio(r.Counts["tuner.pruned"], r.Counts["tuner.cells"]), "ratio"),
		"staticdbg.calls":       val(calls("staticdbg"), "count"),
		"staticdbg.self_s":      val(self("staticdbg"), "s"),
		"staticdbg.findings":    val(r.Counts["staticdbg.findings"], "count"),
		"dataflow.self_s":       val(self("dataflow"), "s"),
		"verify.self_s":         val(self("verify"), "s"),
		"verify.steps":          val(r.Counts["verify.steps"], "count"),
		"verify.overhead_ratio": val(ratio(r.Counts["verify.verified_ns"], r.Counts["verify.plain_ns"]), "ratio"),
		"autofdo.self_s":        val(self("autofdo"), "s"),
		"evalcache.mem_hits":    val(cold["evalcache.hit"]+warm["evalcache.hit"], "count"),
		"evalcache.mem_misses":  val(cold["evalcache.miss"]+warm["evalcache.miss"], "count"),
		"diskcache.writes":      val(cold["diskcache.write"], "count"),
		"diskcache.reads":       val(cold["diskcache.hit"]+warm["diskcache.hit"], "count"),
		"diskcache.put_s":       val(self("diskcache.put"), "s"),
		"diskcache.get_s":       val(self("diskcache.get"), "s"),
		"workerpool.busy_share": val(ratio(cold["workerpool.busy_ns"]/1e9, tel.wallS*workers), "ratio"),
		"api.self_s":            val(self("api"), "s"),
		"serve.self_s":          val(self("serve"), "s"),
		"serve.cache_misses":    val(cold["tunerd.cache.miss"], "count"),
		"trace.overhead_pct":    val(100*ratio(tel.wallS-ref.wallS, ref.wallS), "%"),
		"replay.coverage":       val(ratio(total, ref.cpuS), "ratio"),
	}
	var compute, overhead float64
	if len(r.TuneMS) > 0 && len(r.TuneMS) == len(tel.latMS) {
		diff := make([]float64, len(r.TuneMS))
		for i := range diff {
			diff[i] = tel.latMS[i] - r.TuneMS[i]
		}
		compute, overhead = stats.Median(r.TuneMS), stats.Median(diff)
	}
	m["serve.compute_ms"] = val(compute, "ms")
	m["serve.overhead_ms"] = val(overhead, "ms")
	return m
}
