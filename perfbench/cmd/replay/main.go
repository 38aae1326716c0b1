// Command replay is the benchmark's traced in-process replay. It sends
// a workload's inputs serially through the program's layer entry
// points, one span per call (see package spans), and writes the spans
// and its counts as JSON when it exits. It is the only part of the
// benchmark that imports the program's internal packages, so a refactor
// that changes those can break the traced run but never the timed one.
//
//	replay -workload tables|debugify|serve -out replay.json [-bodies requests.jsonl -responses responses.jsonl] [-tmp dir]
package main

import (
	"bufio"
	"bytes"
	"flag"
	"fmt"
	"os"
	"reflect"
	"time"

	"debugtuner/internal/api"
	"debugtuner/internal/autofdo"
	"debugtuner/internal/codegen"
	"debugtuner/internal/dbgtrace"
	"debugtuner/internal/debugger"
	"debugtuner/internal/debuginfo"
	"debugtuner/internal/evalcache"
	"debugtuner/internal/experiments"
	"debugtuner/internal/ir"
	"debugtuner/internal/metrics"
	"debugtuner/internal/pipeline"
	"debugtuner/internal/sema"
	"debugtuner/internal/serve"
	"debugtuner/internal/specsuite"
	"debugtuner/internal/staticdbg"
	"debugtuner/internal/synth"
	"debugtuner/internal/testsuite"
	"debugtuner/internal/tuner"
	"debugtuner/internal/vm"
	"debugtuner/internal/workerpool"
	"debugtuner/perfbench/spans"
)

type replay struct {
	rec *spans.Recorder
	out spans.Replay
}

func main() {
	workload := flag.String("workload", "", "tables, debugify or serve")
	outPath := flag.String("out", "replay.json", "where to write spans and counts")
	bodies := flag.String("bodies", "", "serve: request bodies, one per line")
	responses := flag.String("responses", "", "serve: where to write the response bodies, one per line")
	tmp := flag.String("tmp", os.TempDir(), "tables: directory for the replay's disk store")
	flag.Parse()
	// Serial: spans of one goroutine nest, so self times are exact. The
	// serve replay keeps tunerd's worker count instead, so each
	// Service.Tune span takes what a tunerd request computes.
	if *workload != "serve" {
		workerpool.SetWorkers(1)
	}
	r := &replay{rec: spans.NewRecorder(), out: spans.Replay{Counts: map[string]float64{}}}
	var err error
	switch *workload {
	case "tables":
		err = r.tables(*tmp)
	case "debugify":
		err = r.debugify()
	case "serve":
		err = r.serve(*bodies, *responses)
	default:
		err = fmt.Errorf("unknown workload %q", *workload)
	}
	if err == nil {
		r.out.Spans = r.rec.Spans()
		err = spans.WriteFile(*outPath, &r.out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "replay:", err)
		os.Exit(1)
	}
}

// span runs fn inside a span named for its layer.
func (r *replay) span(layer string, fn func()) {
	end := r.rec.Begin(layer)
	fn()
	end()
}

func (r *replay) count(name string, n float64) { r.out.Counts[name] += n }

// frontend is pipeline.Frontend + pipeline.BuildIR.
func (r *replay) frontend(name string, src []byte) (info *sema.Info, ir0 *ir.Program, err error) {
	r.span("frontend", func() { info, err = pipeline.Frontend(name+".mc", src) })
	if err != nil {
		return nil, nil, err
	}
	r.span("frontend", func() { ir0, err = pipeline.BuildIR(info) })
	return info, ir0, err
}

// build is pipeline.Build split at its layer boundary: the middle end
// (OptimizeIR) then the back end (codegen.Compile).
func (r *replay) build(ir0 *ir.Program, cfg pipeline.Config) (*ir.Program, *vm.Binary) {
	var opt *ir.Program
	var opts codegen.Options
	r.span("passes", func() { opt, opts = pipeline.OptimizeIR(ir0, cfg) })
	var bin *vm.Binary
	r.span("codegen", func() { bin = codegen.Compile(opt, opts) })
	r.count("passes.ir_instrs", float64(irInstrs(opt)))
	r.count("codegen.instrs", float64(len(bin.Code)))
	return opt, bin
}

func irInstrs(prog *ir.Program) int {
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

// trace is a debug session over every harness input of p, or its entry
// function when it has none: what tuner.Program.Trace does, one span
// per debugger call.
func (r *replay) trace(p *tuner.Program, bin *vm.Binary) (*dbgtrace.Trace, error) {
	var s *debugger.Session
	var err error
	r.span("debugger", func() { s, err = debugger.NewSession(bin) })
	if err != nil {
		return nil, err
	}
	merged := dbgtrace.NewTrace()
	merged.Steppable = s.SteppableLines()
	ran := false
	for _, h := range p.Info.Harnesses {
		ins := p.Inputs[h]
		if len(ins) == 0 {
			continue
		}
		var tr *dbgtrace.Trace
		r.span("debugger", func() { tr, err = s.Trace(h, ins, p.Budget) })
		if err != nil {
			return nil, fmt.Errorf("%s/%s: %w", p.Name, h, err)
		}
		merged.Merge(tr)
		ran = true
	}
	if !ran {
		var tr *dbgtrace.Trace
		r.span("debugger", func() { tr, err = s.TraceMain(p.Entry, p.Budget) })
		if err != nil {
			return nil, fmt.Errorf("%s/%s: %w", p.Name, p.Entry, err)
		}
		merged.Merge(tr)
	}
	return merged, nil
}

// record sends one cell's record through the disk store: Put, then Get,
// and requires the round trip to return it unchanged.
func (r *replay) record(d *evalcache.Disk, key string, val metrics.Scores) error {
	r.span("diskcache.put", func() { d.Put(key, val) })
	var got metrics.Scores
	ok := false
	r.span("diskcache.get", func() { ok = d.Get(key, &got) })
	if !ok || !reflect.DeepEqual(got, val) {
		return fmt.Errorf("disk store round trip of %s: got %+v (found %v), put %+v", key, got, ok, val)
	}
	return nil
}

// quickSpec is the -quick SPEC subset.
var quickSpec = []string{"505.mcf", "531.deepsjeng", "557.xz"}

// tables replays `experiments -quick all`'s measured work: the suite
// load, the ranking matrix of both profiles, the SPEC stand-ins, AutoFDO
// collection and Table I's synthetic programs.
func (r *replay) tables(tmp string) error {
	opts := experiments.DefaultOptions()
	var subjects []*testsuite.Subject
	var err error
	r.span("corpus", func() {
		subjects, err = testsuite.LoadAll(testsuite.CorpusOptions{Execs: 120}) // -quick
	})
	if err != nil {
		return err
	}
	progs := testsuite.Programs(subjects)
	disk, err := evalcache.OpenDisk(tmp)
	if err != nil {
		return err
	}
	o0 := pipeline.MustConfig(pipeline.GCC, "O0")
	bases := map[string]*dbgtrace.Trace{}
	for _, p := range progs {
		r.rec.SetCell(p.Name + "|O0")
		_, bin := r.build(p.IR0, o0)
		if bases[p.Name], err = r.trace(p, bin); err != nil {
			return err
		}
	}
	for _, profile := range []pipeline.Profile{pipeline.GCC, pipeline.Clang} {
		for _, level := range pipeline.Levels(profile) {
			if err := r.rankLevel(disk, progs, bases, profile, level); err != nil {
				return err
			}
		}
	}
	if err := r.spec(); err != nil {
		return err
	}
	for _, name := range quickSpec {
		r.rec.SetCell(name + "|autofdo")
		ir0, err := specsuite.LoadIR(name)
		if err != nil {
			return err
		}
		cfg := pipeline.MustConfig(pipeline.Clang, "O2", pipeline.WithProfiling())
		_, bin := r.build(ir0, cfg)
		r.span("autofdo", func() { _, err = autofdo.Collect(bin, "main", opts.SampleEvery) })
		if err != nil {
			return err
		}
	}
	return r.table1(20) // -quick synthetic program count
}

// rankLevel is one level's cells: the reference build, then one build
// per single-pass toggle, pruned when its text equals the reference's,
// else traced and scored.
func (r *replay) rankLevel(disk *evalcache.Disk, progs []*tuner.Program, bases map[string]*dbgtrace.Trace,
	profile pipeline.Profile, level string) error {
	ref := pipeline.MustConfig(profile, level)
	for _, p := range progs {
		r.rec.SetCell(p.Name + "|" + ref.Name())
		_, refBin := r.build(p.IR0, ref)
		if err := r.score(disk, p, bases[p.Name], refBin, ref.Name()); err != nil {
			return err
		}
		for _, toggle := range pipeline.EnabledPasses(profile, level) {
			cfg := pipeline.MustConfig(profile, level, pipeline.Disable(toggle))
			r.rec.SetCell(p.Name + "|" + cfg.Name() + "-" + toggle)
			_, bin := r.build(p.IR0, cfg)
			r.count("tuner.cells", 1)
			if bin.TextHash() == refBin.TextHash() {
				r.count("tuner.pruned", 1)
				continue
			}
			if err := r.score(disk, p, bases[p.Name], bin, ref.Name()+"-"+toggle); err != nil {
				return err
			}
		}
	}
	return nil
}

// score traces a build, computes its hybrid metric and stores it.
func (r *replay) score(disk *evalcache.Disk, p *tuner.Program, base *dbgtrace.Trace, bin *vm.Binary, cfg string) error {
	tr, err := r.trace(p, bin)
	if err != nil {
		return err
	}
	var s metrics.Scores
	r.span("metrics", func() { s = metrics.Hybrid(tr, base, p.DR) })
	return r.record(disk, "replay|"+p.Name+"|"+cfg, s)
}

// spec runs the quick SPEC stand-ins at every level through
// Machine.Call and requires each output to equal the independent IR
// interpreter's on the same optimized IR.
func (r *replay) spec() error {
	var cfgs []pipeline.Config
	for _, p := range []pipeline.Profile{pipeline.GCC, pipeline.Clang} {
		cfgs = append(cfgs, pipeline.MustConfig(p, "O0"))
		for _, l := range pipeline.Levels(p) {
			cfgs = append(cfgs, pipeline.MustConfig(p, l))
		}
	}
	for _, name := range quickSpec {
		src, err := specsuite.Source(name)
		if err != nil {
			return err
		}
		r.rec.SetCell(name)
		_, ir0, err := r.frontend(name, src)
		if err != nil {
			return err
		}
		for _, cfg := range cfgs {
			r.rec.SetCell(name + "|" + cfg.Name())
			opt, bin := r.build(ir0, cfg)
			var m *vm.Machine
			r.span("vm", func() {
				m = vm.New(bin)
				m.StepBudget = 1 << 33
				_, err = m.Call("main")
			})
			if err != nil {
				return fmt.Errorf("%s %s: %w", name, cfg.Name(), err)
			}
			r.count("vm.steps", float64(m.Steps))
			in := ir.NewInterp(opt, 1<<33)
			r.span("oracle", func() { _, err = in.Call("main") })
			if err != nil {
				return fmt.Errorf("%s %s: interpreter: %w", name, cfg.Name(), err)
			}
			r.count("oracle.checked", 1)
			if !reflect.DeepEqual(m.Output(), in.Output()) {
				r.count("oracle.mismatches", 1)
			}
		}
	}
	return nil
}

// synthOptions are Table I's generator settings (internal/experiments).
var synthOptions = synth.Options{
	Funcs: 3, MaxDepth: 2, MaxStmts: 4, MaxVars: 5,
	MaxExpr: 4, Arrays: 2, Globals: 3,
}

// table1 scores the first n runnable synthetic programs at every level
// by the static, dynamic, hybrid and proven-static metrics.
func (r *replay) table1(n int) error {
	var cfgs []pipeline.Config
	for _, p := range []pipeline.Profile{pipeline.GCC, pipeline.Clang} {
		for _, l := range pipeline.Levels(p) {
			cfgs = append(cfgs, pipeline.MustConfig(p, l))
		}
	}
	o0 := pipeline.MustConfig(pipeline.GCC, "O0")
	found := 0
	for seed := int64(0); found < n && seed < int64(n)*30; seed++ {
		name := fmt.Sprintf("synth%d", seed)
		r.rec.SetCell(name)
		info, ir0, err := r.frontend(name, []byte(synth.Generate(seed, synthOptions)))
		if err != nil {
			continue
		}
		var runErr error
		r.span("oracle", func() { _, runErr = ir.NewInterp(ir0, 1<<21).Call("main") })
		if runErr != nil {
			continue // not runnable: Table I skips the seed too
		}
		found++
		dr, stmt := sema.ComputeDefRanges(info), sema.StatementLines(info)
		_, bin := r.build(ir0, o0)
		base, err := r.traceMain(bin)
		if err != nil {
			return err
		}
		for _, cfg := range cfgs {
			r.rec.SetCell(name + "|" + cfg.Name())
			_, bin := r.build(ir0, cfg)
			tr, err := r.traceMain(bin)
			if err != nil {
				return err
			}
			var table *debuginfo.Table
			r.span("metrics", func() {
				if table, err = debuginfo.Decode(bin.Debug); err != nil {
					return
				}
				metrics.Dynamic(tr, base)
				metrics.Hybrid(tr, base, dr)
				metrics.Static(table, stmt, dr)
				metrics.StaticDbg(table, base, dr)
				metrics.StaticProven(bin, table, stmt, dr)
			})
			if err != nil {
				return err
			}
		}
	}
	return nil
}

func (r *replay) traceMain(bin *vm.Binary) (*dbgtrace.Trace, error) {
	var s *debugger.Session
	var tr *dbgtrace.Trace
	var err error
	r.span("debugger", func() {
		if s, err = debugger.NewSession(bin); err == nil {
			tr, err = s.TraceMain("main", 1<<22)
		}
	})
	return tr, err
}

// debugify replays the verify-each matrix cell by cell: injection, the
// plain build, the verified build, and the module, binary and dataflow
// checks of the result.
func (r *replay) debugify() error {
	for _, name := range testsuite.Names {
		src, err := testsuite.Source(name)
		if err != nil {
			return err
		}
		r.rec.SetCell(name)
		_, ir0, err := r.frontend(name, src)
		if err != nil {
			return err
		}
		for _, profile := range []pipeline.Profile{pipeline.GCC, pipeline.Clang} {
			for _, level := range pipeline.Levels(profile) {
				cfg := pipeline.MustConfig(profile, level)
				r.rec.SetCell(name + "|" + cfg.Name())
				var injected *ir.Program
				r.span("staticdbg", func() { injected, _ = staticdbg.Inject(ir0) })
				t0 := time.Now()
				r.build(ir0, cfg)
				r.count("verify.plain_ns", float64(time.Since(t0).Nanoseconds()))
				var rep *pipeline.VerifyReport
				t0 = time.Now()
				r.span("verify", func() { rep = pipeline.BuildVerified(ir0, cfg, true) })
				r.count("verify.verified_ns", float64(time.Since(t0).Nanoseconds()))
				r.count("verify.steps", float64(len(rep.Steps)))
				var mod, bin []staticdbg.Violation
				r.span("staticdbg", func() { mod = staticdbg.CheckModule(injected) })
				r.span("staticdbg", func() { bin = staticdbg.CheckBinary(rep.Bin) })
				r.span("dataflow", func() { staticdbg.DataflowVerdicts(rep.Bin) })
				findings := len(staticdbg.NonAdvisory(rep.Violations())) +
					len(staticdbg.NonAdvisory(mod)) + len(staticdbg.NonAdvisory(bin)) +
					len(rep.VerifyErrs())
				r.count("staticdbg.findings", float64(findings))
			}
		}
	}
	return nil
}

// serve replays each request body through the service's entry points:
// decode, canonical key, Service.Tune, envelope marshal. It writes the
// response bodies so the caller can compare them with tunerd's.
func (r *replay) serve(bodiesPath, responsesPath string) error {
	raw, err := os.ReadFile(bodiesPath)
	if err != nil {
		return err
	}
	out, err := os.Create(responsesPath)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(out)
	svc := &serve.Service{}
	for i, body := range bytes.Split(bytes.TrimRight(raw, "\n"), []byte("\n")) {
		r.rec.SetCell(fmt.Sprintf("request%d", i))
		var req *api.TuneRequest
		var aerr *api.Error
		r.span("api", func() { req, aerr = api.DecodeTuneRequest(bytes.NewReader(body)) })
		if aerr != nil {
			out.Close()
			return fmt.Errorf("request %d: %v", i, aerr)
		}
		r.span("api", func() { api.CanonicalKey("tune", req) })
		var res *api.TuneResult
		t0 := time.Now()
		r.span("serve", func() { res, err = svc.Tune(req) })
		r.out.TuneMS = append(r.out.TuneMS, float64(time.Since(t0).Nanoseconds())/1e6)
		if err != nil {
			out.Close()
			return fmt.Errorf("request %d: %w", i, err)
		}
		var env []byte
		r.span("api", func() { env, err = api.MarshalEnvelope(&api.Envelope{Kind: "tune", Tune: res}) })
		if err != nil {
			out.Close()
			return err
		}
		w.Write(env) // MarshalEnvelope ends each body with a newline
	}
	if err := w.Flush(); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
