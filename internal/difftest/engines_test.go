package difftest

import (
	"fmt"
	"reflect"
	"testing"

	"debugtuner/internal/debuginfo"
	"debugtuner/internal/pipeline"
	"debugtuner/internal/specsuite"
	"debugtuner/internal/testsuite"
	"debugtuner/internal/vm"
)

// breakObs is what an OnBreak handler observes at a stop.
type breakObs struct {
	Addr     int
	Owner    [vm.NumRegs]int32
	SlotOwn  []int32
	Prologue bool
}

// engineObs is one engine's complete observable machine state over a
// subject's full run protocol: the print stream and return values the
// behavior oracle compares, every cost counter the experiment tables
// are derived from, and the PC samples, coverage edges and breakpoint
// observations the instrumented consumers read.
type engineObs struct {
	Output  []int64
	Rets    []int64
	Cycles  int64
	Steps   int64
	Stall   int64
	ICM     int64
	Taken   int64
	Fall    int64
	Jmps    int64
	Slots   int64
	Errs    []string
	Samples []int
	Edges   map[uint64]int64
	Breaks  []breakObs
}

// instrument is the instrumentation one observation run installs.
type instrument struct {
	sampleEvery int64
	coverage    bool
	// debugger runs every input on one machine under the debugger's
	// temporary-breakpoint protocol; otherwise each input gets a fresh
	// machine, as the cycle-counting harnesses do.
	debugger bool
}

// instruments are the observation runs every case is compared under.
var instruments = []instrument{
	{},
	{sampleEvery: 1},
	{sampleEvery: 7, coverage: true},
	{sampleEvery: 997, coverage: true, debugger: true},
	{coverage: true, debugger: true},
}

// observeEngine runs the subject's protocol (or entry, for bin without a
// subject) with a forced execution engine, accumulating counters across
// all harness inputs.
func observeEngine(t *testing.T, s *Subject, bin *vm.Binary, eng vm.Engine, budget int64, ins instrument) engineObs {
	var obs engineObs
	var shared *vm.Machine
	machine := func() *vm.Machine {
		if shared != nil {
			return shared
		}
		m := vm.New(bin)
		m.Engine = eng
		m.StepBudget = budget
		m.SampleEvery = ins.sampleEvery
		if ins.coverage {
			m.EnableCoverage()
		}
		if ins.debugger {
			tab, err := debuginfo.Decode(bin.Debug)
			if err != nil {
				t.Fatal(err)
			}
			lineAddrs := tab.BreakAddrs()
			for _, addrs := range lineAddrs {
				for _, a := range addrs {
					m.SetBreak(int(a))
				}
			}
			m.OnBreak = func(m *vm.Machine, addr int) {
				line := int(tab.LineForAddr(uint32(addr)))
				if line <= 0 {
					m.ClearBreak(addr)
					return
				}
				fr := m.Frame()
				obs.Breaks = append(obs.Breaks, breakObs{
					Addr: addr, Owner: fr.Owner,
					SlotOwn:  append([]int32(nil), fr.SlotOwn...),
					Prologue: fr.PrologueDone,
				})
				for _, a := range lineAddrs[line] {
					m.ClearBreak(int(a))
				}
			}
			shared = m
		}
		return m
	}
	done := func(m *vm.Machine) {
		if m == shared {
			return
		}
		obs.collect(m)
	}
	run := func(name string, args ...int64) {
		m := machine()
		ret, err := m.Call(name, args...)
		if err != nil {
			obs.Errs = append(obs.Errs, err.Error())
		} else {
			obs.Rets = append(obs.Rets, ret)
		}
		done(m)
	}
	if s == nil || len(s.Harnesses) == 0 {
		entry := "main"
		if s != nil {
			entry = s.entry()
		}
		run(entry)
	} else {
		for _, h := range s.Harnesses {
			for _, in := range s.Inputs[h] {
				m := machine()
				hd := m.NewArray(in)
				ret, err := m.Call(h, hd, int64(len(in)))
				if err != nil {
					obs.Errs = append(obs.Errs, err.Error())
				} else {
					obs.Rets = append(obs.Rets, ret)
				}
				done(m)
			}
		}
	}
	if shared != nil {
		obs.collect(shared)
	}
	return obs
}

// collect adds one machine's output and counters to the observation.
func (obs *engineObs) collect(m *vm.Machine) {
	obs.Output = append(obs.Output, m.Output()...)
	obs.Cycles += m.Cycles
	obs.Steps += m.Steps
	obs.Stall += m.StallCycles
	obs.ICM += m.ICacheMisses
	obs.Taken += m.TakenBr
	obs.Fall += m.FallBr
	obs.Jmps += m.JmpsRun
	obs.Slots += m.SlotOpsRun
	obs.Samples = append(obs.Samples, m.Samples...)
	for e, n := range m.CovEdges {
		if obs.Edges == nil {
			obs.Edges = map[uint64]int64{}
		}
		obs.Edges[e] += n
	}
}

// diffObs names the first field on which two observations differ.
func diffObs(ref, got engineObs) string {
	rv, gv := reflect.ValueOf(ref), reflect.ValueOf(got)
	for i := 0; i < rv.NumField(); i++ {
		if !reflect.DeepEqual(rv.Field(i).Interface(), gv.Field(i).Interface()) {
			r, g := fmt.Sprint(rv.Field(i).Interface()), fmt.Sprint(gv.Field(i).Interface())
			return fmt.Sprintf("%s: ref %.300s\n got %.300s", rv.Type().Field(i).Name, r, g)
		}
	}
	return ""
}

// checkBlockCore compares the block core with the reference engine on
// one binary under every instrumentation.
func checkBlockCore(t *testing.T, label string, s *Subject, bin *vm.Binary, budget int64, ins []instrument) {
	t.Helper()
	for _, in := range ins {
		ref := observeEngine(t, s, bin, vm.EngineReference, budget, in)
		got := observeEngine(t, s, bin, vm.EngineAuto, budget, in)
		if d := diffObs(ref, got); d != "" {
			t.Errorf("%s %+v: block core diverges from reference on %s", label, in, d)
		}
	}
}

// TestBlockCoreVsReferenceOverCorpus is the block core's differential:
// every test-suite program plus a band of synth seeds, built at both
// ends of the optimization range, must produce bit-identical observable
// machine state on the reference switch interpreter and the block core
// — output, return values, errors, the full cost-counter vector, PC
// samples at three periods, coverage edges, and every breakpoint stop
// of a debugger session (which also runs many Calls on one machine).
// Any block-formation or summary bug that perturbs semantics, the cycle
// model (which feeds every experiment table) or debugger observations
// fails here.
func TestBlockCoreVsReferenceOverCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus sweep is the long differential")
	}
	var subjects []*Subject
	for _, name := range testsuite.Names {
		s, err := SuiteSubject(name)
		if err != nil {
			t.Fatal(err)
		}
		subjects = append(subjects, s)
	}
	for seed := int64(1); seed <= 8; seed++ {
		subjects = append(subjects, SynthSubject(seed))
	}
	for _, s := range subjects {
		t.Run(s.Name, func(t *testing.T) {
			t.Parallel()
			ir0, _, err := s.frontend()
			if err != nil {
				t.Fatalf("%s: %v", s.Name, err)
			}
			for _, cfg := range engineConfigs {
				bin := pipeline.Build(ir0, cfg)
				checkBlockCore(t, s.Name+" ["+cfg.Name()+"]", s, bin, DefaultBudget, instruments)
			}
		})
	}
}

// TestBlockCoreStepBudgetSweep ends runs at budgets spread over a whole
// corpus run, so the budget expires inside blocks, on their last
// instruction and inside callees.
func TestBlockCoreStepBudgetSweep(t *testing.T) {
	s, err := SuiteSubject(testsuite.Names[0])
	if err != nil {
		t.Fatal(err)
	}
	ir0, _, err := s.frontend()
	if err != nil {
		t.Fatal(err)
	}
	bin := pipeline.Build(ir0, pipeline.MustConfig(pipeline.GCC, "O2"))
	full := observeEngine(t, s, bin, vm.EngineReference, DefaultBudget, instrument{})
	first := full.Steps / int64(len(full.Rets)+len(full.Errs))
	for budget := int64(1); budget < first; budget = budget*3/2 + 1 {
		checkBlockCore(t, fmt.Sprintf("budget %d", budget), s, bin, budget, instruments[:4])
	}
	// Every step of a short window: each offset inside a block.
	for budget := first / 2; budget < first/2+40; budget++ {
		checkBlockCore(t, fmt.Sprintf("budget %d", budget), s, bin, budget, instruments[:1])
	}
}

// TestBlockCoreVsReferenceOnSpec runs the SPEC stand-ins' ref workloads
// (the timing runs behind Tables VIII, XI and XII and the AutoFDO
// study) on both engines.
func TestBlockCoreVsReferenceOnSpec(t *testing.T) {
	if testing.Short() {
		t.Skip("SPEC ref workloads are the long differential")
	}
	names := append(append([]string(nil), specsuite.Names...), "selfcomp")
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			ir0, err := specsuite.LoadIR(name)
			if err != nil {
				t.Fatal(err)
			}
			for _, cfg := range engineConfigs {
				bin := pipeline.Build(ir0, cfg)
				checkBlockCore(t, name+" ["+cfg.Name()+"]", nil, bin, 1<<33, []instrument{
					{},
					{sampleEvery: 997, coverage: true, debugger: true},
				})
			}
		})
	}
}

// engineConfigs span the optimization range the experiments measure.
var engineConfigs = []pipeline.Config{
	pipeline.MustConfig(pipeline.GCC, "O0"),
	pipeline.MustConfig(pipeline.GCC, "O2"),
	pipeline.MustConfig(pipeline.Clang, "O3"),
}
