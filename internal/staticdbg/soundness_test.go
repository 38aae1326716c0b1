package staticdbg_test

import (
	"fmt"
	"testing"

	"debugtuner/internal/dataflow"
	"debugtuner/internal/debuginfo"
	"debugtuner/internal/ir"
	"debugtuner/internal/pipeline"
	"debugtuner/internal/staticdbg"
	"debugtuner/internal/synth"
	"debugtuner/internal/testsuite"
	"debugtuner/internal/vm"
)

// soundnessBudget caps each instrumented run: with a breakpoint on
// every address the observer fires per step, so the budget bounds the
// test's wall clock, not its verdict (budget exhaustion is fine — the
// claims below are per observed state, not about completing the run).
const soundnessBudget = 1 << 16

// soundnessSubject is one corpus member: an O0 IR module plus how to
// drive it (harness functions with a canned input, or the entry once).
type soundnessSubject struct {
	name      string
	ir0       *ir.Program
	entry     string
	harnesses []string
}

// soundnessCorpus is the full cross-check corpus: every test-suite
// program plus eight synthetic seeds.
func soundnessCorpus(t *testing.T) []soundnessSubject {
	t.Helper()
	var out []soundnessSubject
	for _, name := range testsuite.Names {
		s, err := testsuite.LoadLite(name)
		if err != nil {
			t.Fatalf("load %s: %v", name, err)
		}
		out = append(out, soundnessSubject{
			name: name, ir0: s.IR0,
			entry:     s.Program.Entry,
			harnesses: s.Program.Info.Harnesses,
		})
	}
	for seed := int64(1); seed <= 8; seed++ {
		name := fmt.Sprintf("synth%d", seed)
		src := synth.Generate(seed, synth.DefaultOptions())
		info, err := pipeline.Frontend(name+".mc", []byte(src))
		if err != nil {
			t.Fatalf("frontend %s: %v", name, err)
		}
		ir0, err := pipeline.BuildIR(info)
		if err != nil {
			t.Fatalf("ir %s: %v", name, err)
		}
		out = append(out, soundnessSubject{name: name, ir0: ir0, entry: "main"})
	}
	return out
}

// TestDataflowSoundnessOnCorpus is the dynamic lock on the owner
// analysis: over the whole corpus at O0/O2/O3 under both profiles, a
// breakpoint on every address observes the reference machine's
// ownership state and asserts, per stop:
//
//   - the observed owner of every register and slot is in the may-set
//     (the analysis never excludes a state that happens);
//   - a collapsed (singleton) may-set predicts the owner exactly — the
//     derived must-facts hold;
//   - MustPrologueDone implies the frame's prologue really ran;
//   - execution never reaches an address the CFG called unreachable;
//   - no value the analyzer ruled stale ever materializes at a covered
//     address, and every loc-extendable proof materializes at the
//     claimed range's end — the two soundness directions the new rules
//     stand on.
func TestDataflowSoundnessOnCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	var configs []pipeline.Config
	for _, p := range []pipeline.Profile{pipeline.GCC, pipeline.Clang} {
		for _, level := range []string{"O0", "O2", "O3"} {
			configs = append(configs, pipeline.MustConfig(p, level))
		}
	}
	for _, sub := range soundnessCorpus(t) {
		for _, cfg := range configs {
			bin := pipeline.Build(sub.ir0, cfg)
			label := fmt.Sprintf("%s %s-%s", sub.name, cfg.Profile, cfg.Level)
			checkSoundness(t, label, bin, sub)
		}
	}
}

func checkSoundness(t *testing.T, label string, bin *vm.Binary, sub soundnessSubject) {
	t.Helper()
	verdicts := staticdbg.DataflowVerdicts(bin)
	byFunc := map[int][]staticdbg.LocVerdict{}
	for _, vd := range verdicts {
		byFunc[vd.FuncIdx] = append(byFunc[vd.FuncIdx], vd)
	}
	facts := map[int]*dataflow.OwnerFacts{}
	factsFor := func(fi int) *dataflow.OwnerFacts {
		if f, ok := facts[fi]; ok {
			return f
		}
		f := dataflow.NewOwnerFacts(bin, fi)
		facts[fi] = f
		return f
	}

	fails := 0
	bad := func(format string, args ...any) {
		if fails < 5 {
			t.Errorf("%s: %s", label, fmt.Sprintf(format, args...))
		}
		fails++
	}
	contains := func(xs []int32, x int32) bool {
		for _, v := range xs {
			if v == x {
				return true
			}
		}
		return false
	}

	observe := func(m *vm.Machine, addr int) {
		if fails >= 5 {
			return
		}
		fr := m.Frame()
		of := factsFor(fr.FnIdx)
		if !of.Reachable(addr) {
			bad("executed addr %d the analysis called unreachable (fn %d)", addr, fr.FnIdx)
			return
		}
		for r := 0; r < vm.NumRegs; r++ {
			owners := of.MayOwners(addr, dataflow.RegStorage(r))
			if !contains(owners, fr.Owner[r]) {
				bad("addr %d reg %d: observed owner %d outside may-set %v",
					addr, r, fr.Owner[r], owners)
			}
		}
		for sl := range fr.SlotOwn {
			owners := of.MayOwners(addr, dataflow.SlotStorage(sl))
			if !contains(owners, fr.SlotOwn[sl]) {
				bad("addr %d slot %d: observed owner %d outside may-set %v",
					addr, sl, fr.SlotOwn[sl], owners)
			}
		}
		if of.MustPrologueDone(addr) && !fr.PrologueDone {
			bad("addr %d: must-prologue-done but frame prologue not run", addr)
		}
		for _, vd := range byFunc[fr.FnIdx] {
			e := vd.Entry
			op := int(e.Operand)
			materializes := false
			switch e.Kind {
			case debuginfo.LocReg:
				materializes = op >= 0 && op < vm.NumRegs && fr.Owner[op] == vd.SymID+1
			case debuginfo.LocSpill:
				materializes = fr.PrologueDone && op >= 0 && op < len(fr.SlotOwn) &&
					fr.SlotOwn[op] == vd.SymID+1
			}
			if vd.Stale && addr >= int(e.Start) && addr < int(e.End) && materializes {
				bad("addr %d: stale verdict for sym %d %v materialized",
					addr, vd.SymID, e.Kind)
			}
			if !vd.Stale && addr == int(e.End) && !materializes {
				bad("addr %d: loc-extendable proof for sym %d %v does not materialize",
					addr, vd.SymID, e.Kind)
			}
		}
	}

	run := func(drive func(m *vm.Machine) error) {
		m := vm.New(bin)
		m.StepBudget = soundnessBudget
		m.Engine = vm.EngineReference
		for a := range bin.Code {
			m.SetBreak(a)
		}
		m.OnBreak = observe
		// Trap and budget errors are fine: the assertions above are per
		// observed machine state, not about the run completing.
		_ = drive(m)
	}
	if len(sub.harnesses) == 0 {
		run(func(m *vm.Machine) error {
			_, err := m.Call(sub.entry)
			return err
		})
		return
	}
	input := []int64{3, 1, 4, 1, 5, 9, 2, 6}
	for _, h := range sub.harnesses {
		run(func(m *vm.Machine) error {
			hd := m.NewArray(input)
			_, err := m.Call(h, hd, int64(len(input)))
			return err
		})
	}
}
