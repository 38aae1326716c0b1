package staticdbg_test

import (
	"fmt"
	"reflect"
	"testing"

	"debugtuner/internal/dataflow"
	"debugtuner/internal/pipeline"
	"debugtuner/internal/vm"
)

// queryOwners returns the may-owners of a cell followed by the MustOwn
// verdict (1 or 0) for each of them and for one owner absent from the set.
func queryOwners(of *dataflow.OwnerFacts, addr int, st dataflow.Storage) []int32 {
	owners := of.MayOwners(addr, st)
	ans := append([]int32(nil), owners...)
	for _, o := range append(owners, 1<<20) {
		must := int32(0)
		if of.MustOwn(addr, st, o-1) {
			must = 1
		}
		ans = append(ans, must)
	}
	return ans
}

// cellsOf lists every register and slot cell of the function's frame.
func cellsOf(bin *vm.Binary, fi int) []dataflow.Storage {
	var cells []dataflow.Storage
	for r := 0; r < vm.NumRegs; r++ {
		cells = append(cells, dataflow.RegStorage(r))
	}
	for s := 0; s < bin.Funcs[fi].NumSlots; s++ {
		cells = append(cells, dataflow.SlotStorage(s))
	}
	return cells
}

// TestOwnerQueriesIndependentOfOrder: OwnerFacts answers from per-block
// in-states replayed through a cursor, so its answers must not depend
// on the order of the queries. On corpus binaries, MayOwners and
// MustOwn answer the same in address order, in reverse, round-robin
// across blocks, and when every query is repeated and followed by one
// at the previous address (metrics.StaticProven queries out of order).
func TestOwnerQueriesIndependentOfOrder(t *testing.T) {
	configs := []pipeline.Config{
		pipeline.MustConfig(pipeline.GCC, "O2"),
		pipeline.MustConfig(pipeline.Clang, "O2"),
	}
	for _, sub := range soundnessCorpus(t) {
		for _, cfg := range configs {
			bin := pipeline.Build(sub.ir0, cfg)
			for fi := range bin.Funcs {
				checkQueryOrders(t, fmt.Sprintf("%s %s func %d", sub.name, cfg.Name(), fi), bin, fi)
			}
		}
	}
}

func checkQueryOrders(t *testing.T, label string, bin *vm.Binary, fi int) {
	t.Helper()
	cells := cellsOf(bin, fi)
	f := bin.Funcs[fi]
	// run answers every (address, cell) query, indexed [addr-Start][cell].
	run := func(addrs []int, repeat bool) [][][]int32 {
		of := dataflow.NewOwnerFacts(bin, fi)
		got := make([][][]int32, f.End-f.Start)
		for _, a := range addrs {
			got[a-f.Start] = make([][]int32, len(cells))
			for ci, st := range cells {
				ans := queryOwners(of, a, st)
				if repeat {
					if again := queryOwners(of, a, st); !reflect.DeepEqual(again, ans) {
						t.Fatalf("%s: addr %d cell %d: repeated query %v, first %v", label, a, ci, again, ans)
					}
					if a > f.Start {
						queryOwners(of, a-1, st)
					}
				}
				got[a-f.Start][ci] = ans
			}
		}
		return got
	}
	var forward, reverse []int
	for a := f.Start; a < f.End; a++ {
		forward = append(forward, a)
		reverse = append([]int{a}, reverse...)
	}
	// Round-robin over blocks: the i-th address of every block in turn,
	// so consecutive queries land in different blocks.
	g := dataflow.NewBinCFG(bin.Code, f.Start, f.End)
	var across []int
	for i := 0; len(across) < len(forward); i++ {
		for n := 0; n < g.NumNodes(); n++ {
			if lo, hi := g.BlockRange(n); lo+i < hi {
				across = append(across, lo+i)
			}
		}
	}
	want := run(forward, false)
	for _, order := range []struct {
		name string
		got  [][][]int32
	}{
		{"reverse", run(reverse, false)},
		{"across", run(across, false)},
		{"repeated", run(forward, true)},
	} {
		for i := range want {
			for ci := range want[i] {
				if !reflect.DeepEqual(order.got[i][ci], want[i][ci]) {
					t.Fatalf("%s: %s order: addr %d cell %d = %v, address order %v",
						label, order.name, f.Start+i, ci, order.got[i][ci], want[i][ci])
				}
			}
		}
	}
}
