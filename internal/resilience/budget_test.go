package resilience_test

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"debugtuner/internal/ir"
	"debugtuner/internal/resilience"
	"debugtuner/internal/vm"
)

// TestBudgetErrorsArePermanent: a cell that exhausts the VM's or the
// interpreter's budget runs once and quarantines as an error, and the
// quarantine still matches the budget sentinel through errors.Is, as
// the call sites wrap and test it.
func TestBudgetErrorsArePermanent(t *testing.T) {
	if !errors.Is(vm.ErrHeapBudget, vm.ErrBudget) || !errors.Is(ir.ErrHeapBudget, ir.ErrBudget) {
		t.Fatal("heap budget sentinels must match the base budget sentinel via errors.Is")
	}
	ex := resilience.NewExecutor(nil)
	defer resilience.Install(resilience.Install(ex))
	for i, berr := range []error{vm.ErrStepBudget, vm.ErrHeapBudget, ir.ErrStepLimit, ir.ErrHeapBudget} {
		calls := 0
		_, err := resilience.Run(context.Background(), fmt.Sprintf("cell-budget-%d", i),
			func(context.Context) (int, error) {
				calls++
				return 0, fmt.Errorf("trace: %w", berr)
			})
		if calls != 1 {
			t.Fatalf("%v: cell ran %d times, want 1", berr, calls)
		}
		var ce *resilience.CellError
		if !errors.As(err, &ce) || ce.Kind != resilience.KindError || !errors.Is(err, berr) {
			t.Fatalf("err = %v, want an error quarantine wrapping %v", err, berr)
		}
	}
}
