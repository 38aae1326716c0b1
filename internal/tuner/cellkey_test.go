package tuner

import (
	"reflect"
	"testing"

	"debugtuner/internal/evalcache"
	"debugtuner/internal/pipeline"
)

// cellKeySrc is a harness whose stepped lines depend on its input, so
// two corpora measure differently.
const cellKeySrc = `
func fuzz(data: int[], n: int) {
	var acc: int = 0;
	for (var i: int = 0; i < n; i = i + 1) {
		var v: int = data[i];
		if (v > 100) {
			acc = acc + v * 3;
		} else {
			if (v < 0) {
				acc = acc - v;
			} else {
				acc = acc + 1;
			}
		}
	}
	print(acc);
}`

// TestCellKeyCoversCorpus measures one config through one cache
// directory under two corpora, as a quick and a full run of the same
// subject do, and requires each answer to equal its own cold run.
func TestCellKeyCoversCorpus(t *testing.T) {
	corpora := []map[string][][]int64{
		{"fuzz": {{1, 2, 3}}},
		{"fuzz": {{1, 2, 3}, {500, -7, 40}}},
	}
	cfg := pipeline.MustConfig(pipeline.GCC, "O2")
	measure := func(inputs map[string][][]int64) Measurement {
		t.Helper()
		p, err := LoadProgram("cellkey", []byte(cellKeySrc), inputs)
		if err != nil {
			t.Fatal(err)
		}
		m, err := p.Measure(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}

	var cold []Measurement
	for _, in := range corpora {
		cold = append(cold, measure(in))
	}
	if reflect.DeepEqual(cold[0], cold[1]) {
		t.Fatal("the two corpora measure alike; the test cannot tell them apart")
	}

	d, err := evalcache.OpenDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer evalcache.SetDefaultDisk(evalcache.DefaultDisk())
	evalcache.SetDefaultDisk(d)
	for i, in := range corpora {
		if got := measure(in); !reflect.DeepEqual(got, cold[i]) {
			t.Errorf("corpus %d through a shared cache dir = %+v, want its cold run %+v", i, got.Scores, cold[i].Scores)
		}
	}
}
