package main

import (
	"reflect"
	"testing"
)

// TestQuickKeepsExplicitFlags locks the -quick contract: it shrinks the
// knobs left at their defaults, and a flag set on the command line wins
// whichever side of -quick it is on.
func TestQuickKeepsExplicitFlags(t *testing.T) {
	for _, tc := range []struct {
		argv         []string
		synth, execs int
	}{
		{[]string{"-quick"}, 20, 120},
		{[]string{"-quick", "-execs", "400"}, 20, 400},
		{[]string{"-execs", "400", "-quick"}, 20, 400},
		{[]string{"-quick", "-synth", "7"}, 7, 120},
		{[]string{"-quick", "-synth", "7", "-execs", "33", "table2"}, 7, 33},
	} {
		c := newCLI("experiments")
		if err := c.fs.Parse(tc.argv); err != nil {
			t.Fatal(err)
		}
		c.applyQuick()
		if c.opts.SynthCount != tc.synth || c.opts.CorpusExecs != tc.execs {
			t.Errorf("%v: synth %d execs %d, want %d %d",
				tc.argv, c.opts.SynthCount, c.opts.CorpusExecs, tc.synth, tc.execs)
		}
		if want := []int{3, 5}; !reflect.DeepEqual(c.opts.Dy, want) {
			t.Errorf("%v: dy %v, want %v", tc.argv, c.opts.Dy, want)
		}
	}
	// Without -quick an explicit flag is all that changes.
	c := newCLI("experiments")
	if err := c.fs.Parse([]string{"-execs", "50"}); err != nil {
		t.Fatal(err)
	}
	def := newCLI("experiments").opts
	c.applyQuick()
	if c.opts.CorpusExecs != 50 || c.opts.SynthCount != def.SynthCount || !reflect.DeepEqual(c.opts.Dy, def.Dy) {
		t.Errorf("plain -execs 50: %+v", c.opts)
	}
}
