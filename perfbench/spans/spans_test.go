package spans

import (
	"path/filepath"
	"reflect"
	"testing"
)

func TestSelfTimePartialChildren(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		// Overlapping children 10..30 and 20..40 cover 10..40 once.
		{ID: 2, Parent: 1, Name: "kid", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "kid", Start: 20, End: 40},
		// A child running past its parent is clipped at 100.
		{ID: 4, Parent: 1, Name: "late", Start: 90, End: 120},
		// A grandchild reduces its own parent only.
		{ID: 5, Parent: 2, Name: "grand", Start: 12, End: 15},
	}
	got := SelfTimes(spans)
	want := map[string]Layer{
		"root":  {Calls: 1, SelfNS: 100 - 30 - 10},
		"kid":   {Calls: 2, SelfNS: (20 - 3) + 20},
		"late":  {Calls: 1, SelfNS: 30},
		"grand": {Calls: 1, SelfNS: 3},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("SelfTimes = %v, want %v", got, want)
	}
}

func TestRecorderNestsAndRoundTrips(t *testing.T) {
	r := NewRecorder()
	r.SetCell("c1")
	end := r.Begin("outer")
	r.Begin("inner")()
	end()
	r.Begin("next")()
	sp := r.Spans()
	if len(sp) != 3 || sp[1].Parent != sp[0].ID || sp[2].Parent != 0 || sp[1].Cell != "c1" {
		t.Fatalf("spans = %+v", sp)
	}
	path := filepath.Join(t.TempDir(), "replay.json")
	want := &Replay{Spans: sp, Counts: map[string]float64{"tuner.cells": 3}}
	if err := WriteFile(path, want); err != nil {
		t.Fatal(err)
	}
	back, err := ReadFile(path)
	if err != nil || !reflect.DeepEqual(back, want) {
		t.Errorf("round trip = %+v, %v", back, err)
	}
}
