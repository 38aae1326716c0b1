package workerpool

import (
	"context"
	"testing"
	"time"
)

// spin is the CPU-bound mock evaluation cell: a fixed-iteration FNV
// accumulation the compiler cannot eliminate or hoist, standing in for
// one build+trace of the (program × pass) matrix. iters=20_000 is
// ~20–50µs per cell — big enough to dwarf dispatch overhead, small
// enough that scheduling effects (the thing the pool exists to manage)
// still register.
func spin(seed uint64, iters int) uint64 {
	h := seed
	if h == 0 {
		h = 14695981039346656037
	}
	for i := 0; i < iters; i++ {
		h ^= uint64(i)
		h *= 1099511628211
	}
	return h
}

// spinSink prevents the whole benchmark loop from being eliminated.
var spinSink uint64

const (
	benchCells     = 256
	benchCellIters = 20_000
)

func benchItems() []uint64 {
	items := make([]uint64, benchCells)
	for i := range items {
		items[i] = uint64(i + 1)
	}
	return items
}

// serialThroughput runs the plain serial loop — the determinism
// baseline every -j1 run is compared against — and returns cells/sec.
func serialThroughput() float64 {
	items := benchItems()
	t0 := time.Now()
	var acc uint64
	for _, it := range items {
		acc ^= spin(it, benchCellIters)
	}
	spinSink = acc
	return float64(len(items)) / time.Since(t0).Seconds()
}

// mapThroughput runs the same cells through Map at the given worker
// count and returns cells/sec.
func mapThroughput(tb testing.TB, jobs int) float64 {
	items := benchItems()
	SetWorkers(jobs)
	defer SetWorkers(0)
	t0 := time.Now()
	res, err := Map(context.Background(), items,
		func(_ context.Context, _ int, it uint64) (uint64, error) {
			return spin(it, benchCellIters), nil
		})
	d := time.Since(t0)
	if err != nil {
		tb.Fatal(err)
	}
	var acc uint64
	for _, r := range res {
		acc ^= r
	}
	spinSink = acc
	return float64(len(items)) / d.Seconds()
}

// TestSerialParityAtJ1 is the -j regression gate: Map with one worker
// must deliver at least 0.95× the plain serial loop's throughput on
// CPU-bound cells. The -j1 path runs inline on the calling goroutine,
// so the only admissible overhead is one ctx.Err check and one call
// frame per cell. Best-of-5 on both sides deflakes scheduler noise.
// Under the race detector the ratio measures its instrumentation, not
// the pool, so the gate holds only in plain runs.
func TestSerialParityAtJ1(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	if raceEnabled {
		t.Skip("timing test: the race detector's overhead skews the ratio")
	}
	best := func(f func() float64) float64 {
		var b float64
		for i := 0; i < 5; i++ {
			if v := f(); v > b {
				b = v
			}
		}
		return b
	}
	serial := best(serialThroughput)
	pooled := best(func() float64 { return mapThroughput(t, 1) })
	ratio := pooled / serial
	t.Logf("serial=%.0f cells/s, -j1=%.0f cells/s, ratio=%.3f", serial, pooled, ratio)
	if ratio < 0.95 {
		t.Fatalf("-j1 throughput is %.3f× serial, want >= 0.95×", ratio)
	}
}

// BenchmarkMapScaling measures pool throughput at increasing worker
// counts over CPU-bound mock cells. On a multi-core machine the -j2/-j4
// numbers should approach linear speedup; on a single-CPU machine they
// document (honestly) that extra workers cannot help.
func BenchmarkMapScaling(b *testing.B) {
	for _, jobs := range []int{1, 2, 4, 8} {
		b.Run("j"+string(rune('0'+jobs)), func(b *testing.B) {
			items := benchItems()
			SetWorkers(jobs)
			defer SetWorkers(0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := Map(context.Background(), items,
					func(_ context.Context, _ int, it uint64) (uint64, error) {
						return spin(it, benchCellIters), nil
					})
				if err != nil {
					b.Fatal(err)
				}
				spinSink ^= res[0]
			}
			cells := float64(b.N) * benchCells
			b.ReportMetric(cells/b.Elapsed().Seconds(), "cells/s")
		})
	}
}

// BenchmarkMapSerialBaseline is the no-pool reference for
// BenchmarkMapScaling/j1.
func BenchmarkMapSerialBaseline(b *testing.B) {
	items := benchItems()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var acc uint64
		for _, it := range items {
			acc ^= spin(it, benchCellIters)
		}
		spinSink = acc
	}
	cells := float64(b.N) * benchCells
	b.ReportMetric(cells/b.Elapsed().Seconds(), "cells/s")
}
