package experiments

import (
	"context"
	"fmt"
	"io"

	"debugtuner/internal/autofdo"
	"debugtuner/internal/debugger"
	"debugtuner/internal/pipeline"
	"debugtuner/internal/specsuite"
	"debugtuner/internal/workerpool"
)

// fdoCycles builds the final binary at cfg with the given profile and
// runs the benchmark.
func fdoCycles(bench string, cfg pipeline.Config, p *autofdo.Profile) (int64, error) {
	ir0, err := specsuite.LoadIR(bench)
	if err != nil {
		return 0, err
	}
	res, err := specsuite.RunBinary(bench, pipeline.BuildFDO(ir0, cfg, p))
	if err != nil {
		return 0, err
	}
	return res.Cycles, nil
}

// collectProfile builds the profiling binary at cfg (+ the
// -fdebug-info-for-profiling analog, as the paper does) and samples the
// ref workload.
func (r *Runner) collectProfile(bench string, cfg pipeline.Config) (*autofdo.Profile, int, error) {
	ir0, err := specsuite.LoadIR(bench)
	if err != nil {
		return nil, 0, err
	}
	cfg.ForProfiling = true
	bin := pipeline.Build(ir0, cfg)
	sess, err := debugger.NewSession(bin)
	if err != nil {
		return nil, 0, err
	}
	steppable := sess.SteppableLines()
	p, err := autofdo.Collect(bin, "main", r.Opts.SampleEvery)
	if err != nil {
		return nil, 0, err
	}
	return p, steppable, nil
}

// fdoResult is one memoized AutoFDO measurement: collect a profile at
// the profiling config, rebuild the final config with it, run it.
// Fields are exported so the result round-trips through the persistent
// store's JSON envelope.
type fdoResult struct {
	Cycles    int64
	Steppable int
	Mapped    float64
}

// fdoKey declares every input of one AutoFDO measurement. The
// benchmark's source is embedded in the executable, so the store's
// tool hash covers it.
type fdoKey struct {
	Bench     string
	Final     string // final config fingerprint
	Profiling string // profiling config fingerprint
	Sample    int64  // sampling period in cycles
}

// fdoMeasure caches the profile-collect + FDO-rebuild + run pipeline per
// (benchmark, final config, profiling config, sampling period). Fig3
// and Table15 print the same measurements at different verbosity; the
// cache makes the second of the two free.
func (r *Runner) fdoMeasure(bench string, final, profiling pipeline.Config) (fdoResult, error) {
	key := fdoKey{Bench: bench, Final: final.Fingerprint(), Profiling: profiling.Fingerprint(),
		Sample: r.Opts.SampleEvery}
	return r.fdo.Do(key, func() (fdoResult, error) {
		prof, step, err := r.collectProfile(bench, profiling)
		if err != nil {
			return fdoResult{}, err
		}
		c, err := fdoCycles(bench, final, prof)
		if err != nil {
			return fdoResult{}, err
		}
		return fdoResult{Cycles: c, Steppable: step, Mapped: prof.MappedFraction()}, nil
	})
}

// Fig3 reproduces the AutoFDO SPEC study (paper Figure 3): for each
// benchmark, AutoFDO with the best O2-dy profile vs AutoFDO with the O2
// profile, with plain O2 for context. Table15 extends it with all
// configurations and the steppable-lines proxy (paper Table XV).
func (r *Runner) Fig3(w io.Writer) error { return r.autoFDOStudy(w, false) }

// Table15 prints the complete AutoFDO data.
func (r *Runner) Table15(w io.Writer) error { return r.autoFDOStudy(w, true) }

func (r *Runner) autoFDOStudy(w io.Writer, full bool) error {
	const profile = pipeline.Clang // "most recent AutoFDO developments target clang"
	la, err := r.Analysis(profile, "O2")
	if err != nil {
		return err
	}
	if full {
		fmt.Fprintln(w, "Table XV — AutoFDO with O2 and O2-dy profiling binaries (speedup over plain O2)")
	} else {
		fmt.Fprintln(w, "Figure 3 — AutoFDO: plain O2 and best O2-dy profile vs O2-profile AutoFDO")
	}
	o2 := pipeline.MustConfig(profile, "O2")
	// Benchmarks are independent (each collects its own profiles and
	// rebuilds its own binaries), so the study fans out per benchmark;
	// rows print and averages accumulate in suite order.
	type dyRes struct {
		y         int
		cycles    int64
		stepPct   float64
		mappedPct float64
	}
	type benchRes struct {
		plain, fdoBase, best int64
		results              []dyRes
	}
	benches, err := workerpool.Map(context.Background(), r.specNames(),
		func(_ context.Context, _ int, bench string) (benchRes, error) {
			var br benchRes
			plain, err := specsuite.Cycles(bench, o2)
			if err != nil {
				return br, err
			}
			br.plain = plain
			base, err := r.fdoMeasure(bench, o2, o2)
			if err != nil {
				return br, err
			}
			br.fdoBase = base.Cycles
			br.best = br.fdoBase
			for _, y := range r.Opts.Dy {
				cfg := la.Configs([]int{y})[0]
				// The final binary is always plain O2; only the profiling
				// stage changes (§V.C).
				m, err := r.fdoMeasure(bench, o2, cfg)
				if err != nil {
					return br, err
				}
				br.results = append(br.results, dyRes{
					y: y, cycles: m.Cycles,
					stepPct:   100 * (float64(m.Steppable) - float64(base.Steppable)) / float64(base.Steppable),
					mappedPct: 100 * m.Mapped,
				})
				if m.Cycles < br.best {
					br.best = m.Cycles
				}
			}
			return br, nil
		})
	if err != nil {
		return err
	}
	var avgBase, avgBest float64
	n := 0
	for bi, bench := range r.specNames() {
		br := benches[bi]
		speedup := func(c int64) float64 { return float64(br.plain) / float64(c) }
		if full {
			fmt.Fprintf(w, "%-14s O2-AutoFDO=%6.4f", bench, speedup(br.fdoBase))
			for _, dr := range br.results {
				fmt.Fprintf(w, "  d%d: spd=%6.4f Δspd=%+5.2f%% Δsteppable=%+5.2f%% mapped=%.1f%%",
					dr.y, speedup(dr.cycles),
					100*(float64(br.fdoBase)-float64(dr.cycles))/float64(dr.cycles),
					dr.stepPct, dr.mappedPct)
			}
			fmt.Fprintln(w)
		} else {
			fmt.Fprintf(w, "%-14s plain-O2=%6.4f  best-O2dy-AutoFDO=%6.4f (%+.2f%% vs O2-AutoFDO)\n",
				bench, 1/speedup(br.fdoBase),
				speedup(br.best)/speedup(br.fdoBase),
				100*(float64(br.fdoBase)-float64(br.best))/float64(br.best))
		}
		avgBase += speedup(br.fdoBase)
		avgBest += speedup(br.best)
		n++
	}
	fmt.Fprintf(w, "average: O2-AutoFDO %.4f, best O2-dy-AutoFDO %.4f (vs plain O2 = 1.0)\n",
		avgBase/float64(n), avgBest/float64(n))
	return nil
}

// Fig4 reproduces the large-workload study (paper Figure 4): the
// "self-compilation" stand-in selfcomp, O3 profiles vs O3-dy profiles.
func (r *Runner) Fig4(w io.Writer) error {
	const profile = pipeline.Clang
	const bench = "selfcomp"
	o3 := pipeline.MustConfig(profile, "O3")
	plain, err := specsuite.Cycles(bench, o3)
	if err != nil {
		return err
	}
	base, err := r.fdoMeasure(bench, o3, o3)
	if err != nil {
		return err
	}
	la, err := r.Analysis(profile, "O3")
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Figure 4 — selfcomp (large workload): O3-dy-AutoFDO vs O3-AutoFDO")
	fmt.Fprintf(w, "plain O3: %d cycles; O3-AutoFDO: %d cycles (%+.2f%%)\n",
		plain, base.Cycles,
		100*(float64(plain)-float64(base.Cycles))/float64(base.Cycles))
	// The per-dy profile collections are independent; fan them out and
	// print in dy order.
	rows, err := workerpool.Map(context.Background(), r.Opts.Dy,
		func(_ context.Context, _ int, y int) (fdoResult, error) {
			return r.fdoMeasure(bench, o3, la.Configs([]int{y})[0])
		})
	if err != nil {
		return err
	}
	for yi, y := range r.Opts.Dy {
		m := rows[yi]
		fmt.Fprintf(w, "O3-d%d profile: %d cycles (%+.2f%% vs O3-AutoFDO, mapped %.1f%%)\n",
			y, m.Cycles, 100*(float64(base.Cycles)-float64(m.Cycles))/float64(m.Cycles),
			100*m.Mapped)
	}
	return nil
}
