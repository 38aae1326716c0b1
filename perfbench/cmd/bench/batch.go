package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"time"
)

// setups is how many times a batch run prepares a run directory; the
// median is setup_s. One preparation serves the run; the others follow
// its last pass, so the median does not depend on what the file system
// was still doing for the previous run when this one began.
const setups = 9

// prepare makes a run directory under dir: a fresh cache directory and a
// private copy of the experiments binary, and times it.
func prepare(e *env, dir string) (bin, cache string, took float64, err error) {
	start := time.Now()
	cache = filepath.Join(dir, "cache")
	if err := os.MkdirAll(cache, 0o755); err != nil {
		return "", "", 0, err
	}
	bin = filepath.Join(dir, "experiments")
	if err := copyFile(bin, filepath.Join(e.bin, "experiments")); err != nil {
		return "", "", 0, err
	}
	return bin, cache, time.Since(start).Seconds(), nil
}

// stage prepares the run's directory. Both passes of the run execute its
// copy of the binary, because the disk cache keys its entries on the
// executable's hash.
func stage(e *env, s *runStats) (bin, cache string, err error) {
	bin, cache, took, err := prepare(e, filepath.Join(e.dir, "stage"))
	s.setupS = append(s.setupS, took)
	return bin, cache, err
}

// moreSetups times the rest of the run's preparations, each removed
// again at once.
func moreSetups(e *env, s *runStats) error {
	for i := 1; i < setups; i++ {
		dir := filepath.Join(e.dir, fmt.Sprintf("setup%d", i))
		_, _, took, err := prepare(e, dir)
		if err != nil {
			return err
		}
		s.setupS = append(s.setupS, took)
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
	}
	return nil
}

// more reports whether a batch run needs another warm pass: it has
// fewer than minWarm, or it has not yet measured for --seconds. The
// traced run's untraced reference (minimal) stops at minWarm.
func more(e *env, start time.Time, warm, minWarm int, minimal bool) bool {
	if warm < minWarm {
		return true
	}
	return !minimal && time.Since(start).Seconds() < e.seconds
}

// tables is `experiments -quick all`: a cold pass into a fresh
// -cachedir, then warm passes of the same binary on that directory.
// minimal (the traced run's untraced reference) makes the cold pass only.
func tables(e *env, minimal bool) (*runStats, error) {
	s := &runStats{}
	bin, cache, err := stage(e, s)
	if err != nil {
		return nil, err
	}
	args := []string{"-quick", "-cachedir", cache, "all"}
	start := time.Now()
	cold, err := run(e.ctx, bin, args...)
	if err != nil {
		return nil, err
	}
	s.attempted++
	s.addProc(cold)
	s.wallS, s.cpuS, s.coldOut = cold.Wall.Seconds(), cold.CPU.Seconds(), cold.Stdout
	if err := checkTables(e, cold); err != nil {
		s.fail(1, "cold pass: %v", err)
	}
	minWarm := 3 // the median of three survives one slow pass
	if minimal {
		minWarm = 0
	}
	for more(e, start, len(s.warmS), minWarm, minimal) {
		warm, err := run(e.ctx, bin, args...)
		if err != nil {
			return nil, err
		}
		s.attempted++
		s.addProc(warm)
		s.warmS = append(s.warmS, warm.Wall.Seconds())
		switch {
		case warm.Code != 0:
			s.fail(1, "warm pass exited %d: %s", warm.Code, tail(warm.Stderr))
		case !bytes.Equal(warm.Stdout, cold.Stdout):
			s.fail(1, "warm pass stdout differs from the cold pass")
		}
	}
	return s, moreSetups(e, s)
}

// checkTables is the cold pass's output check.
func checkTables(e *env, p proc) error {
	if p.Code != 0 {
		return fmt.Errorf("exited %d: %s", p.Code, tail(p.Stderr))
	}
	if bytes.Contains(p.Stdout, []byte("QUARANTINED")) {
		return fmt.Errorf("stdout reports quarantined cells")
	}
	return e.checkDigest("tables", p.Stdout)
}

var cellsRE = regexp.MustCompile(`(?m)^debugify: (\d+) cells`)

// debugify is `experiments -cachedir off debugify`, the verify-each
// matrix. The first run is the cold pass; the program keeps no state
// under -cachedir off, so the warm passes rerun the same work in fresh
// processes. minimal makes the cold pass only.
func debugify(e *env, minimal bool) (*runStats, error) {
	s := &runStats{}
	bin, _, err := stage(e, s)
	if err != nil {
		return nil, err
	}
	minWarm := 1
	if minimal {
		minWarm = 0
	}
	start := time.Now()
	for i := 0; i == 0 || more(e, start, len(s.warmS), minWarm, minimal); i++ {
		p, err := run(e.ctx, bin, "-cachedir", "off", "debugify")
		if err != nil {
			return nil, err
		}
		s.addProc(p)
		cells := 91
		if m := cellsRE.FindSubmatch(p.Stdout); m != nil {
			cells, _ = strconv.Atoi(string(m[1])) // the pattern admits digits only
		}
		s.attempted += cells
		if err := checkDebugify(e, p); err != nil {
			s.fail(cells, "run %d: %v", i, err)
		}
		if i == 0 {
			s.wallS, s.cpuS, s.coldOut = p.Wall.Seconds(), p.CPU.Seconds(), p.Stdout
		} else {
			s.warmS = append(s.warmS, p.Wall.Seconds())
		}
	}
	return s, moreSetups(e, s)
}

// checkDebugify is one debugify run's output check.
func checkDebugify(e *env, p proc) error {
	out := bytes.TrimRight(p.Stdout, "\n")
	switch {
	case p.Code != 0:
		return fmt.Errorf("exited %d: %s", p.Code, tail(p.Stderr))
	case bytes.Contains(out, []byte("QUARANTINED")):
		return fmt.Errorf("stdout reports quarantined cells")
	case !bytes.HasSuffix(out, []byte("\nPASS")):
		return fmt.Errorf("stdout does not end in PASS")
	}
	return e.checkDigest("debugify", p.Stdout)
}

// tail is the last few hundred bytes of a diagnostic stream.
func tail(b []byte) string {
	const n = 400
	if len(b) > n {
		b = b[len(b)-n:]
	}
	return string(bytes.TrimSpace(b))
}
