package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// proc is one finished program process as the benchmark saw it.
type proc struct {
	Wall   time.Duration
	CPU    time.Duration // user + system, from the process's rusage
	RSSKiB int64         // peak resident set, from the process's rusage
	Code   int
	Stdout []byte
	Stderr []byte
}

// run executes bin with args to completion and measures it. A non-zero
// exit is reported in Code, not as an error; err is for a process that
// could not start or outlived ctx.
func run(ctx context.Context, bin string, args ...string) (proc, error) {
	var out, errb bytes.Buffer
	cmd := exec.CommandContext(ctx, bin, args...)
	cmd.Stdout, cmd.Stderr = &out, &errb
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return proc{}, fmt.Errorf("start %s: %w", filepath.Base(bin), err)
	}
	werr := cmd.Wait()
	p := usage(cmd.ProcessState)
	p.Wall = time.Since(start)
	p.Stdout, p.Stderr = out.Bytes(), errb.Bytes()
	if ctx.Err() != nil {
		return p, fmt.Errorf("%s %s: %w", filepath.Base(bin), strings.Join(args, " "), ctx.Err())
	}
	if _, ok := werr.(*exec.ExitError); werr != nil && !ok {
		return p, fmt.Errorf("%s: %w", filepath.Base(bin), werr)
	}
	return p, nil
}

// usage reads CPU time, peak RSS and exit code from a finished process.
func usage(ps *os.ProcessState) proc {
	p := proc{Code: ps.ExitCode()}
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		p.CPU = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
		p.RSSKiB = ru.Maxrss
	}
	return p
}

// stealSeconds reads the host's accumulated CPU steal time from the
// aggregate line of /proc/stat; ok is false where the file is absent.
func stealSeconds() (s float64, ok bool) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return 0, false
	}
	fields := strings.Fields(sc.Text())
	// cpu user nice system idle iowait irq softirq steal ...
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, false
	}
	ticks, err := strconv.ParseFloat(fields[8], 64)
	if err != nil {
		return 0, false
	}
	return ticks / 100, true // USER_HZ is 100 on Linux
}

// copyFile copies src to dst with src's permissions.
func copyFile(dst, src string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	st, err := in.Stat()
	if err != nil {
		return err
	}
	out, err := os.OpenFile(dst, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, st.Mode())
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
