package evalcache

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"debugtuner/internal/telemetry"
)

// diskSegments lists the segment files currently in the store.
func diskSegments(t *testing.T, d *Disk) []string {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(d.Dir(), "*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	return segs
}

// segmentLines reads every segment of the store, split into lines.
func segmentLines(t *testing.T, d *Disk) []string {
	t.Helper()
	var lines []string
	for _, seg := range diskSegments(t, d) {
		raw, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		lines = append(lines, strings.SplitAfter(string(raw), "\n")...)
	}
	return lines
}

type diskVal struct {
	N int64
	S string
}

func TestDiskRoundTrip(t *testing.T) {
	d, err := OpenDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	want := diskVal{N: 42, S: "x"}
	d.Put("k1", want)
	var got diskVal
	if !d.Get("k1", &got) {
		t.Fatal("Get(k1) missed after Put")
	}
	if got != want {
		t.Fatalf("round trip: got %+v, want %+v", got, want)
	}
	if d.Get("k2", &got) {
		t.Fatal("Get(k2) hit without a Put")
	}
}

func TestDiskNilIsAlwaysMiss(t *testing.T) {
	var d *Disk
	d.Put("k", diskVal{N: 1})
	var got diskVal
	if d.Get("k", &got) {
		t.Fatal("nil Disk reported a hit")
	}
	if d.Dir() != "" {
		t.Fatalf("nil Disk Dir() = %q, want empty", d.Dir())
	}
}

// fillSegment writes records k0..k4 to one segment and returns its path.
func fillSegment(t *testing.T, dir string) string {
	t.Helper()
	d, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		d.Put(fmt.Sprintf("k%d", i), diskVal{N: int64(i), S: "payload"})
	}
	segs := diskSegments(t, d)
	if len(segs) != 1 {
		t.Fatalf("segments = %d, want 1", len(segs))
	}
	return segs[0]
}

// corruptRecord rewrites record k2 of the segment (the third line) in
// place, keeping its newline, and returns the corrupt line.
func corruptRecord(t *testing.T, seg string, corrupt func([]byte) []byte) string {
	t.Helper()
	raw, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(raw, []byte("\n"))
	bad := corrupt(bytes.TrimSuffix(lines[2], []byte("\n")))
	lines[2] = append(bad, '\n')
	if err := os.WriteFile(seg, bytes.Join(lines, nil), 0o644); err != nil {
		t.Fatal(err)
	}
	return string(lines[2])
}

// checkHealed opens the store again: k2 misses, the other records hit,
// and the corrupt line is gone from disk while the others remain.
func checkHealed(t *testing.T, dir, badLine string) *Disk {
	t.Helper()
	d, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	var got diskVal
	if d.Get("k2", &got) {
		t.Fatal("Get hit a corrupt record")
	}
	for _, k := range []int{0, 1, 3, 4} {
		if !d.Get(fmt.Sprintf("k%d", k), &got) || got.N != int64(k) {
			t.Fatalf("k%d beside the corrupt record: got %+v", k, got)
		}
	}
	lines := segmentLines(t, d)
	for _, l := range lines {
		if l == badLine {
			t.Fatal("corrupt record was not dropped from disk")
		}
	}
	if n := len(lines) - 1; n != 4 { // SplitAfter leaves an empty last element
		t.Fatalf("records on disk after healing = %d, want 4", n)
	}
	return d
}

// TestDiskVersionMismatch proves a format bump reads as a recompute, not
// a misparse: a record claiming a future version misses, is dropped from
// disk, and its key can be written again.
func TestDiskVersionMismatch(t *testing.T) {
	dir := t.TempDir()
	bad := corruptRecord(t, fillSegment(t, dir), func(b []byte) []byte {
		var env envelope
		if err := json.Unmarshal(b, &env); err != nil {
			t.Fatal(err)
		}
		env.Version = diskFormatVersion + 1
		out, _ := json.Marshal(&env)
		return out
	})
	d := checkHealed(t, dir, bad)
	d.Put("k2", diskVal{N: 8})
	var got diskVal
	if !d.Get("k2", &got) || got.N != 8 {
		t.Fatalf("rewrite after heal: got %+v, want N=8", got)
	}
	d, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Get("k2", &got) || got.N != 8 {
		t.Fatalf("rewrite after heal, next open: got %+v, want N=8", got)
	}
}

// TestDiskCorruptEntries proves every corruption mode of one record
// among several reads as a miss for that key alone, and that the next
// open drops the record from disk instead of crashing or returning junk.
func TestDiskCorruptEntries(t *testing.T) {
	reenvelope := func(edit func(*envelope)) func([]byte) []byte {
		return func(b []byte) []byte {
			var env envelope
			if err := json.Unmarshal(b, &env); err != nil {
				return b
			}
			edit(&env)
			out, _ := json.Marshal(&env)
			return out
		}
	}
	corruptions := map[string]func([]byte) []byte{
		"truncated":  func(b []byte) []byte { return b[:len(b)/2] },
		"empty":      func([]byte) []byte { return nil },
		"not-json":   func([]byte) []byte { return []byte("%%%") },
		"bad-sum":    func(b []byte) []byte { return []byte(strings.Replace(string(b), `"sum":"`, `"sum":"0`, 1)) },
		"wrong-key":  reenvelope(func(env *envelope) { env.Key = "someone-else" }),
		"wrong-tool": reenvelope(func(env *envelope) { env.Tool = "0000000000000000" }),
	}
	for name, corrupt := range corruptions {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			checkHealed(t, dir, corruptRecord(t, fillSegment(t, dir), corrupt))
		})
	}
}

// TestDiskTornTail: an unterminated tail is a miss and stays on disk,
// both in a clean segment and in one rewritten to drop a corrupt record.
func TestDiskTornTail(t *testing.T) {
	const torn = `{"v":2,"tool":"`
	for _, heal := range []bool{false, true} {
		dir := t.TempDir()
		seg := fillSegment(t, dir)
		bad := "no corrupt line"
		if heal {
			bad = corruptRecord(t, seg, func([]byte) []byte { return []byte("%%%") })
		}
		f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteString(torn); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		d, err := OpenDisk(dir)
		if err != nil {
			t.Fatal(err)
		}
		var got diskVal
		for k := 0; k < 5; k++ {
			hit := d.Get(fmt.Sprintf("k%d", k), &got)
			if want := !heal || k != 2; hit != want {
				t.Fatalf("heal=%v: Get(k%d) = %v, want %v", heal, k, hit, want)
			}
		}
		lines := segmentLines(t, d)
		if last := lines[len(lines)-1]; last != torn {
			t.Fatalf("heal=%v: segment ends in %q, want the torn tail %q", heal, last, torn)
		}
		for _, l := range lines {
			if l == bad {
				t.Fatalf("heal=%v: corrupt record survived", heal)
			}
		}
	}
}

// TestDiskReadsOnlyOwnToolSegments: another tool's segment and an entry
// of the pre-segment layout (xx/*.json) are never read, even when they
// hold a well-formed record for the key.
func TestDiskReadsOnlyOwnToolSegments(t *testing.T) {
	dir := t.TempDir()
	seg := fillSegment(t, dir)
	raw, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	tool, err := toolID()
	if err != nil {
		t.Fatal(err)
	}
	other := strings.ReplaceAll(string(raw), tool, "0123456789abcdef")
	otherSeg := filepath.Join(dir, "0123456789abcdef-1-0.seg")
	if err := os.WriteFile(otherSeg, []byte(other), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(dir, "ab"), 0o755); err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(raw), "\n")
	oldEntry := filepath.Join(dir, "ab", "0123456789abcdef0123456789abcdef.json")
	if err := os.WriteFile(oldEntry, []byte(lines[0]), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(seg); err != nil {
		t.Fatal(err)
	}
	d, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	var got diskVal
	for k := 0; k < 5; k++ {
		if d.Get(fmt.Sprintf("k%d", k), &got) {
			t.Fatalf("k%d read from another tool's segment or an old-layout entry", k)
		}
	}
	for path, want := range map[string]string{otherSeg: other, oldEntry: lines[0]} {
		if b, err := os.ReadFile(path); err != nil || string(b) != want {
			t.Fatalf("%s was changed (err %v)", path, err)
		}
	}
}

// TestDiskVisibility: a handle sees the records on disk at its first
// access plus its own writes, and its own writes win over loaded ones.
// It does not re-scan, so another handle's later writes stay unseen.
func TestDiskVisibility(t *testing.T) {
	dir := t.TempDir()
	a, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	a.Put("loaded", diskVal{N: 1})
	b, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	var got diskVal
	if !b.Get("loaded", &got) || got.N != 1 {
		t.Fatalf("loaded record: got %+v", got)
	}
	b.Put("own", diskVal{N: 2})
	b.Put("loaded", diskVal{N: 3})
	if !b.Get("own", &got) || got.N != 2 {
		t.Fatalf("Get after Put on one handle: got %+v", got)
	}
	if !b.Get("loaded", &got) || got.N != 3 {
		t.Fatalf("own write over a loaded record: got %+v, want N=3", got)
	}
	if a.Get("own", &got) {
		t.Fatal("a handle re-scanned the directory for another handle's write")
	}
}

// TestDiskFreshSegmentAfterFailedWrite: once a write fails, the handle
// never appends to that segment again; the next record starts a new one,
// and the records before the failure stay readable.
func TestDiskFreshSegmentAfterFailedWrite(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	d.Put("before", diskVal{N: 1})
	// Make the next write fail: the descriptor is open for reading only.
	f, err := os.Open(d.w.Name())
	if err != nil {
		t.Fatal(err)
	}
	d.w = f
	if d.put("failed", diskVal{N: 2}) {
		t.Fatal("a write to a read-only descriptor succeeded")
	}
	d.Put("after", diskVal{N: 3})
	if n := len(diskSegments(t, d)); n != 2 {
		t.Fatalf("segments after a failed write = %d, want 2", n)
	}
	d, err = OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	var got diskVal
	for k, want := range map[string]bool{"before": true, "failed": false, "after": true} {
		if d.Get(k, &got) != want {
			t.Fatalf("Get(%s) = %v, want %v", k, !want, want)
		}
	}
}

// TestDiskConcurrentHandleUse: workers sharing one handle append and
// read back records at once; every read is a miss or the value written,
// and a later handle finds every record.
func TestDiskConcurrentHandleUse(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	val := func(k int) diskVal { return diskVal{N: int64(k), S: strings.Repeat("v", k)} }
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				k := (w*40 + i) % 200 // keys 0..119 are written by two workers
				key := fmt.Sprintf("k%d", k)
				d.Put(key, val(k))
				var got diskVal
				if !d.Get(key, &got) || got != val(k) {
					t.Errorf("worker %d: Get(%s) after Put = %+v", w, key, got)
				}
			}
		}(w)
	}
	wg.Wait()
	d, err = OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 200; k++ {
		var got diskVal
		if !d.Get(fmt.Sprintf("k%d", k), &got) || got != val(k) {
			t.Fatalf("k%d after reopening: %+v", k, got)
		}
	}
}

// TestOpenDiskNeedsToolIdentity: when the running executable cannot be
// located, opened or read, OpenDisk fails instead of keying records on a
// shared placeholder identity that two different builds would trust.
func TestOpenDiskNeedsToolIdentity(t *testing.T) {
	saved := toolIDCache.Load()
	defer func(exe func() (string, error)) {
		executable = exe
		toolIDCache.Store(saved)
	}(executable)
	for name, exe := range map[string]func() (string, error){
		"unlocatable": func() (string, error) { return "", errors.New("no executable") },
		"missing":     func() (string, error) { return filepath.Join(t.TempDir(), "gone"), nil },
		"unreadable":  func() (string, error) { return t.TempDir(), nil },
	} {
		executable = exe
		toolIDCache.Store(nil)
		dir := filepath.Join(t.TempDir(), "cache")
		if d, err := OpenDisk(dir); err == nil {
			t.Fatalf("%s executable: OpenDisk = %+v, want an error", name, d)
		}
	}
}

// TestCacheDiskCounters: a disk-bound cache counts its own disk hits,
// misses and writes under the namespace's first field, beside the
// store-wide aggregates.
func TestCacheDiskCounters(t *testing.T) {
	snk := telemetry.NewSink()
	defer telemetry.Install(telemetry.Install(snk))
	d, err := OpenDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		var c Cache[diskVal]
		c.SetDisk(d, "unit.cells|sample7")
		if _, err := c.Do("k", func() (diskVal, error) { return diskVal{N: 1}, nil }); err != nil {
			t.Fatal(err)
		}
	}
	want := map[string]int64{
		"diskcache.unit.cells.miss": 1, "diskcache.unit.cells.write": 1, "diskcache.unit.cells.hit": 1,
		"diskcache.miss": 1, "diskcache.write": 1, "diskcache.hit": 1,
	}
	for name, n := range want {
		if got := snk.Counter(name); got != n {
			t.Errorf("%s = %d, want %d", name, got, n)
		}
	}
}

// TestCacheDiskWriteThrough proves the memory/disk composition: a cold
// cache computes and persists, a fresh cache (new process stand-in)
// reads the persisted value without computing, and errors never persist.
func TestCacheDiskWriteThrough(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	var c1 Cache[diskVal]
	c1.SetDisk(d, "ns")
	computes := 0
	v, err := c1.Do("k", func() (diskVal, error) {
		computes++
		return diskVal{N: 5}, nil
	})
	if err != nil || v.N != 5 || computes != 1 {
		t.Fatalf("cold compute: v=%+v err=%v computes=%d", v, err, computes)
	}

	var c2 Cache[diskVal]
	c2.SetDisk(d, "ns")
	v, err = c2.Do("k", func() (diskVal, error) {
		computes++
		return diskVal{N: -1}, nil
	})
	if err != nil || v.N != 5 {
		t.Fatalf("warm read: v=%+v err=%v", v, err)
	}
	if computes != 1 {
		t.Fatal("warm cache recomputed despite a valid disk entry")
	}

	// A different namespace must not see the entry.
	var c3 Cache[diskVal]
	c3.SetDisk(d, "other")
	v, _ = c3.Do("k", func() (diskVal, error) {
		return diskVal{N: 11}, nil
	})
	if v.N != 11 {
		t.Fatalf("namespace isolation: got %+v, want N=11", v)
	}

	// Errors are cached in memory but never written to disk.
	var c4 Cache[diskVal]
	c4.SetDisk(d, "errs")
	if _, err := c4.Do("bad", func() (diskVal, error) {
		return diskVal{}, fmt.Errorf("boom")
	}); err == nil {
		t.Fatal("error compute reported success")
	}
	var c5 Cache[diskVal]
	c5.SetDisk(d, "errs")
	v, err = c5.Do("bad", func() (diskVal, error) {
		return diskVal{N: 3}, nil
	})
	if err != nil || v.N != 3 {
		t.Fatalf("error must not persist: v=%+v err=%v", v, err)
	}
}

// TestDiskUnfingerprintableBypass pins the FDO-style contract: callers
// with no stable fingerprint never enter Cache.Do, so a cache bound to a
// store writes nothing for them. Modeled directly: only Do traffic can
// reach disk, so a store that stays empty after uncached work proves the
// bypass.
func TestDiskUnfingerprintableBypass(t *testing.T) {
	d, err := OpenDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var c Cache[diskVal]
	c.SetDisk(d, "ns")
	// The FDO path: measured directly, not routed through c.Do.
	uncachedMeasure := func() diskVal { return diskVal{N: 1} }
	_ = uncachedMeasure()
	if n := len(diskSegments(t, d)); n != 0 {
		t.Fatalf("bypassed measurement left %d segments", n)
	}
}

// helperKey/helperDir drive TestDiskConcurrentProcesses' re-exec.
var (
	helperMode = flag.String("disk-helper", "", "internal: run as disk cache helper process")
	helperDir  = flag.String("disk-helper-dir", "", "internal: helper cache dir")
)

// TestHelperProcess is re-executed by TestDiskConcurrentProcesses as a
// separate OS process sharing the cache directory. It hammers the same
// key space with Put/Get and prints CORRUPT if any Get returns a
// mangled value.
func TestHelperProcess(t *testing.T) {
	if *helperMode == "" {
		t.Skip("not in helper mode")
	}
	d, err := OpenDisk(*helperDir)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 40; round++ {
		for k := 0; k < 8; k++ {
			key := fmt.Sprintf("shared-%d", k)
			want := diskVal{N: int64(k), S: strings.Repeat("v", 256+k)}
			d.Put(key, want)
			var got diskVal
			if d.Get(key, &got) && got != want {
				fmt.Println("CORRUPT", key)
				t.Fatalf("torn read: got %+v", got)
			}
		}
	}
	fmt.Println("HELPER_OK", *helperMode)
}

// TestDiskConcurrentProcesses runs two real OS processes against one
// cache directory; the rename discipline must keep every read either a
// miss or a complete, checksummed value.
func TestDiskConcurrentProcesses(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes")
	}
	dir := t.TempDir()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	outs := make([]string, 2)
	errs := make([]error, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cmd := exec.Command(exe,
				"-test.run", "TestHelperProcess", "-test.v",
				"-disk-helper", fmt.Sprintf("p%d", i),
				"-disk-helper-dir", dir)
			out, err := cmd.CombinedOutput()
			outs[i], errs[i] = string(out), err
		}(i)
	}
	wg.Wait()
	for i := 0; i < 2; i++ {
		if errs[i] != nil || strings.Contains(outs[i], "CORRUPT") ||
			!strings.Contains(outs[i], "HELPER_OK") {
			t.Fatalf("helper %d failed: err=%v\n%s", i, errs[i], outs[i])
		}
	}
	// Both processes used the same executable, hence the same tool ID:
	// the survivors must all be readable now.
	d, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 8; k++ {
		var got diskVal
		want := diskVal{N: int64(k), S: strings.Repeat("v", 256+k)}
		if !d.Get(fmt.Sprintf("shared-%d", k), &got) {
			t.Fatalf("shared-%d missing after both processes wrote it", k)
		}
		if got != want {
			t.Fatalf("shared-%d: got %+v", k, got)
		}
	}
}
