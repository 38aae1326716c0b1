package evalcache

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// diskEntryFiles lists the entry files currently in the store.
func diskEntryFiles(t *testing.T, d *Disk) []string {
	t.Helper()
	var out []string
	err := filepath.WalkDir(d.Dir(), func(path string, de os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !de.IsDir() && strings.HasSuffix(path, ".json") {
			out = append(out, path)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("walk %s: %v", d.Dir(), err)
	}
	return out
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

// TestDiskVersionMismatch proves a format bump reads as a recompute, not
// a misparse: the entry is rewritten, never trusted.
func TestDiskVersionMismatch(t *testing.T) {
	d, err := OpenDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	d.Put("k", diskVal{N: 7})
	files := diskEntryFiles(t, d)
	if len(files) != 1 {
		t.Fatalf("entry files = %d, want 1", len(files))
	}
	// Rewrite the entry claiming a future format version.
	raw, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	var env envelope
	if err := json.Unmarshal(raw, &env); err != nil {
		t.Fatal(err)
	}
	env.Version = diskFormatVersion + 1
	raw, err = json.Marshal(&env)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(files[0], raw, 0o644); err != nil {
		t.Fatal(err)
	}
	var got diskVal
	if d.Get("k", &got) {
		t.Fatal("Get hit a future-version entry")
	}
	if _, err := os.Stat(files[0]); !os.IsNotExist(err) {
		t.Fatal("mismatched-version entry was not self-healed (deleted)")
	}
	// The slot is reusable: a fresh Put hits again.
	d.Put("k", diskVal{N: 8})
	if !d.Get("k", &got) || got.N != 8 {
		t.Fatalf("rewrite after heal: got %+v, want N=8", got)
	}
}

// TestDiskCorruptEntries proves every corruption mode reads as a miss
// and deletes the bad file instead of crashing or returning junk.
func TestDiskCorruptEntries(t *testing.T) {
	corruptions := map[string]func([]byte) []byte{
		"truncated": func(b []byte) []byte { return b[:len(b)/2] },
		"empty":     func([]byte) []byte { return nil },
		"not-json":  func([]byte) []byte { return []byte("%%%") },
		"bad-sum":   func(b []byte) []byte { return []byte(strings.Replace(string(b), `"sum":"`, `"sum":"0`, 1)) },
		"wrong-key": func(b []byte) []byte {
			var env envelope
			if err := json.Unmarshal(b, &env); err != nil {
				return b
			}
			env.Key = "someone-else"
			out, _ := json.Marshal(&env)
			return out
		},
		"wrong-tool": func(b []byte) []byte {
			var env envelope
			if err := json.Unmarshal(b, &env); err != nil {
				return b
			}
			env.Tool = "0000000000000000"
			out, _ := json.Marshal(&env)
			return out
		},
	}
	for name, corrupt := range corruptions {
		t.Run(name, func(t *testing.T) {
			d, err := OpenDisk(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			d.Put("k", diskVal{N: 9, S: "payload"})
			files := diskEntryFiles(t, d)
			if len(files) != 1 {
				t.Fatalf("entry files = %d, want 1", len(files))
			}
			raw, err := os.ReadFile(files[0])
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(files[0], corrupt(raw), 0o644); err != nil {
				t.Fatal(err)
			}
			var got diskVal
			if d.Get("k", &got) {
				t.Fatal("Get hit a corrupt entry")
			}
			if _, err := os.Stat(files[0]); !os.IsNotExist(err) {
				t.Fatal("corrupt entry was not deleted")
			}
		})
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
	if n := len(diskEntryFiles(t, d)); n != 0 {
		t.Fatalf("bypassed measurement left %d disk entries", n)
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
