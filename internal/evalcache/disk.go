// Disk is the persistent level of the evaluation cache: a
// content-addressed store of JSON-encoded measurement results under a
// cache directory (default ~/.cache/debugtuner, overridable). The VM is
// cycle-exact and builds are deterministic, so a result keyed by
// (tool identity × store format × subject source hash × config
// fingerprint) is valid for as long as the key matches — across
// processes and machine reboots.
//
// Layout: each writing process appends its records to one segment of
// its own, <dir>/<tool>-<pid>-<n>.seg, one JSON envelope and a newline
// per record. A process reads every segment of its tool once, at its
// first Get or Put, and indexes the records by key hash; it sees what
// was on disk then plus its own writes, and never re-scans.
//
// Robustness contract: the store is best-effort and self-healing. A
// newline-terminated record that fails verification (envelope parse,
// format version, tool, checksum over key and value) is a miss; the
// process that finds it rewrites that segment without it (temp file
// plus rename), and the caller recomputes and rewrites the value. An
// unterminated tail — a crash's torn record or a live writer's next
// one — is a miss and is left in place. Get checks the key echo, so a
// hash collision reads as a miss, never as another key's value.
package evalcache

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"

	"debugtuner/internal/telemetry"
)

// diskFormatVersion is the on-disk envelope format. Bump it whenever
// the envelope or value encoding changes shape; old records then read
// as misses and are dropped, never misparsed.
const diskFormatVersion = 2

// envelope is one stored record. Key is echoed so a key-hash collision
// in the index reads as a miss, and Sum covers key and value bytes, so
// a record altered in either reads as corrupt.
type envelope struct {
	Version int             `json:"v"`
	Tool    string          `json:"tool"`
	Key     string          `json:"key"`
	Sum     string          `json:"sum"`
	Value   json.RawMessage `json:"val"`
}

// Disk is a handle on one cache directory. The zero value is not
// usable; OpenDisk validates the directory. A nil *Disk is a valid
// always-miss store, so callers can thread an optional cache without
// nil checks.
type Disk struct {
	dir string
	// tool identifies the producing binary (hash of the executable).
	// Results depend on the whole toolchain — a pass-pipeline change
	// alters measurements without changing any fingerprint — so records
	// written by a different build of the tool must read as misses.
	tool string

	// mu guards the fields below.
	mu sync.Mutex
	// index maps a key hash to the newest verified record of the key;
	// nil until the first Get or Put reads the directory.
	index map[uint64]recLoc
	segs  []segment
	// w is this process's segment, open for appending and last in segs;
	// nil before the first Put and after a failed write. wend is its
	// length.
	w    *os.File
	wend int64
	// seq is the next <n> to try when claiming a segment name.
	seq int
}

// segment is a file the index points into: a segment read at the first
// access keeps its bytes; one this process writes is read back from its
// file.
type segment struct {
	data []byte
	f    *os.File
}

// recLoc locates one record, without its trailing newline. It is kept
// small: the index holds one per stored key.
type recLoc struct {
	seg, n int32
	off    int64
}

// OpenDisk opens (creating if needed) a cache directory. An empty dir
// selects the default: $DEBUGTUNER_CACHE_DIR, else ~/.cache/debugtuner
// (via os.UserCacheDir). It fails when the running executable cannot be
// hashed, since records are only valid for the build that wrote them.
func OpenDisk(dir string) (*Disk, error) {
	if dir == "" {
		dir = os.Getenv("DEBUGTUNER_CACHE_DIR")
	}
	if dir == "" {
		base, err := os.UserCacheDir()
		if err != nil {
			return nil, fmt.Errorf("evalcache: no cache dir: %w", err)
		}
		dir = filepath.Join(base, "debugtuner")
	}
	tool, err := toolID()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("evalcache: %w", err)
	}
	return &Disk{dir: dir, tool: tool}, nil
}

// Dir returns the store's directory.
func (d *Disk) Dir() string {
	if d == nil {
		return ""
	}
	return d.dir
}

// toolIDCache memoizes the executable hash (it cannot change mid-run).
var toolIDCache atomic.Pointer[string]

// executable locates the running binary; tests replace it.
var executable = os.Executable

// toolID hashes the running executable. Any rebuild of the tool — new
// passes, new cost model, new store semantics — yields a new ID and
// therefore a cold cache, which is the only safe default.
func toolID() (string, error) {
	if p := toolIDCache.Load(); p != nil {
		return *p, nil
	}
	exe, err := executable()
	if err != nil {
		return "", fmt.Errorf("evalcache: tool identity: %w", err)
	}
	f, err := os.Open(exe)
	if err != nil {
		return "", fmt.Errorf("evalcache: tool identity: %w", err)
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", fmt.Errorf("evalcache: tool identity: reading %s: %w", exe, err)
	}
	id := hex.EncodeToString(h.Sum(nil))[:16]
	toolIDCache.Store(&id)
	return id, nil
}

// fnv64 folds s into the FNV-1a 64 hash h.
func fnv64[T string | []byte](h uint64, s T) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

const fnvOffset64 = 14695981039346656037

func keyHash(key string) uint64 { return fnv64(fnvOffset64, key) }

// recordSum checksums a record's key and value bytes.
func recordSum(key string, val []byte) string {
	return fmt.Sprintf("%016x", fnv64(fnv64(fnv64(fnvOffset64, key), "\n"), val))
}

// decode parses and verifies one record of this tool.
func (d *Disk) decode(rec []byte, env *envelope) bool {
	return json.Unmarshal(rec, env) == nil &&
		env.Version == diskFormatVersion &&
		env.Tool == d.tool &&
		env.Sum == recordSum(env.Key, env.Value)
}

// Get loads the record for key into out (a JSON-decodable pointer) and
// reports whether a valid record was found.
func (d *Disk) Get(key string, out any) bool {
	if d == nil {
		return false
	}
	var env envelope
	rec := d.lookup(key)
	if rec == nil || !d.decode(rec, &env) || env.Key != key || json.Unmarshal(env.Value, out) != nil {
		telemetry.Add("diskcache.miss", 1)
		return false
	}
	telemetry.Add("diskcache.hit", 1)
	return true
}

// lookup returns the bytes of key's indexed record, or nil.
func (d *Disk) lookup(key string) []byte {
	d.mu.Lock()
	d.load()
	l, ok := d.index[keyHash(key)]
	var s segment
	if ok {
		s = d.segs[l.seg]
	}
	d.mu.Unlock()
	if !ok {
		return nil
	}
	if s.f == nil {
		return s.data[l.off : l.off+int64(l.n)]
	}
	rec := make([]byte, l.n)
	if _, err := s.f.ReadAt(rec, l.off); err != nil {
		return nil
	}
	return rec
}

// Put stores the value for key. Best-effort: failures are counted, not
// returned — the cache never turns a successful measurement into an
// error.
func (d *Disk) Put(key string, val any) { d.put(key, val) }

// put appends val's record to this process's segment and reports
// whether it was written.
func (d *Disk) put(key string, val any) bool {
	if d == nil {
		return false
	}
	vb, err := json.Marshal(val)
	if err != nil {
		telemetry.Add("diskcache.write_err", 1)
		return false
	}
	rec, err := json.Marshal(&envelope{
		Version: diskFormatVersion,
		Tool:    d.tool,
		Key:     key,
		Sum:     recordSum(key, vb),
		Value:   vb,
	})
	if err != nil {
		telemetry.Add("diskcache.write_err", 1)
		return false
	}
	rec = append(rec, '\n')
	d.mu.Lock()
	defer d.mu.Unlock()
	d.load()
	if d.w == nil {
		f, err := d.claim()
		if err != nil {
			telemetry.Add("diskcache.write_err", 1)
			return false
		}
		d.segs = append(d.segs, segment{f: f})
		d.w, d.wend = f, 0
	}
	if _, err := d.w.Write(rec); err != nil {
		// Whatever part of the record reached the file is an
		// unterminated tail: the next record goes to a fresh segment,
		// never after it. The file stays open for the records before it.
		d.w = nil
		telemetry.Add("diskcache.write_err", 1)
		return false
	}
	d.index[keyHash(key)] = recLoc{seg: int32(len(d.segs) - 1), n: int32(len(rec) - 1), off: d.wend}
	d.wend += int64(len(rec))
	telemetry.Add("diskcache.write", 1)
	return true
}

// claim creates a fresh segment of this process, exclusively, so it
// never appends to a file another process wrote.
func (d *Disk) claim() (*os.File, error) {
	for {
		name := filepath.Join(d.dir, fmt.Sprintf("%s-%d-%d.seg", d.tool, os.Getpid(), d.seq))
		d.seq++
		f, err := os.OpenFile(name, os.O_RDWR|os.O_APPEND|os.O_CREATE|os.O_EXCL, 0o644)
		if !errors.Is(err, fs.ErrExist) {
			return f, err
		}
	}
}

// load reads and indexes every segment of this tool, once. Other
// tools' segments and files of older layouts are never read.
func (d *Disk) load() {
	if d.index != nil {
		return
	}
	d.index = map[uint64]recLoc{}
	ents, _ := os.ReadDir(d.dir) // an unreadable directory is an empty store
	for _, e := range ents {
		name := e.Name()
		if !strings.HasPrefix(name, d.tool+"-") || !strings.HasSuffix(name, ".seg") {
			continue
		}
		path := filepath.Join(d.dir, name)
		data, err := os.ReadFile(path)
		if err != nil {
			continue
		}
		d.segs = append(d.segs, segment{data: data})
		var keep []byte // the verified records, kept only once one failed
		off, bad := 0, false
		for {
			n := bytes.IndexByte(data[off:], '\n')
			if n < 0 {
				break
			}
			var env envelope
			if d.decode(data[off:off+n], &env) {
				d.index[keyHash(env.Key)] = recLoc{seg: int32(len(d.segs) - 1), n: int32(n), off: int64(off)}
				if bad {
					keep = append(keep, data[off:off+n+1]...)
				}
			} else {
				telemetry.Add("diskcache.corrupt", 1)
				if !bad {
					bad, keep = true, append([]byte(nil), data[:off]...)
				}
			}
			off += n + 1
		}
		if bad {
			heal(path, append(keep, data[off:]...))
		}
	}
}

// heal replaces a segment with the given bytes — its verified records
// and its unterminated tail — through a temp file renamed over it, so a
// reader sees the old segment or the new one, never a prefix.
func heal(path string, keep []byte) {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, keep, 0o644); err != nil || os.Rename(tmp, path) != nil {
		os.Remove(tmp)
	}
}

// defaultDisk is the process-wide store bound by SetDefaultDisk
// (normally from the -cachedir flag) and consumed by the measurement
// layers (tuner, specsuite) when they construct their caches.
var defaultDisk atomic.Pointer[Disk]

// SetDefaultDisk installs the process-wide persistent store (nil
// disables persistence).
func SetDefaultDisk(d *Disk) { defaultDisk.Store(d) }

// DefaultDisk returns the process-wide persistent store, or nil.
func DefaultDisk() *Disk { return defaultDisk.Load() }
