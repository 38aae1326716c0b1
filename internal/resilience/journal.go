package resilience

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
)

// Record statuses.
const (
	// StatusOK marks a completed cell; Value carries its JSON result.
	StatusOK = "ok"
	// StatusQuarantined marks a cell that exhausted its retries. Resumed
	// runs rerun these cells (the environment — or the chaos flags — may
	// have changed).
	StatusQuarantined = "quarantined"
)

// ErrJournalLive is wrapped by CreateJournal when the target file is
// advisorily locked by a live journal — truncating another process's
// checkpoints would silently destroy its run, so the caller must pick a
// different path (or resume instead).
var ErrJournalLive = errors.New("journal is held by a live process")

// Record is one journal line. Keys are config fingerprint × subject
// hash, so a journal written by one process addresses the same cells in
// any other build of the same matrix.
type Record struct {
	Key      string          `json:"key"`
	Status   string          `json:"status"`
	Attempts int             `json:"attempts,omitempty"`
	Kind     string          `json:"kind,omitempty"`
	Pass     string          `json:"pass,omitempty"`
	Error    string          `json:"error,omitempty"`
	Value    json.RawMessage `json:"value,omitempty"`
}

// Journal is an append-only JSONL checkpoint file. Every Append is
// fsynced before returning, so a killed process loses at most the
// record being written — and that half-written line is detected and
// discarded on resume. Records are unordered (pool workers append as
// cells complete); the last record per key wins.
type Journal struct {
	mu   sync.Mutex
	f    *os.File
	seen map[string]Record
	torn bool
	// pending is a final record that parsed but lacked its newline (a
	// crash exactly between record and terminator): load truncates the
	// file to the record's start, and resume must re-write it immediately
	// — otherwise a process that exits without re-appending that key has
	// silently dropped a completed cell from the durable file.
	pending *Record
}

// CreateJournal starts a fresh journal at path: the run records cells
// but consults nothing. The journal holds an advisory exclusive lock for
// its lifetime, and creation refuses — with a typed ErrJournalLive —
// to truncate a file another live journal holds, so two processes
// pointed at the same -journal path cannot clobber each other's
// checkpoints.
func CreateJournal(path string) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("resilience: create journal: %w", err)
	}
	locked, err := flockExclusive(f, false)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("resilience: create journal: lock %s: %w", path, err)
	}
	if !locked {
		f.Close()
		return nil, fmt.Errorf("resilience: create journal %s: %w", path, ErrJournalLive)
	}
	// Only truncate once the lock proves no live journal owns the file.
	if err := f.Truncate(0); err != nil {
		f.Close()
		return nil, fmt.Errorf("resilience: create journal: %w", err)
	}
	if _, err := f.Seek(0, 0); err != nil {
		f.Close()
		return nil, fmt.Errorf("resilience: create journal: %w", err)
	}
	return &Journal{f: f, seen: map[string]Record{}}, nil
}

// ResumeJournal opens an existing journal, loads its records (last per
// key wins), discards a torn final record if the previous process died
// mid-write, and positions the file for appending. It blocks until any
// live journal holding the file releases it (normally: until the owning
// process exits).
func ResumeJournal(path string) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("resilience: resume journal: %w", err)
	}
	if _, err := flockExclusive(f, true); err != nil {
		f.Close()
		return nil, fmt.Errorf("resilience: resume journal: lock %s: %w", path, err)
	}
	// Read through the locked descriptor, not the path: a separate
	// os.ReadFile could race a concurrent appender (or a path swap) and
	// the Truncate below would then destroy records we never loaded.
	if _, err := f.Seek(0, 0); err != nil {
		f.Close()
		return nil, fmt.Errorf("resilience: resume journal: %w", err)
	}
	data, err := io.ReadAll(f)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("resilience: resume journal: %w", err)
	}
	j := &Journal{f: f, seen: map[string]Record{}}
	keep, err := j.load(data)
	if err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Truncate(int64(keep)); err != nil {
		f.Close()
		return nil, fmt.Errorf("resilience: resume journal: %w", err)
	}
	if _, err := f.Seek(int64(keep), 0); err != nil {
		f.Close()
		return nil, fmt.Errorf("resilience: resume journal: %w", err)
	}
	if rec := j.pending; rec != nil {
		// The truncation above dropped a record that parsed fine and is
		// in seen; re-write it (with its newline) right now, so the cell
		// stays in the durable file even if this process never appends
		// that key again.
		j.pending = nil
		if err := j.append(*rec); err != nil {
			f.Close()
			return nil, err
		}
	}
	return j, nil
}

// load parses the journal body and returns the byte length of the valid
// prefix to keep. A line that fails to parse is fatal corruption unless
// it is the final, newline-less line of the file — the torn record an
// interrupted write leaves — which is discarded.
func (j *Journal) load(data []byte) (keep int, err error) {
	off := 0
	for off < len(data) {
		nl := bytes.IndexByte(data[off:], '\n')
		line := data[off:]
		terminated := nl >= 0
		if terminated {
			line = data[off : off+nl]
		}
		if len(bytes.TrimSpace(line)) > 0 {
			var rec Record
			if uerr := json.Unmarshal(line, &rec); uerr != nil {
				if !terminated {
					// Torn final record: the write was cut mid-line.
					j.torn = true
					return off, nil
				}
				return 0, fmt.Errorf("resilience: corrupt journal record at byte %d: %v", off, uerr)
			}
			j.seen[rec.Key] = rec
			if !terminated {
				// Final line parsed but carries no newline (e.g. a crash
				// exactly between the record and its terminator): keep
				// the record, truncate from its start, and have resume
				// re-write it immediately so the file stays valid JSONL
				// and the cell survives even if this process never
				// re-appends its key.
				j.pending = &rec
			}
		}
		if !terminated {
			return off, nil
		}
		off += nl + 1
	}
	return off, nil
}

// Torn reports whether a torn final record was discarded on resume.
func (j *Journal) Torn() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.torn
}

// Len returns the number of distinct keys loaded or appended.
func (j *Journal) Len() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.seen)
}

// Lookup returns the last record appended or loaded for key.
func (j *Journal) Lookup(key string) (Record, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	rec, ok := j.seen[key]
	return rec, ok
}

// Append writes one record as a JSON line and fsyncs it.
func (j *Journal) Append(rec Record) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.append(rec)
}

// append is Append without the mutex, for use while the journal is
// still private to its constructor.
func (j *Journal) append(rec Record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("resilience: marshal journal record: %w", err)
	}
	line = append(line, '\n')
	if _, err := j.f.Write(line); err != nil {
		return fmt.Errorf("resilience: append journal record: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("resilience: sync journal: %w", err)
	}
	j.seen[rec.Key] = rec
	return nil
}

// Close closes the underlying file.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.f.Close()
}
