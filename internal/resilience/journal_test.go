package resilience

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// writeJournalFile writes raw journal bytes for crash-shape tests.
func writeJournalFile(t *testing.T, path, body string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
}

func mustResume(t *testing.T, path string) *Journal {
	t.Helper()
	j, err := ResumeJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	return j
}

// TestResumeRewritesUnterminatedFinalRecord locks the fix for the
// lost-checkpoint bug: a final record that parses but lacks its newline
// (a crash exactly between record and terminator) was kept in memory but
// truncated from disk, so a resumed process that never re-appended that
// key silently dropped a completed cell from the durable file. Resume
// must re-write the record (with newline) immediately after truncating.
func TestResumeRewritesUnterminatedFinalRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	writeJournalFile(t, path,
		`{"key":"a","status":"ok","value":1}`+"\n"+
			`{"key":"b","status":"ok","value":2}`) // no trailing newline

	j := mustResume(t, path)
	if _, ok := j.Lookup("b"); !ok {
		t.Fatal("parseable unterminated record not loaded")
	}
	// Close WITHOUT appending anything: the pre-fix journal leaves "b"
	// truncated away at this point.
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(string(data), "\n") {
		t.Fatalf("journal does not end in a newline after resume: %q", data)
	}
	j2 := mustResume(t, path)
	defer j2.Close()
	rec, ok := j2.Lookup("b")
	if !ok {
		t.Fatal("record b lost: resume truncated it without re-writing")
	}
	var v int
	if err := json.Unmarshal(rec.Value, &v); err != nil || v != 2 {
		t.Fatalf("record b value = %s, want 2", rec.Value)
	}
	if _, ok := j2.Lookup("a"); !ok {
		t.Fatal("record a lost")
	}
}

// TestResumeReadsThroughLockedDescriptor locks the fix for the
// read-aside bug: resume used to os.ReadFile the path separately from
// the descriptor it would then truncate, so it could load a stale
// snapshot while a live journal was still appending — and truncate away
// records it never saw. Post-fix, resume blocks on the file lock until
// the live journal closes and reads through the same descriptor, so it
// must observe every appended record. (flock attaches to the open file
// description, so two opens conflict even within one process.)
func TestResumeReadsThroughLockedDescriptor(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	j1, err := CreateJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j1.Append(Record{Key: "early", Status: StatusOK}); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		time.Sleep(150 * time.Millisecond)
		if err := j1.Append(Record{Key: "late", Status: StatusOK}); err != nil {
			t.Error(err)
		}
		j1.Close()
	}()

	// Blocks until j1 releases the lock; must then see both records.
	j2 := mustResume(t, path)
	defer j2.Close()
	<-done
	if _, ok := j2.Lookup("early"); !ok {
		t.Fatal("record appended before resume is missing")
	}
	if _, ok := j2.Lookup("late"); !ok {
		t.Fatal("resume read a stale snapshot: record appended while it waited is missing")
	}
}

// TestCreateJournalRefusesLiveJournal locks the fix for the O_TRUNC
// clobber bug: CreateJournal used to truncate unconditionally, so two
// processes pointed at the same -journal path silently destroyed each
// other's checkpoints. Creation must fail with the typed ErrJournalLive
// while another journal holds the file, leave its contents intact, and
// succeed again once the holder closes.
func TestCreateJournalRefusesLiveJournal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	j1, err := CreateJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j1.Append(Record{Key: "precious", Status: StatusOK}); err != nil {
		t.Fatal(err)
	}

	if _, err := CreateJournal(path); !errors.Is(err, ErrJournalLive) {
		t.Fatalf("second CreateJournal on a live journal: err = %v, want ErrJournalLive", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "precious") {
		t.Fatalf("refused create still clobbered the live journal: %q", data)
	}
	if err := j1.Close(); err != nil {
		t.Fatal(err)
	}

	// With the holder gone, create (and its truncate) is legitimate.
	j2, err := CreateJournal(path)
	if err != nil {
		t.Fatalf("CreateJournal after holder closed: %v", err)
	}
	defer j2.Close()
	if j2.Len() != 0 {
		t.Fatalf("fresh journal has %d records, want 0", j2.Len())
	}
}

var crashJournal = flag.String("crash-journal", "",
	"internal: run as the kill -9 drill's journal writer on this path")

// crashCells is the drill's matrix; the helper finishes crashDone of them.
const crashCells, crashDone = 5, 2

func crashValue(key string) string { return "value-of-" + key }

// TestJournalCrashHelper is re-executed as a separate OS process by
// TestJournalKillNineResume. It journals the first crashDone cells
// through Run, then announces readiness from inside the next cell and
// hangs there until the parent kills it with SIGKILL.
func TestJournalCrashHelper(t *testing.T) {
	if *crashJournal == "" {
		t.Skip("not in helper mode")
	}
	j, err := CreateJournal(*crashJournal)
	if err != nil {
		t.Fatal(err)
	}
	ex := NewExecutor(fastPolicy(0))
	ex.Journal = j
	for k := 0; k < crashCells; k++ {
		key := fmt.Sprintf("cell-%d", k)
		Run(ex, context.Background(), key, func(context.Context) (string, error) {
			if k == crashDone {
				fmt.Println("CRASH_READY")
				os.Stdout.Sync()
				time.Sleep(time.Minute) // killed long before this returns
			}
			return crashValue(key), nil
		})
	}
	t.Fatal("helper was not killed")
}

// TestJournalKillNineResume is the crash drill behind `-journal` +
// kill -9 + `-resume`: a process journals two of five cells and is
// killed -9 mid-cell, and a torn final record is appended the way a
// kill mid-write leaves one. Resuming must not wait on the dead
// process's lock, must discard the torn record, must replay the two
// finished cells without running them and compute the other three, and
// must leave five terminated ok records.
func TestJournalKillNineResume(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a process")
	}
	path := filepath.Join(t.TempDir(), "run.jsonl")
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, "-test.run", "^TestJournalCrashHelper$", "-crash-journal", path)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	ready := false
	for sc := bufio.NewScanner(stdout); sc.Scan(); {
		if strings.Contains(sc.Text(), "CRASH_READY") {
			ready = true
			break
		}
	}
	cmd.Process.Kill() // SIGKILL: no deferred cleanup; the flock dies with the process
	cmd.Wait()
	if !ready {
		t.Fatal("helper never reached CRASH_READY")
	}

	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"key":"cell-2","status":"ok","val`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	type opened struct {
		j   *Journal
		err error
	}
	ch := make(chan opened, 1)
	go func() {
		j, err := ResumeJournal(path)
		ch <- opened{j, err}
	}()
	var j *Journal
	select {
	case o := <-ch:
		if o.err != nil {
			t.Fatal(o.err)
		}
		j = o.j
	case <-time.After(10 * time.Second):
		t.Fatal("ResumeJournal blocked on the killed process's lock")
	}
	if !j.Torn() {
		t.Fatal("torn final record not reported")
	}
	ex := NewExecutor(fastPolicy(0))
	ex.Journal = j
	computed := 0
	for k := 0; k < crashCells; k++ {
		key := fmt.Sprintf("cell-%d", k)
		v, err := Run(ex, context.Background(), key, func(context.Context) (string, error) {
			computed++
			return crashValue(key), nil
		})
		if err != nil || v != crashValue(key) {
			t.Fatalf("%s = %q, %v", key, v, err)
		}
	}
	if computed != crashCells-crashDone {
		t.Fatalf("resume computed %d cells, want %d", computed, crashCells-crashDone)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasSuffix(data, []byte("\n")) {
		t.Fatalf("journal ends in an unterminated record: %q", data)
	}
	lines := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	keys := map[string]bool{}
	for _, line := range lines {
		var rec Record
		if err := json.Unmarshal([]byte(line), &rec); err != nil || rec.Status != StatusOK {
			t.Fatalf("journal line %q: status %q, err %v", line, rec.Status, err)
		}
		keys[rec.Key] = true
	}
	if len(lines) != crashCells || len(keys) != crashCells {
		t.Fatalf("journal holds %d records over %d keys, want %d ok records:\n%s",
			len(lines), len(keys), crashCells, data)
	}
}
