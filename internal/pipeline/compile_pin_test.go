package pipeline

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"debugtuner/internal/codegen"
	"debugtuner/internal/ir"
	"debugtuner/internal/vm"
)

var updateDigests = flag.Bool("update", false,
	"rewrite testdata/compile_digests.txt from the current back end")

const digestFile = "testdata/compile_digests.txt"

// codeDigest hashes everything of a binary but its debug section: the
// instruction stream with line numbers and owner tags, and the function
// and global tables.
func codeDigest(bin *vm.Binary) string {
	h := sha256.New()
	var buf [8]byte
	put := func(x uint64) {
		binary.LittleEndian.PutUint64(buf[:], x)
		h.Write(buf[:])
	}
	for i := range bin.Code {
		in := &bin.Code[i]
		put(uint64(in.Op) | uint64(in.Sub)<<8 | uint64(in.A)<<16 |
			uint64(in.B)<<24 | uint64(in.C)<<32 | uint64(in.D)<<40)
		put(uint64(in.Imm))
		put(uint64(uint32(in.Line)))
		put(uint64(len(in.Own)))
		for _, t := range in.Own {
			pre := uint64(0)
			if t.Pre {
				pre = 1
			}
			put(uint64(uint8(t.Reg)) | uint64(uint32(t.Slot))<<8 | pre<<40)
			put(uint64(uint32(t.Var)))
		}
	}
	for _, f := range bin.Funcs {
		h.Write([]byte(f.Name))
		put(uint64(f.Start))
		put(uint64(f.End))
		put(uint64(f.NumSlots))
		put(uint64(f.NParams))
	}
	for _, g := range bin.Globals {
		h.Write([]byte(g.Name))
		put(uint64(g.Init))
		if g.IsArray {
			put(1)
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// blockShape records each function's block count and block-ID bound.
func blockShape(prog *ir.Program) []int {
	var out []int
	for _, f := range prog.Funcs {
		out = append(out, len(f.Blocks), f.NumBlockIDs())
	}
	return out
}

type suiteSubject struct {
	name string
	ir0  *ir.Program
}

// loadSuite front-ends every test-suite subject, in name order.
func loadSuite(t *testing.T) []suiteSubject {
	t.Helper()
	srcs, err := filepath.Glob("../testsuite/programs/*.mc")
	if err != nil || len(srcs) == 0 {
		t.Fatalf("no test-suite sources: %v", err)
	}
	sort.Strings(srcs)
	var out []suiteSubject
	for _, path := range srcs {
		name := strings.TrimSuffix(filepath.Base(path), ".mc")
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		info, err := Frontend(name+".mc", src)
		if err != nil {
			t.Fatal(err)
		}
		ir0, err := BuildIR(info)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, suiteSubject{name, ir0})
	}
	return out
}

// TestCompileDigestsPinned builds every test-suite subject at O0 and at
// every level of both profiles and compares the SHA-256 of each binary's
// code (owner tags included) and of its debug section with the committed
// list. It also asserts that codegen.Compile leaves its input module
// untouched. Regenerate the list with `go test ./internal/pipeline -run
// TestCompileDigestsPinned -update`; any change to it must be explained.
func TestCompileDigestsPinned(t *testing.T) {
	var got []string
	for _, s := range loadSuite(t) {
		name, ir0 := s.name, s.ir0
		for _, p := range []Profile{GCC, Clang} {
			for _, level := range append([]string{"O0"}, Levels(p)...) {
				cfg, err := NewConfig(p, level)
				if err != nil {
					t.Fatal(err)
				}
				prog, opts := OptimizeIR(ir0, cfg)
				fp, shape := irFingerprint(prog), blockShape(prog)
				bin := codegen.Compile(prog, opts)
				if irFingerprint(prog) != fp || fmt.Sprint(blockShape(prog)) != fmt.Sprint(shape) {
					t.Errorf("%s %s: codegen.Compile modified its input", name, cfg.Name())
				}
				got = append(got, fmt.Sprintf("%s %s %s %x", name, cfg.Name(),
					codeDigest(bin), sha256.Sum256(bin.Debug)))
			}
		}
	}

	if *updateDigests {
		if err := os.WriteFile(digestFile, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(digestFile)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			want = append(want, line)
		}
	}
	if len(want) != len(got) {
		t.Fatalf("%d digests, committed list has %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("digest changed:\n got  %s\n want %s", got[i], want[i])
		}
	}
}
